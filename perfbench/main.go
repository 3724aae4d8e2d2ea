// Command perfbench is the repository benchmark. It runs one named workload
// through the code path qdcbench sweeps use — exp.Matrix.Expand, exp.Execute
// with one scenario worker, a canonical exp.JSONSink — for a fixed number of
// seconds and prints the end-to-end metrics (--trace 0) or, from a traced
// replica of the same scenarios built out of the layers' public calls, the
// per-layer breakdown (--trace 1). Every pass is checked: scenario verdicts,
// simulated counts against the expected constants, the canonical snapshot
// against its reference, and (traced) the replica against exp.Execute.
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}; every line before it is a
// human-readable report: host stamp, each metric with its unit, each check.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sweep-default --seed 1 --seconds 10 --trace 1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"qdc/internal/exp"
)

// processStart approximates process start: package-level variables of the
// main package are initialised after the runtime and every imported
// package, which together take well under a millisecond.
var processStart = time.Now()

// coldSetups is how many cold set-ups a run times: this process's own and,
// in fresh child processes of the same binary, coldSetups-1 more. setup_s
// is their median. Each attempt starts from a new process, so work that a
// change hoists into process-level state is paid in every attempt.
const coldSetups = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed (the sweep's BaseSeed)")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	setupOnly := fs.Bool("setup-only", false, "run set-up once, print its seconds and exit (the cold set-up attempts of a run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if *setupOnly {
		d, _, err := setUp(w, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
		return 0
	}

	b, err := newBench(w, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, hostStamp())
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.name, *seed, *seconds, *trace)
	b.note("cold set-ups %s", formatWalls(b.setups))
	window := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 0 {
		res = b.measure(window)
	} else {
		res = b.measureTraced(window)
	}
	for _, m := range res.order {
		if v := res.metrics[m].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("metric %s is %g: too few samples in the window", m, v)
			res.set(m, 0, res.metrics[m].Unit)
		}
		fmt.Fprintf(stdout, "metric %-28s %16.6f %s\n", m, res.metrics[m].Value, res.metrics[m].Unit)
	}
	for _, line := range b.report {
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "scenarios attempted %d failed %d fail_ratio %g\n", b.attempted, b.failed, float64(b.failed)/float64(b.attempted))
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0 && b.ok, b.attempted, b.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's metrics, plus the order the report prints them in.
type result struct {
	metrics map[string]metric
	order   []string
}

func (r *result) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// bench is one workload at one seed after set-up, with the reference every
// later pass is checked against and the running failure tally.
type bench struct {
	w    workload
	seed int64
	// refSnapshot is the canonical snapshot every pass must reproduce byte
	// for byte: the tracked baseline file where the workload has one for
	// this seed, otherwise the first warm-up pass's own snapshot.
	refSnapshot []byte
	// ref holds each scenario's record from the first warm-up pass.
	ref map[string]exp.Record
	// size is each scenario's realised node count, Runner.Size().
	size map[string]int

	// setups are the cold set-up attempts; setup is their median.
	setups            []time.Duration
	setup             time.Duration
	attempted, failed int
	ok                bool
	// report holds the check and note lines printed before the result.
	report           []string
	failuresReported int
	// snapshotRef names what refSnapshot came from, for the report.
	snapshotRef string
}

// pass is one untraced iteration: expand, execute, close the sink.
type pass struct {
	wall, expand, exec, sinkClose time.Duration
	records                       []exp.Record
	snapshot                      []byte
	// peakRSS is VmHWM in MiB after the pass, reset just before it.
	peakRSS float64
}

// newBench sets the workload up cold in this process and in fresh child
// processes, then prepares the checks. setup_s stops at the end of the
// warm-up pass: the checks, the other attempts and the realised-size pass
// are the benchmark's own work and stay off its clock.
func newBench(w workload, seed int64) (*bench, error) {
	own, p, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: seed, ok: true, setups: []time.Duration{own}}
	if err := b.adoptReference(p); err != nil {
		return nil, err
	}
	b.checkPass(p)
	for len(b.setups) < coldSetups {
		d, err := coldSetUp(w, seed)
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, d)
	}
	b.setup = medianDuration(b.setups)
	if b.size, err = realisedSizes(w.matrix(seed).Expand()); err != nil {
		return nil, err
	}
	return b, nil
}

// setUp is the set-up a user of the program waits for: process start,
// scenario generation and one untimed warm-up pass. It returns the time
// since process start and the pass.
func setUp(w workload, seed int64) (time.Duration, pass, error) {
	p, err := runPass(w, seed)
	return time.Since(processStart), p, err
}

// coldSetUp runs setUp in a fresh process of this binary and returns the
// time it reports.
func coldSetUp(w workload, seed int64) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("cold set-up process: %w", err)
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("cold set-up process printed %q", out)
	}
	return time.Duration(secs * float64(time.Second)), nil
}

// adoptReference fixes what later passes are checked against.
func (b *bench) adoptReference(p pass) error {
	b.ref = make(map[string]exp.Record, len(p.records))
	for _, r := range p.records {
		b.ref[r.Scenario.Name] = r
	}
	b.refSnapshot, b.snapshotRef = p.snapshot, "the first warm-up pass"
	if b.w.baseline != "" && b.seed == b.w.countSeed {
		b.snapshotRef = b.w.baseline
		data, err := os.ReadFile(b.w.baseline)
		if err != nil {
			return fmt.Errorf("read baseline: %w", err)
		}
		b.refSnapshot = data
	}
	return nil
}

// runPass runs one untraced iteration of the workload.
func runPass(w workload, seed int64) (pass, error) {
	var p pass
	if err := resetPeakRSS(); err != nil {
		return p, fmt.Errorf("reset peak RSS: %w", err)
	}
	start := time.Now()
	scenarios := w.matrix(seed).Expand()
	p.expand = time.Since(start)
	var buf bytes.Buffer
	snap := exp.NewJSONSink(&buf)
	var all exp.Collect
	t := time.Now()
	if _, err := exp.Execute(scenarios, exp.ExecOptions{Workers: 1}, snap, &all); err != nil {
		return p, err
	}
	p.exec = time.Since(t)
	t = time.Now()
	if err := snap.Close(); err != nil {
		return p, fmt.Errorf("close snapshot: %w", err)
	}
	p.sinkClose = time.Since(t)
	p.wall = time.Since(start)
	p.peakRSS = peakRSSMiB()
	p.records = all.Records
	p.snapshot = buf.Bytes()
	return p, nil
}

// checkPass counts the pass's scenarios as attempted and each one that
// failed as failed: an error or timeout, a wrong verdict, or simulated
// counts that differ from the reference pass. A pass whose total counts
// miss the expected constants, or whose canonical snapshot differs from
// the reference bytes, fails as a whole.
func (b *bench) checkPass(p pass) {
	b.attempted += len(p.records)
	bad := 0
	for _, r := range p.records {
		ref, known := b.ref[r.Scenario.Name]
		switch {
		case r.Failed():
			b.fail("scenario %s failed: %s %s", r.Scenario.Name, r.Error, r.Detail)
		case !known || r.Stats != ref.Stats:
			b.fail("scenario %s: stats %+v differ from the reference pass", r.Scenario.Name, r.Stats)
		default:
			continue
		}
		bad++
	}
	if err := b.w.checkCounts(b.seed, p.records); err != nil {
		b.fail("%v", err)
		bad = len(p.records)
	}
	if !bytes.Equal(p.snapshot, b.refSnapshot) {
		b.fail("canonical snapshot differs from the reference (%d vs %d bytes)", len(p.snapshot), len(b.refSnapshot))
		bad = len(p.records)
	}
	b.failed += bad
}

// fail records a failed check; the first few are reported verbatim.
func (b *bench) fail(format string, args ...any) {
	b.ok = false
	if b.failuresReported < 5 {
		b.report = append(b.report, "check FAIL: "+fmt.Sprintf(format, args...))
	}
	b.failuresReported++
}

// e2e collects the end-to-end figures of untraced passes.
type e2e struct {
	walls      []time.Duration
	peakRSS    []float64
	busy       time.Duration
	scenarioMs []float64
	nodeRounds float64
	// expand, execSelf and sinkClose are exp's own time per pass: Expand,
	// Execute wall minus the scenarios' summed WallMillis, and the sink
	// close.
	expand, execSelf, sinkClose []time.Duration
}

// untraced runs, checks and records one untraced pass.
func (b *bench) untraced(e *e2e) bool {
	p, err := runPass(b.w, b.seed)
	if err != nil {
		b.fail("pass: %v", err)
		return false
	}
	b.checkPass(p)
	e.walls = append(e.walls, p.wall)
	e.peakRSS = append(e.peakRSS, p.peakRSS)
	e.busy += p.wall
	var scenarioWall float64
	for _, r := range p.records {
		e.scenarioMs = append(e.scenarioMs, r.WallMillis)
		scenarioWall += r.WallMillis
		e.nodeRounds += float64(b.size[r.Scenario.Name]) * float64(r.Stats.Rounds)
	}
	e.expand = append(e.expand, p.expand)
	e.execSelf = append(e.execSelf, p.exec-time.Duration(scenarioWall*float64(time.Millisecond)))
	e.sinkClose = append(e.sinkClose, p.sinkClose)
	return true
}

// metrics returns the end-to-end metrics (BENCHMARK.json's end_to_end).
func (b *bench) metrics(e *e2e) result {
	var res result
	res.set("setup_s", b.setup.Seconds(), "s")
	res.set("iter_s", medianDuration(e.walls).Seconds(), "s")
	res.set("node_rounds_per_s", e.nodeRounds/e.busy.Seconds(), "1/s")
	res.set("scenario_ms.p50", quantile(e.scenarioMs, 0.50), "ms")
	res.set("peak_rss_mb", quantile(e.peakRSS, 0.5), "MiB")
	return res
}

// measure is the untraced run: passes back to back for the window.
func (b *bench) measure(window time.Duration) result {
	var e e2e
	start := time.Now()
	for len(e.walls) == 0 || time.Since(start) < window {
		if !b.untraced(&e) {
			break
		}
	}
	b.note("untraced passes %d, scenario samples %d, pass walls %s", len(e.walls), len(e.scenarioMs), formatWalls(e.walls))
	b.reportReference()
	return b.metrics(&e)
}

func (b *bench) note(format string, args ...any) {
	b.report = append(b.report, "note "+fmt.Sprintf(format, args...))
}

// reportReference states what every pass was checked against: the
// snapshot reference and the reference pass's simulated counts.
func (b *bench) reportReference() {
	refs := make([]exp.Record, 0, len(b.ref))
	for _, r := range b.ref {
		refs = append(refs, r)
	}
	c := totals(refs)
	status := "not gated at this seed"
	if b.w.gated(b.seed) {
		status = "gated"
	}
	b.report = append(b.report, "check every pass's canonical snapshot against "+b.snapshotRef)
	b.report = append(b.report, fmt.Sprintf("check counts per pass: stages %d rounds %d msgs %d bits %d qubits %d (%s)",
		c.Stages, c.Rounds, c.Messages, c.Bits, c.QuantumBits, status))
}

// tailQuantile is the nearest-rank p99 of xs when at least ten samples lie
// beyond it (1,000 or more samples). A run that samples fewer scenarios —
// the flood workloads sample about ten — has no tail percentile that many
// samples back, so it reports the median instead of what would be the
// slowest sample.
func tailQuantile(xs []float64) float64 {
	if len(xs) >= 1000 {
		return quantile(xs, 0.99)
	}
	return quantile(xs, 0.5)
}

// formatWalls lists pass wall times in seconds, for the report.
func formatWalls(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
