package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostStamp names what the numbers were measured on: GOMAXPROCS, CPU
// count and model, Go version, and the commit run.sh passes in
// (PERFBENCH_COMMIT; "unknown" outside a git work tree).
func hostStamp() string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("host GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), commit)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS lowers the process's resident-set high-water mark (VmHWM)
// to its current resident set (Linux 4.0 and later), so that the next
// peakRSSMiB reads the peak since the reset. Neither call stops the world.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("5")); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func medianDuration(ds []time.Duration) time.Duration {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d)
	}
	return time.Duration(quantile(s, 0.5))
}
