package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB returns the process's peak resident set size in MiB
// (Linux reports ru_maxrss in KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gcCPU reads the runtime's estimate of the CPU time spent in garbage
// collection so far.
func gcCPU() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// tail is a timing percentile chosen by the tail rule: the highest of
// p90, p99 and p99.9 that still has at least tailMinBeyond samples
// above it.
type tail struct {
	Label  string  // "p90", "p99", "p99.9"; "" when no percentile qualifies
	Value  float64 // the percentile's value
	N      int     // sample count
	Beyond int     // samples ranked above the percentile
}

const tailMinBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// and the number of samples ranked above it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// summarize returns the median and the tail-rule percentile of samples.
// samples is not modified.
func summarize(samples []float64) (p50 float64, t tail) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	p50, _ = percentile(s, 0.5)
	t.N = len(s)
	for _, q := range []struct {
		label string
		p     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		v, beyond := percentile(s, q.p)
		if beyond >= tailMinBeyond {
			t.Label, t.Value, t.Beyond = q.label, v, beyond
			return p50, t
		}
	}
	return p50, t
}

func (t tail) String() string {
	if t.Label == "" {
		return fmt.Sprintf("no percentile has %d samples beyond it (n=%d)", tailMinBeyond, t.N)
	}
	return fmt.Sprintf("%s, n=%d, %d beyond", t.Label, t.N, t.Beyond)
}

// median returns the middle value of xs (mean of the middle two for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// slice is one measured piece of a window. Rates are taken per slice and
// reported as medians, so one slow slice (a noisy neighbour, a GC cycle
// landing badly) moves the result less than it would move a total.
type slice struct {
	Host     time.Duration
	CPU      time.Duration
	GC       time.Duration // the runtime's estimate of GC CPU
	Mallocs  uint64        // heap allocations (simulator only)
	Blocks   int64         // on-time block deliveries
	Profiled bool          // the CPU profiler ran during this slice (traced runs only)
}

// sum adds up the slices.
func sum(ss []slice) slice {
	var t slice
	for _, s := range ss {
		t.Host += s.Host
		t.CPU += s.CPU
		t.GC += s.GC
		t.Mallocs += s.Mallocs
		t.Blocks += s.Blocks
	}
	return t
}

// sliceRates returns the median blocks per host second and CPU
// microseconds per block over the slices selected by keep.
func sliceRates(ss []slice, keep func(slice) bool) (blocksPerSec, cpuUsPerBlock float64) {
	var bps, cpb []float64
	for _, s := range ss {
		if !keep(s) || s.Blocks == 0 || s.Host <= 0 {
			continue
		}
		bps = append(bps, float64(s.Blocks)/s.Host.Seconds())
		cpb = append(cpb, s.CPU.Seconds()*1e6/float64(s.Blocks))
	}
	return median(bps), median(cpb)
}

func allSlices(slice) bool { return true }

// traceOverheadPct compares the per-block cost of profiled and
// unprofiled slices of a traced run. cost picks the per-block cost: host
// time for the simulator, CPU for the real-time runtime (whose
// throughput is fixed by the clock).
func traceOverheadPct(ss []slice, useCPU bool) float64 {
	on := func(s slice) bool { return s.Profiled }
	off := func(s slice) bool { return !s.Profiled }
	if useCPU {
		_, a := sliceRates(ss, on)
		_, b := sliceRates(ss, off)
		if b == 0 {
			return 0
		}
		return (a/b - 1) * 100
	}
	a, _ := sliceRates(ss, on)
	b, _ := sliceRates(ss, off)
	if a == 0 {
		return 0
	}
	return (b/a - 1) * 100
}
