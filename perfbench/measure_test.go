package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // descending: summarize must sort
	}
	return out
}

func TestSummarizeTailRule(t *testing.T) {
	cases := []struct {
		n         int
		p50       float64
		label     string
		value     float64
		beyondMin int
	}{
		{10000, 5000, "p99.9", 9990, 10},
		{1000, 500, "p99", 990, 10},
		{999, 500, "p90", 900, 99}, // p99 leaves only 9 above it
		{100, 50, "p90", 90, 10},
		{99, 50, "", 0, 0}, // p90 leaves only 9 above it
		{1, 1, "", 0, 0},
	}
	for _, c := range cases {
		in := seq(c.n)
		p50, tl := summarize(in)
		if p50 != c.p50 || tl.Label != c.label || tl.Value != c.value || tl.N != c.n {
			t.Errorf("n=%d: got p50=%v %s=%v n=%d, want p50=%v %s=%v", c.n, p50, tl.Label, tl.Value, tl.N, c.p50, c.label, c.value)
		}
		if tl.Label != "" && tl.Beyond < tailMinBeyond {
			t.Errorf("n=%d: %s has %d samples beyond it, want >= %d", c.n, tl.Label, tl.Beyond, tailMinBeyond)
		}
		if in[0] != float64(c.n) {
			t.Errorf("n=%d: summarize reordered its input", c.n)
		}
	}
	if _, tl := summarize(nil); tl.Label != "" || tl.N != 0 {
		t.Errorf("empty input: got %+v", tl)
	}
}

func TestTailString(t *testing.T) {
	_, tl := summarize(seq(1000))
	if got, want := tl.String(), "p99, n=1000, 10 beyond"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd: got %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even: got %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty: got %v", m)
	}
}

func TestSliceRatesAndOverhead(t *testing.T) {
	ss := []slice{
		{Host: time.Second, CPU: time.Second, Blocks: 1000},
		{Host: time.Second, CPU: time.Second, Blocks: 900, Profiled: true},
		{Host: time.Second, CPU: time.Second, Blocks: 1000},
		{Host: time.Second, CPU: time.Second, Blocks: 900, Profiled: true},
		{Host: time.Second, CPU: time.Second, Blocks: 0}, // no blocks: ignored
	}
	bps, cpb := sliceRates(ss, allSlices)
	if bps != 950 || cpb != (1e6/1000+1e6/900)/2 {
		t.Errorf("rates: got %v blocks/s, %v us/block", bps, cpb)
	}
	// Profiled slices delivered 900 blocks/s against 1000 unprofiled.
	if got := traceOverheadPct(ss, false); got < 11.1 || got > 11.2 {
		t.Errorf("host overhead: got %v%%, want 11.1%%", got)
	}
	if got := traceOverheadPct(ss, true); got < 11.1 || got > 11.2 {
		t.Errorf("cpu overhead: got %v%%, want 11.1%%", got)
	}
}

func TestLostFrac(t *testing.T) {
	if got := lostFrac(1000, 5); got != 0.005 {
		t.Errorf("got %v", got)
	}
	if got := lostFrac(0, 0); got != 0 {
		t.Errorf("no blocks due: got %v", got)
	}
}
