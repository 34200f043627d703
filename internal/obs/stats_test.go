package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"tiger/internal/sim"
)

func TestLoadClamps(t *testing.T) {
	if l := Load(0, 2*time.Second, time.Second); l != 1 {
		t.Fatalf("load %v, want clamp to 1", l)
	}
	if l := Load(0, time.Second, 0); l != 0 {
		t.Fatalf("zero window load %v", l)
	}
	if l := Load(time.Second, 3*time.Second, 4*time.Second); l != 0.5 {
		t.Fatalf("load %v, want 0.5", l)
	}
}

func TestLoadClampsExactlyAtOne(t *testing.T) {
	// busy == wall is 100% exactly; a hair over must clamp back to 1.0.
	if l := Load(0, time.Second, time.Second); l != 1 {
		t.Fatalf("load %v, want exactly 1", l)
	}
	if l := Load(0, time.Second+time.Nanosecond, time.Second); l != 1 {
		t.Fatalf("load %v, want clamp to 1", l)
	}
	if l := Load(0, time.Second-time.Nanosecond, time.Second); l >= 1 {
		t.Fatalf("load %v, want < 1", l)
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Max() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty summary should be all zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Count() != 5 || s.Mean() != 3 || s.Max() != 5 {
		t.Fatalf("stats: count=%d mean=%v max=%v", s.Count(), s.Mean(), s.Max())
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("median %v", q)
	}
	if q := s.Quantile(1); q != 5 {
		t.Fatalf("p100 %v", q)
	}
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("p0 %v", q)
	}
}

func TestSummaryAddAfterQuantile(t *testing.T) {
	var s Summary
	s.Add(10)
	_ = s.Quantile(0.5)
	s.Add(1) // must re-sort lazily
	if q := s.Quantile(0); q != 1 {
		t.Fatalf("p0 after re-add %v", q)
	}
}

func TestSummaryDuration(t *testing.T) {
	var s Summary
	s.AddDuration(1500 * time.Millisecond)
	if s.Mean() != 1.5 {
		t.Fatalf("mean %v", s.Mean())
	}
}

func TestQuickQuantileWithinRange(t *testing.T) {
	f := func(vals []float64, pRaw uint8) bool {
		var s Summary
		ok := true
		for _, v := range vals {
			if math.IsNaN(v) {
				ok = false
			}
			s.Add(v)
		}
		if !ok || len(vals) == 0 {
			return true
		}
		p := float64(pRaw) / 255
		q := s.Quantile(p)
		sorted := append([]float64{}, vals...)
		sort.Float64s(sorted)
		return q >= sorted[0] && q <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileDoesNotReorderValues(t *testing.T) {
	// Regression: Quantile used to sort the sample slice in place, so
	// anything reading the raw samples interleaved with Quantile calls
	// could observe a reordered — or mid-sort — slice.
	var s Summary
	in := []float64{5, 1, 4, 2, 3}
	for _, v := range in {
		s.Add(v)
	}
	if q := s.Quantile(0.5); q != 3 {
		t.Fatalf("median %v", q)
	}
	for i, v := range in {
		if s.vals[i] != v {
			t.Fatalf("Quantile reordered samples: got %v, want %v", s.vals, in)
		}
	}
	// Interleaved Add invalidates the cached order.
	s.Add(0)
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("p0 after interleaved Add = %v, want 0", q)
	}
	if s.vals[len(s.vals)-1] != 0 {
		t.Fatalf("insertion order lost: %v", s.vals)
	}
}

func TestLossLog(t *testing.T) {
	var l LossLog
	if l.Total() != 0 || l.LossSpan() != 0 || l.Rate(100) != 0 {
		t.Fatal("empty loss log not zero")
	}
	l.RecordServerMiss(sim.Time(5 * time.Second))
	l.RecordClientMiss(sim.Time(2 * time.Second))
	l.RecordServerMiss(sim.Time(9 * time.Second))
	if l.ServerMissed != 2 || l.ClientMissed != 1 || l.Total() != 3 {
		t.Fatalf("counts server=%d client=%d", l.ServerMissed, l.ClientMissed)
	}
	// §5's reconfiguration metric: earliest to latest lost block.
	if l.LossSpan() != 7*time.Second {
		t.Fatalf("span %v", l.LossSpan())
	}
	if r := l.Rate(300); r != 100 {
		t.Fatalf("rate %v, want 1 in 100", r)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, v := range []float64{
		0.005, // bucket 0
		0.01,  // bucket 0 (bounds are inclusive)
		0.05,  // bucket 1
		0.5,   // bucket 2
		3,     // overflow bucket
	} {
		h.Observe(v)
	}
	counts, sum, n := h.snapshot()
	if n != 5 || h.Count() != 5 {
		t.Fatalf("count %d", n)
	}
	if h.Max() != 3 {
		t.Fatalf("max %v", h.Max())
	}
	if h.Mean() != sum/5 {
		t.Fatalf("mean %v, want %v", h.Mean(), sum/5)
	}
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d count %d, want %d", i, counts[i], w)
		}
	}
	// Snapshots are copies.
	counts[0] = 99
	if c, _, _ := h.snapshot(); c[0] != 2 {
		t.Fatal("snapshot exposed internal state")
	}
	// A registry exports the very histogram it is handed.
	r := NewRegistry()
	if got := r.AddHistogram("tiger_test_seconds", "", nil, h); got != h {
		t.Fatal("AddHistogram did not export the given histogram")
	}
	if got := r.Histogram("tiger_test_seconds", "", nil, []float64{1}); got != h {
		t.Fatal("re-registration returned a different histogram")
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds accepted")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestHistogramOverflowBoundary(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(1)                    // inclusive upper bound: in-range
	h.Observe(math.Nextafter(1, 2)) // one past the bound: overflow
	h.Observe(3600)                 // deep overflow
	counts, _, _ := h.snapshot()
	if counts[0] != 1 {
		t.Fatalf("bound bucket %d, want 1 (upper bounds are inclusive)", counts[0])
	}
	if counts[1] != 2 {
		t.Fatalf("overflow bucket %d, want 2", counts[1])
	}
	if h.Max() != 3600 {
		t.Fatalf("max %v", h.Max())
	}
}
