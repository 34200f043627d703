// Package obs is the unified observability layer for Tiger: a
// dependency-free metrics registry with named, labelled instruments
// (counters, gauges, bounded histograms), a Prometheus-text-format
// encoder for tigerd's /metrics endpoint, a JSONL snapshot export for
// machine-readable run artifacts, a block-lifecycle span recorder
// (span.go), and the plain accumulators experiments read directly
// (stats.go: Summary, LossLog, Load).
//
// All instruments are safe for concurrent use: the simulator drives
// them from one goroutine, but under the rt runtime every cub's
// executor fires in parallel with the HTTP scrape handler. Counters and
// gauges are lock-free atomics so the protocol hot path pays one CAS
// per event; histograms take a short mutex.
//
// Timestamps flowing into the registry are sim.Time values obtained
// from an internal/clock Clock, so the same series carry virtual time
// when recorded under the simulator and wall-clock time under rt —
// which substrate produced a snapshot is part of the run's metadata,
// not of the encoding.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimensions to an instrument (for example
// {"cub": "3", "disk": "12"}). Instruments with the same name must be
// registered with the same label keys.
type Labels map[string]string

// kind is the Prometheus metric type of a family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Counter is a monotonically increasing float64, lock-free.
type Counter struct{ bits atomic.Uint64 }

// Add increases the counter by v (v must be >= 0).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous float64 value, lock-free.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bound histogram in the Prometheus style:
// observations land in the first bucket whose upper bound is >= v, the
// encoder emits cumulative bucket counts with `le` labels plus _sum and
// _count series. A short mutex serializes Observe against Encode.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; the last is the +Inf overflow bucket
	sum    float64
	max    float64
	n      uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds
// that no registry exports yet; Registry.AddHistogram exports it later.
// Nodes that may run without a registry keep their histograms this way.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must ascend")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// snapshot returns copies of the bucket counts, sum, and count.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	counts := make([]uint64, len(h.counts))
	copy(counts, h.counts)
	return counts, h.sum, h.n
}

// series is one labelled time series inside a family.
type series struct {
	labels string // canonical rendered label set, "" for none
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64 // counterFunc/gaugeFunc
	hist   *Histogram
}

func (s *series) value() float64 {
	switch {
	case s.ctr != nil:
		return s.ctr.Value()
	case s.gauge != nil:
		return s.gauge.Value()
	case s.fn != nil:
		return s.fn()
	}
	return 0
}

// family groups all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series map[string]*series // canonical label string -> series
}

// Registry holds instrument families and encodes them. Creating an
// instrument that already exists (same name and labels) returns the
// existing one, so attach paths are idempotent.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// canonLabels renders a label set in sorted-key order.
func canonLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q's escapes (\\, \", \n) coincide with the Prometheus text
		// format's label escapes for the characters Tiger ever emits.
		fmt.Fprintf(&b, "%s=%q", k, ls[k])
	}
	return b.String()
}

func (r *Registry) fam(name, help string, k kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.fams[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, k))
	}
	return f
}

func (r *Registry) get(name, help string, k kind, ls Labels, mk func() *series) *series {
	f := r.fam(name, help, k)
	key := canonLabels(ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := mk()
	s.labels = key
	f.series[key] = s
	return s
}

// Counter returns the counter with the given name and labels, creating
// it on first use.
func (r *Registry) Counter(name, help string, ls Labels) *Counter {
	s := r.get(name, help, kindCounter, ls, func() *series { return &series{ctr: &Counter{}} })
	if s.ctr == nil {
		panic(fmt.Sprintf("obs: %q{%s} is not a value counter", name, canonLabels(ls)))
	}
	return s.ctr
}

// Gauge returns the gauge with the given name and labels, creating it
// on first use.
func (r *Registry) Gauge(name, help string, ls Labels) *Gauge {
	s := r.get(name, help, kindGauge, ls, func() *series { return &series{gauge: &Gauge{}} })
	if s.gauge == nil {
		panic(fmt.Sprintf("obs: %q{%s} is not a value gauge", name, canonLabels(ls)))
	}
	return s.gauge
}

// CounterFunc registers a counter whose value is read from fn at encode
// time. fn must be safe to call from any goroutine (read an atomic).
func (r *Registry) CounterFunc(name, help string, ls Labels, fn func() float64) {
	r.get(name, help, kindCounter, ls, func() *series { return &series{fn: fn} })
}

// GaugeFunc registers a gauge whose value is read from fn at encode
// time. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, ls Labels, fn func() float64) {
	r.get(name, help, kindGauge, ls, func() *series { return &series{fn: fn} })
}

// Histogram returns the histogram with the given name, labels, and
// ascending upper bounds, creating it on first use. Bounds are only
// consulted at creation; later calls reuse the existing buckets.
func (r *Registry) Histogram(name, help string, ls Labels, bounds []float64) *Histogram {
	return r.AddHistogram(name, help, ls, NewHistogram(bounds))
}

// AddHistogram exports h under the given name and labels and returns the
// histogram the registry holds there: h itself, unless that series
// already exists.
func (r *Registry) AddHistogram(name, help string, ls Labels, h *Histogram) *Histogram {
	s := r.get(name, help, kindHistogram, ls, func() *series { return &series{hist: h} })
	if s.hist == nil {
		panic(fmt.Sprintf("obs: %q{%s} is not a histogram", name, canonLabels(ls)))
	}
	return s.hist
}

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries snapshots one family's series in label order.
func (r *Registry) sortedSeries(f *family) []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].labels < out[j].labels })
	return out
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
