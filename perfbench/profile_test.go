package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFuncPackage(t *testing.T) {
	cases := map[string]string{
		"tiger/internal/core.(*Cub).Start.func1":                 "tiger/internal/core",
		"tiger.(*Cluster).RunFor":                                "tiger",
		"tiger/internal/obs/attr.Build":                          "tiger/internal/obs/attr",
		"runtime.mallocgc":                                       "runtime",
		"main.main":                                              "main",
		"tiger/internal/sim.push[go.shape.struct { tiger/x.Y }]": "tiger/internal/sim",
		"internal/runtime/maps.(*Map).getWithKey":                "internal/runtime/maps",
	}
	for in, want := range cases {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct{ fn, file, want string }{
		{"tiger/internal/core.(*Cub).pumpMover", "/src/internal/core/mover.go", layerRestripe},
		{"tiger/internal/core.(*Controller).StartRestripe", "internal/core/restriper.go", layerRestripe},
		{"tiger/internal/core.(*Cub).Deliver", "/src/internal/core/cub.go", layerCore},
		{"tiger/internal/layout.Config.CubOfDisk", "layout.go", layerCore},
		{"tiger/internal/sim.(*Engine).RunFor", "sim.go", layerSim},
		{"tiger/internal/clock.Sim.After", "clock.go", layerClock},
		{"tiger/internal/netsim.(*Network).Send", "netsim.go", layerNetsim},
		{"tiger/internal/disk.(*Disk).Read", "disk.go", layerDisk},
		{"tiger/internal/viewer.(*Viewer).Deliver", "viewer.go", layerViewer},
		{"tiger/internal/obs.(*Counter).Inc", "registry.go", layerObs},
		{"tiger/internal/trace.(*Ring).Add", "ring.go", layerObs},
		{"tiger/internal/metrics.(*Summary).Add", "summary.go", layerObs},
		{"tiger/internal/rt.(*Node).loop", "node.go", layerRT},
		{"tiger/internal/wire.(*Conn).Send", "wire.go", layerWire},
		{"tiger/internal/msg.AppendEncode", "msg.go", layerWire},
		{"tiger.(*Cluster).replay", "stream.go", layerTiger},
		{"tiger/perfbench.spin", "profile_test.go", layerBench},
		{"main.runSim", "sim.go", layerBench},
		{"runtime.mapaccess2", "map.go", ""},
		{"tigerish.Foo", "x.go", ""},
	}
	for _, c := range cases {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%q, %q) = %q, want %q", c.fn, c.file, got, c.want)
		}
	}
}

func stack(fns ...string) []frame {
	out := make([]frame, len(fns))
	for i, f := range fns {
		out[i] = frame{Func: f, File: "x.go"}
	}
	return out
}

func TestClassify(t *testing.T) {
	cases := []struct {
		stack   []frame
		layer   string
		mapHash bool
	}{
		// Runtime work is charged to the innermost repository frame.
		{stack("runtime.memhash64", "runtime.mapaccess2", "tiger/internal/core.(*Cub).lookup", "tiger.(*Cluster).RunFor"), layerCore, true},
		{stack("runtime.mallocgc", "tiger/internal/clock.Sim.After", "tiger/internal/core.(*Cub).tick"), layerClock, false},
		// A map frame above the charged frame does not count.
		{stack("tiger/internal/sim.(*Engine).pop", "runtime.mapaccess1", "tiger/internal/core.(*Cub).x"), layerSim, false},
		{stack("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), layerGC, false},
		{stack("runtime.futex", "runtime.schedule", "runtime.mstart"), layerRuntime, false},
		{nil, layerRuntime, false},
	}
	for i, c := range cases {
		l, mh := classify(c.stack)
		if l != c.layer || mh != c.mapHash {
			t.Errorf("case %d: got (%s, %v), want (%s, %v)", i, l, mh, c.layer, c.mapHash)
		}
	}
}

func TestLayerProfileAdd(t *testing.T) {
	lp := newLayerProfile()
	lp.add(stack("runtime.aeshashbody", "runtime.mapassign", "tiger/internal/core.(*Cub).insert"), 30)
	lp.add(stack("tiger/internal/core.(*Cub).insert"), 10)
	lp.add(stack("syscall.Syscall", "internal/poll.(*FD).Write", "tiger/internal/wire.(*Conn).Send"), 40)
	lp.add(stack("runtime.futex"), 20)
	lp.add(stack("tiger/internal/sim.(*Engine).pop"), 0) // zero-valued samples are skipped
	if lp.Total != 100 {
		t.Fatalf("total %d, want 100", lp.Total)
	}
	want := map[string]float64{layerCore: 40, layerWire: 40, layerRuntime: 20}
	for l, pct := range want {
		if got := lp.pct(lp.ByLayer[l]); got != pct {
			t.Errorf("%s: %v%%, want %v%%", l, got, pct)
		}
	}
	if got := lp.pct(lp.MapHash[layerCore]); got != 30 {
		t.Errorf("core map hashing %v%%, want 30%%", got)
	}
	if got := lp.pct(lp.Syscall); got != 40 {
		t.Errorf("syscalls %v%%, want 40%%", got)
	}
	if got := newLayerProfile().pct(5); got != 0 {
		t.Errorf("empty profile pct %v, want 0", got)
	}
}

var sink uint64

//go:noinline
func spin(d time.Duration) {
	x := sink
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

// TestCPUProfileRoundTrip decodes a real runtime/pprof CPU profile and
// checks that time spent in this package is charged to the bench layer.
func TestCPUProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	lp := newLayerProfile()
	if err := lp.addPprof(buf.Bytes(), "cpu"); err != nil {
		t.Fatal(err)
	}
	if lp.Total == 0 {
		t.Skip("no CPU samples collected")
	}
	if got := lp.pct(lp.ByLayer[layerBench]); got < 50 {
		t.Errorf("bench layer holds %.1f%% of samples, want most (%s)", got, layerSummary(lp))
	}
	if err := lp.addPprof(buf.Bytes(), "no-such-type"); err == nil {
		t.Error("unknown sample type accepted")
	}
}

var allocSink [][]byte

//go:noinline
func allocate(n int) {
	for i := 0; i < n; i++ {
		allocSink = append(allocSink, make([]byte, 64))
	}
	allocSink = nil
}

func TestAllocProfileRoundTrip(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	allocate(10000)
	lp, err := allocProfile()
	if err != nil {
		t.Fatal(err)
	}
	if lp.ByLayer[layerBench] < 10000 {
		t.Errorf("bench layer has %d sampled allocations, want >= 10000 (%s)", lp.ByLayer[layerBench], layerSummary(lp))
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte{0x0a, 0xff}); err == nil {
		t.Error("truncated field accepted")
	}
	if _, err := decodeProfile([]byte{0x1f, 0x8b, 0x00}); err == nil {
		t.Error("bad gzip accepted")
	}
}
