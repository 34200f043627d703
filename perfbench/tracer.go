package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
)

// profiler runs the CPU profiler over chosen slices of a traced run and
// buckets every sample by layer. A nil *profiler does nothing.
type profiler struct {
	cpu *layerProfile
	buf bytes.Buffer
	on  bool
	err error
}

func newProfiler() *profiler { return &profiler{cpu: newLayerProfile()} }

func (p *profiler) start() {
	if p == nil || p.on {
		return
	}
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.fail(fmt.Errorf("start cpu profile: %w", err))
		return
	}
	p.on = true
}

func (p *profiler) stop() {
	if p == nil || !p.on {
		return
	}
	pprof.StopCPUProfile()
	p.on = false
	if err := p.cpu.addPprof(p.buf.Bytes(), "cpu"); err != nil {
		p.fail(fmt.Errorf("read cpu profile: %w", err))
	}
}

func (p *profiler) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// allocProfile buckets the allocations sampled since the program
// started (runtime.MemProfileRate sets the sampling interval).
func allocProfile() (*layerProfile, error) {
	runtime.GC() // the allocs profile is as of the last completed GC
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("write alloc profile: %w", err)
	}
	lp := newLayerProfile()
	if err := lp.addPprof(buf.Bytes(), "alloc_objects"); err != nil {
		return nil, fmt.Errorf("read alloc profile: %w", err)
	}
	return lp, nil
}
