package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"

	"tiger"
	"tiger/internal/clock"
	"tiger/internal/core"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/sim"
)

// simPlan is one simulator workload: the cluster it builds and how its
// measured window is cut into slices. Simulated spans scale with the
// --seconds argument, never with host speed, so a seed's simulated
// statistics repeat exactly.
type simPlan struct {
	opts      tiger.Options
	setupReps int           // clusters built; setup_s is their median CPU time (steady workloads)
	settle    time.Duration // simulated time between ramp and measurement
	slices    int
	sliceLen  time.Duration // simulated length of a slice (steady workloads)
	legs      bool          // each slice is one restripe copy phase on a fresh cluster
}

// noFaults turns off the two stochastic loss sources that model faults
// outside Tiger (client drops, slow-drive blips), so no block of a
// correct run is lost.
func noFaults(o *tiger.Options) {
	o.ClientDropProb = 0
	o.DiskParams.BlipProb = 0
}

func simPlanFor(workload string, seed int64, seconds int) (simPlan, bool) {
	o := tiger.DefaultOptions()
	o.Seed = seed
	noFaults(&o)
	secs := time.Duration(seconds)
	switch workload {
	case "paper-hour":
		// The paper's 14-cub, 602-stream system; at --seconds 20 the
		// window is one simulated hour, so every stream reaches EOF
		// and replays.
		return simPlan{opts: o, setupReps: 5, settle: 10 * time.Second,
			slices: 12, sliceLen: secs * 15 * time.Second}, true
	case "warehouse":
		o.Cubs = 64
		o.NumFiles = o.Cubs * o.DisksPerCub // one file per disk, as the scale sweep does
		o.RampSpacing = 0
		o.Shards, o.ShardWorkers = 2, 2
		return simPlan{opts: o, setupReps: 3, settle: 30 * time.Second,
			slices: 12, sliceLen: secs * 750 * time.Millisecond}, true
	case "restripe":
		// The elastic sweep's shape: short files, admission pressed to
		// the limit, every stream served while the mover copies.
		o.NumFiles = 12
		o.FileBlocks = 100
		o.AdmitLimit = 1.0
		o.RampSpacing = 50 * time.Millisecond
		return simPlan{opts: o, settle: 10 * time.Second, slices: seconds, legs: true}, true
	}
	return simPlan{}, false
}

// legCubs is the restripe target of leg i: legs alternate between
// growing and shrinking the array by two cubs.
func legCubs(from, i int) int {
	if i%2 == 0 {
		return from + 2
	}
	return from - 2
}

// copyLimit bounds the simulated time one restripe copy phase may take.
const copyLimit = 600 * time.Second

// legRec is one restripe leg's simulated outcome.
type legRec struct {
	Target    int
	Phase     string // phase when measurement stopped: cutover once the copy is done
	Moves     int
	Committed int
	CopySimS  float64 // StartRestripe → every move committed
}

// counters are cumulative simulated statistics read at slice
// boundaries; a slice's work is the difference of two readings.
type counters struct {
	ok, lost, misses, msgs, bytes int64
	events                        uint64
	busy                          time.Duration
	disks                         int
	now                           sim.Time
}

func readCounters(c *tiger.Cluster) counters {
	var k counters
	k.ok, k.lost, _ = c.ViewerTotals()
	k.misses = c.TotalCubStats().ServerMisses
	k.events = c.EventsProcessed()
	add := func(id msg.NodeID) {
		st := c.Net.NodeStats(id)
		k.msgs += st.CtlMsgs
		k.bytes += st.CtlBytes
	}
	add(msg.Controller)
	for _, cub := range c.Cubs {
		add(cub.ID())
		for _, d := range cub.Disks() {
			k.busy += d.Stats().BusyTotal
			k.disks++
		}
	}
	k.now = c.Now()
	return k
}

// simRun accumulates one run's measurements across slices.
type simRun struct {
	plan simPlan
	log  *spanLog
	prof *profiler

	setups []float64 // tiger.New process CPU seconds
	slices []slice
	window counters // summed slice differences
	diskS  float64  // Σ disks × simulated seconds, the disk.util denominator

	occSum float64 // Σ Active/Capacity, one sample per simulated second
	occN   int

	viewMax int
	starts  []float64 // request → first block, simulated ms
	legs    []legRec
	doubles int
	invar   int
	runLost int64 // lost blocks over whole clusters' lives
	runMiss int64
	digest  hash.Hash
	last    *tiger.Cluster // the latest restripe leg's cluster
}

// build times one tiger.New in process CPU seconds (see jsonE2E).
func (r *simRun) build(o tiger.Options, parent int) (*tiger.Cluster, error) {
	var c *tiger.Cluster
	var err error
	c0 := cpuTime()
	r.log.timed("tiger.New", parent, func() { c, err = tiger.New(o) })
	if err != nil {
		return nil, fmt.Errorf("build cluster: %w", err)
	}
	r.setups = append(r.setups, (cpuTime() - c0).Seconds())
	return c, nil
}

// step advances c by d in one-second steps, sampling occupancy when
// sample is set.
func (r *simRun) step(c *tiger.Cluster, d time.Duration, sample bool) {
	for d > 0 {
		s := time.Second
		if d < s {
			s = d
		}
		c.RunFor(s)
		d -= s
		if sample {
			r.occSum += float64(c.Active()) / float64(c.Capacity())
			r.occN++
		}
	}
}

// measure runs fn as one measured slice of c.
func (r *simRun) measure(c *tiger.Cluster, profiled bool, fn func()) {
	if profiled {
		r.prof.start()
	}
	k0 := readCounters(c)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, gc0 := ms.Mallocs, gcCPU()
	t0, cpu0 := time.Now(), cpuTime()
	fn()
	host, cpu := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&ms)
	sl := slice{Host: host, CPU: cpu, GC: gcCPU() - gc0, Mallocs: ms.Mallocs - mallocs0, Profiled: profiled}
	k1 := readCounters(c)
	if profiled {
		r.prof.stop()
	}
	sl.Blocks = k1.ok - k0.ok
	r.slices = append(r.slices, sl)
	w := &r.window
	w.ok += k1.ok - k0.ok
	w.lost += k1.lost - k0.lost
	w.misses += k1.misses - k0.misses
	w.msgs += k1.msgs - k0.msgs
	w.bytes += k1.bytes - k0.bytes
	w.events += k1.events - k0.events
	w.busy += k1.busy - k0.busy
	r.diskS += float64(k1.disks) * k1.now.Sub(k0.now).Seconds()
	if v := c.MaxViewSize(); v > r.viewMax {
		r.viewMax = v
	}
}

// finish folds a cluster's whole-life statistics into the checks and
// the digest. Any change to what the simulator computed for a seed
// changes the digest; host timing never does.
func (r *simRun) finish(c *tiger.Cluster) {
	ok, lost, mirror := c.ViewerTotals()
	r.invar += c.InvariantViolations()
	r.runLost += lost
	r.runMiss += c.TotalCubStats().ServerMisses
	fmt.Fprintf(r.digest, "now=%d events=%d ok=%d lost=%d mirror=%d active=%d cap=%d\n",
		c.Now(), c.EventsProcessed(), ok, lost, mirror, c.Active(), c.Capacity())
	fmt.Fprintf(r.digest, "cubs=%+v\n", c.TotalCubStats())
	for _, p := range c.StartupPoints {
		r.starts = append(r.starts, float64(p.Latency)/float64(time.Millisecond))
		fmt.Fprintf(r.digest, "%d %.9f\n", p.Latency, p.Load)
	}
	fmt.Fprintf(r.digest, "occ=%.9f/%d\n", r.occSum, r.occN)
}

// leg builds a fresh cluster at rated load and measures one restripe
// copy phase on it: StartRestripe until every planned move has
// committed. Measurement stops at the cutover; the drain phase after it
// is not run (see METRICS.md).
func (r *simRun) leg(i, parent int, profiled bool) error {
	o := r.plan.opts
	o.Seed = o.Seed*1000 + int64(i)
	c, err := r.build(o, parent)
	if err != nil {
		return err
	}
	oracle := tiger.NewChaosHarness(c)
	defer oracle.Close()
	r.log.timed("RampTo", parent, func() { err = c.RampTo(c.Capacity()) })
	if err != nil {
		return fmt.Errorf("ramp: %w", err)
	}
	r.log.timed("RunFor.settle", parent, func() { r.step(c, r.plan.settle, false) })

	target := legCubs(o.Cubs, i)
	r.measure(c, profiled, func() {
		r.log.timed("StartRestripe", parent, func() { err = c.StartRestripe(target) })
		if err != nil {
			return
		}
		r.log.timed("copy", parent, func() {
			for n := time.Duration(0); c.RestripePhase() == tiger.RestripeCopy && n < copyLimit; n += time.Second {
				r.step(c, time.Second, true)
			}
		})
	})
	if err != nil {
		return fmt.Errorf("restripe to %d cubs: %w", target, err)
	}
	in := c.RestripeInfo()
	lr := legRec{Target: target, Phase: in.Phase, Moves: in.Moves, Committed: in.Coord.Committed}
	if in.CopyDone > 0 {
		lr.CopySimS = in.CopyDone.Sub(in.CopyStart).Seconds()
	}
	r.legs = append(r.legs, lr)
	fmt.Fprintf(r.digest, "%+v\n", lr)
	r.doubles += oracle.DoubleServes()
	r.finish(c)
	r.last = c
	return nil
}

// newCubMs times core.NewCub on cfg, outside any running system, for up
// to four cub ids and returns the mean per cub in milliseconds.
func newCubMs(cfg *core.Config, np netsim.Params, seed int64, cubs int, log *spanLog, parent int) float64 {
	n := cubs
	if n > 4 {
		n = 4
	}
	eng := sim.New(seed)
	clk := clock.Sim{Eng: eng}
	net := netsim.New(np, clk, eng.Rand())
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		id := log.begin("core.NewCub", parent)
		core.NewCub(msg.NodeID(i), cfg, clk, net, net, eng.Rand())
		log.end(id)
		total += time.Since(t0)
	}
	return total.Seconds() * 1000 / float64(n)
}

func runSim(plan simPlan, res *result, traced bool) error {
	r := &simRun{plan: plan, digest: sha256.New()}
	if traced {
		r.log = newSpanLog()
		r.prof = newProfiler()
	}
	log := r.log
	root := log.begin("run", 0)

	// A steady workload builds its cluster several times and runs the
	// last one; a restripe workload builds one cluster per leg.
	var c *tiger.Cluster
	var wall0 time.Time
	var cpu0 time.Duration
	for i := 0; !plan.legs && i < plan.setupReps; i++ {
		c = nil
		runtime.GC()
		if i == plan.setupReps-1 {
			wall0, cpu0 = time.Now(), cpuTime()
		}
		var err error
		if c, err = r.build(plan.opts, root); err != nil {
			return err
		}
	}
	if plan.legs {
		wall0, cpu0 = time.Now(), cpuTime()
	} else {
		var err error
		log.timed("RampTo", root, func() { err = c.RampTo(c.Capacity()) })
		if err != nil {
			return fmt.Errorf("ramp: %w", err)
		}
		log.timed("RunFor.settle", root, func() { r.step(c, plan.settle, false) })
	}

	win := log.begin("window", root)
	for i := 0; i < plan.slices; i++ {
		profiled := traced && i%2 == 1
		sid := log.begin("slice", win)
		if plan.legs {
			if err := r.leg(i, sid, profiled); err != nil {
				return err
			}
		} else {
			r.measure(c, profiled, func() {
				log.timed("RunFor", sid, func() { r.step(c, plan.sliceLen, true) })
			})
		}
		log.end(sid)
	}
	log.end(win)
	res.E2E["wall_s"] = time.Since(wall0).Seconds()
	res.E2E["cpu_s"] = (cpuTime() - cpu0).Seconds()
	if c != nil {
		r.finish(c)
	}

	w := r.window
	res.Attempted = w.ok + w.lost
	res.Failed = w.lost
	res.E2E["setup_s"] = median(r.setups)
	res.Notes["setup_s"] = fmt.Sprintf("median CPU time of %d builds", len(r.setups))
	res.E2E["max_rss_mib"] = maxRSSMiB()
	res.E2E["blocks_per_s"], res.E2E["cpu_us_per_block"] = sliceRates(r.slices, allSlices)
	if r.occN > 0 {
		res.E2E["occupancy_frac"] = r.occSum / float64(r.occN)
	}
	p50, tl := summarize(r.starts)
	res.E2E["sim_start_p50_ms"] = p50
	res.Notes["sim_start_p50_ms"] = fmt.Sprintf("n=%d", tl.N)
	if tl.Label != "" {
		res.E2E["sim_start_tail_ms"] = tl.Value
	}
	res.Notes["sim_start_tail_ms"] = tl.String()

	L := res.Layer
	L["sim.events"] = float64(w.events)
	if w.ok > 0 {
		L["sim.events_per_block"] = float64(w.events) / float64(w.ok)
		L["netsim.msgs_per_block"] = float64(w.msgs) / float64(w.ok)
		L["netsim.ctl_bytes_per_block"] = float64(w.bytes) / float64(w.ok)
	}
	// Host costs of the measured slices only (restripe legs also build,
	// ramp and settle a cluster outside them).
	m := sum(r.slices)
	if w.events > 0 {
		L["sim.ns_per_event"] = float64(m.Host.Nanoseconds()) / float64(w.events)
		L["sim.allocs_per_event"] = float64(m.Mallocs) / float64(w.events)
	}
	if m.Host > 0 {
		L["sim.cpu_per_wall"] = m.CPU.Seconds() / m.Host.Seconds()
	}
	if m.CPU > 0 {
		L["gc.cpu_pct"] = 100 * m.GC.Seconds() / m.CPU.Seconds()
	}
	L["core.view_entries_max"] = float64(r.viewMax)
	L["core.server_misses"] = float64(w.misses)
	if r.diskS > 0 {
		L["disk.util"] = w.busy.Seconds() / r.diskS
	}
	if n := len(r.legs); n > 0 {
		var copySim float64
		for _, l := range r.legs {
			copySim += l.CopySimS
		}
		res.E2E["restripe_copy_sim_s"] = copySim / float64(n)
		res.Notes["restripe_copy_sim_s"] = fmt.Sprintf("mean of %d legs", n)
		L["restripe.copy_host_s"] = m.Host.Seconds() / float64(n)
		L["restripe.copy_sim_s"] = copySim / float64(n)
		L["restripe.ns_per_event_copy"] = L["sim.ns_per_event"]
	}

	// Output checks.
	res.check("invariant_violations", r.invar == 0, "%d slot-conflict violations", r.invar)
	res.check("server_misses", r.runMiss == 0, "%d over the run", r.runMiss)
	res.check("lost_blocks", r.runLost == 0, "%d over the run", r.runLost)
	if plan.legs {
		res.check("double_serves", r.doubles == 0, "%d", r.doubles)
		bad := 0
		for _, l := range r.legs {
			if l.Phase == tiger.RestripeCopy || l.Committed != l.Moves || l.Moves == 0 {
				bad++
			}
		}
		res.check("restripe_copies", bad == 0 && len(r.legs) > 0,
			"%d legs, %d without every planned move committed", len(r.legs), bad)
	}
	res.check("blocks_delivered", w.ok > 0, "%d on time in the window", w.ok)
	res.Digest = hex.EncodeToString(r.digest.Sum(nil))[:16]

	if traced {
		last := c
		if last == nil {
			last = r.last
		}
		L["tiger.heap_mib_per_cub"] = heapMiBPerCubN(len(last.Cubs))
		runtime.KeepAlive(last) // the cluster is the heap being measured
		L["core.new_cub_ms"] = newCubMs(last.Cfg, last.Opt.NetParams, last.Opt.Seed, len(last.Cubs), log, root)
		L["bench.trace_overhead_pct"] = traceOverheadPct(r.slices, false)
		log.end(root)
		if err := finishProfile(res, r.prof); err != nil {
			return err
		}
		res.Spans = log.totals()
	}
	res.spanLog = log
	return nil
}

// heapMiBPerCubN is the live heap after a collection, divided among
// cubs cubs; the whole process is charged to them.
func heapMiBPerCubN(cubs int) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20) / float64(cubs)
}

// finishProfile folds the CPU and allocation profiles into res.
func finishProfile(res *result, prof *profiler) error {
	if prof.err != nil {
		return prof.err
	}
	allocs, err := allocProfile()
	if err != nil {
		return err
	}
	res.setLayerProfile(prof.cpu, allocs)
	res.Notes["profile"] = fmt.Sprintf("cpu: %s; allocs: %s", layerSummary(prof.cpu), layerSummary(allocs))
	return nil
}
