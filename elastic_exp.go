package tiger

import (
	"fmt"
	"time"

	"tiger/internal/chaos"
	"tiger/internal/obs/attr"
	"tiger/internal/sim"
)

// This file is the `tigerbench -exp elastic` experiment: grow and
// shrink the array while serving full load, with chaos arms that crash,
// partition, or gray-degrade machines mid-restripe. Every arm runs
// under the double-service oracle and the standard invariant set; the
// acceptance bar is zero stream loss and zero double-serves in all of
// them.

// Elastic arm names, in sweep order.
var ElasticArms = []string{"clean", "crash", "partition", "disk-slow"}

// elasticGrowBy is how many cubs the grow and shrink legs add/remove.
const elasticGrowBy = 2

// ElasticSample is one point of a capacity-ramp trace: active streams
// and restripe phase at T seconds after the scenario started.
type ElasticSample struct {
	T      float64
	Phase  string
	Active int
}

// ElasticPoint is one arm of the elastic sweep.
type ElasticPoint struct {
	Dir        string // "grow" | "shrink"
	Arm        string // "clean" | "crash" | "partition" | "disk-slow"
	FromCubs   int
	TargetCubs int

	CapacityBefore int
	CapacityAfter  int
	StreamsBefore  int // active when the scenario started (full load)
	ActiveAfter    int // active after re-ramping to the new capacity

	// Move-plan progress, from the coordinator and the cubs.
	Moves           int
	Committed       int
	Rerouted        int64
	Nacks           int64
	MoveBytes       int64
	DeferredReplays int

	// Phase durations in virtual seconds.
	CopySec   float64
	DrainSec  float64
	LingerSec float64
	TotalSec  float64
	MoveMBps  float64 // plan bytes over the copy phase

	// Delivery deltas across the whole run (ramp excluded).
	BlocksOK     int64
	BlocksLost   int64 // must be 0
	MirrorBlocks int64

	DoubleServes int // must be 0
	Violations   int // invariant violations, including restripe preconditions
	FinalPhase   string

	Ramp []ElasticSample

	// Attribution and Flight are filled by RunElasticSweepAttr: the
	// per-component slack table for the arm's traced blocks (mover
	// interference shows up in the disk rows), and the flight-recorder
	// dumps of any misses or oracle violations.
	Attribution *attr.Table  `json:"attribution,omitempty"`
	Flight      []FlightDump `json:"flight,omitempty"`
}

// elasticScenario builds the fault schedule for one arm. The restripe
// always starts at 2 s. Grow arms strike mid-copy and aim at the
// newest cub — the one every move is racing toward; shrink arms strike
// late, during the linger window, when the retiring cub is drained and
// a crash or partition must not resurrect its retired generation.
// Disk-slow arms degrade a busy source cub's drive mid-copy in both
// directions, forcing the health monitor's quarantine and the
// coordinator's re-route path to compose.
func elasticScenario(dir, arm string, fromCubs, target int, seed int64) (chaos.Scenario, error) {
	const start = 2 * time.Second
	steps := chaos.At(start, chaos.Restripe(target))
	var dur time.Duration
	if dir == "grow" {
		dur = 180 * time.Second
		newest := target - 1
		switch arm {
		case "clean":
		case "crash":
			steps = chaos.Concat(steps,
				chaos.At(10*time.Second, chaos.CrashMidRestripe(newest)),
				chaos.At(25*time.Second, chaos.Restart(newest)))
		case "partition":
			steps = chaos.Concat(steps,
				chaos.At(10*time.Second, chaos.IsolateMidRestripe(newest)),
				chaos.At(40*time.Second, chaos.RejoinCub(newest)))
		case "disk-slow":
			steps = chaos.Concat(steps,
				chaos.At(10*time.Second, chaos.DiskSlowMidRestripe(3, 0, 2.0)),
				chaos.At(40*time.Second, chaos.DiskHeal(3, 0)))
		default:
			return chaos.Scenario{}, fmt.Errorf("tiger: unknown elastic arm %q", arm)
		}
	} else {
		// Shrink strikes land at 240 s: with the 120 s pinned linger the
		// old generation is drained (~220 s at this load) but the retiring
		// cub is still fenced and monitored — the exact window narrowing
		// has to defend.
		dur = 300 * time.Second
		retiring := fromCubs - 1
		switch arm {
		case "clean":
		case "crash":
			steps = chaos.Concat(steps,
				chaos.At(240*time.Second, chaos.CrashMidRestripe(retiring)),
				chaos.At(255*time.Second, chaos.Restart(retiring)))
		case "partition":
			steps = chaos.Concat(steps,
				chaos.At(240*time.Second, chaos.IsolateMidRestripe(retiring)),
				chaos.At(270*time.Second, chaos.RejoinCub(retiring)))
		case "disk-slow":
			steps = chaos.Concat(steps,
				chaos.At(10*time.Second, chaos.DiskSlowMidRestripe(3, 0, 2.0)),
				chaos.At(40*time.Second, chaos.DiskHeal(3, 0)))
		default:
			return chaos.Scenario{}, fmt.Errorf("tiger: unknown elastic arm %q", arm)
		}
	}
	return chaos.Scenario{
		Name:     fmt.Sprintf("elastic-%s-%s", dir, arm),
		Seed:     seed,
		Duration: dur,
		Steps:    steps,
	}, nil
}

// RunElasticSweep runs the grow and shrink legs across the given arms.
// Each point builds a fresh cluster at the paper's shape, ramps it to
// full capacity with short files (so the old generation drains by EOF
// on experiment timescales, as DESIGN §13 describes), runs its chaos
// scenario around a live restripe, drives the restripe to completion,
// and then ramps into the new shape's capacity. The sweep fails when any
// arm loses a block, serves one twice or records an invariant
// violation; the points gathered so far are returned with the error.
func RunElasticSweep(o Options, arms []string) ([]ElasticPoint, error) {
	return RunElasticSweepAttr(o, arms, false)
}

// RunElasticSweepAttr is RunElasticSweep with optional slack
// attribution: when enableAttr is set, each arm runs with causal
// tracing and the flight recorder on, and its point carries the
// per-component slack table plus flight dumps.
func RunElasticSweepAttr(o Options, arms []string, enableAttr bool) ([]ElasticPoint, error) {
	if len(arms) == 0 {
		arms = ElasticArms
	}
	type spec struct {
		dir    string
		target int
		arm    string
	}
	var specs []spec
	for _, d := range []struct {
		name  string
		delta int
	}{{"grow", elasticGrowBy}, {"shrink", -elasticGrowBy}} {
		for _, a := range arms {
			specs = append(specs, spec{d.name, o.Cubs + d.delta, a})
		}
	}

	out := make([]ElasticPoint, len(specs))
	err := forEachPoint(len(specs), func(i int) error {
		sp := specs[i]
		opt := o
		opt.ClientDropProb = 0
		opt.NumFiles = 12
		opt.FileBlocks = 100 // ~100 s plays: the old ring empties by EOF
		opt.AdmitLimit = 1.0
		opt.RampSpacing = 50 * time.Millisecond
		if sp.dir == "shrink" {
			// Pin the linger so the late-strike arms land inside it.
			opt.RestripeLinger = 120 * time.Second
		}
		c, err := New(opt)
		if err != nil {
			return err
		}
		if enableAttr {
			c.EnableTrace(4096)
			c.EnableCausalTrace(0, 0)
			c.EnableFlightRecorder(0)
		}
		if err := c.RampTo(c.Capacity()); err != nil {
			return err
		}
		c.RunFor(10 * time.Second)

		sc, err := elasticScenario(sp.dir, sp.arm, opt.Cubs, sp.target, opt.Seed)
		if err != nil {
			return err
		}
		sc.Settle = c.Cfg.DeadmanTimeout + c.Cfg.MaxVStateLead + 5*c.Cfg.Sched.BlockPlay

		h := NewChaosHarness(c)
		defer h.Close()
		r, err := chaos.NewRunner(chaosSystem{c}, sc, h.Invariants())
		if err != nil {
			return err
		}
		pt := ElasticPoint{
			Dir:            sp.dir,
			Arm:            sp.arm,
			FromCubs:       opt.Cubs,
			TargetCubs:     sp.target,
			CapacityBefore: c.Capacity(),
			StreamsBefore:  c.Active(),
		}
		t0 := c.Now()
		const sampleEvery = 5 * time.Second
		nextSample := time.Duration(0)
		sample := func() {
			pt.Ramp = append(pt.Ramp, ElasticSample{
				T:      c.Now().Sub(t0).Seconds(),
				Phase:  c.RestripePhase(),
				Active: c.Active(),
			})
		}
		r.OnTick = func(now sim.Time, quiet bool) {
			if el := now.Sub(t0); el >= nextSample {
				sample()
				nextSample = el + sampleEvery
			}
		}

		ok0, lost0, mir0 := c.ViewerTotals()
		rep, err := r.Run()
		if err != nil {
			return err
		}

		// The scenario duration bounds the fault schedule, not the
		// restripe: drive the cluster until the phase machine reports
		// done (or give up and record where it stuck).
		for lim := 0; c.RestripePhase() != RestripeDone && lim < 300; lim++ {
			c.RunFor(time.Second)
		}

		// Ramp into the new shape. Admission headroom opens as the last
		// old-generation streams finish, so retry around refusals.
		for try := 0; try < 30; try++ {
			if err := c.RampTo(c.Capacity()); err == nil {
				break
			}
			c.RunFor(2 * time.Second)
		}
		c.RunFor(10 * time.Second)
		sample()

		ok1, lost1, mir1 := c.ViewerTotals()
		in := c.RestripeInfo()
		cs := c.TotalCubStats()

		pt.CapacityAfter = c.Capacity()
		pt.ActiveAfter = c.Active()
		pt.Moves = in.Moves
		pt.Committed = in.Coord.Committed
		pt.Rerouted = in.Coord.Rerouted
		pt.Nacks = cs.MovesNacked
		pt.MoveBytes = in.Bytes
		pt.DeferredReplays = in.DeferredReplays
		if in.CopyDone > 0 {
			pt.CopySec = in.CopyDone.Sub(in.CopyStart).Seconds()
			if pt.CopySec > 0 {
				pt.MoveMBps = float64(in.Bytes) / 1e6 / pt.CopySec
			}
		}
		if in.DrainDone > 0 && in.CopyDone > 0 {
			pt.DrainSec = in.DrainDone.Sub(in.CopyDone).Seconds()
		}
		if in.Finished > 0 {
			if in.DrainDone > 0 {
				pt.LingerSec = in.Finished.Sub(in.DrainDone).Seconds()
			}
			pt.TotalSec = in.Finished.Sub(in.CopyStart).Seconds()
		}
		pt.BlocksOK = ok1 - ok0
		pt.BlocksLost = lost1 - lost0
		pt.MirrorBlocks = mir1 - mir0
		pt.DoubleServes = h.DoubleServes()
		pt.Violations = len(rep.Violations)
		pt.FinalPhase = c.RestripePhase()
		if enableAttr {
			pt.Attribution = attr.Build(c.CausalChains())
			if fr := c.FlightRecorder(); fr != nil {
				pt.Flight = fr.Dumps()
			}
		}
		out[i] = pt
		// The sweep's headline is its zero columns: an arm that loses a
		// block, double-serves one or trips an invariant fails the sweep.
		if pt.BlocksLost != 0 || pt.DoubleServes != 0 || pt.Violations != 0 {
			return fmt.Errorf("%s %s: %d blocks lost, %d double serves, %d invariant violations (all must be 0)",
				sp.dir, sp.arm, pt.BlocksLost, pt.DoubleServes, pt.Violations)
		}
		return nil
	})
	return out, err
}
