// Command tigerbench regenerates the paper's evaluation: every figure
// and table of "Distributed Schedule Management in the Tiger Video
// Fileserver" (SOSP '97), plus the ablations described in DESIGN.md.
//
// Usage:
//
//	tigerbench -exp all            # quick versions of everything
//	tigerbench -exp fig8 -paper    # the full §5 procedure (50 s steps)
//	tigerbench -exp loss -hold 1h  # the paper's hour at full load
//
// All runs are deterministic in virtual time; -seed varies the workload.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"tiger"
	"tiger/internal/sim"
)

var (
	expFlag  = flag.String("exp", "all", "experiment to run, \"all\", or \"list\" to print every name with a description")
	parallel = flag.Int("parallel", 1, "worker-pool width for multi-point sweeps (0 = GOMAXPROCS); results are identical at any width")
	paper    = flag.Bool("paper", false, "use the paper's full-scale procedure (30-stream steps, 50 s settles)")
	hold     = flag.Duration("hold", 0, "steady-state hold for the loss experiment (paper: 1h; default scales with -paper)")
	seed     = flag.Int64("seed", 1, "workload seed")
	clients  = flag.Bool("client-drops", false, "model overloaded client machines (the paper's 8 client-side losses)")
	failedAt = flag.Int("fail-cub", 5, "cub to fail in failed-mode runs")
	csvDir   = flag.String("csv", "", "also write plot-ready CSV files for fig8/fig9/fig10/scale into this directory")
	outDir   = flag.String("out", "", "also write machine-readable BENCH_*.json result artifacts into this directory")

	grayFactorsFlag = flag.String("grayfactors", "1.5,2,3", "comma-separated disk slowdown factors for the grayfail sweep")
	grayHold        = flag.Duration("grayhold", 45*time.Second, "post-injection hold per grayfail point")
	attrFlag        = flag.Bool("attr", false, "enable causal tracing and print per-component deadline-slack attribution (grayfail, loss, elastic)")

	scaleCubsFlag = flag.String("scalecubs", "14,28,56,112,250,500,1000",
		"comma-separated cub counts for the scalability sweep")
	scaleSettle = flag.Duration("scalesettle", 30*time.Second, "post-ramp settle per scalability point")
	scaleHold   = flag.Duration("scalehold", 60*time.Second, "measured hold per scalability point")
	nsEvBudget  = flag.Float64("nsevent-budget", 0,
		"fail if any scalability point exceeds this many wall ns per simulation event (0 = report only)")
	allocsBudget = flag.Float64("allocs-budget", 0,
		"fail if any scalability point exceeds this many heap allocations per simulation event (0 = report only)")

	elasticArmsFlag = flag.String("elasticarms", strings.Join(tiger.ElasticArms, ","),
		"comma-separated chaos arms for the elastic sweep (clean|crash|partition|disk-slow)")

	corrArmsFlag = flag.String("corrarms", strings.Join(tiger.CorrelatedArms, ","),
		"comma-separated arms for the correlated-failure sweep")

	failoverArmsFlag = flag.String("failoverarms", strings.Join(tiger.FailoverArms, ","),
		"comma-separated arms for the controller-failover sweep")
)

// experiment is one entry of the -exp registry: a name, a one-line
// description for -exp list (and the unknown-name error), and whether
// the experiment runs as part of -exp all or only when named (the slow
// multi-minute sweeps).
type experiment struct {
	name  string
	desc  string
	inAll bool
	fn    func() error
}

// listExperiments prints the registry, one line per experiment.
func listExperiments(w io.Writer, exps []experiment) {
	fmt.Fprintln(w, "experiments:")
	for _, e := range exps {
		extra := ""
		if !e.inAll {
			extra = " [slow: runs only when named, not under -exp all]"
		}
		fmt.Fprintf(w, "  %-12s %s%s\n", e.name, e.desc, extra)
	}
}

// writeCSV emits rows into <csvDir>/<name>.csv when -csv is set.
func writeCSV(name string, header []string, rows [][]string) error {
	if *csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

// writeJSON writes one experiment's full result object to
// <outDir>/BENCH_<name>.json when -out is set.
func writeJSON(name string, v any) error {
	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(*outDir, "BENCH_"+name+".json"))
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeArtifact streams into <outDir>/BENCH_<name> when -out is set
// (JSONL exports too big to hold as one object).
func writeArtifact(name string, fill func(io.Writer) error) error {
	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(*outDir, "BENCH_"+name))
	if err != nil {
		return err
	}
	defer f.Close()
	return fill(f)
}

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

func main() {
	flag.Parse()
	tiger.SetSweepParallelism(*parallel)
	o := tiger.DefaultOptions()
	o.Seed = *seed
	if !*clients {
		o.ClientDropProb = 0
	}

	ramp := tiger.QuickRamp()
	lossHold := 3 * time.Minute
	if *paper {
		ramp = tiger.PaperRamp()
		lossHold = time.Hour
	}
	if *hold > 0 {
		lossHold = *hold
	}

	// The registry: run order is "-exp all" order. The slow multi-minute
	// sweeps (baseline re-runs fig8 + loss; scalability reaches 1000
	// cubs; correlated and failover hold full-capacity clusters through
	// whole fault cycles) run only when named.
	exps := []experiment{
		{"capacity", "§5 capacity plan: block service time, streams per disk, rated streams", true, func() error { return capacity(o) }},
		{"fig8", "load curve with no cubs failed (Figure 8)", true, func() error { return loadCurve(o, -1, ramp) }},
		{"fig9", "load curve with one cub failed, mirrors serving (Figure 9)", true, func() error { return loadCurve(o, *failedAt, ramp) }},
		{"fig10", "stream startup latency vs schedule load (Figure 10)", true, func() error { return fig10(o, ramp) }},
		{"loss", "block loss rates at full load, unfailed and failed-mode (§5)", true, func() error { return loss(o, lossHold) }},
		{"reconfig", "schedule reconfiguration after a power cut at 50% load", true, func() error { return reconfig(o) }},
		{"scale", "distributed vs centralized control traffic (§3.3)", true, func() error { return scale(o) }},
		{"ablate-fwd", "ablation A1: double vs single viewer-state forwarding", true, func() error { return ablateFwd(o) }},
		{"ablate-dc", "ablation A2: decluster-factor trade-off", true, func() error { return ablateDc(o) }},
		{"ablate-lead", "ablation A3: viewer-state lead sweep", true, func() error { return ablateLead(o) }},
		{"flash", "flash crowd: every viewer requests the same title at once", true, func() error { return flash(o) }},
		{"chaos", "partition-duration sweep: split-brain healing, death refutation", true, func() error { return chaosSweep(o) }},
		{"grayfail", "fail-slow disk sweep: detect, hedge, quarantine", true, func() error { return grayfail(o) }},
		{"elastic", "online restripe sweep: grow and shrink the array while serving", true, func() error { return elastic(o) }},
		{"failover", "controller crash + epoch-fenced takeover: scavenged state rebuild", false, func() error { return failover(o) }},
		{"score", "deadline-slack score across the standard scenarios", true, func() error { return score(o) }},
		{"observe", "observability capture: metrics snapshot + protocol event trace", true, func() error { return observe(o) }},
		{"ablate-frag", "ablation A4: network-schedule start quantization", true, func() error { return ablateFrag() }},
		{"baseline", "committed performance envelope: fig8 headline + loss + engine cost", false, func() error { return baseline(o, ramp, lossHold) }},
		{"scalability", "warehouse scale: rated capacity vs resource bounds, 14 to 1000 cubs", false, func() error { return scalability(o) }},
		{"correlated", "correlated failures: domains, mirror exhaustion, degradation governor", false, func() error { return correlated(o) }},
	}

	if *expFlag == "list" {
		listExperiments(os.Stdout, exps)
		return
	}
	if *expFlag != "all" {
		known := false
		for _, e := range exps {
			if e.name == *expFlag {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "tigerbench: unknown experiment %q\n\n", *expFlag)
			listExperiments(os.Stderr, exps)
			os.Exit(1)
		}
	}

	for _, e := range exps {
		if *expFlag == "all" && !e.inAll {
			continue
		}
		if *expFlag != "all" && e.name != *expFlag {
			continue
		}
		start := time.Now()
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("  [%s completed in %v wall time]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

// failover prints and gates the controller-failover sweep: the
// controller dies and a new incarnation takes over by scavenging the
// cubs' distributed schedule state, in three regimes (idle serving,
// mid-restripe, streams parked by the governor).
func failover(o tiger.Options) error {
	header("Controller failover: epoch-fenced takeover, scavenged rebuild",
		"the cubs are the schedule; admitted streams play through the outage untouched")
	pts, err := tiger.RunFailover(o, splitArms(*failoverArmsFlag))
	fmt.Printf("%15s %5s %8s %8s %9s %6s %6s %6s %8s %5s %8s %5s %7s %6s\n",
		"arm", "load", "streams", "outage", "takeover", "scav", "plays", "parks",
		"retries", "lost", "doubles", "viol", "active", "conv")
	for _, p := range pts {
		if p.Cubs == 0 {
			continue // arm aborted before setup (its error is reported below)
		}
		fmt.Printf("%15s %5.2f %8d %7.0fs %8.2fs %6d %6d %6d %8d %5d %8d %5d %7d %6v\n",
			p.Arm, p.LoadFrac, p.Streams, p.OutageSec, p.TakeoverSec,
			p.ScavengesServed, p.ScavengedPlays, p.ScavengedParks,
			p.StartRetries, p.BlocksLost, p.DoubleServes, p.Violations,
			p.ActiveAfter, p.Converged)
	}
	if err != nil {
		return err
	}
	return writeJSON("failover", pts)
}

// observe runs a modest load and exports the observability artifacts: a
// full metrics snapshot (JSONL, one series per line) and the protocol
// event trace. It also prints the block-lifecycle deadline-slack
// distribution, the tentpole series of the unified metrics layer.
func observe(o tiger.Options) error {
	header("Observability capture: metrics registry + protocol trace",
		"every stage of a block's lifecycle measured against its deadline")
	c, err := tiger.New(o)
	if err != nil {
		return err
	}
	ring := c.EnableTrace(1 << 16)
	if err := c.RampTo(100); err != nil {
		return err
	}
	c.RunFor(30 * time.Second)

	// Fold the per-cub deadline-slack histograms into one line per stage.
	type agg struct {
		count, neg uint64
		sum        float64
	}
	stages := map[string]*agg{}
	for _, p := range c.Registry().Snapshot() {
		if p.Name != "tiger_block_deadline_slack_seconds" {
			continue
		}
		st := p.Labels["stage"]
		a := stages[st]
		if a == nil {
			a = &agg{}
			stages[st] = a
		}
		a.count += p.Count
		a.sum += p.Sum
		// Strictly negative buckets only: a send at exactly its due time
		// has slack 0 and is on time.
		for i, b := range p.Bounds {
			if b < 0 {
				a.neg += p.Counts[i]
			}
		}
	}
	fmt.Printf("%10s %12s %14s %12s\n", "stage", "events", "mean slack", "slack<0")
	for _, st := range []string{"insert", "state", "read", "send", "receipt"} {
		a := stages[st]
		if a == nil || a.count == 0 {
			continue
		}
		fmt.Printf("%10s %12d %13.3fs %12d\n", st, a.count, a.sum/float64(a.count), a.neg)
	}
	fmt.Printf("trace: %d events recorded, %d evicted (ring %d)\n",
		ring.Total(), ring.Dropped(), ring.Len())

	if err := writeArtifact("observe_metrics.jsonl", c.ExportMetrics); err != nil {
		return err
	}
	return writeArtifact("observe_events.jsonl", c.ExportEvents)
}

// chaosSweep is the partition-duration sweep: cut a cub off from both
// of its ring successors (the cubs that monitor it and hold its mirror
// pieces) for increasing durations, heal, and measure how long the
// split-brain takes to clear. The paper's only recovery from false
// death is a machine restart; the refutation path makes recovery a
// heartbeat interval regardless of how long the partition lasted.
func chaosSweep(o tiger.Options) error {
	header("Chaos: partition-duration sweep (split-brain healing)",
		"false deaths are refuted on proof of life -- no restart, zero conflicts, bounded loss")
	cuts := []time.Duration{
		5 * time.Second, 10 * time.Second, 20 * time.Second,
		30 * time.Second, 60 * time.Second,
	}
	pts, err := tiger.RunChaosSweep(o, 0, cuts)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %8s %10s %9s %8s %8s %9s %8s %10s\n",
		"cut", "streams", "recovery", "refuted", "retired", "rejoins", "lost", "mirror", "violations")
	for _, p := range pts {
		rec := "never"
		if p.Converged {
			rec = fmt.Sprintf("%.1fs", p.RecoverySec)
		}
		fmt.Printf("%9.0fs %8d %10s %9d %8d %8d %9d %8d %10d\n",
			p.PartitionSec, p.Streams, rec, p.DeathsRefuted, p.MirrorsRetired,
			p.Rejoins, p.BlocksLost, p.MirrorBlocks, p.Violations)
	}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			f1(p.PartitionSec), strconv.Itoa(p.Streams), f1(p.RecoverySec),
			strconv.FormatInt(p.BlocksLost, 10), strconv.FormatInt(p.DeathsRefuted, 10),
			strconv.FormatInt(p.Rejoins, 10), strconv.Itoa(p.Violations),
		})
	}
	if err := writeCSV("chaos",
		[]string{"partition_s", "streams", "recovery_s", "blocks_lost", "deaths_refuted", "rejoins", "violations"},
		rows); err != nil {
		return err
	}
	return writeJSON("chaos", pts)
}

// grayfail is the fail-slow sweep: slowdown factor × mitigation arm.
// The fail-stop detectors never fire — the cub heartbeats, the disk
// answers — so without the health monitor every stream touching the
// slow drive silently loses blocks; the sweep shows detection time,
// hedge activity, quarantine, and the resulting loss for both arms.
func grayfail(o tiger.Options) error {
	header("Gray failure: fail-slow disk sweep (detect, hedge, quarantine)",
		"a slow disk defeats fail-stop detection; loss is driven entirely by late reads")
	var factors []float64
	for _, s := range strings.Split(*grayFactorsFlag, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("grayfail: bad factor %q: %v", s, err)
		}
		factors = append(factors, f)
	}
	pts, err := tiger.RunGrayFailSweepAttr(o, 0, factors, *grayHold, *attrFlag)
	if err != nil {
		return err
	}
	fmt.Printf("%7s %8s %8s %7s %9s %8s %8s %10s %10s %8s\n",
		"factor", "monitor", "lost", "loss%", "hedges", "mirror", "misses", "suspect", "quarant", "doubles")
	for _, p := range pts {
		arm := "off"
		if p.Hedge {
			arm = "on"
		}
		sus, quar := "never", "never"
		if p.Suspected {
			sus = fmt.Sprintf("%.1fs", p.TimeToSuspectSec)
		}
		if p.Quarantined {
			quar = fmt.Sprintf("%.1fs", p.TimeToQuarantineSec)
		}
		fmt.Printf("%7.2f %8s %8d %6.3f%% %9d %8d %8d %10s %10s %8d\n",
			p.Factor, arm, p.BlocksLost, p.LossPct, p.HedgesIssued,
			p.MirrorBlocks, p.ServerMisses, sus, quar, p.DoubleServes)
	}
	if *attrFlag {
		for _, p := range pts {
			if p.Attribution == nil {
				continue
			}
			arm := "monitor off"
			if p.Hedge {
				arm = "monitor on"
			}
			fmt.Printf("\nfactor %.2f, %s — where the slack went:\n", p.Factor, arm)
			p.Attribution.Render(os.Stdout)
			if n := len(p.Flight); n > 0 {
				fmt.Printf("flight recorder: %d failure dumps captured (see BENCH_grayfail.json)\n", n)
			}
		}
	}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			f1(p.Factor), strconv.FormatBool(p.Hedge), strconv.FormatInt(p.BlocksLost, 10),
			f1(p.LossPct), strconv.FormatInt(p.HedgesIssued, 10),
			f1(p.TimeToSuspectSec), f1(p.TimeToQuarantineSec), strconv.Itoa(p.DoubleServes),
		})
	}
	if err := writeCSV("grayfail",
		[]string{"factor", "monitor", "blocks_lost", "loss_pct", "hedges", "suspect_s", "quarantine_s", "double_serves"},
		rows); err != nil {
		return err
	}
	return writeJSON("grayfail", pts)
}

// elastic is the online-restripe sweep: grow and shrink the array under
// full load, with chaos arms striking mid-restripe. The headline
// numbers are the zero columns: no stream loses a block and no block is
// double-served in any arm, including a crash of the newest cub
// mid-copy and a partition of a retiring cub during its linger window.
func elastic(o tiger.Options) error {
	header("Elastic: online restripe sweep (grow and shrink while serving)",
		"every admitted stream keeps playing through the copy, cutover and drain")
	var arms []string
	for _, s := range strings.Split(*elasticArmsFlag, ",") {
		if a := strings.TrimSpace(s); a != "" {
			arms = append(arms, a)
		}
	}
	pts, err := tiger.RunElasticSweepAttr(o, arms, *attrFlag)
	fmt.Printf("%7s %10s %6s %6s %7s %8s %7s %7s %8s %8s %7s %8s %8s %6s\n",
		"dir", "arm", "cubs", "moves", "reroute", "copy", "drain", "total", "MB/s", "lost", "doubles", "viol", "active", "cap")
	for _, p := range pts {
		if p.Dir == "" {
			continue // arm aborted before setup (its error is reported below)
		}
		fmt.Printf("%7s %10s %2d->%-3d %6d %7d %7.1fs %6.0fs %6.0fs %8.1f %8d %7d %8d %8d %6d\n",
			p.Dir, p.Arm, p.FromCubs, p.TargetCubs, p.Moves, p.Rerouted,
			p.CopySec, p.DrainSec, p.TotalSec, p.MoveMBps,
			p.BlocksLost, p.DoubleServes, p.Violations, p.ActiveAfter, p.CapacityAfter)
	}
	if err != nil {
		return err
	}
	if *attrFlag {
		for _, p := range pts {
			if p.Attribution == nil {
				continue
			}
			fmt.Printf("\n%s %s — where the slack went:\n", p.Dir, p.Arm)
			p.Attribution.Render(os.Stdout)
			if n := len(p.Flight); n > 0 {
				fmt.Printf("flight recorder: %d failure dumps captured (see BENCH_elastic.json)\n", n)
			}
		}
	}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			p.Dir, p.Arm, strconv.Itoa(p.FromCubs), strconv.Itoa(p.TargetCubs),
			strconv.Itoa(p.Moves), strconv.FormatInt(p.Rerouted, 10),
			f1(p.CopySec), f1(p.DrainSec), f1(p.TotalSec), f1(p.MoveMBps),
			strconv.FormatInt(p.BlocksLost, 10), strconv.Itoa(p.DoubleServes),
			strconv.Itoa(p.Violations), strconv.Itoa(p.ActiveAfter), strconv.Itoa(p.CapacityAfter),
		})
	}
	if err := writeCSV("elastic",
		[]string{"dir", "arm", "from_cubs", "target_cubs", "moves", "rerouted",
			"copy_s", "drain_s", "total_s", "move_mbps", "blocks_lost",
			"double_serves", "violations", "active_after", "capacity_after"},
		rows); err != nil {
		return err
	}
	return writeJSON("elastic", pts)
}

func flash(o tiger.Options) error {
	header("Flash crowd: every viewer requests the same title (§2.2)",
		"striping prevents hotspots; Tiger delays starts to enforce equitemporal spacing")
	res, err := tiger.RunFlashCrowd(o, 300, 2*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("  viewers          : %d requested at t=0, %d admitted\n", res.Viewers, res.Admitted)
	fmt.Printf("  start spread     : %v .. %v (%.1f starts/s ~ one disk's slot rate)\n",
		res.FirstStart.Round(time.Millisecond), res.LastStart.Round(time.Millisecond), res.AdmitRate)
	fmt.Printf("  disk duty        : mean %.0f%%, max %.0f%% (no hotspot)\n",
		res.MeanDiskDuty*100, res.MaxDiskDuty*100)
	fmt.Printf("  blocks           : %d delivered, %d lost\n", res.BlocksOK, res.BlocksLost)
	return writeJSON("flash", res)
}

// BaselineResult is the committed performance envelope of a revision:
// the Figure 8 full-load headline factors, both §5 loss-rate scenarios,
// and the raw event-engine cost. Regenerate with
// `tigerbench -exp baseline -out .` and diff against BENCH_seed.json.
type BaselineResult struct {
	Seed           int64
	Capacity       int
	FullLoadCubCPU float64
	FullLoadCtrl   float64
	FullLoadCtlBps float64
	BlocksOK       int64
	BlocksLost     int64
	Violations     int
	Loss           []tiger.LossRateResult
	EngineEvents   int
	EngineNsPerEv  float64
}

// engineNsPerEvent measures the raw sim-engine overhead with a
// self-perpetuating cascade (the shape of BenchmarkEventCascade), in
// wall-clock nanoseconds per event.
func engineNsPerEvent(events int) float64 {
	e := sim.New(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < events {
			e.After(time.Microsecond, step)
		}
	}
	start := time.Now()
	e.After(0, step)
	e.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(events)
}

// baseline captures the headline metrics committed as BENCH_seed.json.
func baseline(o tiger.Options, ramp tiger.RampSpec, hold time.Duration) error {
	header("Baseline capture: Figure 8 headline + loss rates + engine cost",
		"the numbers future revisions are diffed against")
	fig8, err := tiger.RunFigure8(o, ramp)
	if err != nil {
		return err
	}
	loss, err := tiger.RunLossRates(o, hold)
	if err != nil {
		return err
	}
	res := BaselineResult{
		Seed:         o.Seed,
		Capacity:     fig8.Capacity,
		BlocksOK:     fig8.BlocksOK,
		BlocksLost:   fig8.BlocksLost,
		Violations:   fig8.Violations,
		Loss:         loss,
		EngineEvents: 2_000_000,
	}
	last := fig8.Samples[len(fig8.Samples)-1]
	res.FullLoadCubCPU = last.CubCPU
	res.FullLoadCtrl = last.CtrlCPU
	res.FullLoadCtlBps = last.CtlTrafficBps
	engineNsPerEvent(res.EngineEvents / 10) // warm up
	res.EngineNsPerEv = engineNsPerEvent(res.EngineEvents)
	fmt.Printf("  capacity       : %d streams\n", res.Capacity)
	fmt.Printf("  full load      : cub CPU %.1f%%, ctrl %.2f%%, ctl %.1f KB/s\n",
		res.FullLoadCubCPU*100, res.FullLoadCtrl*100, res.FullLoadCtlBps/1e3)
	fmt.Printf("  blocks         : %d ok, %d lost, %d conflicts\n",
		res.BlocksOK, res.BlocksLost, res.Violations)
	for _, r := range res.Loss {
		rate := "lossless"
		if r.LossRate > 0 {
			rate = fmt.Sprintf("1 in %.0f", r.LossRate)
		}
		fmt.Printf("  loss           : %-28s %s\n", r.Name, rate)
	}
	fmt.Printf("  engine         : %.1f ns/event over %d events\n",
		res.EngineNsPerEv, res.EngineEvents)
	return writeJSON("seed", res)
}

func header(title, paperSays string) {
	fmt.Println(strings.Repeat("=", 78))
	fmt.Println(title)
	if paperSays != "" {
		fmt.Printf("paper: %s\n", paperSays)
	}
	fmt.Println(strings.Repeat("-", 78))
}

func capacity(o tiger.Options) error {
	header("Capacity plan (§5 configuration)",
		"56 disks, 0.25 MB blocks, decluster 4 -> ~10.75 streams/disk, 602 streams")
	c := tiger.CapacityTable(o)
	fmt.Printf("  block service time : %v\n", c.BlockService)
	fmt.Printf("  streams per disk   : %.3f\n", c.StreamsPerDisk)
	fmt.Printf("  system capacity    : %d streams\n", c.Streams)
	fmt.Printf("  schedule length    : %v (%d slots)\n",
		time.Duration(o.Cubs*o.DisksPerCub)*o.BlockPlay, c.Streams)
	return writeJSON("capacity", c)
}

func loadCurve(o tiger.Options, failCub int, ramp tiger.RampSpec) error {
	if failCub >= 0 {
		header("Figure 9: Tiger loads with one cub failed",
			"mirror disks >95% duty; control ~2x unfailed, <=21 KB/s; cub CPU <=85%; 13.4 MB/s sends")
	} else {
		header("Figure 8: Tiger loads with no cubs failed",
			"cub CPU linear in streams; controller flat; control traffic in the KB/s range")
	}
	res, err := tiger.RunLoadCurve(o, failCub, ramp)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %8s %9s %9s %11s %11s %10s\n",
		"streams", "cubCPU%", "ctrlCPU%", "disk%", "mirror%", "ctl KB/s", "send MB/s")
	for _, s := range res.Samples {
		fmt.Printf("%8d %8.1f %9.2f %9.1f %11.1f %11.2f %10.2f\n",
			s.Streams, s.CubCPU*100, s.CtrlCPU*100, s.DiskLoad*100,
			s.MirrorDiskLoad*100, s.CtlTrafficBps/1e3, s.DataRateBps/1e6)
	}
	fmt.Printf("blocks ok=%d lost=%d (server misses %d, mirror-served %d); conflicts=%d\n",
		res.BlocksOK, res.BlocksLost, res.ServerMisses, res.MirrorBlocks, res.Violations)
	if res.LossRate > 0 {
		fmt.Printf("loss rate: 1 in %.0f\n", res.LossRate)
	}
	name := "fig8"
	if failCub >= 0 {
		name = "fig9"
	}
	var rows [][]string
	for _, smp := range res.Samples {
		rows = append(rows, []string{
			strconv.Itoa(smp.Streams), f1(smp.CubCPU), f1(smp.CtrlCPU), f1(smp.DiskLoad),
			f1(smp.MirrorDiskLoad), f1(smp.CtlTrafficBps), f1(smp.DataRateBps),
		})
	}
	if err := writeCSV(name,
		[]string{"streams", "cub_cpu", "ctrl_cpu", "disk_load", "mirror_disk_load", "ctl_bps", "data_bps"},
		rows); err != nil {
		return err
	}
	return writeJSON(name, res)
}

func fig10(o tiger.Options, ramp tiger.RampSpec) error {
	header("Figure 10: stream startup latency vs schedule load",
		"~1.8 s floor below 50% load; mean <5 s at 95%; outliers >20 s near 100%")
	res, err := tiger.RunFigure10(o, ramp)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %12s\n", "load", "mean start")
	for i := range res.BucketLoad {
		fmt.Printf("%9.0f%% %12v\n", res.BucketLoad[i]*100, res.BucketMean[i].Round(time.Millisecond))
	}
	fmt.Printf("starts=%d  floor=%v  mean@90-97%%=%v  >20s outliers=%d\n",
		len(res.Points), res.Floor.Round(time.Millisecond),
		res.MeanAt95.Round(time.Millisecond), res.Over20s)
	var rows [][]string
	for _, pt := range res.Points {
		rows = append(rows, []string{f1(pt.Load), f1(pt.Latency.Seconds())})
	}
	if err := writeCSV("fig10", []string{"load", "latency_s"}, rows); err != nil {
		return err
	}
	return writeJSON("fig10", res)
}

func loss(o tiger.Options, hold time.Duration) error {
	header(fmt.Sprintf("Loss rates at full load (%v steady state)", hold),
		"unfailed ~1 in 180,000; failed-mode hour ~1 in 40,000")
	rs, err := tiger.RunLossRatesAttr(o, hold, *attrFlag)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %8s %10s %7s %10s %12s\n",
		"scenario", "streams", "blocks", "lost", "srv-miss", "rate")
	for _, r := range rs {
		rate := "lossless"
		if r.LossRate > 0 {
			rate = fmt.Sprintf("1 in %.0f", r.LossRate)
		}
		fmt.Printf("%-28s %8d %10d %7d %10d %12s\n",
			r.Name, r.Streams, r.BlocksOK+r.BlocksLost, r.BlocksLost, r.ServerMisses, rate)
	}
	if *attrFlag {
		for _, r := range rs {
			if r.Attribution == nil {
				continue
			}
			fmt.Printf("\n%s — where the slack went:\n", r.Name)
			r.Attribution.Render(os.Stdout)
			if n := len(r.Flight); n > 0 {
				fmt.Printf("flight recorder: %d failure dumps captured (see BENCH_loss.json)\n", n)
			}
		}
	}
	return writeJSON("loss", rs)
}

func reconfig(o tiger.Options) error {
	header("Reconfiguration after a power cut at 50% load",
		"about 8 seconds between the earliest and latest lost block")
	res, err := tiger.RunReconfig(o)
	if err != nil {
		return err
	}
	fmt.Printf("  streams          : %d\n", res.Streams)
	fmt.Printf("  blocks lost      : %d\n", res.LostBlocks)
	fmt.Printf("  loss window      : %v\n", res.LossSpan.Round(time.Millisecond))
	fmt.Printf("  deadman timeout  : %v\n", res.DetectedIn)
	fmt.Printf("  mirror catches   : %d blocks\n", res.MirrorCatch)
	return writeJSON("reconfig", res)
}

func scale(o tiger.Options) error {
	header("Scalability: distributed vs centralized control (§3.3)",
		"central controller needs MB/s at tens of thousands of streams; per-cub traffic stays flat")
	pts, err := tiger.RunScalability(o, []int{7, 14, 28, 56}, 15*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %9s %14s %15s %12s %9s\n",
		"cubs", "streams", "per-cub KB/s", "central KB/s", "view size", "ctrlCPU%")
	for _, p := range pts {
		fmt.Printf("%6d %9d %14.2f %15.2f %12d %9.3f\n",
			p.Cubs, p.Streams, p.PerCubCtlBps/1e3, p.CentralizedBps/1e3,
			p.MaxViewEntries, p.ControllerLoad*100)
	}
	// The paper's 1000-cub extrapolation.
	fmt.Printf("extrapolation: 40,000 streams -> central controller sends %.1f MB/s of viewer states\n",
		40000*97/1e6)
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			strconv.Itoa(p.Cubs), strconv.Itoa(p.Streams),
			f1(p.PerCubCtlBps), f1(p.CentralizedBps), strconv.Itoa(p.MaxViewEntries),
		})
	}
	if err := writeCSV("scale_ctl",
		[]string{"cubs", "streams", "per_cub_ctl_bps", "centralized_bps", "view_entries"}, rows); err != nil {
		return err
	}
	return writeJSON("scale_ctl", pts)
}

// scalability is the warehouse-scale sweep: each cluster size runs at
// its full rated capacity on a sharded simulation, and the table
// compares that rated capacity against the resource bounds (Viennot et
// al.: no scheme can beat raw disk or NIC bandwidth) while pinning the
// simulator's per-event cost and per-cub memory footprint.
func scalability(o tiger.Options) error {
	header("Warehouse scale: rated capacity vs resource bounds (Viennot et al.)",
		"capacity tracks d/(d+1) of the disk bound; ns/event and heap/cub stay flat to 1000 cubs")
	var cubCounts []int
	for _, s := range strings.Split(*scaleCubsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad -scalecubs entry %q", s)
		}
		cubCounts = append(cubCounts, n)
	}
	pts, err := tiger.RunScaleCapacity(o, cubCounts, *scaleSettle, *scaleHold)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %6s %7s %8s %9s %6s %9s %6s %7s %9s %9s %6s\n",
		"cubs", "disks", "shards", "rated", "bound", "frac", "streams", "lost", "misses",
		"ns/event", "allocs/ev", "KiB/cub")
	for _, p := range pts {
		fmt.Printf("%6d %6d %7d %8d %9d %6.3f %9d %6d %7d %9.1f %9.3f %6d\n",
			p.Cubs, p.Disks, p.Shards, p.Rated, p.Bound, p.CapacityFrac,
			p.Achieved, p.BlocksLost, p.ServerMisses,
			p.NsPerEvent, p.AllocsPerEvent, p.HeapBytesPerCub/1024)
	}
	last := pts[len(pts)-1]
	fmt.Printf("memory footprint at %d cubs: %d KiB live heap per cub, max view %d entries (O(window), not O(slots)=%d)\n",
		last.Cubs, last.HeapBytesPerCub/1024, last.MaxViewEntries, last.Rated)

	// The sweep is also the acceptance gate: rated load must be lossless,
	// and the per-event budgets (when set) must hold at every size.
	for _, p := range pts {
		if p.BlocksLost != 0 || p.ServerMisses != 0 {
			return fmt.Errorf("%d cubs: %d blocks lost, %d server misses at rated load",
				p.Cubs, p.BlocksLost, p.ServerMisses)
		}
		if *nsEvBudget > 0 && p.NsPerEvent > *nsEvBudget {
			return fmt.Errorf("%d cubs: %.1f ns/event exceeds budget %.1f", p.Cubs, p.NsPerEvent, *nsEvBudget)
		}
		if *allocsBudget > 0 && p.AllocsPerEvent > *allocsBudget {
			return fmt.Errorf("%d cubs: %.3f allocs/event exceeds budget %.3f", p.Cubs, p.AllocsPerEvent, *allocsBudget)
		}
	}

	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			strconv.Itoa(p.Cubs), strconv.Itoa(p.Disks), strconv.Itoa(p.Shards),
			strconv.Itoa(p.Rated), strconv.Itoa(p.Bound), f1(p.CapacityFrac),
			strconv.Itoa(p.Achieved), strconv.FormatInt(p.BlocksLost, 10),
			f1(p.NsPerEvent), f1(p.AllocsPerEvent),
			strconv.FormatUint(p.HeapBytesPerCub, 10), strconv.Itoa(p.MaxViewEntries),
		})
	}
	if err := writeCSV("scalability",
		[]string{"cubs", "disks", "shards", "rated", "bound", "capacity_frac",
			"streams", "blocks_lost", "ns_per_event", "allocs_per_event",
			"heap_bytes_per_cub", "view_entries"}, rows); err != nil {
		return err
	}
	return writeJSON("scale", pts)
}

func ablateFwd(o tiger.Options) error {
	header("Ablation A1: double vs single forwarding (§4.1.1)",
		"single forwarding halves control traffic but loses queued schedule info on failure")
	res, err := tiger.RunAblationForwarding(o)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %14s %16s\n", "variant", "blocks lost", "ctl bytes/s")
	fmt.Printf("%-10s %14d %16.0f\n", "double", res.DoubleLost, res.DoubleCtl)
	fmt.Printf("%-10s %14d %16.0f\n", "single", res.SingleLost, res.SingleCtl)
	fmt.Printf("(%d streams, %v after the failure)\n", res.Streams, res.RunDuration)
	return nil
}

func ablateDc(o tiger.Options) error {
	header("Ablation A2: decluster factor trade-off (§2.3)",
		"decluster 4: 1/5 bandwidth reserved, 8 vulnerable disks; decluster 2: 1/3 reserved, span 4")
	pts, err := tiger.RunAblationDecluster(o, []int{2, 4, 8}, 20*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("%4s %10s %10s %7s %13s %7s\n",
		"dc", "capacity", "reserved", "span", "mirror duty%", "lost")
	for _, p := range pts {
		fmt.Printf("%4d %10d %9.1f%% %7d %13.1f %7d\n",
			p.Decluster, p.Capacity, p.ReservedFraction*100, p.VulnerableSpan,
			p.MirrorDiskLoad*100, p.BlocksLost)
	}
	return nil
}

func ablateLead(o tiger.Options) error {
	header("Ablation A3: viewer-state lead sweep (§4.1.1)",
		"typical minVStateLead=4s, maxVStateLead=9s; views bounded by the max lead")
	pairs := [][2]time.Duration{
		{time.Second, 2 * time.Second},
		{2 * time.Second, 5 * time.Second},
		{4 * time.Second, 9 * time.Second},
		{8 * time.Second, 18 * time.Second},
	}
	pts, err := tiger.RunAblationLead(o, pairs, 20*time.Second)
	if err != nil {
		return err
	}
	fmt.Printf("%8s %8s %10s %12s %11s %6s\n",
		"min", "max", "msgs/s", "ctl KB/s", "view size", "lost")
	for _, p := range pts {
		fmt.Printf("%8v %8v %10.1f %12.2f %11d %6d\n",
			p.MinLead, p.MaxLead, p.CtlMsgsPerSec, p.CtlBps/1e3, p.MaxViewEntries, p.BlocksLost)
	}
	return nil
}

func ablateFrag() error {
	header("Ablation A4: network-schedule start quantization (§3.2)",
		"fragmentation acceptable when starts are multiples of blockPlay/decluster")
	quanta := []time.Duration{0, 125 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond}
	pts, err := tiger.RunAblationFragmentation(14, 100_000_000, quanta, 7)
	if err != nil {
		return err
	}
	fmt.Printf("%12s %10s %13s %15s\n", "quantum", "admitted", "utilization", "frag loss")
	for _, p := range pts {
		q := "arbitrary"
		if p.Quantum > 0 {
			q = p.Quantum.String()
		}
		fmt.Printf("%12s %10d %12.1f%% %14.1f%%\n",
			q, p.Admitted, p.Utilization*100, p.Fragmentation*100)
	}
	return nil
}

// splitArms parses a comma-separated arm-selection flag.
func splitArms(s string) []string {
	var arms []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			arms = append(arms, a)
		}
	}
	return arms
}

func correlated(o tiger.Options) error {
	header("Correlated failures: domains, mirror exhaustion, graceful degradation",
		"beyond single-failure coverage: survivors lose nothing, endangered streams park and resume")
	pts, err := tiger.RunCorrelated(o, splitArms(*corrArmsFlag))
	fmt.Printf("%18s %5s %7s %8s %7s %6s %6s %7s %5s %7s %8s %6s\n",
		"arm", "cubs", "shards", "streams", "unserv", "parks", "bound", "resumes", "lost",
		"doubles", "drain_s", "conv")
	for _, p := range pts {
		if p.Cubs == 0 {
			continue // arm aborted before setup (its error is reported below)
		}
		fmt.Printf("%18s %5d %7d %8d %7d %6d %6d %7d %5d %7d %8.1f %6v\n",
			p.Arm, p.Cubs, p.Shards, p.Streams, p.Unservable, p.Parks, p.ParkBound,
			p.Resumes, p.BlocksLost, p.DoubleServes, p.DrainSec, p.Converged)
	}
	if err != nil {
		return err
	}
	return writeJSON("correlated", pts)
}
