package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// e2eDef describes one end-to-end metric. Base is the clock a time is
// read from: host (the machine running the benchmark), simulated (the
// simulator's virtual time) or real (wall-clock time on the real-time
// runtime).
type e2eDef struct {
	Name, Unit, Base string
	Scope            string // workloads it applies to, for the n/a note
}

var e2eDefs = []e2eDef{
	{"setup_s", "s", "host", "all"},
	{"wall_s", "s", "host", "all"},
	{"cpu_s", "s", "host", "all"},
	{"max_rss_mib", "MiB", "host", "all"},
	{"blocks_per_s", "1/s", "host", "all"},
	{"cpu_us_per_block", "us", "host", "all"},
	{"lost_frac", "ratio", "-", "all"},
	{"occupancy_frac", "ratio", "simulated", "simulator workloads"},
	{"sim_start_p50_ms", "ms", "simulated", "simulator workloads"},
	{"sim_start_tail_ms", "ms", "simulated", "simulator workloads"},
	{"restripe_copy_sim_s", "s", "simulated", "restripe"},
	{"rt_start_p50_ms", "ms", "real", "rt-loopback"},
	{"rt_start_tail_ms", "ms", "real", "rt-loopback"},
}

// jsonE2E are the end-to-end metrics of the result line (and of
// BENCHMARK.json): the ones every workload measures, none reads 0, and
// the shared host does not swamp. wall_s and blocks_per_s are read from
// the wall clock, which on a host that takes a vCPU away from the
// process for minutes at a time varied by up to 2x between runs of one
// workload, while the same runs' CPU times varied by 15%; so the time
// metrics of the line, setup_s included, are process CPU times.
// lost_frac is 0 by design and travels as attempted/failed instead; the
// simulated metrics repeat exactly per seed and are covered by the
// digest; the rt start metrics exist on one workload only.
var jsonE2E = []string{"setup_s", "cpu_s", "max_rss_mib", "cpu_us_per_block"}

// layerDefs are the per-layer metrics a traced run reports. Every
// workload prints all of them; a layer that does not run on a workload
// reads 0 there.
var layerDefs = []struct{ Name, Unit string }{
	{"sim.events", "count"},
	{"sim.events_per_block", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.self_pct", "%"},
	{"sim.allocs_per_event", "count"},
	{"sim.cpu_per_wall", "ratio"},
	{"gc.cpu_pct", "%"},
	{"clock.self_pct", "%"},
	{"clock.allocs_pct", "%"},
	{"netsim.self_pct", "%"},
	{"netsim.msgs_per_block", "count"},
	{"netsim.ctl_bytes_per_block", "B"},
	{"core.self_pct", "%"},
	{"core.maphash_pct", "%"},
	{"core.allocs_pct", "%"},
	{"core.new_cub_ms", "ms"},
	{"core.view_entries_max", "count"},
	{"core.server_misses", "count"},
	{"restripe.self_pct", "%"},
	{"restripe.copy_host_s", "s"},
	{"restripe.copy_sim_s", "s"},
	{"restripe.ns_per_event_copy", "ns"},
	{"disk.self_pct", "%"},
	{"disk.util", "ratio"},
	{"viewer.self_pct", "%"},
	{"obs.self_pct", "%"},
	{"obs.allocs_pct", "%"},
	{"tiger.self_pct", "%"},
	{"tiger.heap_mib_per_cub", "MiB"},
	{"rt.self_pct", "%"},
	{"wire.self_pct", "%"},
	{"rt.syscall_pct", "%"},
	{"rt.frames_per_block", "count"},
	{"rt.node_events_per_block", "count"},
	{"rt.ack_p50_ms", "ms"},
	{"rt.gen_late_ms_max", "ms"},
	{"runtime.self_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

// check is one output check; any failure makes the run incorrect.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// result is everything one run measured.
type result struct {
	Workload  string
	E2E       map[string]float64 // only the metrics that apply
	Notes     map[string]string  // per-metric annotations (tail percentile, n)
	Layer     map[string]float64
	Attempted int64 // blocks due in the measured window
	Failed    int64 // of those, lost or late
	Checks    []check
	Digest    string // hash of the simulated statistics; "" on the real-time runtime
	Spans     []spanTotal
	SpanFile  string
	spanLog   *spanLog // written out when the run ends (traced runs)
}

func newResult(workload string) *result {
	return &result{Workload: workload, E2E: map[string]float64{}, Notes: map[string]string{},
		Layer: map[string]float64{}}
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Attempted > 0
}

// lostFrac is the failure share of the measured window.
func lostFrac(attempted, failed int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func unitOf(name string) string {
	for _, d := range e2eDefs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// print writes the human-readable report and, as the last line, the
// JSON result: end-to-end metrics for an untraced run, per-layer
// metrics for a traced one.
func (r *result) print(w io.Writer, traced bool) error {
	r.E2E["lost_frac"] = lostFrac(r.Attempted, r.Failed)
	fmt.Fprintf(w, "end-to-end (%s):\n", r.Workload)
	for _, d := range e2eDefs {
		v, ok := r.E2E[d.Name]
		if !ok {
			fmt.Fprintf(w, "  %-20s %14s %-6s %-9s  (%s only)\n", d.Name, "n/a", d.Unit, d.Base, d.Scope)
			continue
		}
		note := ""
		if n := r.Notes[d.Name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(w, "  %-20s %14.6g %-6s %-9s%s\n", d.Name, v, d.Unit, d.Base, note)
	}
	fmt.Fprintf(w, "  blocks due %d, lost or late %d\n", r.Attempted, r.Failed)
	if traced {
		fmt.Fprintln(w, "per-layer:")
		for _, d := range layerDefs {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, r.Layer[d.Name], d.Unit)
		}
		if n := r.Notes["profile"]; n != "" {
			fmt.Fprintf(w, "profile shares: %s\n", n)
		}
		if len(r.Spans) > 0 {
			fmt.Fprintln(w, "spans (count, total, self):")
			for _, s := range r.Spans {
				fmt.Fprintf(w, "  %-28s %6d %12v %12v\n", s.Name, s.Count, s.Total, s.Self)
			}
		}
		if r.SpanFile != "" {
			fmt.Fprintf(w, "spans written to %s\n", r.SpanFile)
		}
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-28s %-6s %s\n", c.Name, status, c.Detail)
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "digest %s\n", r.Digest)
	}

	line := jsonLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]jsonMetric{}}
	if traced {
		for _, d := range layerDefs {
			line.Metrics[d.Name] = jsonMetric{Value: r.Layer[d.Name], Unit: d.Unit}
		}
	} else {
		for _, n := range jsonE2E {
			line.Metrics[n] = jsonMetric{Value: r.E2E[n], Unit: unitOf(n)}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// setLayerProfile fills the *_pct metrics from the CPU and allocation
// profiles.
func (r *result) setLayerProfile(cpu, allocs *layerProfile) {
	for _, l := range []string{layerSim, layerClock, layerNetsim, layerCore, layerRestripe, layerDisk,
		layerViewer, layerObs, layerTiger, layerRT, layerWire, layerRuntime} {
		r.Layer[l+".self_pct"] = cpu.pct(cpu.ByLayer[l])
	}
	r.Layer["core.maphash_pct"] = cpu.pct(cpu.MapHash[layerCore])
	r.Layer["rt.syscall_pct"] = cpu.pct(cpu.Syscall)
	for _, l := range []string{layerClock, layerCore, layerObs} {
		r.Layer[l+".allocs_pct"] = allocs.pct(allocs.ByLayer[l])
	}
}

// layerSummary renders a profile's shares, largest first, for the log.
func layerSummary(lp *layerProfile) string {
	type kv struct {
		k string
		v int64
	}
	var kvs []kv
	for k, v := range lp.ByLayer {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].v > kvs[j].v || kvs[i].v == kvs[j].v && kvs[i].k < kvs[j].k })
	var b strings.Builder
	for _, e := range kvs {
		fmt.Fprintf(&b, " %s=%.1f%%", e.k, lp.pct(e.v))
	}
	return strings.TrimSpace(b.String())
}
