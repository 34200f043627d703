package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// smallPlan is paper-hour cut down to a couple of simulated minutes.
func smallPlan(t *testing.T, seed int64) simPlan {
	t.Helper()
	plan, ok := simPlanFor("paper-hour", seed, 1)
	if !ok {
		t.Fatal("paper-hour plan missing")
	}
	plan.setupReps = 1
	plan.slices = 2
	plan.sliceLen = 20 * time.Second
	return plan
}

func TestSimDigestRepeats(t *testing.T) {
	run := func(traced bool) *result {
		res := newResult("paper-hour")
		if err := runSim(smallPlan(t, 3), res, traced); err != nil {
			t.Fatal(err)
		}
		if !res.correct() {
			t.Fatalf("checks failed: %+v", res.Checks)
		}
		return res
	}
	a, b := run(false), run(false)
	if a.Digest == "" || a.Digest != b.Digest {
		t.Errorf("digest differs across runs of one seed: %q vs %q", a.Digest, b.Digest)
	}
	if a.E2E["sim_start_p50_ms"] != b.E2E["sim_start_p50_ms"] || a.E2E["occupancy_frac"] != b.E2E["occupancy_frac"] {
		t.Errorf("simulated metrics differ: %v vs %v", a.E2E, b.E2E)
	}
	traced := run(true)
	if traced.Digest != a.Digest {
		t.Errorf("tracing changed the simulation: digest %q vs %q", traced.Digest, a.Digest)
	}
	if traced.Layer["sim.events"] != a.Layer["sim.events"] || traced.Layer["sim.events"] == 0 {
		t.Errorf("sim.events %v traced vs %v untraced", traced.Layer["sim.events"], a.Layer["sim.events"])
	}
	if traced.Layer["core.self_pct"] <= 0 || traced.Layer["core.new_cub_ms"] <= 0 {
		t.Errorf("traced run missing layer shares: %v", traced.Layer)
	}

	res := newResult("paper-hour")
	if err := runSim(smallPlan(t, 4), res, false); err != nil {
		t.Fatal(err)
	}
	if res.Digest == a.Digest {
		t.Error("a different seed gave the same digest")
	}
}

func TestResultLine(t *testing.T) {
	res := newResult("w")
	for _, n := range jsonE2E {
		res.E2E[n] = 1.5
	}
	res.Attempted, res.Failed = 10, 1
	res.check("ok", true, "fine")
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		if err := res.print(&buf, traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		want := len(jsonE2E)
		if traced {
			want = len(layerDefs)
		}
		if !line.Correct || line.Attempted != 10 || line.Failed != 1 || len(line.Metrics) != want {
			t.Errorf("traced=%v: got %+v", traced, line)
		}
		for name, m := range line.Metrics {
			if m.Unit == "" {
				t.Errorf("%s has no unit", name)
			}
		}
		for _, d := range e2eDefs {
			if !strings.Contains(buf.String(), d.Name) {
				t.Errorf("report does not name %s", d.Name)
			}
		}
	}
	res.check("bad", false, "broken")
	if res.correct() {
		t.Error("a failed check left the result correct")
	}
}
