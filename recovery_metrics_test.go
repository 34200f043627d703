package tiger

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"tiger/internal/obs"
)

// exportedCount returns the observation count of one histogram series in
// the cluster's JSONL metrics export.
func exportedCount(t *testing.T, c *Cluster, name string, labels obs.Labels) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := c.ExportMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var p obs.Point
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Name != name || len(p.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			match = match && p.Labels[k] == v
		}
		if match {
			return p.Count
		}
	}
	t.Fatalf("%s%v missing from the metrics export", name, labels)
	return 0
}

// A cub restart and a controller takeover are each observed once, into
// the node's own histogram, and the registry exports that same object.
func TestRecoveryRecordedOnce(t *testing.T) {
	c := rampedCluster(t, chaosTestOptions(3), 12)
	const victim = 3
	c.CrashCub(victim)
	c.RunFor(5 * time.Second)
	c.RestartCub(victim)
	c.RunFor(5 * time.Second)

	rec := c.Cubs[victim].RecoveryTimes()
	if rec.Count() != 1 {
		t.Fatalf("%d recovery samples after one restart, want 1", rec.Count())
	}
	ls := obs.Labels{"cub": "3"}
	if got := exportedCount(t, c, "tiger_cub_recovery_seconds", ls); got != rec.Count() {
		t.Errorf("exported tiger_cub_recovery_seconds_count = %d, RecoveryTimes().Count() = %d", got, rec.Count())
	}
	if h := c.Registry().Histogram("tiger_cub_recovery_seconds", "", ls, nil); h != rec {
		t.Error("the registry exports a different histogram from the cub's RecoveryTimes")
	}

	c.CrashController()
	c.RunFor(time.Second)
	c.RestartController()
	c.RunFor(5 * time.Second)
	tk := c.Controller.TakeoverTimes()
	if tk.Count() != 1 {
		t.Fatalf("%d takeover samples after one takeover, want 1", tk.Count())
	}
	if got := exportedCount(t, c, "tiger_ctrl_takeover_seconds", nil); got != tk.Count() {
		t.Errorf("exported tiger_ctrl_takeover_seconds_count = %d, TakeoverTimes().Count() = %d", got, tk.Count())
	}
	if h := c.Registry().Histogram("tiger_ctrl_takeover_seconds", "", nil, nil); h != tk {
		t.Error("the registry exports a different histogram from the controller's TakeoverTimes")
	}
}

// Sharded cubs run without a registry; their recovery histogram must
// still count the restart.
func TestShardedRecoveryRecorded(t *testing.T) {
	o := chaosTestOptions(3)
	o.Shards = 2
	c := rampedCluster(t, o, 12)
	c.CrashCub(3)
	c.RunFor(5 * time.Second)
	c.RestartCub(3)
	c.RunFor(5 * time.Second)
	if n := c.Cubs[3].RecoveryTimes().Count(); n != 1 {
		t.Fatalf("%d recovery samples on a sharded cluster after one restart, want 1", n)
	}
}
