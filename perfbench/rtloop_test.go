package main

import (
	"testing"
	"time"
)

func TestPlayAccount(t *testing.T) {
	bp := 250 * time.Millisecond
	t0 := time.Unix(1000, 0)
	play := func(firstSeq, maxSeq int32, received, late int, end time.Duration) *rtPlay {
		return &rtPlay{first: t0, firstSeq: firstSeq, maxSeq: maxSeq, received: received, late: late, end: t0.Add(end)}
	}
	cases := []struct {
		name        string
		p           *rtPlay
		due, failed int64
	}{
		{"all on time", play(0, 9, 10, 0, 10*bp), 10, 0},
		{"last block not yet due", play(0, 9, 10, 0, 10*bp-time.Millisecond), 10, 0},
		{"one gap", play(0, 9, 9, 0, 10*bp), 10, 1},
		{"two late", play(0, 9, 10, 2, 10*bp), 10, 2},
		{"stalled after five", play(0, 4, 5, 0, 10*bp), 10, 5},
		{"first block was not seq 0", play(3, 12, 10, 0, 10*bp), 10, 0},
		{"first block after the window", play(0, 0, 0, 0, -time.Millisecond), 0, 0},
		{"never started", &rtPlay{end: t0}, 0, 0},
	}
	for _, c := range cases {
		due, failed := playAccount(c.p, bp)
		if due != c.due || failed != c.failed {
			t.Errorf("%s: got due=%d failed=%d, want due=%d failed=%d", c.name, due, failed, c.due, c.failed)
		}
	}
}

// TestRTLoopbackShort runs the real-time workload briefly: every stream
// it starts must receive blocks, and the result must be correct.
func TestRTLoopbackShort(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	res := newResult("rt-loopback")
	if err := runRT(5, 4, res, false); err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("check %s failed: %s", c.Name, c.Detail)
		}
	}
	if res.Attempted == 0 || res.E2E["rt_start_p50_ms"] <= 0 || res.E2E["blocks_per_s"] <= 0 {
		t.Errorf("nothing measured: attempted=%d e2e=%v", res.Attempted, res.E2E)
	}
}
