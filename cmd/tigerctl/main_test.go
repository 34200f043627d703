package main

import (
	"testing"

	"tiger/internal/layout"
	"tiger/internal/msg"
)

func projectionFiles(n, blocks, numDisks int) []layout.File {
	files := make([]layout.File, n)
	for i := range files {
		files[i] = layout.File{ID: msg.FileID(i), StartDisk: (i * 7) % numDisks,
			Blocks: blocks, BlockSize: 262144}
	}
	return files
}

// The projection must count the moves the online restripe will run.
// Diffing raw disk numbers, which renumber when the cub count changes,
// once reported 1,004,120 moves for this shape instead of 1,115,480.
func TestRestripeProjectionCountsPlannedMoves(t *testing.T) {
	old := layout.Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	grow := layout.Config{Cubs: 16, DisksPerCub: 4, Decluster: 4}
	files := projectionFiles(64, 3600, old.NumDisks())
	p, err := projectRestripe(old, grow, files, 262144, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := layout.PlanElastic(old, grow, files)
	if err != nil {
		t.Fatal(err)
	}
	if p.moves != len(plan.Moves) || p.moves != 1_115_480 {
		t.Fatalf("projection counts %d moves; PlanElastic plans %d (want 1115480)", p.moves, len(plan.Moves))
	}
	if p.bytes != plan.BytesTotal {
		t.Fatalf("projection moves %d bytes; PlanElastic %d", p.bytes, plan.BytesTotal)
	}
	if p.busiestMoves <= p.moves/old.NumDisks() || p.copyTime <= 0 {
		t.Fatalf("busiest source drive ships %d of %d moves in %v", p.busiestMoves, p.moves, p.copyTime)
	}
}

func TestRestripeProjectionRejectsDisksPerCubChange(t *testing.T) {
	old := layout.Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	fewer := layout.Config{Cubs: 16, DisksPerCub: 2, Decluster: 4}
	files := projectionFiles(4, 100, old.NumDisks())
	_, want := layout.PlanElastic(old, fewer, files)
	if want == nil {
		t.Fatal("PlanElastic accepted a disks-per-cub change")
	}
	p, err := projectRestripe(old, fewer, files, 262144, 1, 0.5)
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("projection = %+v, err %v; want PlanElastic's error %q", p, err, want)
	}
}
