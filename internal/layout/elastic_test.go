package layout

import (
	"fmt"
	"testing"

	"tiger/internal/msg"
)

func elasticFiles(n, blocks, numDisks int) []File {
	files := make([]File, n)
	for i := range files {
		files[i] = File{ID: msg.FileID(i), StartDisk: (i * 7) % numDisks,
			Blocks: blocks, Bitrate: 6 << 20, BlockSize: 262144}
	}
	return files
}

// Shrinking below the declustering width must surface as an error from
// the planner, never a panic: decluster 4 needs at least 5 disks.
func TestPlanShrinkBelowDeclusterErrors(t *testing.T) {
	old := Config{Cubs: 6, DisksPerCub: 1, Decluster: 4}
	bad := Config{Cubs: 4, DisksPerCub: 1, Decluster: 4}
	files := elasticFiles(2, 10, old.NumDisks())
	if _, err := PlanElastic(old, bad, files); err == nil {
		t.Fatalf("PlanElastic accepted a %d-disk config with decluster %d",
			bad.NumDisks(), bad.Decluster)
	}
}

func TestRestripeRejectsBadConfigs(t *testing.T) {
	good := cfg(3, 1, 1)
	if _, err := PlanElastic(cfg(0, 1, 1), good, nil); err == nil {
		t.Error("bad old config accepted")
	}
	if _, err := PlanElastic(good, cfg(0, 1, 1), nil); err == nil {
		t.Error("bad new config accepted")
	}
	// The elastic planner moves whole cubs; a disks-per-cub change would
	// renumber every cub-local index.
	if _, err := PlanElastic(good, cfg(3, 2, 1), nil); err == nil {
		t.Error("disks-per-cub change accepted")
	}
}

// A no-op reconfiguration (same config) must plan zero moves: every
// block's physical home is unchanged.
func TestPlanElasticNoop(t *testing.T) {
	cfg := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	files := elasticFiles(8, 100, cfg.NumDisks())
	p, err := PlanElastic(cfg, cfg, files)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Moves) != 0 || p.BytesTotal != 0 {
		t.Fatalf("no-op plan has %d moves, %d bytes", len(p.Moves), p.BytesTotal)
	}
}

func TestRestripeIdentityIsEmpty(t *testing.T) {
	c := cfg(4, 2, 2)
	files := []File{{ID: 1, StartDisk: 3, Blocks: 100, BlockSize: 64}}
	p, err := PlanElastic(c, c, files)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Moves) != 0 {
		t.Fatalf("identity restripe moved %d blocks", len(p.Moves))
	}
}

// Adding a cub must move something, and every move must land on the
// physical drive the new layout homes its block (or piece) on.
func TestRestripeAddCub(t *testing.T) {
	old, grow := cfg(4, 2, 2), cfg(5, 2, 2)
	files := []File{{ID: 0, StartDisk: 0, Blocks: 400, BlockSize: 64}}
	p, err := PlanElastic(old, grow, files)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Moves) == 0 {
		t.Fatal("adding a cub moved nothing")
	}
	nf := files[0]
	nf.StartDisk %= grow.NumDisks()
	for _, m := range p.Moves {
		want := grow.PrimaryDisk(nf, int(m.Block))
		if m.Part >= 0 {
			want = grow.SecondaryDisk(nf, int(m.Block), int(m.Part))
		}
		if cub, idx := physical(grow, want); m.ToCub != cub || m.ToIdx != idx {
			t.Fatalf("block %d part %d moved to cub %d disk %d, want cub %d disk %d",
				m.Block, m.Part, m.ToCub, m.ToIdx, cub, idx)
		}
	}
}

// Every byte a drive sends must arrive at some drive, and the per-drive
// sums must match the plan total.
func TestRestripeByteAccounting(t *testing.T) {
	old, grow := cfg(3, 1, 1), cfg(4, 1, 1)
	files := []File{{ID: 0, StartDisk: 1, Blocks: 60, BlockSize: 100}}
	p, err := PlanElastic(old, grow, files)
	if err != nil {
		t.Fatal(err)
	}
	type drive struct {
		cub msg.NodeID
		idx int8
	}
	out, in := make(map[drive]int64), make(map[drive]int64)
	for _, m := range p.Moves {
		out[drive{m.FromCub, m.FromIdx}] += m.Bytes
		in[drive{m.ToCub, m.ToIdx}] += m.Bytes
	}
	var sumOut, sumIn int64
	for _, b := range out {
		sumOut += b
	}
	for _, b := range in {
		sumIn += b
	}
	if sumOut == 0 || sumOut != sumIn || sumOut != p.BytesTotal {
		t.Fatalf("bytes out %d, in %d, plan total %d", sumOut, sumIn, p.BytesTotal)
	}
}

// The plan must be byte-for-byte deterministic across runs: the live
// restripe coordinator numbers moves by slice index, and the chaos
// experiments replay fixed seeds against those numbers.
func TestPlanElasticDeterministic(t *testing.T) {
	old := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	grow := Config{Cubs: 16, DisksPerCub: 4, Decluster: 4}
	files := elasticFiles(12, 100, old.NumDisks())
	render := func() string {
		p, err := PlanElastic(old, grow, files)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v|%d", p.Moves, p.BytesTotal)
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("PlanElastic not deterministic across runs")
	}
}

// Moves must never target a cub outside the new config or source one
// outside the old, every destination must be the block's (or piece's)
// home under the new layout, and a grow must route some blocks to the
// new cubs.
func TestPlanElasticGrowTargets(t *testing.T) {
	old := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	grow := Config{Cubs: 16, DisksPerCub: 4, Decluster: 4}
	files := elasticFiles(12, 100, old.NumDisks())
	p, err := PlanElastic(old, grow, files)
	if err != nil {
		t.Fatal(err)
	}
	toNew := 0
	for _, m := range p.Moves {
		if int(m.FromCub) >= old.Cubs || int(m.ToCub) >= grow.Cubs {
			t.Fatalf("move %+v escapes the configs", m)
		}
		if int(m.FromIdx) >= old.DisksPerCub || int(m.ToIdx) >= grow.DisksPerCub {
			t.Fatalf("move %+v names a bad disk index", m)
		}
		nf := files[m.File]
		nf.StartDisk %= grow.NumDisks()
		home := grow.PrimaryDisk(nf, int(m.Block))
		if m.Part >= 0 {
			home = grow.SecondaryDisk(nf, int(m.Block), int(m.Part))
		}
		if cub, idx := physical(grow, home); m.ToCub != cub || m.ToIdx != idx {
			t.Fatalf("move %+v lands on cub %d disk %d, want its new home", m, cub, idx)
		}
		if int(m.ToCub) >= old.Cubs {
			toNew++
		}
	}
	if len(p.Moves) == 0 || toNew == 0 {
		t.Fatalf("grow plan: %d moves, %d to new cubs", len(p.Moves), toNew)
	}
}

// A shrink plan must evacuate the retiring cubs completely: after the
// plan, no block or piece may still be homed on a cub >= new.Cubs.
func TestPlanElasticShrinkEvacuates(t *testing.T) {
	old := Config{Cubs: 14, DisksPerCub: 4, Decluster: 4}
	shrink := Config{Cubs: 12, DisksPerCub: 4, Decluster: 4}
	files := elasticFiles(12, 100, old.NumDisks())
	p, err := PlanElastic(old, shrink, files)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range p.Moves {
		if int(m.ToCub) >= shrink.Cubs {
			t.Fatalf("shrink move %+v targets a retiring cub", m)
		}
	}
	// Exhaustively check evacuation: every (file, block, part) homed on a
	// retiring cub under old must appear as a move source or, when the
	// new layout re-homes it, as the matching destination elsewhere.
	moved := make(map[string]bool, len(p.Moves))
	for _, m := range p.Moves {
		moved[fmt.Sprintf("%d/%d/%d", m.File, m.Block, m.Part)] = true
	}
	for _, f := range files {
		nf := f
		nf.StartDisk = f.StartDisk % shrink.NumDisks()
		for b := 0; b < f.Blocks; b++ {
			if cub, _ := physical(old, old.PrimaryDisk(f, b)); int(cub) >= shrink.Cubs {
				if !moved[fmt.Sprintf("%d/%d/-1", f.ID, b)] {
					t.Fatalf("file %d block %d stranded on retiring cub %d", f.ID, b, cub)
				}
			}
			for part := 0; part < old.Decluster; part++ {
				if cub, _ := physical(old, old.SecondaryDisk(f, b, part)); int(cub) >= shrink.Cubs {
					if !moved[fmt.Sprintf("%d/%d/%d", f.ID, b, part)] {
						t.Fatalf("file %d block %d part %d stranded on retiring cub %d", f.ID, b, part, cub)
					}
				}
			}
		}
	}
}

// TestRestripeTimeIndependentOfSystemSize demonstrates §2.2's claim on
// the planner the online restripe runs: the time to restripe is bounded
// by the busiest drive, not by system size, because every drive copies
// in parallel through the switched network. With content growing in
// step with the system, adding one cub to a 16-cub array loads the
// busiest physical drive (bytes in plus bytes out) less than twice as
// much as adding one to a 4-cub array.
func TestRestripeTimeIndependentOfSystemSize(t *testing.T) {
	type drive struct {
		cub msg.NodeID
		idx int8
	}
	busiest := func(cubs int) int64 {
		old, grow := cfg(cubs, 2, 2), cfg(cubs+1, 2, 2)
		files := make([]File, cubs) // content scales with system size
		for i := range files {
			files[i] = File{ID: msg.FileID(i), StartDisk: (i * 3) % old.NumDisks(),
				Blocks: 200 * old.NumDisks() / len(files), BlockSize: 262144}
		}
		p, err := PlanElastic(old, grow, files)
		if err != nil {
			t.Fatal(err)
		}
		load := make(map[drive]int64)
		var total int64
		for _, m := range p.Moves {
			load[drive{m.FromCub, m.FromIdx}] += m.Bytes
			load[drive{m.ToCub, m.ToIdx}] += m.Bytes
			total += m.Bytes
		}
		if total != p.BytesTotal {
			t.Fatalf("%d cubs: moves carry %d bytes, plan total %d", cubs, total, p.BytesTotal)
		}
		var worst int64
		for _, b := range load {
			worst = max(worst, b)
		}
		return worst
	}
	small, large := busiest(4), busiest(16)
	t.Logf("busiest drive in+out: 4->5 cubs %d bytes; 16->17 cubs %d bytes", small, large)
	if small <= 0 || large <= 0 {
		t.Fatalf("busiest drive loads: %d vs %d", small, large)
	}
	if ratio := float64(large) / float64(small); ratio > 2 {
		t.Fatalf("busiest drive load grew %.1fx when the system grew 4x", ratio)
	}
}
