package layout

import (
	"fmt"

	"tiger/internal/msg"
)

// ElasticMove is one block (or mirror piece) that must change homes when
// the cub count changes. Endpoints are named by physical identity —
// (cub, cub-local disk index) — because raw disk numbers are
// renumbered when the cub count changes: disk 5 of a 14-cub array and
// disk 5 of a 16-cub array are different spindles. A block whose number
// changes but whose spindle does not must not be copied.
type ElasticMove struct {
	File    msg.FileID
	Block   int32
	Part    int8 // -1 for the primary copy, else mirror piece index
	FromCub msg.NodeID
	FromIdx int8
	ToCub   msg.NodeID
	ToIdx   int8
	Bytes   int64
}

// ElasticPlan is the physical copy set for an elastic reconfiguration.
type ElasticPlan struct {
	Old, New   Config
	Moves      []ElasticMove
	BytesTotal int64
}

func physical(c Config, disk int) (msg.NodeID, int8) {
	return c.CubOfDisk(disk), int8(disk / c.Cubs)
}

// PlanElastic computes the physical moves needed to convert files laid
// out under old into the layout under new, where old and new may have
// different cub counts. The plan is deterministic: moves are emitted in
// file order, block-ascending, primary before mirror pieces.
func PlanElastic(old, new Config, files []File) (*ElasticPlan, error) {
	if err := old.Validate(); err != nil {
		return nil, fmt.Errorf("old config: %w", err)
	}
	if err := new.Validate(); err != nil {
		return nil, fmt.Errorf("new config: %w", err)
	}
	if old.DisksPerCub != new.DisksPerCub {
		return nil, fmt.Errorf("layout: elastic restripe cannot change disks per cub (%d -> %d)",
			old.DisksPerCub, new.DisksPerCub)
	}
	p := &ElasticPlan{Old: old, New: new}
	for _, f := range files {
		nf := f
		nf.StartDisk = f.StartDisk % new.NumDisks()
		for b := 0; b < f.Blocks; b++ {
			fromCub, fromIdx := physical(old, old.PrimaryDisk(f, b))
			toCub, toIdx := physical(new, new.PrimaryDisk(nf, b))
			if fromCub != toCub || fromIdx != toIdx {
				p.add(ElasticMove{File: f.ID, Block: int32(b), Part: -1,
					FromCub: fromCub, FromIdx: fromIdx, ToCub: toCub, ToIdx: toIdx,
					Bytes: f.BlockSize})
			}
			for part := 0; part < new.Decluster; part++ {
				toCub, toIdx := physical(new, new.SecondaryDisk(nf, b, part))
				var fromCub msg.NodeID
				var fromIdx int8
				if part < old.Decluster {
					fromCub, fromIdx = physical(old, old.SecondaryDisk(f, b, part))
				} else {
					fromCub, fromIdx = physical(old, old.PrimaryDisk(f, b))
				}
				if fromCub != toCub || fromIdx != toIdx || old.Decluster != new.Decluster {
					p.add(ElasticMove{File: f.ID, Block: int32(b), Part: int8(part),
						FromCub: fromCub, FromIdx: fromIdx, ToCub: toCub, ToIdx: toIdx,
						Bytes: new.MirrorPartSize(nf)})
				}
			}
		}
	}
	return p, nil
}

func (p *ElasticPlan) add(m ElasticMove) {
	p.Moves = append(p.Moves, m)
	p.BytesTotal += m.Bytes
}
