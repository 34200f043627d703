package core

import (
	"fmt"

	"tiger/internal/disk"
	"tiger/internal/msg"
)

// indexEntry is the 64-bit-ish locator the paper describes: enough to
// find the block on the platters.
type indexEntry struct {
	zone  disk.Zone
	bytes int64
}

// copyShape returns where on the platters, and how large, one copy of a
// block is: a primary (part -1) fills BlockSize bytes of the fast outer
// zone, a mirror piece MirrorPartSize bytes of the inner zone (§2.3).
func copyShape(cfg *Config, part int8) indexEntry {
	if part < 0 {
		return indexEntry{zone: disk.Outer, bytes: cfg.BlockSize}
	}
	return indexEntry{zone: disk.Inner, bytes: cfg.MirrorPartSize()}
}

// locate finds a block copy on one of a generation's disks (numbered in
// that generation). The paper keeps this metadata in cub memory rather
// than on the data disks, since an extra metadata seek before every
// block read would cost too much (§4.1.1); here the striping arithmetic
// is that memory, so a cub holds nothing per block. An error means the
// layout does not place the copy on the disk, which is always a bug,
// not a runtime condition.
func locate(cfg *Config, gd int, file msg.FileID, block int32, part int8) (indexEntry, error) {
	f, ok := cfg.Files[file]
	on := -1 // stays -1 when the file, block or part is out of range
	switch {
	case !ok || block < 0 || int(block) >= f.Blocks:
	case part < 0:
		on = cfg.Layout.PrimaryDisk(f, int(block))
	case int(part) < cfg.Layout.Decluster:
		on = cfg.Layout.SecondaryDisk(f, int(block), int(part))
	}
	if on != gd {
		return indexEntry{}, fmt.Errorf("disk %d: no copy of file %d block %d part %d",
			gd, file, block, part)
	}
	return copyShape(cfg, part), nil
}
