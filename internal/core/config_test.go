package core

import (
	"testing"
	"time"

	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/schedule"
)

func validConfig(t *testing.T) *Config {
	t.Helper()
	lay := layout.Config{Cubs: 4, DisksPerCub: 1, Decluster: 2}
	sp, err := schedule.NewParams(time.Second, 4, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{
		Layout: lay, Sched: sp, BlockSize: 262144,
		DiskParams: disk.DefaultParams(), CPUModel: DefaultCPUModel(),
		Files: map[msg.FileID]layout.File{
			1: {ID: 1, StartDisk: 0, Blocks: 100, BlockSize: 262144},
		},
	}
	cfg.DefaultTimings()
	return cfg
}

func TestConfigDefaults(t *testing.T) {
	cfg := validConfig(t)
	if cfg.MinVStateLead != 4*time.Second || cfg.MaxVStateLead != 9*time.Second {
		t.Fatalf("paper's typical leads not applied: %v/%v", cfg.MinVStateLead, cfg.MaxVStateLead)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := map[string]func(*Config){
		"disks mismatch":    func(c *Config) { c.Layout.DisksPerCub = 2 },
		"zero block":        func(c *Config) { c.BlockSize = 0 },
		"min>=max lead":     func(c *Config) { c.MinVStateLead = c.MaxVStateLead },
		"min under lead":    func(c *Config) { c.MinVStateLead = c.Sched.SchedLead },
		"fwd interval":      func(c *Config) { c.ForwardInterval = 6 * time.Second },
		"readahead":         func(c *Config) { c.ReadAhead = time.Millisecond },
		"deadman":           func(c *Config) { c.DeadmanTimeout = c.HeartbeatInterval },
		"file key mismatch": func(c *Config) { f := c.Files[1]; f.ID = 2; c.Files[1] = f },
		"file empty":        func(c *Config) { f := c.Files[1]; f.Blocks = 0; c.Files[1] = f },
		"file start oob":    func(c *Config) { f := c.Files[1]; f.StartDisk = 99; c.Files[1] = f },
		"bad layout":        func(c *Config) { c.Layout.Cubs = 0 },
		"bad sched ownership": func(c *Config) {
			c.Sched.OwnDur = 2 * c.Sched.BlockPlay
		},
	}
	for name, mutate := range mutations {
		cfg := validConfig(t)
		mutate(cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestMirrorHelpers(t *testing.T) {
	cfg := validConfig(t)
	if cfg.MirrorPace() != 500*time.Millisecond {
		t.Fatalf("mirror pace %v", cfg.MirrorPace())
	}
	if cfg.MirrorPartSize() != 131072 {
		t.Fatalf("part size %d", cfg.MirrorPartSize())
	}
	cfg.BlockSize = 7
	if cfg.MirrorPartSize() != 4 {
		t.Fatalf("ceil part size %d", cfg.MirrorPartSize())
	}
}

func TestIndexCoversExactlyLocalCopies(t *testing.T) {
	cfg := validConfig(t)
	f2 := layout.File{ID: 2, StartDisk: 3, Blocks: 37, BlockSize: 262144}
	cfg.Files[2] = f2
	for cub := msg.NodeID(0); cub < 4; cub++ {
		disks := cfg.Layout.DisksOfCub(cub)
		idx := buildIndexes(cfg, disks)
		for _, d := range disks {
			// Every primary and secondary the layout places here must be
			// present, and nothing else.
			want := 0
			for _, f := range cfg.Files {
				for b := 0; b < f.Blocks; b++ {
					if cfg.Layout.PrimaryDisk(f, b) == d {
						want++
						if _, err := idx[d].lookup(f.ID, int32(b), -1); err != nil {
							t.Fatal(err)
						}
					}
					for part := 0; part < cfg.Layout.Decluster; part++ {
						if cfg.Layout.SecondaryDisk(f, b, part) == d {
							want++
							e, err := idx[d].lookup(f.ID, int32(b), int8(part))
							if err != nil {
								t.Fatal(err)
							}
							if e.zone != disk.Inner {
								t.Fatal("secondary not in the inner zone")
							}
						}
					}
				}
			}
			if idx[d].size() != want {
				t.Fatalf("disk %d indexes %d copies, want %d", d, idx[d].size(), want)
			}
		}
	}
}

func TestIndexLookupMiss(t *testing.T) {
	cfg := validConfig(t)
	idx := buildIndexes(cfg, []int{0})
	if _, err := idx[0].lookup(99, 0, -1); err == nil {
		t.Fatal("missing file looked up successfully")
	}
}

// TestIndexScalesWithContentNotSystem confirms the paper's argument for
// a memory-resident index: metadata per disk depends on content volume
// per disk, not on system size.
func TestIndexScalesWithContentNotSystem(t *testing.T) {
	perDisk := func(cubs int) int {
		lay := layout.Config{Cubs: cubs, DisksPerCub: 1, Decluster: 2}
		sp, err := schedule.NewParams(time.Second, cubs, cubs*10)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[msg.FileID]layout.File)
		// Content scales with the system: 100 blocks per disk.
		for i := 0; i < cubs; i++ {
			files[msg.FileID(i)] = layout.File{ID: msg.FileID(i), StartDisk: i, Blocks: 100, BlockSize: 4}
		}
		cfg := &Config{Layout: lay, Sched: sp, BlockSize: 4,
			DiskParams: disk.DefaultParams(), Files: files}
		cfg.DefaultTimings()
		idx := buildIndexes(cfg, []int{0})
		return idx[0].size()
	}
	small, large := perDisk(4), perDisk(16)
	if large > small {
		t.Fatalf("per-disk index grew with system size: %d -> %d", small, large)
	}
}
