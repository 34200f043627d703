package core

import (
	"runtime"
	"testing"
	"time"

	"tiger/internal/clock"
	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/schedule"
	"tiger/internal/sim"
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
	// Every primary and secondary the layout places on a disk is found
	// there, and no copy is found anywhere else.
	for d := 0; d < cfg.Layout.NumDisks(); d++ {
		for _, f := range cfg.Files {
			for b := 0; b < f.Blocks; b++ {
				e, err := locate(cfg, d, f.ID, int32(b), -1)
				if here := cfg.Layout.PrimaryDisk(f, b) == d; here != (err == nil) {
					t.Fatalf("disk %d file %d block %d primary: placed here %v, lookup err %v", d, f.ID, b, here, err)
				}
				if err == nil && (e.zone != disk.Outer || e.bytes != cfg.BlockSize) {
					t.Fatalf("primary located as %+v", e)
				}
				for part := 0; part < cfg.Layout.Decluster; part++ {
					e, err := locate(cfg, d, f.ID, int32(b), int8(part))
					if here := cfg.Layout.SecondaryDisk(f, b, part) == d; here != (err == nil) {
						t.Fatalf("disk %d file %d block %d part %d: placed here %v, lookup err %v", d, f.ID, b, part, here, err)
					}
					if err == nil && (e.zone != disk.Inner || e.bytes != cfg.MirrorPartSize()) {
						t.Fatalf("secondary located as %+v", e)
					}
				}
			}
		}
	}
}

func TestIndexLookupMiss(t *testing.T) {
	cfg := validConfig(t)
	f := cfg.Files[1]
	on := cfg.Layout.PrimaryDisk(f, 5)
	for _, tc := range []struct {
		name  string
		disk  int
		file  msg.FileID
		block int32
		part  int8
	}{
		{"unknown file", 0, 99, 0, -1},
		{"negative block", on, 1, -1, -1},
		{"block past the end", on, 1, int32(f.Blocks), -1},
		{"part past the decluster", on, 1, 5, int8(cfg.Layout.Decluster)},
		{"wrong disk", (on + 1) % cfg.Layout.NumDisks(), 1, 5, -1},
	} {
		if _, err := locate(cfg, tc.disk, tc.file, tc.block, tc.part); err == nil {
			t.Errorf("%s: located successfully", tc.name)
		}
	}
}

// TestIndexScalesWithContentNotSystem confirms that a cub keeps no
// per-block metadata: the paper holds block locations in cub memory
// (§4.1.1), and here the striping arithmetic is that memory, so
// building a cub costs the same whatever the length of the content.
func TestIndexScalesWithContentNotSystem(t *testing.T) {
	build := func(blocks int) uint64 {
		cfg := validConfig(t)
		for i := 0; i < 64; i++ {
			cfg.Files[msg.FileID(i)] = layout.File{ID: msg.FileID(i), StartDisk: i % 4, Blocks: blocks, BlockSize: 262144}
		}
		eng := sim.New(1)
		clk := clock.Sim{Eng: eng}
		net := netsim.New(netsim.DefaultParams(), clk, eng.Rand())
		var best uint64
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			NewCub(0, cfg, clk, net, net, eng.Rand())
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; try == 0 || n < best {
				best = n
			}
		}
		return best
	}
	short, long := build(100), build(1000)
	if float64(long) > 1.1*float64(short) {
		t.Fatalf("building a cub allocated %d bytes with 100-block files, %d with 1000-block files", short, long)
	}
}
