// Package core implements Tiger's distributed schedule management (§4 of
// the paper): cubs that hold partial, possibly out-of-date views of a
// global schedule that exists only as a "coherent hallucination", the
// viewer-state gossip that keeps those views coherent, idempotent
// deschedules, slot insertion under time-based ownership, the deadman
// failure detector, and mirror takeover for failed components.
//
// The protocol code is written against clock.Clock and Transport
// interfaces so the identical cub logic runs under the deterministic
// simulator (internal/sim + internal/netsim) and under real time
// (internal/rt).
package core

import (
	"fmt"
	"time"

	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/schedule"
)

// Transport sends control messages between nodes. netsim.Network and the
// real TCP mesh both satisfy it.
type Transport interface {
	Send(from, to msg.NodeID, m msg.Message)
}

// SteadySender is an optional Transport refinement: SendSteady delivers
// like Send but without drawing from the transport's shared jitter
// stream, so periodic liveness traffic (the controller heartbeat) cannot
// perturb the randomness alignment of everything else in a simulated
// run. netsim.Network implements it; the TCP mesh just uses Send.
type SteadySender interface {
	SendSteady(from, to msg.NodeID, m msg.Message)
}

// Config is the static, globally agreed configuration of a Tiger system.
// Every node gets an identical copy; nothing in it is negotiated at run
// time.
type Config struct {
	Layout layout.Config
	Sched  schedule.Params

	BlockSize int64 // bytes per block (single-bitrate system, §2.2)

	// Viewer-state forwarding control (§4.1.1). Cubs keep the schedule
	// updated at least MinVStateLead into the future and never forward
	// viewer states more than MaxVStateLead ahead; the gap lets them
	// batch states into single messages.
	MinVStateLead   time.Duration
	MaxVStateLead   time.Duration
	ForwardInterval time.Duration // batching cadence

	// DescheduleHold is how long deschedule records are retained after
	// the slot they describe has passed the holding cub (§4.1.2).
	DescheduleHold time.Duration

	// ReadAhead is how far before a block's send deadline its disk read
	// is issued ("the disks run at least one block service time ahead of
	// the schedule. Usually, they run a little earlier", §3.1).
	ReadAhead time.Duration

	// Deadman protocol (§2.3).
	HeartbeatInterval time.Duration
	DeadmanTimeout    time.Duration

	// AdmitLimit caps schedule load for new insertions (the controller
	// refuses starts past this fraction of capacity). The paper's code
	// has such a limit, disabled for the §5 experiments; 0 disables it.
	AdmitLimit float64

	// SingleForward disables double forwarding of viewer states: each
	// state goes only to the first living successor. The paper rejected
	// this design because schedule information held only by a cub when
	// it fails is lost until laboriously reconstructed (§4.1.1); the
	// knob exists to reproduce that ablation.
	SingleForward bool

	DiskParams disk.Params
	CPUModel   CPUModel

	// Health tunes the per-disk gray-failure monitor (DESIGN §12).
	Health HealthParams

	// Governor tunes the correlated-failure degradation governor
	// (governor.go). Off unless Governor.Enable is set: parking is a
	// policy choice layered on the protocol, and the fault experiments
	// that predate it measure raw mirror behaviour.
	Governor GovernorParams

	Files map[msg.FileID]layout.File
}

// GovernorParams tune the degradation governor: when correlated
// failures exhaust mirror coverage, the controller parks the fewest
// streams whose play trajectories cross the unservable disks so every
// surviving stream keeps a clean schedule. Zero fields take
// DefaultTimings' defaults.
type GovernorParams struct {
	// Enable turns the governor on. Without it, correlated failures
	// degrade every stream crossing the dead span (the paper's
	// behaviour).
	Enable bool

	// GuardBlocks widens the park test around a stream's current disk:
	// a stream is parked when any disk within [-1, GuardBlocks+Horizon]
	// block-times of its position is unservable. The -1 end covers a
	// send already in flight; GuardBlocks covers reads already issued.
	GuardBlocks int

	// Horizon is how many additional block-times ahead the rolling
	// sweep looks, so a stream is parked at least Horizon block plays
	// before its first unservable deadline.
	Horizon int

	// Tick is the rolling sweep cadence while any disk is unservable;
	// 0 means one block play time.
	Tick time.Duration

	// ResumeDelay is how long after the unservable set empties the
	// governor waits before draining the re-admission queue — long
	// enough for the restarted cub's rejoin handshake to finish.
	ResumeDelay time.Duration
}

// HealthParams tune the per-disk gray-failure monitor: the EWMA slack
// detector, the healthy → suspected → quarantined state machine, and the
// un-quarantine probe loop. Zero fields take DefaultTimings' defaults;
// Disable turns the whole monitor off (the unmitigated ablation arm of
// the grayfail sweep).
type HealthParams struct {
	Disable bool

	// SlackAlpha is the EWMA weight of the newest completion sample, for
	// both the normalized-slack and the issue-to-completion latency
	// estimators.
	SlackAlpha float64

	// SuspectSlack and HealthySlack are normalized-slack EWMA thresholds
	// in units of the zoned worst-case service time: below SuspectSlack a
	// healthy disk becomes suspected; back above HealthySlack (with a
	// clean streak) a suspected disk recovers. A healthy fully loaded
	// disk sits far above both (slack ≈ ReadAhead / worst-case service),
	// so the hysteresis band only engages on genuine degradation.
	SuspectSlack float64
	HealthySlack float64

	// SuspectAfter / QuarantineAfter are the consecutive bad-event
	// streaks (late completion, failed read, or deadline miss) that force
	// healthy → suspected and suspected → quarantined regardless of the
	// EWMA — the only signal path a stuck drive ever produces.
	SuspectAfter    int
	QuarantineAfter int

	// ProbeInterval is the cadence of single-block probe reads against a
	// quarantined drive; ProbeGood consecutive probes completing within
	// 1.5× the worst-case service budget un-quarantine it, at an
	// unchanged epoch.
	ProbeInterval time.Duration
	ProbeGood     int
}

// DefaultTimings fills in the paper's typical protocol constants.
func (c *Config) DefaultTimings() {
	if c.MinVStateLead == 0 {
		c.MinVStateLead = 4 * time.Second
	}
	if c.MaxVStateLead == 0 {
		c.MaxVStateLead = 9 * time.Second
	}
	if c.ForwardInterval == 0 {
		c.ForwardInterval = 500 * time.Millisecond
	}
	if c.DescheduleHold == 0 {
		c.DescheduleHold = 3 * time.Second
	}
	if c.ReadAhead == 0 {
		// One second of read-ahead: the cubs' 20 MB buffer caches bound
		// how far ahead of the schedule the disks can usefully run, and
		// deeper prefetch only delays late-read detection (§3.1).
		c.ReadAhead = time.Second
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.DeadmanTimeout == 0 {
		c.DeadmanTimeout = 2500 * time.Millisecond
	}
	if c.Health.SlackAlpha == 0 {
		c.Health.SlackAlpha = 0.2
	}
	if c.Health.SuspectSlack == 0 {
		c.Health.SuspectSlack = 3
	}
	if c.Health.HealthySlack == 0 {
		c.Health.HealthySlack = 6
	}
	if c.Health.SuspectAfter == 0 {
		c.Health.SuspectAfter = 3
	}
	if c.Health.QuarantineAfter == 0 {
		c.Health.QuarantineAfter = 8
	}
	if c.Health.ProbeInterval == 0 {
		c.Health.ProbeInterval = 5 * time.Second
	}
	if c.Health.ProbeGood == 0 {
		c.Health.ProbeGood = 3
	}
	if c.Governor.GuardBlocks == 0 {
		c.Governor.GuardBlocks = 1
	}
	if c.Governor.Horizon == 0 {
		c.Governor.Horizon = 2
	}
	if c.Governor.ResumeDelay == 0 {
		c.Governor.ResumeDelay = c.DeadmanTimeout
	}
}

// Validate checks cross-field consistency.
func (c *Config) Validate() error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if err := c.Sched.Validate(); err != nil {
		return err
	}
	if c.Layout.NumDisks() != c.Sched.NumDisks {
		return fmt.Errorf("core: layout has %d disks but schedule has %d",
			c.Layout.NumDisks(), c.Sched.NumDisks)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("core: non-positive block size %d", c.BlockSize)
	}
	if c.MinVStateLead >= c.MaxVStateLead {
		return fmt.Errorf("core: minVStateLead %v must be below maxVStateLead %v",
			c.MinVStateLead, c.MaxVStateLead)
	}
	if c.MinVStateLead <= c.Sched.SchedLead {
		return fmt.Errorf("core: minVStateLead %v must exceed the scheduling lead %v (§4.1.3)",
			c.MinVStateLead, c.Sched.SchedLead)
	}
	// §4.1.3: in the single-bitrate Tiger the block play time must exceed
	// the largest expected inter-cub latency; we cannot check the real
	// network here, but the forwarding machinery additionally needs the
	// batching interval to fit comfortably inside the lead gap.
	if c.ForwardInterval > c.MaxVStateLead-c.MinVStateLead {
		return fmt.Errorf("core: forward interval %v exceeds the vstate lead gap %v",
			c.ForwardInterval, c.MaxVStateLead-c.MinVStateLead)
	}
	if c.ReadAhead < c.Sched.BlockService {
		return fmt.Errorf("core: read-ahead %v below one block service time %v",
			c.ReadAhead, c.Sched.BlockService)
	}
	if c.DeadmanTimeout < 2*c.HeartbeatInterval {
		return fmt.Errorf("core: deadman timeout %v under two heartbeat intervals", c.DeadmanTimeout)
	}
	if c.Governor.Enable {
		g := c.Governor
		if g.GuardBlocks < 0 || g.Horizon < 0 {
			return fmt.Errorf("core: governor guard/horizon must be non-negative: %+v", g)
		}
		if g.Tick < 0 || g.ResumeDelay < 0 {
			return fmt.Errorf("core: governor tick/resume delay must be non-negative: %+v", g)
		}
	}
	if !c.Health.Disable {
		h := c.Health
		if h.SlackAlpha <= 0 || h.SlackAlpha > 1 {
			return fmt.Errorf("core: health slack alpha %v outside (0,1]", h.SlackAlpha)
		}
		if h.SuspectSlack >= h.HealthySlack {
			return fmt.Errorf("core: health suspect slack %v must be below healthy slack %v (hysteresis)",
				h.SuspectSlack, h.HealthySlack)
		}
		if h.SuspectAfter <= 0 || h.QuarantineAfter <= 0 || h.ProbeGood <= 0 {
			return fmt.Errorf("core: health streak/probe counts must be positive: %+v", h)
		}
		if h.ProbeInterval <= 0 {
			return fmt.Errorf("core: health probe interval %v must be positive", h.ProbeInterval)
		}
	}
	for id, f := range c.Files {
		if f.ID != id {
			return fmt.Errorf("core: file map key %d does not match file ID %d", id, f.ID)
		}
		if f.Blocks <= 0 {
			return fmt.Errorf("core: file %d has no blocks", id)
		}
		if f.StartDisk < 0 || f.StartDisk >= c.Layout.NumDisks() {
			return fmt.Errorf("core: file %d start disk %d out of range", id, f.StartDisk)
		}
	}
	return nil
}

// MirrorPace returns the pacing interval between declustered mirror
// pieces: block play time divided by the decluster factor (§4.1.1).
func (c *Config) MirrorPace() time.Duration {
	return c.Sched.BlockPlay / time.Duration(c.Layout.Decluster)
}

// MirrorPartSize returns the size of one declustered secondary piece.
func (c *Config) MirrorPartSize() int64 {
	dc := int64(c.Layout.Decluster)
	return (c.BlockSize + dc - 1) / dc
}
