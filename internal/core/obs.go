package core

import (
	"strconv"

	"tiger/internal/disk"
	"tiger/internal/obs"
)

// This file wires the protocol to the observability registry
// (internal/obs). Instrumentation is strictly optional: the obs pointer
// stays nil until AttachObs, every recording site is nil-guarded, and
// the existing CubStats/ControllerStats counters remain the source of
// truth for tests — the registry is the export surface (tigerd's
// /metrics, tigerbench's JSONL artifacts), not a replacement.
//
// Counter and gauge updates are lock-free atomics, so the extra cost on
// the protocol hot path is one pointer test plus one CAS per event —
// cheap enough to leave attached during capacity experiments.

// startWaitBounds bucket the queue-to-insertion wait of start requests
// (seconds). The paper's Figure 10 puts typical slot waits well under a
// second even at high load; the tail buckets catch saturation.
var startWaitBounds = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// cubObs bundles the registry instruments one cub updates on its
// protocol paths. Field groups mirror CubStats.
type cubObs struct {
	inserts    *obs.Counter
	blocksSent *obs.Counter
	piecesSent *obs.Counter
	misses     *obs.Counter

	statesRecv *obs.Counter
	statesLate *obs.Counter
	statesDup  *obs.Counter
	conflicts  *obs.Counter

	deschedRecv *obs.Counter
	fwdBatches  *obs.Counter
	fwdMsgs     *obs.Counter
	mirrorsMade *obs.Counter
	piecesLost  *obs.Counter

	deadDeclared  *obs.Counter
	deathsRefuted *obs.Counter
	startsDup     *obs.Counter
	rejoins       *obs.Counter
	rejoinsServed *obs.Counter
	viewXfer      *obs.Counter
	mirrorsBack   *obs.Counter
	staleDrops    *obs.Counter

	// Gray-failure monitor (health.go).
	hedgesIssued      *obs.Counter
	hedgeLocalWins    *obs.Counter
	hedgeMirrorWins   *obs.Counter
	diskReadErrors    *obs.Counter
	diskSuspects      *obs.Counter
	diskRecoveries    *obs.Counter
	diskQuarantines   *obs.Counter
	diskUnquarantines *obs.Counter
	diskProbes        *obs.Counter
	diskHealth        map[int]*obs.Gauge // health state per local disk

	// Live-restripe mover (mover.go).
	movesOut     *obs.Counter
	movesIn      *obs.Counter
	moveBytesOut *obs.Counter
	moveBytesIn  *obs.Counter
	movesNacked  *obs.Counter
	moverPending *obs.Gauge

	// Degradation governor (park.go).
	parks      *obs.Counter
	resumes    *obs.Counter
	unservable *obs.Gauge

	// Controller failover (scavenge.go).
	ctlStaleDrops *obs.Counter
	ctlTakeovers  *obs.Counter
	scavServed    *obs.Counter
	ctlDown       *obs.Gauge

	viewSize *obs.Gauge
	queueLen *obs.Gauge
	bufBytes *obs.Gauge
	epoch    *obs.Gauge

	startWait *obs.Histogram
	spans     *obs.SpanRecorder
}

// AttachObs registers this cub's named instruments (labelled cub="N")
// and its per-disk instruments with the registry, and begins recording.
// Call it before Start, or from the node's executor; attaching is
// idempotent because the registry returns existing instruments.
func (c *Cub) AttachObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	cl := strconv.Itoa(int(c.id))
	ls := obs.Labels{"cub": cl}
	o := &cubObs{
		inserts:    reg.Counter("tiger_cub_inserts_total", "Slot insertions performed under ownership (§4.1.3).", ls),
		blocksSent: reg.Counter("tiger_cub_blocks_sent_total", "Primary blocks placed on the network.", ls),
		piecesSent: reg.Counter("tiger_cub_pieces_sent_total", "Declustered mirror pieces placed on the network.", ls),
		misses:     reg.Counter("tiger_cub_server_misses_total", "Scheduled sends that could not be made (late read or late state).", ls),

		statesRecv: reg.Counter("tiger_cub_states_recv_total", "Viewer states received.", ls),
		statesLate: reg.Counter("tiger_cub_states_late_total", "Viewer states discarded as too late (§4.1.2).", ls),
		statesDup:  reg.Counter("tiger_cub_states_dup_total", "Duplicate viewer states ignored.", ls),
		conflicts:  reg.Counter("tiger_cub_conflicts_total", "States for an occupied slot with another instance (should stay 0).", ls),

		deschedRecv: reg.Counter("tiger_cub_deschedules_total", "Deschedule requests received.", ls),
		fwdBatches:  reg.Counter("tiger_cub_gossip_batches_total", "Viewer-state gossip batches sent.", ls),
		fwdMsgs:     reg.Counter("tiger_cub_gossip_msgs_total", "Messages carried inside gossip batches.", ls),
		mirrorsMade: reg.Counter("tiger_cub_mirrors_made_total", "Mirror viewer-state chains created.", ls),
		piecesLost:  reg.Counter("tiger_cub_pieces_lost_total", "Mirror pieces undeliverable (covering cub dead).", ls),

		deadDeclared:  reg.Counter("tiger_cub_dead_declared_total", "Deadman transitions observed.", ls),
		deathsRefuted: reg.Counter("tiger_cub_deaths_refuted_total", "False death declarations withdrawn on proof of life.", ls),
		startsDup:     reg.Counter("tiger_cub_starts_dup_total", "Duplicate start-play enqueues ignored.", ls),
		rejoins:       reg.Counter("tiger_cub_rejoins_total", "Cold restarts this cub performed.", ls),
		rejoinsServed: reg.Counter("tiger_cub_rejoins_served_total", "Rejoin requests answered for neighbours.", ls),
		viewXfer:      reg.Counter("tiger_cub_view_transferred_total", "Schedule entries rebuilt from rejoin replies.", ls),
		mirrorsBack:   reg.Counter("tiger_cub_mirrors_retired_total", "Mirror entries handed back to a rejoined primary.", ls),
		staleDrops:    reg.Counter("tiger_cub_stale_epoch_drops_total", "Messages discarded for carrying a stale epoch.", ls),

		hedgesIssued:      reg.Counter("tiger_cub_hedges_issued_total", "Mirror chains launched to hedge reads on suspected disks.", ls),
		hedgeLocalWins:    reg.Counter("tiger_cub_hedge_local_wins_total", "Hedged sends where the local read completed in time.", ls),
		hedgeMirrorWins:   reg.Counter("tiger_cub_hedge_mirror_wins_total", "Hedged sends covered by the declustered mirror pieces.", ls),
		diskReadErrors:    reg.Counter("tiger_cub_disk_read_errors_total", "Transient read failures reported by local drives.", ls),
		diskSuspects:      reg.Counter("tiger_cub_disk_suspects_total", "Disk health transitions healthy→suspected.", ls),
		diskRecoveries:    reg.Counter("tiger_cub_disk_recoveries_total", "Disk health transitions suspected→healthy.", ls),
		diskQuarantines:   reg.Counter("tiger_cub_disk_quarantines_total", "Disk health transitions suspected→quarantined.", ls),
		diskUnquarantines: reg.Counter("tiger_cub_disk_unquarantines_total", "Quarantines cleared by passing probes.", ls),
		diskProbes:        reg.Counter("tiger_cub_disk_probes_total", "Probe reads issued against quarantined drives.", ls),

		movesOut:     reg.Counter("tiger_cub_moves_out_total", "Restripe copies read and shipped by this cub.", ls),
		movesIn:      reg.Counter("tiger_cub_moves_in_total", "Restripe copies landed on this cub's drives.", ls),
		moveBytesOut: reg.Counter("tiger_cub_move_bytes_out_total", "Bytes of restripe copies shipped.", ls),
		moveBytesIn:  reg.Counter("tiger_cub_move_bytes_in_total", "Bytes of restripe copies landed.", ls),
		movesNacked:  reg.Counter("tiger_cub_moves_nacked_total", "Move orders refused (source drive failed or quarantined).", ls),
		moverPending: reg.Gauge("tiger_cub_moves_pending", "Restripe copy jobs queued on this cub's drives.", ls),

		parks:      reg.Counter("tiger_cub_parks_total", "Governor park orders processed (first sighting per instance).", ls),
		resumes:    reg.Counter("tiger_cub_resumes_total", "Governor resume notices processed.", ls),
		unservable: reg.Gauge("tiger_cub_unservable_disks", "Disks this cub computes mirror-exhausted from its death beliefs.", ls),

		ctlStaleDrops: reg.Counter("tiger_cub_ctl_stale_drops_total", "Orders dropped for carrying a dead controller incarnation's epoch.", ls),
		ctlTakeovers:  reg.Counter("tiger_cub_ctl_takeovers_total", "Controller epoch bumps observed (takeovers).", ls),
		scavServed:    reg.Counter("tiger_cub_scavenges_served_total", "Takeover scavenge requests answered with an inventory.", ls),
		ctlDown:       reg.Gauge("tiger_cub_ctl_down", "1 while this cub's deadman believes the controller dead.", ls),

		viewSize: reg.Gauge("tiger_cub_view_entries", "Schedule entries currently in the cub's view.", ls),
		queueLen: reg.Gauge("tiger_cub_queued_starts", "Start requests waiting for a free slot.", ls),
		bufBytes: reg.Gauge("tiger_cub_buffered_bytes", "Block buffer bytes currently held.", ls),
		epoch:    reg.Gauge("tiger_cub_epoch", "Liveness epoch (bumps on cold restart).", ls),

		startWait: reg.Histogram("tiger_cub_start_wait_seconds", "Queue-to-insertion wait of start requests.", ls, startWaitBounds),
		spans:     obs.NewSpanRecorder(reg, ls),
	}
	reg.AddHistogram("tiger_cub_recovery_seconds", "Restart-to-reintegration time.", ls, c.recovery)
	o.epoch.Set(float64(c.epoch))
	c.obs = o

	o.diskHealth = make(map[int]*obs.Gauge, len(c.disks))
	for dnum, dk := range c.disks {
		dls := obs.Labels{"cub": cl, "disk": strconv.Itoa(dnum)}
		dk.SetObs(disk.Obs{
			Reads:       reg.Counter("tiger_disk_reads_total", "Disk read operations started.", dls),
			Bytes:       reg.Counter("tiger_disk_read_bytes_total", "Bytes read from disk.", dls),
			BusySeconds: reg.Counter("tiger_disk_busy_seconds_total", "Cumulative disk service time.", dls),
			Queue:       reg.Gauge("tiger_disk_queue_depth", "Outstanding reads including the one in service.", dls),
			Cancelled:   reg.Counter("tiger_disk_cancelled_reads_total", "Reads withdrawn before or during service.", dls),
			Errors:      reg.Counter("tiger_disk_read_errors_total", "Reads completed with a transient failure.", dls),
		})
		g := reg.Gauge("tiger_disk_health_state", "Gray-failure monitor state: 0 healthy, 1 suspected, 2 quarantined.", dls)
		o.diskHealth[dnum] = g
		if h := c.health[dnum]; h != nil {
			g.Set(float64(h.state))
		}
	}
}

// Spans exposes the cub's block-lifecycle span recorder (nil when no
// registry is attached); harnesses use it to record the client-side
// receipt stage against the same deadline series.
func (c *Cub) Spans() *obs.SpanRecorder {
	if c.obs == nil {
		return nil
	}
	return c.obs.spans
}

// ctlObs bundles the controller's registry instruments.
type ctlObs struct {
	starts   *obs.Counter
	stops    *obs.Counter
	acks     *obs.Counter
	eofs     *obs.Counter
	rejected *obs.Counter
	active   *obs.Gauge
	slotWait *obs.Histogram

	// Live-restripe coordinator (restriper.go).
	rsCommitted *obs.Counter
	rsRerouted  *obs.Counter

	// Degradation governor (governor.go).
	parked       *obs.Gauge
	unservable   *obs.Gauge
	parksTotal   *obs.Counter
	resumesTotal *obs.Counter

	// Controller failover (scavenge.go).
	epoch       *obs.Gauge
	takeovers   *obs.Counter
	scavReplies *obs.Counter
}

// AttachObs registers the controller's instruments with the registry.
func (c *Controller) AttachObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.obs = &ctlObs{
		starts:   reg.Counter("tiger_ctrl_starts_total", "Start-play requests accepted.", nil),
		stops:    reg.Counter("tiger_ctrl_stops_total", "Stop-play requests handled.", nil),
		acks:     reg.Counter("tiger_ctrl_acks_total", "Insertion acknowledgements confirmed.", nil),
		eofs:     reg.Counter("tiger_ctrl_eofs_total", "Streams that reached end of file.", nil),
		rejected: reg.Counter("tiger_ctrl_rejected_total", "Start requests refused by the admission limit.", nil),
		active:   reg.Gauge("tiger_ctrl_active_streams", "Currently inserted streams.", nil),
		slotWait: reg.Histogram("tiger_ctrl_slot_wait_seconds", "Request-to-insertion latency seen by the controller.", nil, startWaitBounds),

		rsCommitted: reg.Counter("tiger_restripe_commits_total", "Restripe moves committed at their destinations.", nil),
		rsRerouted:  reg.Counter("tiger_restripe_reroutes_total", "Restripe moves re-routed to a redundant copy.", nil),

		parked:       reg.Gauge("tiger_governor_parked_streams", "Streams currently parked by the degradation governor.", nil),
		unservable:   reg.Gauge("tiger_governor_unservable_disks", "Disks the governor currently computes mirror-exhausted.", nil),
		parksTotal:   reg.Counter("tiger_governor_parks_total", "Streams parked by the degradation governor.", nil),
		resumesTotal: reg.Counter("tiger_governor_resumes_total", "Parked streams re-admitted after capacity returned.", nil),

		epoch:       reg.Gauge("tiger_ctrl_epoch", "Controller incarnation epoch (bumps on takeover).", nil),
		takeovers:   reg.Counter("tiger_ctrl_takeovers_total", "Controller incarnation restarts performed.", nil),
		scavReplies: reg.Counter("tiger_ctrl_scavenge_replies_total", "Cub inventory replies folded during takeovers.", nil),
	}
	reg.AddHistogram("tiger_ctrl_takeover_seconds", "Restart-to-rebuilt duration of controller takeovers.", nil, c.takeover)
	c.obs.epoch.Set(float64(c.ctlEpoch))
}
