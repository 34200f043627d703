package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"tiger/internal/core"
	"tiger/internal/msg"
	"tiger/internal/netsim"
	"tiger/internal/obs"
	"tiger/internal/rt"
)

// The rt-loopback workload: one process runs a controller and eight cub
// hosts over loopback TCP, and a client drives them in an open loop.
const (
	rtCubs        = 8
	rtDisksPerCub = 4
	rtDecluster   = 2
	rtBlockPlay   = 250 * time.Millisecond
	rtBlockSize   = 64 << 10
	rtFiles       = 8
	rtFileBlocks  = 2400 // ten minutes per file: no stream reaches EOF
	rtLoad        = 0.9  // share of the slots the ramp fills
	rtSpacing     = 20 * time.Millisecond
	rtChurnEvery  = 100 * time.Millisecond // one stop and one start
	rtChurnDelay  = time.Second            // quiet gap between ramp and churn
	rtSetupWarm   = 5                      // unmeasured starts: heap and socket paths warm up
	rtSetupReps   = 24                     // measured starts; setup_s is their median
	rtSetupSettle = 50 * time.Millisecond  // lets the closed system's goroutines exit
	rtDrain       = 5 * time.Second        // wait for outstanding first blocks
)

// rtConfig is the system's configuration, with protocol timings scaled
// to the short block play time as tigerd scales them.
func rtConfig(seed int64) (*core.Config, error) {
	cfg, err := core.BuildConfig(core.SystemSpec{
		Cubs: rtCubs, DisksPerCub: rtDisksPerCub, Decluster: rtDecluster,
		BlockPlay: rtBlockPlay, BlockSize: rtBlockSize,
		NumFiles: rtFiles, FileBlocks: rtFileBlocks, FileSeed: seed,
	})
	if err != nil {
		return nil, err
	}
	bp := rtBlockPlay
	cfg.MinVStateLead = 4 * bp
	cfg.MaxVStateLead = 9 * bp
	cfg.ForwardInterval = bp / 2
	cfg.DescheduleHold = 3 * bp
	cfg.ReadAhead = bp
	cfg.HeartbeatInterval = bp / 2
	cfg.DeadmanTimeout = 5 * bp / 2
	return cfg, cfg.Validate()
}

// rtSystem is one running controller, its cubs and a client.
type rtSystem struct {
	ctl  *rt.ControllerHost
	cubs []*rt.CubHost
	vc   *rt.ViewerClient
	cc   *rt.ControlClient
}

// startRT brings the system up: every host listening with the full
// address table, the viewer listener open and the control connection
// dialed.
func startRT(cfg *core.Config, seed int64, log *spanLog, parent int) (*rtSystem, error) {
	s := &rtSystem{}
	epoch := time.Now()
	addrs := map[msg.NodeID]string{}
	var err error
	log.timed("rt.StartControllerHost", parent, func() {
		s.ctl, err = rt.StartControllerHost(cfg, "127.0.0.1:0", addrs, epoch)
	})
	if err != nil {
		return nil, fmt.Errorf("start controller: %w", err)
	}
	addrs[msg.Controller] = s.ctl.Mesh.Addr()
	for i := 0; i < rtCubs; i++ {
		var h *rt.CubHost
		log.timed("rt.StartCubHost", parent, func() {
			h, err = rt.StartCubHost(msg.NodeID(i), cfg, "127.0.0.1:0", addrs, epoch, seed*1000+int64(i))
		})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("start cub %d: %w", i, err)
		}
		addrs[msg.NodeID(i)] = h.Mesh.Addr()
		s.cubs = append(s.cubs, h)
	}
	// Meshes snapshot the address table; announce the later nodes.
	for id, a := range addrs {
		s.ctl.Mesh.SetAddr(id, a)
		for _, h := range s.cubs {
			h.Mesh.SetAddr(id, a)
		}
	}
	log.timed("rt.NewViewerClient", parent, func() { s.vc, err = rt.NewViewerClient("127.0.0.1:0") })
	if err != nil {
		s.close()
		return nil, fmt.Errorf("viewer listener: %w", err)
	}
	log.timed("rt.DialController", parent, func() { s.cc, err = rt.DialController(s.ctl.Mesh.Addr()) })
	if err != nil {
		s.close()
		return nil, fmt.Errorf("dial controller: %w", err)
	}
	return s, nil
}

func (s *rtSystem) close() {
	if s == nil {
		return
	}
	if s.cc != nil {
		s.cc.Close()
	}
	if s.vc != nil {
		s.vc.Close()
	}
	for _, h := range s.cubs {
		h.Close()
	}
	if s.ctl != nil {
		s.ctl.Close()
	}
}

// quiesce closes s, if any, gives its goroutines time to exit and
// collects its garbage, so that the next start runs alone.
func quiesce(s *rtSystem) {
	if s != nil {
		s.close()
		time.Sleep(rtSetupSettle)
	}
	runtime.GC()
}

// timedStart starts a system and returns it with the start's process
// CPU seconds (see jsonE2E). The start runs on one processor: with
// two, its CPU time swung between 0.029 s and 0.035 s from one second
// to the next, with whether the shared host gave the process one vCPU
// or both (idle Go processors spin while they wait for work).
func timedStart(cfg *core.Config, seed int64, log *spanLog, root int) (*rtSystem, float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c0 := cpuTime()
	id := log.begin("setup", root)
	sys, err := startRT(cfg, seed, log, id)
	log.end(id)
	return sys, (cpuTime() - c0).Seconds(), err
}

// onCubs runs fn on every cub's executor and waits for all of them.
func (s *rtSystem) onCubs(fn func(*core.Cub)) error {
	for i, h := range s.cubs {
		done := make(chan struct{})
		h.Node.Do(func() {
			fn(h.Cub)
			close(done)
		})
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			return fmt.Errorf("cub %d executor unresponsive", i)
		}
	}
	return nil
}

// cubCounters reads what the cubs' own counters say.
type cubCounters struct {
	misses   int64
	busy     time.Duration
	disks    int
	viewMax  int
	nodeEvts uint64
}

func (s *rtSystem) counters() (cubCounters, error) {
	var cc cubCounters
	err := s.onCubs(func(c *core.Cub) {
		cc.misses += c.Stats().ServerMisses
		for _, d := range c.Disks() {
			cc.busy += d.Stats().BusyTotal
			cc.disks++
		}
		if v := c.ViewSize(); v > cc.viewMax {
			cc.viewMax = v
		}
	})
	cc.nodeEvts = s.ctl.Node.Processed()
	for _, h := range s.cubs {
		cc.nodeEvts += h.Node.Processed()
	}
	return cc, err
}

// frameCount sums the frames cubs put on the wire: gossip batches and
// block frames, from the cubs' registry counters.
func frameCount(reg *obs.Registry) float64 {
	var n float64
	for _, p := range reg.Snapshot() {
		switch p.Name {
		case "tiger_cub_gossip_batches_total", "tiger_cub_blocks_sent_total", "tiger_cub_pieces_sent_total":
			n += p.Value
		}
	}
	return n
}

// rtPlay is one stream as the client sees it.
type rtPlay struct {
	due, sent, ack, first, end time.Time
	inst                       msg.InstanceID
	firstSeq, maxSeq           int32
	seen                       map[int32]bool
	received, late             int
	stopped                    bool
}

// playAccount returns how many blocks of a play were due between its
// first block and end, and how many of those were lost or late. Block k
// after the first is due k block-play times after the first arrived, and
// counts as on time within one further block-play time; a block is due
// once that allowance has passed by end. A play whose first block came
// after end owes nothing in the window.
func playAccount(p *rtPlay, bp time.Duration) (due, failed int64) {
	if p.first.IsZero() || !p.first.Before(p.end) {
		return 0, 0
	}
	due = int64(p.maxSeq-p.firstSeq) + 1
	if byTime := int64(p.end.Sub(p.first) / bp); byTime > due {
		due = byTime
	}
	failed = due - int64(p.received-p.late)
	if failed < 0 {
		failed = 0
	}
	return due, failed
}

// rtClient is the measuring client: it records each stream's start,
// ack and blocks.
type rtClient struct {
	mu     sync.Mutex
	bp     time.Duration
	plays  map[msg.ViewerID]*rtPlay
	closed bool  // the window is over; later blocks are not counted
	onTime int64 // on-time blocks counted so far
	total  int64 // blocks counted so far
}

func (cl *rtClient) onAck(a *msg.StartAck) {
	now := time.Now()
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if p := cl.plays[a.Viewer]; p != nil && p.ack.IsZero() {
		p.ack, p.inst = now, a.Instance
	}
}

func (cl *rtClient) onBlock(b *msg.BlockData) {
	now := time.Now()
	if b.Parts > 1 {
		return // declustered mirror pieces flow only after a failure
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	p := cl.plays[b.Viewer]
	if p == nil {
		return
	}
	if p.first.IsZero() {
		p.first, p.firstSeq, p.maxSeq = now, b.PlaySeq, b.PlaySeq
	}
	if cl.closed || p.stopped || p.seen[b.PlaySeq] {
		return
	}
	p.seen[b.PlaySeq] = true
	p.received++
	if b.PlaySeq > p.maxSeq {
		p.maxSeq = b.PlaySeq
	}
	cl.total++
	due := p.first.Add(time.Duration(b.PlaySeq-p.firstSeq) * cl.bp)
	if now.After(due.Add(cl.bp)) {
		p.late++
	} else {
		cl.onTime++
	}
}

func (cl *rtClient) onTimeBlocks() int64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.onTime
}

// rtSlicer cuts the window into one-second slices, profiling every other
// one in a traced run.
func rtSlicer(cl *rtClient, prof *profiler, stop <-chan struct{}, out chan<- []slice) {
	var ss []slice
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for i := 0; ; i++ {
		profiled := prof != nil && i%2 == 1
		if profiled {
			prof.start()
		}
		t0, c0 := time.Now(), cpuTime()
		b0 := cl.onTimeBlocks()
		stopped := false
		select {
		case <-tick.C:
		case <-stop:
			stopped = true
		}
		b1 := cl.onTimeBlocks()
		s := slice{Host: time.Since(t0), CPU: cpuTime() - c0, Blocks: b1 - b0, Profiled: profiled}
		if profiled {
			prof.stop()
		}
		if !stopped || s.Host >= time.Second/2 {
			ss = append(ss, s)
		}
		if stopped {
			out <- ss
			return
		}
	}
}

func runRT(seed int64, seconds int, res *result, traced bool) error {
	var log *spanLog
	var prof *profiler
	if traced {
		log = newSpanLog()
		prof = newProfiler()
	}
	root := log.begin("run", 0)

	cfg, err := rtConfig(seed)
	if err != nil {
		return fmt.Errorf("rt config: %w", err)
	}
	var setups []float64
	var sys *rtSystem
	var wall0 time.Time
	var cpu0 time.Duration
	last := rtSetupWarm + rtSetupReps/2 - 1
	for i := 0; i <= last; i++ {
		quiesce(sys)
		if i == last {
			wall0, cpu0 = time.Now(), cpuTime()
		}
		var secs float64
		if sys, secs, err = timedStart(cfg, seed, log, root); err != nil {
			return err
		}
		if i >= rtSetupWarm {
			setups = append(setups, secs)
		}
	}
	defer func() { sys.close() }()

	reg := obs.NewRegistry()
	sys.ctl.AttachObs(reg)
	for _, h := range sys.cubs {
		h.AttachObs(reg)
	}
	cl := &rtClient{bp: rtBlockPlay, plays: map[msg.ViewerID]*rtPlay{}}
	sys.vc.SetHandlers(cl.onBlock, cl.onAck)

	slots := cfg.Sched.NumSlots
	nStart := int(rtLoad * float64(slots))
	bitrate := int32(cfg.Files[0].Bitrate)
	rng := rand.New(rand.NewSource(seed))

	win := log.begin("window", root)
	cc0, err := sys.counters()
	if err != nil {
		return err
	}
	frames0 := frameCount(reg)
	gc0 := gcCPU()
	stopSlicer := make(chan struct{})
	sliceOut := make(chan []slice, 1)
	go rtSlicer(cl, prof, stopSlicer, sliceOut)

	t0, cpuW0 := time.Now(), cpuTime()
	windowEnd := t0.Add(time.Duration(seconds) * time.Second)
	rampEnd := t0.Add(time.Duration(nStart) * rtSpacing)
	var genLateMax time.Duration
	var nextViewer msg.ViewerID
	var started, stops int
	var sendErr error
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * rtSpacing)
		churn := k >= nStart
		if churn {
			due = rampEnd.Add(rtChurnDelay + time.Duration(k-nStart)*rtChurnEvery)
		}
		if !due.Before(windowEnd) {
			break
		}
		time.Sleep(time.Until(due))
		if churn {
			// Stop a stream that is playing, chosen by the seed.
			cl.mu.Lock()
			var live []msg.ViewerID
			for v, p := range cl.plays {
				if !p.stopped && !p.first.IsZero() && p.inst != 0 {
					live = append(live, v)
				}
			}
			sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
			var inst msg.InstanceID
			if len(live) > 0 {
				p := cl.plays[live[rng.Intn(len(live))]]
				p.stopped, p.end, inst = true, time.Now(), p.inst
			}
			cl.mu.Unlock()
			if inst == 0 {
				continue // nothing playing yet: skip this churn tick
			}
			if err := sys.cc.Stop(inst); err != nil && sendErr == nil {
				sendErr = err
			}
			stops++
		}
		nextViewer++
		file := msg.FileID(rng.Intn(rtFiles))
		sent := time.Now()
		if late := sent.Sub(due); late > genLateMax {
			genLateMax = late
		}
		cl.mu.Lock()
		cl.plays[nextViewer] = &rtPlay{due: due, sent: sent, seen: map[int32]bool{}}
		cl.mu.Unlock()
		if err := sys.cc.Start(nextViewer, sys.vc.Addr(), file, 0, bitrate); err != nil && sendErr == nil {
			sendErr = err
		}
		started++
	}
	time.Sleep(time.Until(windowEnd))
	cl.mu.Lock()
	cl.closed = true
	for _, p := range cl.plays {
		if !p.stopped {
			p.end = windowEnd
		}
	}
	cl.mu.Unlock()
	hostW, cpuW := time.Since(t0), cpuTime()-cpuW0
	close(stopSlicer)
	slices := <-sliceOut
	gcW := gcCPU() - gc0
	cc1, err := sys.counters()
	if err != nil {
		return err
	}
	frames1 := frameCount(reg)
	log.end(win)
	res.E2E["wall_s"] = time.Since(wall0).Seconds()
	res.E2E["cpu_s"] = (cpuTime() - cpu0).Seconds()
	if sendErr != nil {
		return fmt.Errorf("control connection: %w", sendErr)
	}

	// Streams started near the end still owe their first block.
	drainEnd := time.Now().Add(rtDrain)
	for time.Now().Before(drainEnd) {
		cl.mu.Lock()
		waiting := 0
		for _, p := range cl.plays {
			if p.first.IsZero() {
				waiting++
			}
		}
		cl.mu.Unlock()
		if waiting == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	cl.mu.Lock()
	var startMs, ackMs []float64
	var noBlocks int
	var due, failed int64
	for v, p := range cl.plays {
		if p.first.IsZero() {
			noBlocks++
			continue
		}
		startMs = append(startMs, float64(p.first.Sub(p.due))/float64(time.Millisecond))
		if !p.ack.IsZero() {
			ackMs = append(ackMs, float64(p.ack.Sub(p.sent))/float64(time.Millisecond))
			log.record("start→ack", win, int64(v), p.sent, p.ack)
		}
		log.record("start→first block", win, int64(v), p.due, p.first)
		d, f := playAccount(p, rtBlockPlay)
		due += d
		failed += f
	}
	onTime, total := cl.onTime, cl.total
	cl.mu.Unlock()

	res.Attempted, res.Failed = due, failed
	res.E2E["max_rss_mib"] = maxRSSMiB()
	res.E2E["blocks_per_s"], res.E2E["cpu_us_per_block"] = sliceRates(slices, allSlices)
	p50, tl := summarize(startMs)
	res.E2E["rt_start_p50_ms"] = p50
	res.Notes["rt_start_p50_ms"] = fmt.Sprintf("n=%d", tl.N)
	if tl.Label != "" {
		res.E2E["rt_start_tail_ms"] = tl.Value
	}
	res.Notes["rt_start_tail_ms"] = tl.String()

	L := res.Layer
	ackP50, _ := summarize(ackMs)
	L["rt.ack_p50_ms"] = ackP50
	L["rt.gen_late_ms_max"] = float64(genLateMax) / float64(time.Millisecond)
	if total > 0 {
		L["rt.frames_per_block"] = (frames1 - frames0) / float64(total)
		L["rt.node_events_per_block"] = float64(cc1.nodeEvts-cc0.nodeEvts) / float64(total)
	}
	L["sim.cpu_per_wall"] = cpuW.Seconds() / hostW.Seconds()
	if cpuW > 0 {
		L["gc.cpu_pct"] = 100 * gcW.Seconds() / cpuW.Seconds()
	}
	L["core.view_entries_max"] = float64(cc1.viewMax)
	L["core.server_misses"] = float64(cc1.misses - cc0.misses)
	if cc1.disks > 0 {
		L["disk.util"] = (cc1.busy - cc0.busy).Seconds() / (hostW.Seconds() * float64(cc1.disks))
	}

	res.check("streams_started", started > 0, "%d started, %d stopped by churn, %d slots", started, stops, slots)
	res.check("every_stream_receives_blocks", noBlocks == 0, "%d of %d started streams received no block", noBlocks, started)
	res.check("blocks_delivered", onTime > 0, "%d on time in the window", onTime)

	if traced {
		L["tiger.heap_mib_per_cub"] = heapMiBPerCubN(rtCubs)
	}

	// The other half of the measured starts runs a window after the
	// first: the host's speed drifts over tens of seconds, and sampling
	// it twice keeps one slow spell from setting setup_s.
	for len(setups) < rtSetupReps {
		quiesce(sys)
		var secs float64
		if sys, secs, err = timedStart(cfg, seed, log, root); err != nil {
			return err
		}
		setups = append(setups, secs)
	}
	res.E2E["setup_s"] = median(setups)
	res.Notes["setup_s"] = fmt.Sprintf("median CPU time of %d starts on one processor, half before and half after the window, after %d warm-up starts", len(setups), rtSetupWarm)

	if traced {
		L["core.new_cub_ms"] = newCubMs(cfg, netsim.DefaultParams(), seed, rtCubs, log, root)
		L["bench.trace_overhead_pct"] = traceOverheadPct(slices, true)
		log.end(root)
		if err := finishProfile(res, prof); err != nil {
			return err
		}
		res.Spans = log.totals()
	}
	res.spanLog = log
	return nil
}
