// Command tigerctl is the client for a running tigerd system: it starts
// streams, receives and verifies the blocks (like the paper's
// measurement client, which rendered nothing and checked timeliness),
// and stops streams.
//
//	tigerctl -controller 127.0.0.1:7000 -play 0 -duration 10s
//	tigerctl -controller 127.0.0.1:7000 -play 2 -viewers 5 -duration 30s
//
// The stats subcommand scrapes a tigerd debug endpoint and summarises
// its metrics:
//
//	tigerctl stats -debug 127.0.0.1:9000
//
// The restripe subcommand summarises elastic-restripe progress from the
// same endpoint: phase, committed/rerouted moves, and mover totals:
//
//	tigerctl restripe -debug 127.0.0.1:9000
//
// Given a target cub count instead, it needs no server: it plans the
// elastic restripe offline and projects how long the online mover takes
// to copy the busiest source drive while the streams keep playing:
//
//	tigerctl restripe -from 14x4 -to 16 -files 64 -blocks 3600
//
// The why subcommand answers "why was this block late": it fetches the
// causal hop chain of a traced block from the debug endpoint and prints
// where the deadline slack went, hop by hop:
//
//	tigerctl why -debug 127.0.0.1:9000 12          # all chains of instance 12
//	tigerctl why -debug 127.0.0.1:9000 12 340      # just block 340
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tiger/internal/core"
	"tiger/internal/disk"
	"tiger/internal/layout"
	"tiger/internal/msg"
	"tiger/internal/rt"
)

var (
	controller = flag.String("controller", "127.0.0.1:7000", "controller control address")
	play       = flag.Int("play", -1, "file ID to play")
	startBlock = flag.Int("start", 0, "first block wanted")
	bitrate    = flag.Int64("bitrate", 2_000_000, "stream bitrate (bits/s)")
	viewers    = flag.Int("viewers", 1, "number of simultaneous viewers")
	duration   = flag.Duration("duration", 10*time.Second, "how long to play before stopping")
	blockPlay  = flag.Duration("blockplay", 250*time.Millisecond, "expected block play time (for timeliness checks)")
	jsonOut    = flag.Bool("json", false, "emit the final timeliness summary as JSON on stdout")
)

// jsonViewer and jsonSummary are the -json output shape.
type jsonViewer struct {
	Viewer      int64 `json:"viewer"`
	Instance    int64 `json:"instance"`
	Blocks      int64 `json:"blocks"`
	Late        int64 `json:"late"`
	LastPlaySeq int32 `json:"last_playseq"`
	FirstMs     int64 `json:"first_block_ms"` // request to first block
}

type jsonSummary struct {
	Viewers  []jsonViewer `json:"viewers"`
	Total    int64        `json:"total_blocks"`
	Expected int64        `json:"expected_blocks"`
	Late     int64        `json:"late_blocks"`
	OK       bool         `json:"ok"`
}

type viewerState struct {
	id       msg.ViewerID
	inst     atomic.Int64
	blocks   atomic.Int64
	late     atomic.Int64
	lastSeq  atomic.Int32
	firstAt  atomic.Int64 // unix nanos of the first block
	reqAt    time.Time
	received sync.Map // playseq -> arrival time
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		runStats(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "restripe" {
		runRestripe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "why" {
		runWhy(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "parked" {
		runParked(os.Args[2:])
		return
	}
	flag.Parse()
	if *play < 0 {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -play <fileID>")
		flag.Usage()
		os.Exit(2)
	}
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	vc, err := rt.NewViewerClient("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer vc.Close()

	states := make(map[msg.ViewerID]*viewerState)
	var mu sync.Mutex
	acks := make(chan *msg.StartAck, 16)
	vc.SetHandlers(
		func(b *msg.BlockData) {
			mu.Lock()
			vs := states[b.Viewer]
			mu.Unlock()
			if vs == nil || msg.InstanceID(vs.inst.Load()) != b.Instance {
				return
			}
			now := time.Now()
			n := vs.blocks.Add(1)
			vs.lastSeq.Store(b.PlaySeq)
			if n == 1 {
				vs.firstAt.Store(now.UnixNano())
				log.Printf("viewer %d: first block after %v (file %d block %d, %d bytes)",
					b.Viewer, now.Sub(vs.reqAt).Round(time.Millisecond), b.File, b.Block, b.Bytes)
				return
			}
			// Timeliness: block k should arrive ~k block-play-times after
			// the first.
			expected := time.Unix(0, vs.firstAt.Load()).
				Add(time.Duration(b.PlaySeq) * *blockPlay)
			if now.After(expected.Add(*blockPlay / 2)) {
				vs.late.Add(1)
			}
		},
		func(a *msg.StartAck) { acks <- a },
	)

	cc, err := rt.DialController(*controller)
	if err != nil {
		log.Fatal(err)
	}
	defer cc.Close()

	for i := 0; i < *viewers; i++ {
		vid := msg.ViewerID(os.Getpid()*1000 + i)
		vs := &viewerState{id: vid, reqAt: time.Now()}
		mu.Lock()
		states[vid] = vs
		mu.Unlock()
		if err := cc.Start(vid, vc.Addr(), msg.FileID(*play), int32(*startBlock), int32(*bitrate)); err != nil {
			log.Fatal(err)
		}
	}

	// Collect acks (they carry the instance IDs needed to stop).
	pending := *viewers
	timeout := time.After(10 * time.Second)
	var instances []msg.InstanceID
	for pending > 0 {
		select {
		case a := <-acks:
			mu.Lock()
			if vs := states[a.Viewer]; vs != nil {
				vs.inst.Store(int64(a.Instance))
			}
			mu.Unlock()
			instances = append(instances, a.Instance)
			log.Printf("start acked: viewer %d instance %d slot %d", a.Viewer, a.Instance, a.Slot)
			pending--
		case <-timeout:
			log.Fatalf("timed out waiting for %d start acks", pending)
		}
	}

	time.Sleep(*duration)

	for _, inst := range instances {
		if err := cc.Stop(inst); err != nil {
			log.Printf("stop %d: %v", inst, err)
		}
	}
	time.Sleep(500 * time.Millisecond)

	mu.Lock()
	defer mu.Unlock()
	var total, late int64
	var sum jsonSummary
	for _, vs := range states {
		b, l := vs.blocks.Load(), vs.late.Load()
		total += b
		late += l
		log.Printf("viewer %d: %d blocks (last playseq %d), %d late", vs.id, b, vs.lastSeq.Load(), l)
		firstMs := int64(-1)
		if at := vs.firstAt.Load(); at != 0 {
			firstMs = time.Unix(0, at).Sub(vs.reqAt).Milliseconds()
		}
		sum.Viewers = append(sum.Viewers, jsonViewer{
			Viewer: int64(vs.id), Instance: vs.inst.Load(),
			Blocks: b, Late: l, LastPlaySeq: vs.lastSeq.Load(), FirstMs: firstMs,
		})
	}
	expected := int64(float64(*viewers) * duration.Seconds() / blockPlay.Seconds())
	log.Printf("total: %d blocks received (~%d expected), %d late", total, expected, late)
	sum.Total, sum.Expected, sum.Late = total, expected, late
	sum.OK = total >= expected*8/10
	if *jsonOut {
		sort.Slice(sum.Viewers, func(i, j int) bool { return sum.Viewers[i].Viewer < sum.Viewers[j].Viewer })
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(sum)
	}
	if !sum.OK {
		os.Exit(1)
	}
}

// runRestripe scrapes a tigerd debug endpoint's /metrics and prints the
// elastic-restripe status: the phase gauge, coordinator progress, and
// the mover counters summed over every cub. With -to it instead prints
// the offline projection of an elastic restripe (projectRestripe).
func runRestripe(args []string) {
	fs := flag.NewFlagSet("restripe", flag.ExitOnError)
	addr := fs.String("debug", "127.0.0.1:9000", "tigerd debug address (control port + 2000 by default)")
	from := fs.String("from", "14x4", "projection: current shape, CUBSxDISKS")
	to := fs.Int("to", 0, "projection: target cub count; selects the offline projection (no server)")
	decl := fs.Int("decluster", 4, "projection: decluster factor")
	nfiles := fs.Int("files", 64, "projection: number of files")
	fblocks := fs.Int("blocks", 3600, "projection: blocks per file")
	blockSize := fs.Int64("blocksize", 262144, "projection: bytes per block")
	load := fs.Float64("load", 1.0, "projection: stream load fraction (1.0 = full planned capacity)")
	budget := fs.Float64("budget", 0.5, "projection: fraction of idle disk time the mover may consume")
	fs.Parse(args)

	if *to > 0 {
		var cubs, dpc int
		if _, err := fmt.Sscanf(strings.ToLower(*from), "%dx%d", &cubs, &dpc); err != nil {
			log.Fatalf("-from %q: want CUBSxDISKS", *from)
		}
		old := layout.Config{Cubs: cubs, DisksPerCub: dpc, Decluster: *decl}
		if err := old.Validate(); err != nil {
			log.Fatalf("-from %q: %v", *from, err)
		}
		if *budget <= 0 {
			log.Fatalf("-budget %v: the mover needs some idle disk time", *budget)
		}
		target := layout.Config{Cubs: *to, DisksPerCub: dpc, Decluster: *decl}
		files := make([]layout.File, *nfiles)
		for i := range files {
			files[i] = layout.File{ID: msg.FileID(i), StartDisk: (i * 7) % old.NumDisks(),
				Blocks: *fblocks, BlockSize: *blockSize}
		}
		p, err := projectRestripe(old, target, files, *blockSize, *load, *budget)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("restripe %dx%d -> %d cubs (decluster %d)\n", cubs, dpc, *to, *decl)
		fmt.Printf("  content         : %d files, %.1f GB primary\n",
			*nfiles, float64(int64(*nfiles)*int64(*fblocks)**blockSize)/1e9)
		fmt.Printf("  moves           : %d (%.1f GB including mirror pieces)\n", p.moves, float64(p.bytes)/1e9)
		fmt.Printf("  busiest source  : cub %d disk %d, %d moves (%.2f GB)\n",
			p.busiestCub, p.busiestIdx, p.busiestMoves, float64(p.busiestBytes)/1e9)
		fmt.Printf("  capacity change : %d -> %d streams\n", p.streamsBefore, p.streamsAfter)
		fmt.Printf("  mover rate      : at %.0f%% load (disk duty %.0f%%), %.1f copies/s per drive (%.2f MB/s)\n",
			*load*100, p.duty*100, p.copiesPerSec, p.bytesPerSec/1e6)
		fmt.Printf("  copy time       : ~%v, bounded by the busiest source drive\n", p.copyTime.Round(time.Second))
		return
	}

	resp, err := http.Get("http://" + *addr + "/metrics")
	if err != nil {
		log.Fatalf("scrape %s: %v", *addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("scrape %s: %s", *addr, resp.Status)
	}

	// Sum each restripe-relevant series over its labels (the per-cub
	// mover counters carry a cub label; the controller's do not).
	sums := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, value := line[:sp], line[sp+1:]
		name := series
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		if !strings.HasPrefix(name, "tiger_restripe_") && !strings.HasPrefix(name, "tiger_cub_move") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		sums[name] += v
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("reading scrape: %v", err)
	}

	phases := []string{"idle", "copy", "cutover", "drain", "linger", "done"}
	phase := "idle"
	if p := int(sums["tiger_restripe_phase"]); p >= 0 && p < len(phases) {
		phase = phases[p]
	}
	fmt.Printf("phase      : %s\n", phase)
	fmt.Printf("committed  : %.0f moves\n", sums["tiger_restripe_commits_total"])
	fmt.Printf("rerouted   : %.0f moves\n", sums["tiger_restripe_reroutes_total"])
	fmt.Printf("pending    : %.0f copy jobs queued at cubs\n", sums["tiger_cub_moves_pending"])
	fmt.Printf("moved out  : %.0f blocks (%.1f MB)\n",
		sums["tiger_cub_moves_out_total"], sums["tiger_cub_move_bytes_out_total"]/1e6)
	fmt.Printf("moved in   : %.0f blocks (%.1f MB)\n",
		sums["tiger_cub_moves_in_total"], sums["tiger_cub_move_bytes_in_total"]/1e6)
	fmt.Printf("nacked     : %.0f move orders\n", sums["tiger_cub_moves_nacked_total"])
}

// projection is the offline forecast of an elastic restripe.
type projection struct {
	moves int   // len(PlanElastic(...).Moves)
	bytes int64 // including mirror pieces

	// The source drive that ships the most copies; it finishes last.
	busiestCub   msg.NodeID
	busiestIdx   int8
	busiestMoves int
	busiestBytes int64

	streamsBefore, streamsAfter int
	duty                        float64 // disk duty cycle the streams take
	copiesPerSec, bytesPerSec   float64 // mover rate per drive
	copyTime                    time.Duration
}

// projectRestripe plans the elastic restripe old -> target with the
// planner the online restripe runs, and projects its copy phase. The
// online mover trickles copies through idle disk-schedule time at the
// rate core.ProjectedMoveRate gives for the stream load, one copy in
// flight per drive, so the copy time is that of the source drive with
// the most copies to ship — set by drive speed and content per drive,
// not by system size (§2.2).
func projectRestripe(old, target layout.Config, files []layout.File, blockSize int64, load, budget float64) (*projection, error) {
	plan, err := layout.PlanElastic(old, target, files)
	if err != nil {
		return nil, err
	}
	// Per source drive, indexed cub*DisksPerCub + cub-local index.
	moves := make([]int, old.NumDisks())
	bytes := make([]int64, old.NumDisks())
	for _, m := range plan.Moves {
		d := int(m.FromCub)*old.DisksPerCub + int(m.FromIdx)
		moves[d]++
		bytes[d] += m.Bytes
	}
	busiest := 0
	for d, n := range moves {
		if n > moves[busiest] {
			busiest = d
		}
	}
	p := &projection{
		moves:        len(plan.Moves),
		bytes:        plan.BytesTotal,
		busiestCub:   msg.NodeID(busiest / old.DisksPerCub),
		busiestIdx:   int8(busiest % old.DisksPerCub),
		busiestMoves: moves[busiest],
		busiestBytes: bytes[busiest],
	}

	dp := disk.DefaultParams()
	p.streamsBefore = disk.PlanCapacity(dp, old.NumDisks(), blockSize, time.Second, old.Decluster).Streams
	p.streamsAfter = disk.PlanCapacity(dp, target.NumDisks(), blockSize, time.Second, target.Decluster).Streams
	p.duty = min(1, core.PlanMoveCapacity(dp, blockSize, time.Second, old.Decluster)*load)
	p.copiesPerSec, p.bytesPerSec = core.ProjectedMoveRate(dp, blockSize, time.Second, old.Decluster, load, budget)
	p.copyTime = time.Duration(float64(p.busiestMoves) / p.copiesPerSec * float64(time.Second))
	return p, nil
}

// whyChain is one line of the /debug/trace/{instance} ndjson body.
type whyChain struct {
	Instance uint64 `json:"instance"`
	Block    int32  `json:"block"`
	Hops     []struct {
		AtNs    int64  `json:"at_ns"`
		Node    int32  `json:"node"`
		Kind    string `json:"kind"`
		SlackNs int64  `json:"slack_ns"`
		Slot    int32  `json:"slot"`
		Disk    int32  `json:"disk"`
		Mirror  bool   `json:"mirror"`
	} `json:"hops"`
}

// runWhy fetches a traced block's causal hop chain from a tigerd debug
// endpoint and prints it with per-hop slack deltas, so a late or missed
// block can be attributed to the component that consumed its deadline.
func runWhy(args []string) {
	fs := flag.NewFlagSet("why", flag.ExitOnError)
	addr := fs.String("debug", "127.0.0.1:9000", "tigerd debug address (control port + 2000 by default)")
	jsonRaw := fs.Bool("json", false, "dump the raw chain JSONL instead of the table")
	fs.Parse(args)
	if fs.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tigerctl why [-debug addr] <instance> [block]")
		os.Exit(2)
	}
	url := "http://" + *addr + "/debug/trace/" + fs.Arg(0)
	if fs.NArg() > 1 {
		url += "/" + fs.Arg(1)
	}

	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("fetch %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("fetch %s: %s (%s)", url, resp.Status, strings.TrimSpace(string(body)))
	}
	if *jsonRaw {
		io.Copy(os.Stdout, resp.Body)
		return
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ch whyChain
		if err := json.Unmarshal([]byte(line), &ch); err != nil {
			log.Fatalf("bad chain line: %v (%q)", err, line)
		}
		if n > 0 {
			fmt.Println()
		}
		n++
		printWhyChain(ch)
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("reading chains: %v", err)
	}
	if n == 0 {
		log.Fatalf("no chains returned for %s", url)
	}
}

func printWhyChain(ch whyChain) {
	fmt.Printf("instance %d block %d — %d hops\n", ch.Instance, ch.Block, len(ch.Hops))
	fmt.Printf("  %-12s %-6s %-12s %12s %12s  %s\n",
		"t", "node", "hop", "slack", "delta", "detail")
	var prevAt, prevSlack int64
	for i, h := range ch.Hops {
		delta := "-"
		if i > 0 {
			// Slack bases differ across admit/receipt boundaries; fall
			// back to elapsed time there (mirrors internal/obs/attr).
			d := prevSlack - h.SlackNs
			if ch.Hops[i-1].Kind == "admit" || h.Kind == "receipt" {
				d = h.AtNs - prevAt
			}
			delta = time.Duration(d).String()
		}
		detail := ""
		if h.Disk >= 0 && h.Kind != "admit" {
			detail = fmt.Sprintf("disk %d", h.Disk)
		}
		if h.Mirror {
			detail += " mirror"
		}
		if h.Slot >= 0 {
			detail += fmt.Sprintf(" slot %d", h.Slot)
		}
		fmt.Printf("  %-12s %-6d %-12s %12s %12s  %s\n",
			time.Duration(h.AtNs).String(), h.Node, h.Kind,
			time.Duration(h.SlackNs).String(), delta, strings.TrimSpace(detail))
		prevAt, prevSlack = h.AtNs, h.SlackNs
	}
}

// runStats scrapes a tigerd debug endpoint's /metrics and prints a
// readable summary (or the raw exposition text with -raw). Histogram
// series are folded to their _count and _sum lines.
// runParked summarises the degradation governor's state from a tigerd
// debug endpoint: how many streams are parked, how many disks the
// governor computes mirror-exhausted, lifetime park/resume totals, and
// the per-cub view of park orders and local exhaustion beliefs.
func runParked(args []string) {
	fs := flag.NewFlagSet("parked", flag.ExitOnError)
	addr := fs.String("debug", "127.0.0.1:9000", "tigerd debug address (control port + 2000 by default)")
	fs.Parse(args)

	resp, err := http.Get("http://" + *addr + "/metrics")
	if err != nil {
		log.Fatalf("scrape %s: %v", *addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("scrape %s: %s", *addr, resp.Status)
	}

	sums := map[string]float64{}
	type cubRow struct{ parks, resumes, unservable float64 }
	perCub := map[int]*cubRow{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, value := line[:sp], line[sp+1:]
		name, cub := series, -1
		if b := strings.IndexByte(name, '{'); b >= 0 {
			if i := strings.Index(name[b:], `cub="`); i >= 0 {
				if e := strings.IndexByte(name[b+i+5:], '"'); e >= 0 {
					cub, _ = strconv.Atoi(name[b+i+5 : b+i+5+e])
				}
			}
			name = name[:b]
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		switch name {
		case "tiger_governor_parked_streams", "tiger_governor_unservable_disks",
			"tiger_governor_parks_total", "tiger_governor_resumes_total":
			sums[name] += v
			continue
		}
		if cub < 0 {
			continue
		}
		r := perCub[cub]
		if r == nil {
			r = &cubRow{}
			perCub[cub] = r
		}
		switch name {
		case "tiger_cub_parks_total":
			r.parks = v
		case "tiger_cub_resumes_total":
			r.resumes = v
		case "tiger_cub_unservable_disks":
			r.unservable = v
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("reading scrape: %v", err)
	}

	fmt.Printf("parked      : %.0f streams awaiting re-admission\n", sums["tiger_governor_parked_streams"])
	fmt.Printf("unservable  : %.0f disks with no live copy\n", sums["tiger_governor_unservable_disks"])
	fmt.Printf("parks       : %.0f streams shed (lifetime)\n", sums["tiger_governor_parks_total"])
	fmt.Printf("resumes     : %.0f streams re-admitted (lifetime)\n", sums["tiger_governor_resumes_total"])

	var cubs []int
	for i, r := range perCub {
		if r.parks != 0 || r.resumes != 0 || r.unservable != 0 {
			cubs = append(cubs, i)
		}
	}
	if len(cubs) == 0 {
		return
	}
	sort.Ints(cubs)
	fmt.Printf("%5s %7s %8s %11s\n", "cub", "parks", "resumes", "unservable")
	for _, i := range cubs {
		r := perCub[i]
		fmt.Printf("%5d %7.0f %8.0f %11.0f\n", i, r.parks, r.resumes, r.unservable)
	}
}

func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("debug", "127.0.0.1:9000", "tigerd debug address (control port + 2000 by default)")
	raw := fs.Bool("raw", false, "dump the raw Prometheus exposition text")
	prefix := fs.String("prefix", "", "only print series whose name has this prefix")
	fs.Parse(args)

	resp, err := http.Get("http://" + *addr + "/metrics")
	if err != nil {
		log.Fatalf("scrape %s: %v", *addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("scrape %s: %s", *addr, resp.Status)
	}
	if *raw {
		io.Copy(os.Stdout, resp.Body)
		return
	}

	type row struct{ series, value string }
	var rows []row
	width := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, value := line[:sp], line[sp+1:]
		name := series
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue // keep the summary readable; -raw has the buckets
		}
		if *prefix != "" && !strings.HasPrefix(name, *prefix) {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			value = strconv.FormatFloat(v, 'g', 6, 64)
		}
		rows = append(rows, row{series, value})
		if len(series) > width {
			width = len(series)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("reading scrape: %v", err)
	}
	for _, r := range rows {
		fmt.Printf("%-*s %s\n", width, r.series, r.value)
	}
}
