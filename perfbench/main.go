// Command perfbench is the repository's benchmark: it drives one named
// workload through the public APIs of the simulator (package tiger) or
// the real-time TCP runtime (internal/rt), checks the outputs, and
// prints every end-to-end metric with its unit. The last line of
// standard output is a JSON result; with --trace 1 the run is profiled
// and reports per-layer metrics instead.
//
// Usage:
//
//	perfbench --workload paper-hour --seed 1 --seconds 20 --trace 0
//
// Workloads: paper-hour, warehouse, restripe, rt-loopback. See
// METRICS.md for what each metric means and which clock it is read from.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

var workloads = []string{"paper-hour", "warehouse", "restripe", "rt-loopback"}

func main() {
	workload := flag.String("workload", "", "workload to run: paper-hour, warehouse, restripe, rt-loopback")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured window size; simulated spans scale with it, the real-time window lasts this long")
	traceFlag := flag.Int("trace", 0, "1 profiles the run and reports per-layer metrics instead of end-to-end ones")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory the traced run's spans are written to")
	flag.Parse()

	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	traced := *traceFlag == 1
	if traced {
		// Sample allocations finely enough to split them by layer.
		runtime.MemProfileRate = 16 << 10
	}

	res := newResult(*workload)
	var err error
	if *workload == "rt-loopback" {
		err = runRT(*seed, *seconds, res, traced)
	} else if plan, ok := simPlanFor(*workload, *seed, *seconds); ok {
		err = runSim(plan, res, traced)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *workload, workloads)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if traced {
		name := fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed)
		p, err := res.spanLog.write(*outDir, name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		res.SpanFile = p
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *traceFlag)
	if err := res.print(os.Stdout, traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}
