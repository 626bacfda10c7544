// Command benchmark is the repo's one performance harness: end-to-end
// metrics a user of vf2boost would see (training speed over the shaped
// WAN, out-of-core protocol speed, online scoring under load) and the
// per-layer metrics that explain them. README.md describes the workloads,
// the metrics and how they are expected to interact.
//
// It runs in three modes:
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is one
//	    JSON object (the contract behind BENCHMARK.json).
//	benchmark -seed N [-workload W] [-short] [-repeat K] [-out FILE]
//	    the suite: every workload untraced K times, then once traced,
//	    each in a fresh process; prints every metric and writes FILE.
//	benchmark -compare old.json new.json
//	    verdict per workload and end-to-end metric between two suite files.
//
// benchmark -spec prints the BENCHMARK.json this binary implements.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload")
		seed      = flag.Int64("seed", 1, "seed every input is generated from")
		seconds   = flag.Float64("seconds", 0, "length of the measured region (default: run_seconds of BENCHMARK.json, 2 with -short)")
		traceArg  = flag.String("trace", "", "0 or 1: run one workload once, untraced or traced, and print its result as one JSON line")
		short     = flag.Bool("short", false, "smoke sizes: 512-bit keys, rows/10, one tree per session, 2 s measured")
		repeat    = flag.Int("repeat", 1, "suite mode: untraced runs per workload (medians and spreads are over these)")
		out       = flag.String("out", "", "suite mode: result file (default benchmark/out/result.json; none with -short)")
		traceDir  = flag.String("trace-dir", "benchmark/out", "directory for trace-<workload>.csv")
		compare   = flag.Bool("compare", false, "compare two suite result files: -compare old.json new.json")
		printSpec = flag.Bool("spec", false, "print the BENCHMARK.json this binary implements")
	)
	flag.Parse()

	// Sized for a shared small box: one process, at most four cores.
	if runtime.GOMAXPROCS(0) > 4 {
		runtime.GOMAXPROCS(4)
	}
	if *short {
		probeTime = 40 * time.Millisecond
	}
	if *seconds == 0 {
		*seconds = defaultSeconds
		if *short {
			*seconds = 2
		}
	}

	switch {
	case *printSpec:
		buf, err := json.MarshalIndent(currentSpec(), "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(buf))
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare old.json new.json")
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *traceArg != "":
		if *traceArg != "0" && *traceArg != "1" {
			fatalf("--trace must be 0 or 1, got %q", *traceArg)
		}
		rc := runConfig{Workload: *workload, Seed: *seed, Seconds: *seconds,
			Trace: *traceArg == "1", Short: *short, TraceDir: *traceDir}
		m, err := runWorkload(rc)
		if err != nil {
			fatalf("%s: %v", rc.Workload, err)
		}
		for _, n := range m.notes {
			fmt.Fprintln(os.Stderr, n)
		}
		// The result line carries the verdict ("correct", "failed"); the
		// suite turns a failed run into a non-zero exit.
		fmt.Println(mustJSON(m.result(rc.Trace)))
	default:
		if *out == "" && !*short {
			*out = "benchmark/out/result.json"
		}
		os.Exit(runSuite(suiteConfig{Workload: *workload, Seed: *seed, Seconds: *seconds,
			Short: *short, Repeat: *repeat, Out: *out, TraceDir: *traceDir}))
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
