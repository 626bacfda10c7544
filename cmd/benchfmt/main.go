// Command benchfmt turns `go test -bench` output into a stable JSON
// document, so benchmark baselines can be committed, diffed, and checked in
// CI. It reads the bench text from stdin (or -in), writes JSON to stdout
// (or -out), and derives the obfuscator speedup — baseline r^n versus
// fixed-base h^x — per key size when both benchmarks are present.
//
// With -check FILE it instead validates that FILE parses as a benchfmt
// document with at least one benchmark, exiting non-zero otherwise; CI uses
// this to guarantee the committed BENCH_crypto.json never rots. -check also
// recognizes the out-of-core sweep schema that cmd/experiments writes to
// BENCH_ooc.json (a top-level "runs" array instead of "benchmarks") and
// validates its own invariants: a positive build rate, per-run load
// counters, and byte-identical models across the budget sweep.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one `Benchmark.../...-P  N  x ns/op [...]` result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Document is the committed baseline format. CPUs is the core count of
// the host that ran the benchmarks: parallel speedups flatten there.
type Document struct {
	Date       string             `json:"date,omitempty"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	CPUs       int                `json:"cpus"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

func main() {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "", "JSON output file (default stdout)")
	date := flag.String("date", "", "date stamp recorded in the document")
	check := flag.String("check", "", "validate FILE as a benchfmt document and exit")
	flag.Parse()

	if *check != "" {
		if err := checkFile(*check); err != nil {
			fmt.Fprintf(os.Stderr, "benchfmt: %s: %v\n", *check, err)
			os.Exit(1)
		}
		fmt.Printf("benchfmt: %s ok\n", *check)
		return
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	benches, err := parse(r)
	if err != nil {
		fatal(err)
	}
	if len(benches) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	doc := Document{
		Date:       *date,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		Benchmarks: benches,
		Derived:    deriveSpeedups(benches),
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
}

// parse extracts benchmark result lines, ignoring everything else that
// `go test -bench` prints (goos/pkg headers, PASS, ok lines).
func parse(r io.Reader) ([]Benchmark, error) {
	var benches []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Shape: Benchmark<Name>-P  iterations  value unit [value unit ...]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: stripProcSuffix(fields[0]), Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad metric value %q", sc.Text(), fields[i])
			}
			unit := fields[i+1]
			if unit == "ns/op" {
				b.NsPerOp = v
				continue
			}
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
		benches = append(benches, b)
	}
	return benches, sc.Err()
}

// stripProcSuffix drops the trailing -GOMAXPROCS from a benchmark name so
// baselines recorded on machines with different core counts stay diffable.
func stripProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// deriveSpeedups computes the headline ratios of the committed baselines
// explicitly, rather than leaving readers to divide by hand:
//
//   - obfuscator_speedup/bits=N — baseline r^n versus fixed-base h^x
//     obfuscator generation, per key size.
//   - owner_obfuscator_speedup/bits=N — the public fixed-base h^x versus
//     the key owner's CRT evaluation of the same term.
//   - smul_pow2_speedup — SMul at 2048-bit by a dense 114-bit scalar
//     (big.Int.Exp) versus by the packing shift 2^114 (the half-width
//     squaring chain): what a power-of-two scalar saves.
//   - pack_parallel_speedup/workers=N — finalizing and packing one full
//     node histogram on one worker versus on N (bounded by the host's
//     cpus); pack_two_node_speedup/workers=N is the same for a large and
//     a small node wired at once.
//   - pack_fill/occ=N — histogram slots per packed ciphertext with N % of
//     the node's bins occupied.
func deriveSpeedups(benches []Benchmark) map[string]float64 {
	const (
		basePrefix = "BenchmarkObfuscatorBaseline/"
		fastPrefix = "BenchmarkObfuscatorFixedBase/"
		ownPrefix  = "BenchmarkOwnerObfuscator/"
	)
	baseline := map[string]float64{}
	fast := map[string]float64{}
	owner := map[string]float64{}
	for _, b := range benches {
		if s, ok := strings.CutPrefix(b.Name, ownPrefix); ok && b.NsPerOp > 0 {
			owner[s] = b.NsPerOp
		}
		if s, ok := strings.CutPrefix(b.Name, basePrefix); ok && b.NsPerOp > 0 {
			baseline[s] = b.NsPerOp
		}
		if s, ok := strings.CutPrefix(b.Name, fastPrefix); ok && b.NsPerOp > 0 {
			fast[s] = b.NsPerOp
		}
	}
	derived := map[string]float64{}
	for size, bn := range baseline {
		if fn, ok := fast[size]; ok {
			derived["obfuscator_speedup/"+size] = bn / fn
		}
	}
	for size, fn := range fast {
		if on, ok := owner[size]; ok {
			derived["owner_obfuscator_speedup/"+size] = fn / on
		}
	}

	smul := map[string]float64{}
	for _, b := range benches {
		if s, ok := strings.CutPrefix(b.Name, "BenchmarkSMul/"); ok {
			smul[s] = b.NsPerOp
		}
	}
	if smul["odd"] > 0 && smul["shift114"] > 0 {
		derived["smul_pow2_speedup"] = smul["odd"] / smul["shift114"]
	}

	const packPrefix = "BenchmarkWireNodeHist/bits=2048/"
	packNs := map[string]float64{} // "shape/workers=N" -> ns/op
	for _, b := range benches {
		if s, ok := strings.CutPrefix(b.Name, packPrefix); ok && b.NsPerOp > 0 {
			packNs[s] = b.NsPerOp
			if occ, ok := strings.CutSuffix(s, "/workers=1"); ok && strings.HasPrefix(occ, "occ=") {
				derived["pack_fill/"+occ] = b.Metrics["slots/ct"]
			}
		}
	}
	speedupOf := map[string]string{"occ=100": "pack_parallel_speedup/", "two-node": "pack_two_node_speedup/"}
	for key, ns := range packNs {
		shape, workers, _ := strings.Cut(key, "/")
		if one := packNs[shape+"/workers=1"]; speedupOf[shape] != "" && one > 0 && workers != "workers=1" {
			derived[speedupOf[shape]+workers] = one / ns
		}
	}

	if len(derived) == 0 {
		return nil
	}
	return derived
}

func checkFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if _, ok := top["runs"]; ok {
		return checkOOC(raw)
	}
	var doc Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("document has no benchmarks")
	}
	for i, b := range doc.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("benchmark %d has no name", i)
		}
		if b.NsPerOp <= 0 {
			return fmt.Errorf("benchmark %q has non-positive ns_per_op", b.Name)
		}
	}
	return nil
}

// oocDoc mirrors the parts of the BENCH_ooc.json schema (written by
// internal/experiments.WriteOOCJSON) that the check gates on.
type oocDoc struct {
	Build struct {
		RowsPerSec float64 `json:"rows_per_sec"`
		Shards     int     `json:"shards"`
	} `json:"build"`
	Runs []struct {
		Budget            int64   `json:"budget_bytes"`
		RowsPerSec        float64 `json:"rows_per_sec"`
		Loads             int64   `json:"loads"`
		LoadsPerShardTree float64 `json:"loads_per_shard_tree"`
		ModelMatchesRef   bool    `json:"model_matches_ref"`
	} `json:"runs"`
}

// checkOOC validates the out-of-core sweep baseline: every budget point
// must have trained at a positive rate on a byte-identical model, and
// the per-shard-per-tree load counter — the read-amplification headline
// the shard-major schedule exists to bound — must be present and
// positive on every budget-capped run.
func checkOOC(raw []byte) error {
	var doc oocDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("invalid ooc document: %w", err)
	}
	if doc.Build.RowsPerSec <= 0 {
		return fmt.Errorf("ooc build has non-positive rows_per_sec")
	}
	if doc.Build.Shards <= 0 {
		return fmt.Errorf("ooc build has no shards")
	}
	if len(doc.Runs) == 0 {
		return fmt.Errorf("ooc document has no runs")
	}
	for i, r := range doc.Runs {
		if r.RowsPerSec <= 0 {
			return fmt.Errorf("ooc run %d (budget %d) has non-positive rows_per_sec", i, r.Budget)
		}
		if !r.ModelMatchesRef {
			return fmt.Errorf("ooc run %d (budget %d) drifted from the reference model", i, r.Budget)
		}
		if r.Budget > 0 && (r.Loads <= 0 || r.LoadsPerShardTree <= 0) {
			return fmt.Errorf("ooc run %d (budget %d) is missing load counters", i, r.Budget)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchfmt: %v\n", err)
	os.Exit(1)
}
