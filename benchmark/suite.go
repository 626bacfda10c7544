package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// suiteConfig is one suite-mode invocation.
type suiteConfig struct {
	Workload string // empty runs all
	Seed     int64
	Seconds  float64
	Short    bool
	Repeat   int
	Out      string
	TraceDir string
}

// hostInfo records where the numbers were taken.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitRev     string `json:"git_rev"`
}

// summary condenses the repeated untraced runs of one metric.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median; 0 with fewer than two runs
	Values []float64 `json:"values"`
}

// workloadResult is everything the suite learned about one workload.
type workloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	// TraceOverheadRatio is untraced rows_per_s over the traced run's:
	// above 1, tracing slowed the workload by that factor.
	TraceOverheadRatio float64                `json:"trace_overhead_ratio"`
	PerLayer           map[string]metricValue `json:"per_layer"`
}

// suiteResult is the schema of the suite's result file. Claim stays null:
// the harness measures, it does not claim gains.
type suiteResult struct {
	Schema    int              `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Short     bool             `json:"short"`
	Repeat    int              `json:"repeat"`
	Bounds    []metricDef      `json:"end_to_end_metrics"`
	Workloads []workloadResult `json:"workloads"`
	Claim     *string          `json:"claim"`
}

const suiteSchema = 1

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runChild re-executes this binary for one driver-mode run, so every run
// starts from a fresh heap, and parses the JSON on its last output line.
func runChild(sc suiteConfig, workload string, seed int64, trace bool) (runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(sc.Seconds, 'g', -1, 64), "--trace", traceArg,
		"--trace-dir", sc.TraceDir}
	if sc.Short {
		args = append(args, "--short")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runResult{}, fmt.Errorf("%s (trace %v): %w", workload, trace, err)
	}
	return parseLastLine(out)
}

// parseLastLine decodes the run result from the last non-empty line.
func parseLastLine(out []byte) (runResult, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res runResult
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return res, fmt.Errorf("last output line is not a run result: %w", err)
	}
	return res, nil
}

// summarize folds the untraced runs of a workload into per-metric
// summaries and failure totals.
func summarize(w workloadDef, runs []runResult) workloadResult {
	res := workloadResult{Name: w.Name, Why: w.Why, EndToEnd: map[string]summary{}}
	for _, r := range runs {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	if res.Attempted > 0 {
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}
	for _, d := range endToEnd {
		var vals []float64
		for _, r := range runs {
			if mv, ok := r.Metrics[d.Name]; ok {
				vals = append(vals, mv.Value)
			}
		}
		q1, q3 := quartiles(vals)
		res.EndToEnd[d.Name] = summary{Unit: d.Unit, Median: median(vals), Q1: q1, Q3: q3,
			Spread: spread(vals), Values: vals}
	}
	return res
}

// tracedRowsPerS rebuilds the traced run's throughput from its per-layer
// metrics, for the tracing-overhead ratio.
func tracedRowsPerS(workload string, short bool, layers map[string]metricValue) float64 {
	if workload == wlServe {
		return layers["serve.single_rows_per_s"].Value + layers["serve.bulk_rows_per_s"].Value
	}
	total := layers["core.train_total_s"].Value
	if total == 0 {
		return 0
	}
	return float64(trainSpecFor(workload, short).Rows) * layers["core.trees"].Value / total
}

func runSuite(sc suiteConfig) int {
	if sc.Repeat < 1 {
		sc.Repeat = 1
	}
	result := suiteResult{
		Schema: suiteSchema,
		Host: hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GitRev: gitRev()},
		Seed: sc.Seed, Seconds: sc.Seconds, Short: sc.Short, Repeat: sc.Repeat, Bounds: endToEnd,
	}
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, git %s\n", result.Host.NumCPU,
		result.Host.GOMAXPROCS, result.Host.GoVersion, result.Host.GitRev)

	exit := 0
	found := false
	for _, w := range workloads {
		if sc.Workload != "" && sc.Workload != w.Name {
			continue
		}
		found = true
		var runs []runResult
		for k := 0; k < sc.Repeat; k++ {
			r, err := runChild(sc, w.Name, sc.Seed+int64(k), false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			runs = append(runs, r)
		}
		res := summarize(w, runs)
		traced, err := runChild(sc, w.Name, sc.Seed, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
		res.PerLayer = traced.Metrics
		if t := tracedRowsPerS(w.Name, sc.Short, traced.Metrics); t > 0 {
			res.TraceOverheadRatio = res.EndToEnd["rows_per_s"].Median / t
		}
		if res.Failed > 0 {
			exit = 1
		}
		printWorkload(os.Stdout, res)
		result.Workloads = append(result.Workloads, res)
	}
	if !found {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", sc.Workload)
		return 2
	}

	buf, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if sc.Out != "" {
		if err := os.MkdirAll(filepath.Dir(sc.Out), 0o755); err == nil {
			err = os.WriteFile(sc.Out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", sc.Out)
	}
	fmt.Println(`"claim": null`)
	return exit
}

// printWorkload prints every metric of a workload by name with its unit.
func printWorkload(w io.Writer, res workloadResult) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", res.Name, res.Why)
	fmt.Fprintf(w, "  %-34s %14s %-7s %8s  %s\n", "end-to-end metric", "median", "unit", "spread", "runs")
	for _, d := range endToEnd {
		s := res.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-7s %7.1f%%  %d\n", d.Name, s.Median, s.Unit, 100*s.Spread, len(s.Values))
	}
	fmt.Fprintf(w, "  %-34s %14.6g %-7s\n", "fail_ratio", res.FailRatio, "ratio")
	fmt.Fprintf(w, "  %-34s %14.6g %-7s\n", "trace_overhead_ratio", res.TraceOverheadRatio, "ratio")
	fmt.Fprintf(w, "  %-34s %14s %-7s\n", "per-layer metric (traced run)", "value", "unit")
	for _, d := range perLayer {
		mv := res.PerLayer[d.Name]
		fmt.Fprintf(w, "  %-34s %14.6g %-7s\n", d.Name, mv.Value, mv.Unit)
	}
}

// loadSuite reads a suite result file.
func loadSuite(path string) (suiteResult, error) {
	var r suiteResult
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != suiteSchema {
		return r, fmt.Errorf("%s: schema %d, this binary reads %d", path, r.Schema, suiteSchema)
	}
	return r, nil
}

// Verdicts of one compared row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // worse than the parent by more than the bound
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// compareRow is one workload x end-to-end metric comparison.
type compareRow struct {
	Workload, Metric, Unit string
	Old, New               float64
	Ratio                  float64 // new over old
	Spread, Bound          float64
	Verdict                string
}

// judge compares one metric's summaries under its definition.
func judge(d metricDef, old, new summary) compareRow {
	row := compareRow{Metric: d.Name, Unit: d.Unit, Old: old.Median, New: new.Median,
		Bound: d.Bound, Spread: old.Spread, Verdict: verdictOK}
	if new.Spread > row.Spread {
		row.Spread = new.Spread
	}
	if old.Median != 0 {
		row.Ratio = new.Median / old.Median
	}
	worse := row.Ratio - 1
	if d.Better == "higher" {
		worse = 1 - row.Ratio
	}
	switch {
	case row.Spread > d.Bound:
		row.Verdict = verdictUnresolved
	case worse > d.Bound:
		row.Verdict = verdictRegressed
	}
	return row
}

// compareSuites judges every workload both files hold. failWorse lists
// workloads whose fail ratio rose.
func compareSuites(old, new suiteResult) (rows []compareRow, failWorse []string) {
	byName := map[string]workloadResult{}
	for _, w := range old.Workloads {
		byName[w.Name] = w
	}
	for _, nw := range new.Workloads {
		ow, ok := byName[nw.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			row := judge(d, ow.EndToEnd[d.Name], nw.EndToEnd[d.Name])
			row.Workload = nw.Name
			rows = append(rows, row)
		}
		if nw.FailRatio > ow.FailRatio {
			failWorse = append(failWorse, nw.Name)
		}
	}
	return rows, failWorse
}

// runCompare prints the comparison and returns the exit code: non-zero
// on any regressed row or higher fail ratio.
func runCompare(w io.Writer, oldPath, newPath string) int {
	old, err := loadSuite(oldPath)
	if err == nil {
		var new suiteResult
		if new, err = loadSuite(newPath); err == nil {
			return printCompare(w, old, new)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func printCompare(w io.Writer, old, new suiteResult) int {
	if old.Short != new.Short || old.Seconds != new.Seconds {
		fmt.Fprintf(w, "warning: settings differ (short %v/%v, seconds %g/%g)\n", old.Short, new.Short, old.Seconds, new.Seconds)
	}
	rows, failWorse := compareSuites(old, new)
	exit := 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %-7s %16s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "unit", "ratio (new/old)", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %-7s %16.4f %7.1f%% %6.0f%%  %s\n",
			r.Workload, r.Metric, r.Old, r.New, r.Unit, r.Ratio, 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictRegressed {
			exit = 1
		}
	}
	for _, name := range failWorse {
		fmt.Fprintf(w, "%s: fail_ratio rose\n", name)
		exit = 1
	}
	return exit
}
