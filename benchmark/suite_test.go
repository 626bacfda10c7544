package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseLastLine(t *testing.T) {
	out := []byte("a note\nanother\n" +
		`{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}` + "\n\n")
	res, err := parseLastLine(out)
	if err != nil {
		t.Fatal(err)
	}
	want := runResult{Correct: true, Attempted: 10, Metrics: map[string]metricValue{"setup_s": {0.8127, "s"}}}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("parsed %+v, want %+v", res, want)
	}
	if _, err := parseLastLine([]byte("no json here")); err == nil {
		t.Error("a run without a result line must be an error")
	}
	if _, err := parseLastLine([]byte(`{"correct":true,"attempted":1,"failed":0,"metrics":{},"extra":1}`)); err == nil {
		t.Error("a result with unknown keys must be an error")
	}
}

// The printed run result has exactly the four keys the contract names.
func TestRunResultKeys(t *testing.T) {
	var generic map[string]json.RawMessage
	if err := json.Unmarshal([]byte(mustJSON((&measurement{attempted: 1}).result(false))), &generic); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := generic[k]; !ok {
			t.Errorf("run result lacks key %q", k)
		}
	}
	if len(generic) != 4 {
		t.Errorf("run result has %d keys, want 4", len(generic))
	}
}

// syntheticSuite builds a suite result whose every end-to-end metric has
// the given runs on one workload.
func syntheticSuite(runsPerMetric map[string][]float64, failed int) suiteResult {
	var runs []runResult
	for k := 0; k < len(runsPerMetric["setup_s"]); k++ {
		r := runResult{Correct: failed == 0, Attempted: 100, Metrics: map[string]metricValue{}}
		if k == 0 {
			r.Failed = failed
		}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metricValue{runsPerMetric[d.Name][k], d.Unit}
		}
		runs = append(runs, r)
	}
	w := summarize(workloads[0], runs)
	w.PerLayer = map[string]metricValue{"he.ciphertext_bytes": {512, "B"}}
	w.TraceOverheadRatio = 1.02
	return suiteResult{Schema: suiteSchema, Host: hostInfo{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.x", GitRev: "abc"},
		Seed: 1, Seconds: 20, Repeat: len(runs), Bounds: endToEnd, Workloads: []workloadResult{w}}
}

// steady returns per-metric runs: base for every metric, scaled by the
// factors per run.
func steady(base float64, factors ...float64) map[string][]float64 {
	out := map[string][]float64{}
	for _, d := range endToEnd {
		for _, f := range factors {
			out[d.Name] = append(out[d.Name], base*f)
		}
	}
	return out
}

func TestSuiteResultRoundTrip(t *testing.T) {
	want := syntheticSuite(steady(10, 1, 1.01, 0.99), 0)
	buf, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(buf)), "\"claim\": null\n}") {
		t.Errorf("result must end with \"claim\": null, ends with %q", string(buf[len(buf)-40:]))
	}
	path := filepath.Join(t.TempDir(), "result.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadSuite(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
	if s := got.Workloads[0].EndToEnd["op_p50_ms"]; s.Median != 10 || len(s.Values) != 3 || s.Spread <= 0 {
		t.Errorf("summary = %+v", s)
	}

	bad := bytes.Replace(buf, []byte(`"schema": 1`), []byte(`"schema": 99`), 1)
	os.WriteFile(path, bad, 0o644)
	if _, err := loadSuite(path); err == nil {
		t.Error("a result of another schema must be refused")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := syntheticSuite(steady(100, 1, 1.005, 0.995, 1.002), 0)
	verdicts := func(new suiteResult) map[string]string {
		rows, _ := compareSuites(base, new)
		out := map[string]string{}
		for _, r := range rows {
			out[r.Metric] = r.Verdict
		}
		return out
	}

	// Identical runs: everything ok.
	for metric, v := range verdicts(base) {
		if v != verdictOK {
			t.Errorf("same suite twice: %s is %s", metric, v)
		}
	}

	// Every metric moved by the same share, up and then down: a row
	// regresses exactly when the move is for the worse and beyond the
	// metric's own bound.
	for _, move := range []float64{0.18, -0.22} {
		got := verdicts(syntheticSuite(steady(100*(1+move), 1, 1.005, 0.995, 1.002), 0))
		for _, d := range endToEnd {
			worse := move
			if d.Better == "higher" {
				worse = -move
			}
			want := verdictOK
			if worse > d.Bound {
				want = verdictRegressed
			}
			if got[d.Name] != want {
				t.Errorf("moved by %+.0f%%: %s (%s is better, bound %g) is %s, want %s",
					100*move, d.Name, d.Better, d.Bound, got[d.Name], want)
			}
		}
	}

	// Runs that disagree with each other by more than a metric's bound
	// cannot resolve it, whichever way the medians moved.
	noisy := syntheticSuite(steady(100, 0.87, 1, 1.13, 1.09, 0.91), 0)
	got := verdicts(noisy)
	for _, d := range endToEnd {
		want := verdictOK
		if 0.22 > d.Bound { // the spread of those five runs
			want = verdictUnresolved
		}
		if got[d.Name] != want {
			t.Errorf("runs spread by 22%%: %s (bound %g) is %s, want %s", d.Name, d.Bound, got[d.Name], want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	base := syntheticSuite(steady(100, 1, 1.005, 0.995), 0)
	var sink bytes.Buffer
	if code := printCompare(&sink, base, base); code != 0 {
		t.Errorf("identical suites exit %d:\n%s", code, sink.String())
	}
	if !strings.Contains(sink.String(), "ratio (new/old)") {
		t.Errorf("comparison lacks the ratio's base:\n%s", sink.String())
	}
	slower := syntheticSuite(steady(130, 1, 1.005, 0.995), 0)
	if code := printCompare(&sink, base, slower); code == 0 {
		t.Error("a regression must exit non-zero")
	}
	failing := syntheticSuite(steady(100, 1, 1.005, 0.995), 3)
	sink.Reset()
	if code := printCompare(&sink, base, failing); code == 0 || !strings.Contains(sink.String(), "fail_ratio rose") {
		t.Errorf("a higher fail ratio must exit non-zero and say so:\n%s", sink.String())
	}
}

func TestTracedThroughput(t *testing.T) {
	layers := map[string]metricValue{
		"core.train_total_s":      {10, "s"},
		"core.trees":              {5, "count"},
		"serve.single_rows_per_s": {1000, "rows/s"},
		"serve.bulk_rows_per_s":   {9000, "rows/s"},
	}
	rows := float64(trainSpecFor(wlRowsWAN, false).Rows)
	if got := tracedRowsPerS(wlRowsWAN, false, layers); got != rows*5/10 {
		t.Errorf("train throughput = %g, want %g", got, rows*5/10)
	}
	if got := tracedRowsPerS(wlServe, false, layers); got != 10000 {
		t.Errorf("serve throughput = %g, want 10000", got)
	}
	if got := tracedRowsPerS(wlRowsWAN, false, nil); got != 0 {
		t.Errorf("no traced run: throughput = %g, want 0", got)
	}
}
