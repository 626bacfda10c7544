package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every name the binary can print obeys BENCHMARK.json's limits.
func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s (s, lower)")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
}

// BENCHMARK.json at the repo root says exactly what this binary
// implements; regenerate it with `go run ./benchmark -spec`.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(buf))
	}
	dec := json.NewDecoder(strings.NewReader(string(buf)))
	dec.DisallowUnknownFields()
	var onDisk benchmarkSpec
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := currentSpec(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the binary's spec:\n on disk %+v\n binary  %+v", onDisk, want)
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", onDisk.RunSeconds)
	}
}

// A run reports every declared metric of its mode and nothing else, with
// 0 for layers the workload does not have.
func TestResultCarriesExactlyTheDeclaredMetrics(t *testing.T) {
	m := &measurement{attempted: 3,
		endToEnd: map[string]float64{"setup_s": 1.5, "not_declared": 9},
		perLayer: map[string]float64{"ooc.loads": 12}}
	for _, trace := range []bool{false, true} {
		res := m.result(trace)
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if mv, ok := res.Metrics[d.Name]; !ok || mv.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s missing or unit %q != %q", trace, d.Name, mv.Unit, d.Unit)
			}
		}
		if !res.Correct {
			t.Errorf("trace=%v: a run without failures must be correct", trace)
		}
	}
	if got := m.result(false).Metrics["setup_s"].Value; got != 1.5 {
		t.Errorf("setup_s = %g, want 1.5", got)
	}
	if got := m.result(true).Metrics["ooc.loads"].Value; got != 12 {
		t.Errorf("ooc.loads = %g, want 12", got)
	}
	m.failed = 1
	if m.result(false).Correct {
		t.Error("a run with a failed operation must not be correct")
	}
	if (&measurement{}).result(false).Correct {
		t.Error("a run that attempted nothing must not be correct")
	}
}

func TestSpecsScaleDownInShortMode(t *testing.T) {
	for _, name := range []string{wlRowsWAN, wlWideWAN, wlMockOOC} {
		full, short := trainSpecFor(name, false), trainSpecFor(name, true)
		if full.Rows == 0 || short.Rows != full.Rows/10 || short.Trees != 1 {
			t.Errorf("%s: full %+v short %+v", name, full, short)
		}
		if full.Scheme == "paillier" && (full.KeyBits != 2048 || short.KeyBits != 512) {
			t.Errorf("%s: key bits %d / %d, want 2048 / 512", name, full.KeyBits, short.KeyBits)
		}
	}
	if full, short := serveSpecFor(false), serveSpecFor(true); short.Rows != full.Rows/10 {
		t.Errorf("serve: full %+v short %+v", full, short)
	}
}

// The key is an input: the same seed must give the same key.
func TestSeededReaderIsDeterministic(t *testing.T) {
	read := func(seed int64) []byte {
		r := newSeededReader(seed)
		one := make([]byte, 1)
		r.Read(one) // crypto/rand.Prime's stray byte must not shift the stream
		buf := make([]byte, 32)
		r.Read(buf)
		return buf
	}
	plain := make([]byte, 32)
	newSeededReader(5).Read(plain)
	if !reflect.DeepEqual(read(5), plain) {
		t.Error("a one-byte read advanced the stream")
	}
	if reflect.DeepEqual(read(5), read(6)) {
		t.Error("different seeds gave the same stream")
	}
}
