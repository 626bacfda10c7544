package experiments

import (
	"bytes"
	"testing"
)

// The experiment harnesses run at tiny scale here — the point is that
// every table/figure generator executes end-to-end and produces sane
// rows; cmd/experiments runs the fuller sweeps.

func TestFig7Smoke(t *testing.T) {
	rows, err := Fig7(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	byOp := map[string]float64{}
	for _, r := range rows {
		if r.OpsPerSec <= 0 {
			t.Errorf("%s throughput %g", r.Op, r.OpsPerSec)
		}
		byOp[r.Op] = r.OpsPerSec
	}
	// The cost-model shape the paper's optimizations rely on.
	if byOp["HAdd (re-ordered)"] <= byOp["HAdd (naive)"] {
		t.Error("re-ordered accumulation not faster than naive")
	}
	if byOp["HAdd (naive)"] <= byOp["Decrypt"] {
		t.Error("HAdd should be far faster than decryption")
	}
	var buf bytes.Buffer
	PrintFig7(&buf, 256, rows)
	if buf.Len() == 0 {
		t.Error("empty print output")
	}
}

func TestTable1Smoke(t *testing.T) {
	tc := Table1Config{
		Ns: []int{150}, FeatPerParty: 8, NNZPerRow: 8,
		KeyBits: 256, WANMbps: 0, Seed: 1,
	}
	rows, err := Table1(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.TotalSec <= 0 || r.BlasterSec <= 0 || r.ReorderedSec <= 0 || r.BothSec <= 0 {
		t.Errorf("non-positive timings: %+v", r)
	}
	if r.EncSec <= 0 || r.HAddSec <= 0 {
		t.Errorf("phase dissection missing: %+v", r)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, tc, rows)
	if buf.Len() == 0 {
		t.Error("empty print output")
	}
}

func TestTable2Smoke(t *testing.T) {
	tc := Table2Config{
		N: 150, Splits: [][2]int{{12, 4}}, NNZPerRow: 8,
		KeyBits: 256, MaxDepth: 3, MaxBins: 6, WANMbps: 0, Seed: 2,
	}
	rows, err := Table2(tc)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.BaselineSec <= 0 || r.OptimSec <= 0 || r.PackSec <= 0 || r.BothSec <= 0 {
		t.Errorf("non-positive timings: %+v", r)
	}
	if r.RatioB < 0 || r.RatioB > 1 {
		t.Errorf("RatioB = %g", r.RatioB)
	}
	if r.BytesPack >= r.BytesBaseline {
		t.Errorf("packing did not reduce traffic: %d vs %d", r.BytesPack, r.BytesBaseline)
	}
	var buf bytes.Buffer
	PrintTable2(&buf, tc, rows)
	if buf.Len() == 0 {
		t.Error("empty print output")
	}
}

func TestFig10Smoke(t *testing.T) {
	fc := Fig10Config{Preset: "census", Scale: 100, Trees: 2, KeyBits: 256, Seed: 3}
	series, err := Fig10(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series", len(series))
	}
	names := map[string]bool{}
	for _, s := range series {
		names[s.System] = true
		if s.Final <= 0 {
			t.Errorf("%s final loss %g", s.System, s.Final)
		}
	}
	for _, want := range []string{"VF2Boost", "VF-GBDT", "XGB (co-located)", "XGB (Party B only)"} {
		if !names[want] {
			t.Errorf("missing series %q", want)
		}
	}
	// Curves must be monotone in time.
	for _, s := range series {
		for i := 1; i < len(s.Times); i++ {
			if s.Times[i] <= s.Times[i-1] {
				t.Errorf("%s time series not increasing", s.System)
			}
		}
	}
	var buf bytes.Buffer
	PrintFig10(&buf, fc, series)
	if buf.Len() == 0 {
		t.Error("empty print output")
	}
}

func TestTable4Smoke(t *testing.T) {
	tc := Table4Config{
		Presets: []string{"susy", "rcv1"}, Scale: 50000, Trees: 1,
		KeyBits: 256, WANMbps: 0, Seed: 4,
	}
	rows, err := Table4(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.XGBSec <= 0 || r.MockSec <= 0 || r.GBDTSec <= 0 || r.VF2Sec <= 0 {
			t.Errorf("%s: non-positive timings %+v", r.Dataset, r)
		}
		// The ordering the paper reports: local fastest, mock (protocol
		// overhead only) next, Paillier-backed systems slowest.
		if r.XGBSec >= r.GBDTSec {
			t.Errorf("%s: XGB (%g) not faster than VF-GBDT (%g)", r.Dataset, r.XGBSec, r.GBDTSec)
		}
		if r.MockSec >= r.GBDTSec {
			t.Errorf("%s: VF-MOCK (%g) not faster than VF-GBDT (%g)", r.Dataset, r.MockSec, r.GBDTSec)
		}
	}
	var buf bytes.Buffer
	PrintTable4(&buf, tc, rows)
	if buf.Len() == 0 {
		t.Error("empty print output")
	}
}

func TestTable5Smoke(t *testing.T) {
	tc := Table5Config{
		Presets: []string{"susy"}, Workers: []int{1, 2}, Scale: 50000,
		Trees: 1, KeyBits: 256, Seed: 5,
	}
	rows, err := Table5(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Speedups) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Speedups[0] != 1.0 {
		t.Errorf("base speedup = %g, want 1", rows[0].Speedups[0])
	}
	var buf bytes.Buffer
	PrintTable5(&buf, tc, rows)
	if buf.Len() == 0 {
		t.Error("empty print output")
	}
}

func TestGanttSmoke(t *testing.T) {
	gc := GanttConfig{N: 150, FeatA: 8, FeatB: 8, NNZ: 8, KeyBits: 256, Depth: 2, WANMbps: 0, Seed: 11}
	results, err := Gantt(gc)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if len(r.Spans) == 0 {
			t.Errorf("%s recorded no spans", r.Protocol)
		}
		if r.WallSec <= 0 {
			t.Errorf("%s wall time %g", r.Protocol, r.WallSec)
		}
	}
	var buf bytes.Buffer
	PrintGantt(&buf, gc, results)
	out := buf.String()
	for _, want := range []string{"B:Encrypt", "A0:BuildHist", "B:Decrypt+FindSplitA", "#"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("gantt output missing %q", want)
		}
	}
}

func TestTable6Smoke(t *testing.T) {
	tc := Table6Config{
		Presets: []string{"epsilon"}, Parties: []int{2, 3}, Scale: 20000,
		Trees: 1, KeyBits: 256, WANMbps: 0, Seed: 6,
	}
	rows, refs, err := Table6(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(refs) != 1 {
		t.Fatalf("rows=%d refs=%d", len(rows), len(refs))
	}
	if rows[0].Speedup["epsilon"] != 1.0 {
		t.Errorf("2-party speedup = %g, want 1", rows[0].Speedup["epsilon"])
	}
	var buf bytes.Buffer
	PrintTable6(&buf, tc, rows, refs)
	if buf.Len() == 0 {
		t.Error("empty print output")
	}
}
