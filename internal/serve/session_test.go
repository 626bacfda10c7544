package serve

// Batch prediction is one scoring session: Party B opens it, scores every
// row of its shard through ScoreRows and closes it. These tests run that
// shape over in-memory links.

import (
	"math"
	"strings"
	"testing"
	"time"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
)

// sessionParts generates an aligned table split into per-party shards; the
// last shard is B's and holds the labels.
func sessionParts(t testing.TB, rows int, split []int, seed int64) []*dataset.Dataset {
	t.Helper()
	cols := 0
	for _, c := range split {
		cols += c
	}
	d, err := dataset.Generate(dataset.GenOptions{Rows: rows, Cols: cols, Density: 1, Dense: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.VerticalSplit(split, len(split)-1)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

// sessionServer starts one PassiveWorker per passive shard over an
// in-memory link, each holding its fragment of m as version 1, and
// returns a server over B's shard (the last) with the worker ends wired
// in, plus each worker's Run result.
func sessionServer(t *testing.T, m *core.FederatedModel, parts []*dataset.Dataset) (*Server, []chan error) {
	t.Helper()
	b := len(parts) - 1
	breg := NewRegistry()
	if err := breg.Publish(bModel(1, m)); err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Data: parts[b], Registry: breg, Session: "predict-test"}
	var done []chan error
	for i := 0; i < b; i++ {
		reg := NewRegistry()
		if err := reg.Publish(Model{Version: 1, Fragment: m.Parties[i]}); err != nil {
			t.Fatal(err)
		}
		serverTr, workerTr := pipePair()
		w := NewPassiveWorker(i, parts[i], reg)
		ch := make(chan error, 1)
		go func() { ch <- w.Run(workerTr) }()
		cfg.Workers = append(cfg.Workers, serverTr)
		done = append(done, ch)
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, done
}

// workersReturn asserts every worker's Run returned nil within failsafe.
func workersReturn(t *testing.T, done []chan error) {
	t.Helper()
	for i, ch := range done {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("worker %d: %v", i, err)
			}
		case <-time.After(failsafe):
			t.Fatalf("worker %d still blocked in Run", i)
		}
	}
}

// TestScoringSessionMatchesPredictAll: scoring every row through one
// session over the parties' fragments matches the glued model's
// in-process prediction, for two and for three parties.
func TestScoringSessionMatchesPredictAll(t *testing.T) {
	for _, tc := range []struct {
		name        string
		split       []int
		rows, trees int
		seed        int64
	}{
		{"two_parties", []int{5, 5}, 300, 3, 81},
		{"three_parties", []int{4, 4, 4}, 200, 2, 83},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parts := sessionParts(t, tc.rows, tc.split, tc.seed)
			m := trainModel(t, parts, tc.trees)
			want := predictAll(t, m, parts)
			srv, done := sessionServer(t, m, parts)
			if err := srv.Open(); err != nil {
				t.Fatal(err)
			}
			rows := make([]int32, tc.rows)
			for i := range rows {
				rows[i] = int32(i)
			}
			got, version, err := srv.ScoreRows(rows)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			workersReturn(t, done)
			if version != 1 || len(got) != len(want) {
				t.Fatalf("scored %d rows at v%d, want %d at v1", len(got), version, len(want))
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("session margin differs at row %d: %g vs %g", i, got[i], want[i])
				}
			}
		})
	}
}

// TestFailedOpenReleasesWorkers: a worker whose shard is not aligned with
// B's (3 rows against 60) makes Open fail naming both counts, and the
// refused session still ends: the worker is sent MsgScoreClose and its
// Run returns.
func TestFailedOpenReleasesWorkers(t *testing.T) {
	parts := sessionParts(t, 60, []int{5, 5}, 82)
	m := trainModel(t, parts, 1)
	shrunk := parts[0].SubRows([]int{0, 1, 2})
	srv, done := sessionServer(t, m, []*dataset.Dataset{shrunk, parts[1]})
	err := srv.Open()
	if err == nil || !strings.Contains(err.Error(), "has 3 rows") || !strings.Contains(err.Error(), "B has 60") {
		t.Fatalf("Open over a misaligned shard returned %v, want an error naming 3 and 60 rows", err)
	}
	workersReturn(t, done)
	if _, _, err := srv.ScoreRows([]int32{0}); err != ErrClosed {
		t.Errorf("ScoreRows after a refused Open = %v, want ErrClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close after a refused Open: %v", err)
	}
}
