package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// runConfig is one driver-mode invocation: one workload, one seed, one
// measured region of about Seconds, traced or not.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Short    bool
	// TraceDir receives trace-<workload>.csv on traced runs.
	TraceDir string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the JSON object a run prints as its last line: untraced
// runs carry every end-to-end metric, traced runs every per-layer one.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measurement is what a workload hands back: operation counts, the
// end-to-end values, the per-layer values (traced runs only), and
// free-form notes for the human-readable log.
type measurement struct {
	attempted, failed int
	endToEnd          map[string]float64
	perLayer          map[string]float64
	notes             []string
}

func (m *measurement) notef(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// result projects a measurement onto the declared metric set: every
// declared metric appears (0 when the workload has no such layer),
// nothing undeclared does.
func (m *measurement) result(trace bool) runResult {
	defs, vals := endToEnd, m.endToEnd
	if trace {
		defs, vals = perLayer, m.perLayer
	}
	out := runResult{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// runWorkload dispatches one driver-mode run.
func runWorkload(rc runConfig) (*measurement, error) {
	var log *spanLog
	if rc.Trace {
		log = newSpanLog()
	}
	scratch, err := newScratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var m *measurement
	switch rc.Workload {
	case wlRowsWAN, wlWideWAN, wlMockOOC:
		m, err = runTrain(rc, trainSpecFor(rc.Workload, rc.Short), scratch, log)
	case wlServe:
		m, err = runServe(rc, serveSpecFor(rc.Short), log)
	default:
		return nil, fmt.Errorf("unknown workload %q", rc.Workload)
	}
	if err != nil {
		return nil, err
	}
	if rc.Trace && rc.TraceDir != "" {
		if err := os.MkdirAll(rc.TraceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(rc.TraceDir, "trace-"+rc.Workload+".csv")
		if err := writeSpanCSV(path, log.snapshot()); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
		m.notef("trace: %s", path)
	}
	return m, nil
}

// newScratch makes a private directory for stores and checkpoints under
// the build directory of the checkout the benchmark was started in (the
// driver names it in CARGO_TARGET_DIR), so a run never writes outside
// its checkout.
func newScratch() (string, error) {
	root := os.Getenv("CARGO_TARGET_DIR")
	if root == "" {
		root = ".bench_build"
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-")
}

// seededReader is a deterministic byte stream for paillier.GenerateKey,
// so key generation does the same work on every run of a key seed.
// crypto/rand.Prime deliberately reads one stray byte half of the time to
// stop callers from depending on its stream; answering one-byte reads
// without advancing the stream keeps the primes reproducible anyway.
type seededReader struct{ rng *rand.Rand }

func newSeededReader(seed int64) *seededReader {
	return &seededReader{rng: rand.New(rand.NewSource(seed))}
}

func (r *seededReader) Read(p []byte) (int, error) {
	if len(p) == 1 {
		p[0] = 0
		return 1, nil
	}
	return r.rng.Read(p)
}

// heapWatch samples the Go heap while a measured region runs (traced
// runs only: ReadMemStats briefly stops the world).
type heapWatch struct {
	stop, done chan struct{}
	peak       uint64
	pauseStart uint64
}

func startHeapWatch() *heapWatch {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{}), pauseStart: ms.PauseTotalNs}
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > h.peak {
				h.peak = ms.HeapAlloc
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns peak heap in MB and the GC pause
// total in ms over the watched region.
func (h *heapWatch) finish() (peakMB, pauseMS float64) {
	close(h.stop)
	<-h.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(h.peak) / 1e6, float64(ms.PauseTotalNs-h.pauseStart) / 1e6
}

// freshHeap returns freed memory to the OS so the measured region starts
// from a settled heap whatever set-up allocated.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of floats reach here
	}
	return string(b)
}
