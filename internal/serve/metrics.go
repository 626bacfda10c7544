package serve

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram with approximate quantiles: cheap
// enough for the request hot path (one lock, one binary search) and
// accurate to within a bucket's width, which geometric bounds keep
// proportional to the value.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []int64   // len(bounds)+1, last is the overflow bucket
	total  int64
	sum    float64
}

// NewHistogram creates a histogram over ascending bucket upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// geometricBounds returns upper bounds lo, lo*factor, ... up to hi.
func geometricBounds(lo, hi, factor float64) []float64 {
	var out []float64
	for v := lo; v <= hi; v *= factor {
		out = append(out, v)
	}
	return out
}

// LatencyBounds is the default request-latency bucket layout in
// milliseconds: 50µs to ~100s, 8 buckets per doubling, so a quantile is
// off by at most one ninth of its value (a bucket spans ×2^(1/8) ≈ 1.09).
func LatencyBounds() []float64 { return geometricBounds(0.05, 110_000, math.Pow(2, 1.0/8)) }

// SizeBounds is the default batch-size bucket layout: 1 to 4096, doubling.
func SizeBounds() []float64 { return geometricBounds(1, 4096, 2) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the covering bucket. Values in the overflow bucket report the
// largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	rank := q * float64(h.total)
	cum, lower := 0.0, 0.0
	for i, c := range h.counts {
		upper := math.Inf(1)
		if i < len(h.bounds) {
			upper = h.bounds[i]
		}
		if float64(c) > 0 && cum+float64(c) >= rank {
			if math.IsInf(upper, 1) {
				return lower
			}
			frac := (rank - cum) / float64(c)
			return lower + frac*(upper-lower)
		}
		cum += float64(c)
		lower = upper
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// FlushCause is why the micro-batcher let a batch go.
type FlushCause int

const (
	FlushFull      FlushCause = iota // MaxBatch requests joined it
	FlushQuiet                       // no request joined it for MaxWait/8
	FlushMaxWait                     // its first request waited MaxWait
	FlushSlotFreed                   // it was due with every window slot busy, and left when one freed
	FlushClose                       // Close drained it
	numFlushCauses
)

var flushCauseNames = [numFlushCauses]string{"full", "quiet", "max-wait", "slot-freed", "close"}

// String renders the cause as its /metricsz label.
func (c FlushCause) String() string { return flushCauseNames[c] }

// Metrics instruments the serving path: request and batch counters plus
// latency and batch-size histograms, rendered by /metricsz. PR 4 adds the
// overload/degradation counters (shed, timeouts, degraded, retries) and
// per-phase latency (WAN round-trip vs local routing) so operators can
// tell a slow party from a slow tree walk. The pipelined round window adds
// its occupancy and the answers that arrived after their round gave up;
// the micro-batcher adds why each of its batches left, and their sizes.
type Metrics struct {
	start     time.Time
	requests  atomic.Int64
	batches   atomic.Int64
	errors    atomic.Int64
	shed      atomic.Int64 // requests rejected by admission control
	timeouts  atomic.Int64 // rounds/requests that blew their deadline
	degraded  atomic.Int64 // requests answered with partial margins
	retries   atomic.Int64 // in-round session re-open attempts
	inflight  atomic.Int64 // rounds holding a window slot right now
	stale     atomic.Int64 // answers dropped: their round had given up
	latency   *Histogram   // per-request latency, milliseconds
	batchSize *Histogram   // federated rounds by batch size
	wan       *Histogram   // sidecar round-trip latency, milliseconds
	route     *Histogram   // local margin-routing latency, milliseconds
	flushes   [numFlushCauses]atomic.Int64
	flushSize *Histogram // micro-batcher flushes by size (bulk rounds are not flushes)
}

// NewMetrics creates zeroed metrics with the default bucket layouts.
func NewMetrics() *Metrics {
	return &Metrics{
		start:     time.Now(),
		latency:   NewHistogram(LatencyBounds()),
		batchSize: NewHistogram(SizeBounds()),
		wan:       NewHistogram(LatencyBounds()),
		route:     NewHistogram(LatencyBounds()),
		flushSize: NewHistogram(SizeBounds()),
	}
}

// ObserveRequest records one request's end-to-end latency and outcome.
func (m *Metrics) ObserveRequest(d time.Duration, err error) {
	m.requests.Add(1)
	if err != nil {
		m.errors.Add(1)
		return
	}
	m.latency.Observe(float64(d) / float64(time.Millisecond))
}

// ObserveBatch records one federated round's batch size.
func (m *Metrics) ObserveBatch(size int) {
	m.batches.Add(1)
	m.batchSize.Observe(float64(size))
}

// ObserveFlush records one micro-batch leaving the batcher.
func (m *Metrics) ObserveFlush(cause FlushCause, size int) {
	m.flushes[cause].Add(1)
	m.flushSize.Observe(float64(size))
}

// ObserveShed records one request rejected by admission control.
func (m *Metrics) ObserveShed() { m.shed.Add(1) }

// ObserveTimeout records one deadline expiry (a request or a sidecar
// round that ran out of budget).
func (m *Metrics) ObserveTimeout() { m.timeouts.Add(1) }

// ObserveDegraded records one request answered with partial margins.
func (m *Metrics) ObserveDegraded() { m.degraded.Add(1) }

// ObserveRetry records one in-round session re-open attempt.
func (m *Metrics) ObserveRetry() { m.retries.Add(1) }

// ObserveInflight moves the rounds-in-flight gauge as a round takes (+1)
// or returns (-1) its window slot.
func (m *Metrics) ObserveInflight(delta int64) { m.inflight.Add(delta) }

// ObserveStale records one worker answer nobody was waiting for.
func (m *Metrics) ObserveStale() { m.stale.Add(1) }

// ObserveWAN records one sidecar round-trip's latency.
func (m *Metrics) ObserveWAN(d time.Duration) {
	m.wan.Observe(float64(d) / float64(time.Millisecond))
}

// ObserveRoute records one local margin-routing pass's latency.
func (m *Metrics) ObserveRoute(d time.Duration) {
	m.route.Observe(float64(d) / float64(time.Millisecond))
}

// Requests returns the total requests observed.
func (m *Metrics) Requests() int64 { return m.requests.Load() }

// Batches returns the total federated rounds issued.
func (m *Metrics) Batches() int64 { return m.batches.Load() }

// Flushes returns how many micro-batches left the batcher for cause.
func (m *Metrics) Flushes(cause FlushCause) int64 { return m.flushes[cause].Load() }

// Errors returns the total failed requests.
func (m *Metrics) Errors() int64 { return m.errors.Load() }

// Shed returns the total requests rejected by admission control.
func (m *Metrics) Shed() int64 { return m.shed.Load() }

// Timeouts returns the total deadline expiries.
func (m *Metrics) Timeouts() int64 { return m.timeouts.Load() }

// Degraded returns the total partial-margin responses.
func (m *Metrics) Degraded() int64 { return m.degraded.Load() }

// Retries returns the total in-round session re-open attempts.
func (m *Metrics) Retries() int64 { return m.retries.Load() }

// RoundsInflight returns the rounds currently holding a window slot
// (at most ServerConfig.MaxInflight).
func (m *Metrics) RoundsInflight() int64 { return m.inflight.Load() }

// StaleResponses returns the total worker answers dropped because their
// round had already given up on them.
func (m *Metrics) StaleResponses() int64 { return m.stale.Load() }

// QPS returns requests per second since the metrics were created.
func (m *Metrics) QPS() float64 {
	secs := time.Since(m.start).Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(m.requests.Load()) / secs
}

// Latency returns the request-latency histogram (milliseconds).
func (m *Metrics) Latency() *Histogram { return m.latency }

// BatchSize returns the batch-size histogram.
func (m *Metrics) BatchSize() *Histogram { return m.batchSize }

// FlushSize returns the micro-batcher's flush-size histogram. BatchSize
// also counts bulk rounds; this one only the batcher's.
func (m *Metrics) FlushSize() *Histogram { return m.flushSize }

// WAN returns the sidecar round-trip latency histogram (milliseconds).
func (m *Metrics) WAN() *Histogram { return m.wan }

// Route returns the local routing latency histogram (milliseconds).
func (m *Metrics) Route() *Histogram { return m.route }

// Uptime returns the time since the metrics were created.
func (m *Metrics) Uptime() time.Duration { return time.Since(m.start) }
