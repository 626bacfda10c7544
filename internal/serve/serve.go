// Package serve is the online federated scoring subsystem: it turns a
// trained federated GBDT — whose fragments never leave their parties —
// into a long-lived, low-latency service, the deployment shape the paper's
// cross-enterprise setting ultimately feeds (risk scores at transaction
// time, not batch jobs).
//
// The pieces, all layered on the existing mq broker / TCP gateway and the
// core scoring protocol (internal/core/score.go):
//
//   - Registry: a versioned model store with atomic hot-swap. Every
//     scoring round is pinned to one version, so a reload mid-stream never
//     mixes tree structures across parties.
//   - PassiveWorker: a passive-party sidecar that holds its feature shard
//     and fragment registry and answers an unbounded stream of scoring
//     rounds over one mq topic pair — session setup is paid once, not per
//     request.
//   - Batcher: Party B's micro-batcher. Incoming single-instance requests
//     coalesce until the batch is full, arrivals pause for MaxWait/8, or
//     MaxWait has passed, and the batch leaves only once a pipeline slot
//     is free — so one WAN round-trip (the dominant online cost) serves N
//     requests, and no request waits on a timer the pipeline does not
//     need.
//   - Server: Party B's front end — pipelined federated round driver (up
//     to MaxInflight rounds share a WAN round trip, answers matched by
//     round id), HTTP API (POST /score, GET /healthz, GET /metricsz),
//     latency/QPS/batch-size instrumentation, and trace.Recorder lanes so
//     serving schedules render on the same Gantt tooling as training.
//
// Rows are indices into the pre-aligned scoring universe (each party holds
// its own feature shard of the same instances, aligned by PSI just like
// training data), which is how online VFL feature stores address
// instances without shipping features across the boundary.
package serve

import (
	"errors"
	"fmt"
)

// ErrClosed is returned by operations on a closed batcher or server.
var ErrClosed = errors.New("serve: closed")

// ErrNoModel is returned when scoring is attempted before any model
// version has been published.
var ErrNoModel = errors.New("serve: no model version published")

// ErrOverloaded is returned when admission control sheds a request: the
// batcher queue is full. HTTP maps it to 429 with a Retry-After derived
// from the current queue depth.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// ErrPartyUnavailable is returned under the FailClosed policy when a
// passive party's circuit breaker is open (or its session cannot be
// re-established), so a full federated round is impossible. HTTP maps it
// to 503 with a Retry-After derived from the breaker cooldown.
var ErrPartyUnavailable = errors.New("serve: passive party unavailable (circuit open)")

// DegradedPolicy selects what the scoring server does when a passive
// party cannot take part in a round (open breaker, dead session).
type DegradedPolicy int

const (
	// FailClosed refuses rounds that cannot consult every passive party
	// — correctness over availability (the default).
	FailClosed DegradedPolicy = iota
	// ServePartial serves partial margins from the reachable parties
	// (trees needing a missing party are skipped), marking the response
	// "partial": true with the missing-party list — availability over
	// completeness.
	ServePartial
)

// String renders the policy in the -degraded-policy flag syntax.
func (p DegradedPolicy) String() string {
	if p == ServePartial {
		return "partial"
	}
	return "failclosed"
}

// ParsePolicy parses the -degraded-policy CLI value.
func ParsePolicy(s string) (DegradedPolicy, error) {
	switch s {
	case "", "failclosed", "fail-closed":
		return FailClosed, nil
	case "partial", "servepartial", "serve-partial":
		return ServePartial, nil
	}
	return FailClosed, fmt.Errorf("serve: unknown degraded policy %q (want failclosed or partial)", s)
}
