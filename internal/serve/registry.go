package serve

import (
	"fmt"
	"sort"
	"sync"

	"vf2boost/internal/core"
)

// Model is one published model version as held by one party: the party's
// own fragment plus the scalar scoring parameters (which only Party B
// uses; passive entries leave them zero). Publish compiles the fragment
// once into the routing table every round pinned to the version uses.
type Model struct {
	Version      uint64
	Fragment     *core.PartyModel
	LearningRate float64
	BaseScore    float64

	routes *core.RouteTable
}

// Registry is a versioned model store with atomic hot-swap. Publish
// installs a new version and makes it current in one step; readers that
// pinned an older version keep resolving it until it is retired, so
// in-flight batches always finish on the version they started with even
// mid-reload. Each party runs its own registry — fragments never cross the
// boundary; parties coordinate only on version numbers.
type Registry struct {
	mu      sync.RWMutex
	models  map[uint64]Model
	current uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[uint64]Model)}
}

// Publish installs a model version and atomically makes it current.
// Version numbers are chosen by the operator (they must agree across
// parties) and must be fresh and non-zero. The fragment is compiled here,
// once, with the structure it holds. Party B's entry (one with scoring
// parameters) must hold a sound tree structure: a missing root, a
// dangling child, a cycle is refused with an error naming the tree and
// node. A passive party's fragment holds its own splits and their
// children's ids, and is refused when those links are not sound
// (core.CompileOwnedSplits).
func (r *Registry) Publish(m Model) error {
	if m.Version == 0 {
		return fmt.Errorf("serve: model version must be non-zero")
	}
	if m.Fragment == nil {
		return fmt.Errorf("serve: model version %d has no fragment", m.Version)
	}
	compile := core.CompileOwnedSplits
	if m.LearningRate != 0 || m.BaseScore != 0 { // Party B's entry
		compile = core.CompileFragment
	}
	routes, err := compile(m.Fragment)
	if err != nil {
		return fmt.Errorf("serve: model version %d refused: %w", m.Version, err)
	}
	m.routes = routes
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[m.Version]; ok {
		return fmt.Errorf("serve: model version %d already published", m.Version)
	}
	r.models[m.Version] = m
	r.current = m.Version
	return nil
}

// Current returns the live version, the one new batches pin.
func (r *Registry) Current() (Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[r.current]
	return m, ok
}

// CurrentVersion returns the live version number (0 when empty).
func (r *Registry) CurrentVersion() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.current
}

// Get resolves a pinned version, current or not.
func (r *Registry) Get(version uint64) (Model, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.models[version]
	return m, ok
}

// Versions lists the published versions in ascending order.
func (r *Registry) Versions() []uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]uint64, 0, len(r.models))
	for v := range r.models {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Retire drops a superseded version. The current version cannot be
// retired; swap in a successor first.
func (r *Registry) Retire(version uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if version == r.current {
		return fmt.Errorf("serve: cannot retire current version %d", version)
	}
	if _, ok := r.models[version]; !ok {
		return fmt.Errorf("serve: version %d not published", version)
	}
	delete(r.models, version)
	return nil
}
