package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"vf2boost/internal/checkpoint"
)

// Checkpoint/resume: each party snapshots its training state into its own
// checkpoint.Store after every completed boosting round, and a restarted
// session resumes from the newest mutually-consistent round. The snapshot
// is per-party because the state is: Party B holds the tree structure,
// leaf weights and margins; each passive party holds only its private
// split payloads. The resume round is arbitrated at session setup via
// MsgResume (see messages.go): B takes the minimum of its own newest
// snapshot and every passive party's announced round, rewinds to it, and
// replays from there — parties that were ahead truncate the replayed
// trees and rebuild them deterministically.

// Roles recorded in a TrainState.
const (
	RoleActive  = "active"
	RolePassive = "passive"
)

// TrainState is one party's checkpoint payload after `Trees` completed
// boosting rounds.
type TrainState struct {
	// Fingerprint guards against resuming under a different
	// configuration; see Config.Fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Role is RoleActive or RolePassive; Party is the party index
	// (passive index, or the party count minus one for B).
	Role  string `json:"role"`
	Party int    `json:"party"`
	// Trees is the number of completed rounds this snapshot captures.
	Trees int `json:"trees"`
	// Fragment is the party's model fragment after those rounds — for B
	// the full tree structure and leaf weights, for a passive party its
	// private split records.
	Fragment *PartyModel `json:"fragment"`
	// BaseScore is the model's base margin (Party B only).
	BaseScore float64 `json:"base_score"`
	// Margins are Party B's per-instance margins after those rounds —
	// the only numeric training state not reconstructible from the
	// fragment.
	Margins []float64 `json:"margins,omitempty"`
	// BackOff is Party B's speculation latch (see activeParty.backOff);
	// snapshotting it keeps a resumed run on the exact protocol schedule of
	// an uninterrupted one.
	BackOff bool `json:"back_off,omitempty"`
}

// Fingerprint hashes every configuration field that shapes the per-round
// computation, so a resume under a changed configuration fails loudly
// instead of silently mixing models. Trees is excluded on purpose
// (training may legitimately be extended on resume), as is Workers, which
// affects scheduling but not results: the obfuscation exponent is a pure
// function of (seed, tree, class, instance), ciphertext sums are exact
// integers, and Party B's plaintext histograms add each node's rows in
// ascending order at every worker count (gbdt's one reduction order).
func (c Config) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "lr=%g depth=%d bins=%d split=%+v loss=%T scheme=%s keybits=%d exp=%d/%d",
		c.LearningRate, c.MaxDepth, c.MaxBins, c.Split, c.Loss, c.Scheme, c.KeyBits, c.BaseExp, c.ExpSpread)
	// The fifth and sixth opt positions held two retired switches, each
	// acting only under HistogramPacking or OptimisticSplit, and the
	// seventh held HistogramSubtraction, retired when every session came
	// to derive siblings. Printing HistogramPacking, OptimisticSplit and
	// BlasterEncryption there keeps the string, and with it the
	// checkpoints, of every config whose switches matched them:
	// DefaultConfig, BaselineConfig, MockConfig and every CLI config.
	fmt.Fprintf(h, " opt=%t/%t/%t/%t/%t/%t/%t batch=%d seed=%d",
		c.BlasterEncryption, c.ReorderedAccumulation, c.OptimisticSplit, c.HistogramPacking,
		c.HistogramPacking, c.OptimisticSplit, c.BlasterEncryption, c.BatchSize, c.Seed)
	if c.Objective != nil && c.Objective.Name() != "binary" {
		// A non-default objective reshapes every round (k class trees,
		// k×n margins); binary sessions keep the historical fingerprint.
		fmt.Fprintf(h, " obj=%s/%d", c.Objective.Name(), c.Objective.NumOutputs())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// enableCheckpoints attaches a store to a passive party and, on resume,
// restores its newest valid fragment.
func (p *passiveParty) enableCheckpoints(st *checkpoint.Store, resume bool) error {
	p.ckpt = st
	if st == nil || !resume {
		return nil
	}
	var ts TrainState
	seq, err := st.LoadLatest(&ts)
	if err != nil || seq == 0 {
		return err
	}
	if ts.Fingerprint != p.cfg.Fingerprint() {
		return fmt.Errorf("core: party %d checkpoint %d was written under a different configuration", p.index, seq)
	}
	if ts.Role != RolePassive || ts.Party != p.index {
		return fmt.Errorf("core: party %d checkpoint %d belongs to %s party %d", p.index, seq, ts.Role, ts.Party)
	}
	if ts.Fragment == nil || len(ts.Fragment.Trees) != ts.Trees {
		return fmt.Errorf("core: party %d checkpoint %d fragment is inconsistent", p.index, seq)
	}
	ts.Fragment.Party = p.index
	p.model = ts.Fragment
	return nil
}

// saveCheckpoint snapshots the passive party's fragment after round
// `trees` (1-based count of completed rounds).
func (p *passiveParty) saveCheckpoint(trees int) error {
	// Pad so the fragment length states the completed round count even
	// when this party owned no split in the later trees.
	for len(p.model.Trees) < trees {
		p.model.Trees = append(p.model.Trees, NewFedTree(rootID))
	}
	return p.ckpt.Save(trees, TrainState{
		Fingerprint: p.cfg.Fingerprint(),
		Role:        RolePassive,
		Party:       p.index,
		Trees:       trees,
		Fragment:    p.model,
	})
}

// resumePoint picks the round to resume from: the newest of B's own
// valid snapshots, clamped to the slowest passive party's announcement,
// stepping further back when intermediate snapshots are missing or
// invalid. It returns round 0 (fresh start) when nothing usable exists.
func (b *activeParty) resumePoint() (int, *TrainState, error) {
	k := b.outputs
	limit := b.cfg.Trees * k
	for _, rt := range b.resumeTrees {
		if rt < limit {
			limit = rt
		}
	}
	var probe TrainState
	latest, err := b.ckpt.LoadLatest(&probe)
	if err != nil {
		return 0, nil, err
	}
	if latest < limit {
		limit = latest
	}
	// Checkpoints exist only at round boundaries — multiples of the
	// output count — so clamp down and step back a round at a time.
	limit -= limit % k
	n := b.rows * k
	for t := limit; t > 0; t -= k {
		var ts TrainState
		if err := b.ckpt.Load(t, &ts); err != nil {
			continue // missing or corrupt; step back one round
		}
		if ts.Fingerprint != b.cfg.Fingerprint() {
			return 0, nil, fmt.Errorf("core: party B checkpoint %d was written under a different configuration", t)
		}
		if ts.Role != RoleActive || ts.Fragment == nil ||
			len(ts.Fragment.Trees) != t || len(ts.Margins) != n || ts.Trees != t {
			return 0, nil, fmt.Errorf("core: party B checkpoint %d is inconsistent", t)
		}
		return t, &ts, nil
	}
	return 0, nil, nil
}

// saveCheckpoint snapshots Party B's state after `trees` class trees (a
// round boundary, so trees is a multiple of the output count). A
// multi-output snapshot stores the k×n margin matrix flattened
// class-major; the single-output layout is unchanged.
func (b *activeParty) saveCheckpoint(trees int) error {
	margins := b.margins
	if b.outputs > 1 {
		margins = make([]float64, 0, b.outputs*b.rows)
		for _, row := range b.marginsAll {
			margins = append(margins, row...)
		}
	}
	return b.ckpt.Save(trees, TrainState{
		Fingerprint: b.cfg.Fingerprint(),
		Role:        RoleActive,
		Party:       len(b.links),
		Trees:       trees,
		Fragment:    b.model,
		BaseScore:   0,
		Margins:     margins,
		BackOff:     b.backOff,
	})
}
