package main

import (
	"path/filepath"
	"runtime"
	"strings"

	"vf2boost/internal/ooc"
)

// trainLayers turns a traced training run into the per-layer metrics:
// the program's public counters read after the run, unit costs from the
// probes, count x unit-cost estimates, lane times from the trace, and the
// CPU time none of them explains. A probe that fails is returned as an
// error and counts as a failed operation of the run.
func trainLayers(in *trainInputs, ref *reference, tot *sessionTotals,
	cacheBefore []ooc.CacheStats, scratch string, log *spanLog) (out map[string]float64, probeErrs []error) {
	spec, cfg := in.spec, in.cfg
	out = map[string]float64{}
	note := func(err error) {
		if err != nil {
			probeErrs = append(probeErrs, err)
		}
	}
	trees := float64(tot.trees)
	wallS := tot.wall.Seconds()

	// Counters the program exposes (Session.Stats, Session.Crypto,
	// Broker, Shaper). Session.Crypto is Party B's codec only: A's HAdd
	// and packing work has no public counter yet, so it shows as time
	// (core.build_hist_s, fixedpoint.pack_est_s), not as a count.
	out["core.train_total_s"] = wallS
	out["core.trees"] = trees
	out["core.encrypt_s"] = tot.encrypt.Seconds()
	out["core.decrypt_s"] = tot.decrypt.Seconds()
	out["core.build_hist_s"] = tot.buildHist.Seconds()
	out["core.find_split_s"] = tot.find.Seconds()
	out["core.b_idle_s"] = tot.bIdle.Seconds()
	out["core.a_idle_s"] = tot.aIdle.Seconds()
	out["core.dirty_nodes"] = float64(tot.dirty)
	out["core.aborted_tasks"] = float64(tot.aborted)
	if splits := tot.splitsA + tot.splitsB; splits > 0 {
		out["core.splits_by_a_ratio"] = float64(tot.splitsA) / float64(splits)
	}
	out["he.encryptions_per_tree"] = float64(tot.enc) / trees
	out["he.decryptions_per_tree"] = float64(tot.dec) / trees
	out["he.hadds_per_tree"] = float64(tot.hadds) / trees
	out["he.smuls_per_tree"] = float64(tot.smuls) / trees
	out["he.scalings_per_tree"] = float64(tot.scalings) / trees
	out["wire.msgs_per_op"] = float64(tot.msgs) / trees
	out["wire.bytes_per_msg"] = float64(tot.bytes) / float64(tot.msgs)
	out["mq.link_blocked_s"] = tot.blocked.Seconds()
	out["mq.link_blocked_share"] = tot.blocked.Seconds() / wallS

	// Lanes of the traced sessions.
	spans := log.snapshot()
	for lane, busy := range laneBusy(spans) {
		switch {
		case lane == "B:Encrypt":
			out["core.lane_b_encrypt_s"] = busy.Seconds()
		case lane == "B:Decrypt+FindSplitA":
			out["core.lane_b_decrypt_s"] = busy.Seconds()
		case strings.HasPrefix(lane, "A") && strings.HasSuffix(lane, ":BuildHist"):
			out["core.lane_a_buildhist_s"] += busy.Seconds()
		}
	}
	self := selfTimes(spans)
	for _, id := range tot.trainSpans {
		out["core.train_self_s"] += self[id].Seconds()
	}

	// Unit costs.
	out["paillier.keygen_s"] = in.keygenS
	note(probeCrypto(in.dec, cfg, spec.Rows, log, out))
	note(probeTrainWire(spec, cfg, in.dec.CiphertextBytes(), int(out["fixedpoint.values_per_ct"]), log, out))
	note(probeMQ(log, out))
	note(probeGBDT(ref.eval, cfg, log, out))
	note(probeMisc(spec, ref.evalLabels, cfg, log, out))
	out["gbdt.local_s_per_tree"] = ref.trainS / float64(cfg.Trees)

	if spec.OOC {
		shards := 0
		var loads, prefetches, evictions, retried, peak int64
		for i, st := range in.stores {
			now := st.Stats()
			shards += st.NumShards()
			loads += now.Loads - cacheBefore[i].Loads
			prefetches += now.Prefetches - cacheBefore[i].Prefetches
			evictions += now.Evictions - cacheBefore[i].Evictions
			retried += now.RetriedLoads - cacheBefore[i].RetriedLoads
			if now.PeakBytes > peak {
				peak = now.PeakBytes
			}
		}
		out["ooc.loads"] = float64(loads)
		out["ooc.prefetches"] = float64(prefetches)
		out["ooc.evictions"] = float64(evictions)
		out["ooc.retried_loads"] = float64(retried)
		out["ooc.peak_cache_bytes"] = float64(peak)
		// One tree sweeps every shard depth+1 times under the shard-major
		// schedule, so 1.0 means no shard was read twice in a sweep.
		out["ooc.loads_per_shard_sweep"] = float64(loads+prefetches) / (float64(shards) * float64(spec.Depth+1) * trees)
		out["ooc.build_rows_per_s"] = float64(spec.Rows) * float64(len(in.stores)) / in.buildS
		note(probeOOC(filepath.Join(scratch, "setup-0", "party0"), spec, log, out))
		note(probeCheckpoint(scratch, spec.Rows, log, out))
		if tot.checkpointFiles > 0 {
			out["checkpoint.bytes_per_tree"] = float64(tot.checkpointBytes) / float64(tot.checkpointFiles)
		}
		out["checkpoint.save_est_s"] = trees * out["checkpoint.save_ms"] / 1e3
	}

	// Estimates: count x unit cost, per layer, and what is left of the
	// CPU time the run had (wall x GOMAXPROCS) once they are subtracted.
	// Every packed histogram ciphertext is decrypted exactly once, so B's
	// decryption count stands in for A's pack count.
	out["fixedpoint.encrypt_est_s"] = float64(tot.enc) * out["fixedpoint.encrypt_value_us"] / 1e6
	out["fixedpoint.pack_est_s"] = float64(tot.dec) * out["fixedpoint.pack_us_per_ct"] / 1e6
	out["he.decrypt_est_s"] = float64(tot.dec) * (out["paillier.decrypt_us"] + out["fixedpoint.unpack_us_per_ct"]) / 1e6
	mb := float64(tot.bytes) / 1e6
	if enc, dec := out["wire.grad_encode_mb_per_s"], out["wire.grad_decode_mb_per_s"]; enc > 0 && dec > 0 {
		out["wire.codec_est_s"] = mb/enc + mb/dec
	}
	// B builds its own plaintext histograms over every row once per tree
	// level.
	if rate := out["gbdt.hist_rows_per_s"]; rate > 0 {
		out["gbdt.hist_est_s"] = float64(spec.Rows) * float64(spec.Depth) * trees / rate
	}
	explained := out["fixedpoint.encrypt_est_s"] + out["fixedpoint.pack_est_s"] + out["he.decrypt_est_s"] +
		out["core.build_hist_s"] + out["core.find_split_s"] + out["wire.codec_est_s"] +
		out["gbdt.hist_est_s"] + out["checkpoint.save_est_s"]
	out["core.explained_cpu_s"] = explained
	out["core.unexplained_cpu_s"] = wallS*float64(runtime.GOMAXPROCS(0)) - explained
	return out, probeErrs
}
