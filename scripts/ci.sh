#!/usr/bin/env bash
# CI gate: gofmt cleanliness, vet, build everything, race-test the
# packages on the online serving path (mq transport, serve subsystem,
# core protocol), and fuzz-smoke the wire decoder. The full suite
# (go test ./...) is tier-1 and runs separately; this script is the
# fast signal a serving-layer change needs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l cmd internal)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet =="
go vet ./...

echo "== one wire codec (no encoding/gob in non-test code) =="
# Every link speaks the binary frame format; the reflective gob codec was
# retired and its tag is refused. A non-test import of encoding/gob under
# internal/ or cmd/ would be a second wire format creeping back.
gob_users=$(grep -rlE '"encoding/gob"' --include='*.go' internal cmd | grep -v '_test\.go$' || true)
if [ -n "$gob_users" ]; then
  echo "encoding/gob imported by:" >&2
  echo "$gob_users" >&2
  exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race (mq, serve, core, fault, checkpoint, ooc, fixedpoint, fedlr) =="
go test -race ./internal/mq/... ./internal/serve/... ./internal/core/... \
  ./internal/fault/... ./internal/checkpoint/... ./internal/ooc/... \
  ./internal/fixedpoint/... ./internal/fedlr/...

echo "== parity suites across core counts (same seed => byte-identical model on any schedule) =="
# Every byte-identity contract the chaos, resume and ooc suites
# lean on must hold however the workers interleave: the obfuscation
# exponent is a counter-based draw, not a shared stream. Run the parity
# tests single-threaded, at two and at four procs, repeatedly, under the
# race detector. The sibling-derivation suites run here too — every
# session derives the larger child of a split, and its models must hash
# to the ones pinned while passive parties still built both children —
# as do the node-layout, hostile-frame and scheduler suites: a passive
# party sweeps, finalizes and packs every node as units on one queue of
# its workers, Party B decrypts per ciphertext on another, and what B files must equal the integers
# the passive party summed, packed or one slot per ciphertext — and a
# refused frame must end in its typed error, and a frame no decoder reads
# (the retired batched-backend ids 24–27, the retired per-bin histogram
# ids 30 and 32, an unknown id) in MsgAbort to B — whatever the schedule.
# A node ships as a header and one frame per ciphertext, which B's units
# decrypt as they land: a frame before its header, twice, beyond the
# header's count or inside a one-frame header, a link dropped mid-node,
# and B's idle time under concurrent waits run here too.
# The counter ledger's cells (cipher operations, shaper bytes and model
# bytes of every combination of the paper's switches) must hold at
# Workers 1 on any core count. Party B grows
# every tree in one layer loop, speculating or not: the frames it sends
# each party must log to the same hashes on any core count, a session
# must stop speculating after a lost tree, the checkpoint fingerprints
# must hold, and a short placement must end B's session with its typed
# error. On virtual-time links a layer's dirty nodes must cost one round
# trip, and the corrections queued at a passive party must share one
# placement pass and answer as one at a time would, with its receive
# pump gone when the session ends. Party B files a peer's frames by key,
# so no frame kind can starve another: a wait returns past any number of
# queued frames of other kinds, and a layer with hundreds of corrections
# ends.
# So do the shard passes: a layer placed or accumulated in
# one pass must equal each node walked alone, an abort must drop a node out
# mid-pass, and the loads of a federated session over one-shard caches
# must stay under their bound in passes. The compiled routing tables must
# equal the map walkers they replaced bit for bit — margins ==, bitmaps
# byte for byte — on any count. The local trainer's golden and
# parity models run here too: a node's histogram is one sequential sweep
# of its rows at every Workers value, so their hashes hold on any count.
for procs in 1 2 4; do
  GOMAXPROCS=$procs go test -race -count=3 \
    -run 'Parity|ByteIdentity|MatchesBaseline|MatchesDataset|Golden|Sibling|LostHistogram|ActiveAbort|CheckpointResume|NodeLayout|ChunkRule|Hostile|StreamedNode|BIdleWithinWallTime|DecryptFeatureRejectsGarbage|PeerBackendRejection|LinkRejectsMalformedFrames|CounterLedger|PackedChild|MergeScales|PackedDecryptions|FrameLog|SpeculationStops|FingerprintStable|ShortPlacement|UnitQueue|WorkerBudget|AbortedTask|FailingUnits|CorrectionsShareOneRoundTrip|CorrectionsSharePass|PumpLeavesNoGoroutine|FederatedLoadsBound|MatchesPerNode|RouteTablesMatchOracle|InboxAwait|WideLayerSessionEnds' ./internal/core
  GOMAXPROCS=$procs go test -race -count=3 -run 'Golden|Parity' ./internal/gbdt
  # The Section 5.1 accumulator resolves distinct cells concurrently, and
  # federated LR's weights must hash to the pinned ones with either
  # reduction, on any core count.
  GOMAXPROCS=$procs go test -race -count=1 -run 'TestSums|TestTrainGolden' ./internal/fixedpoint ./internal/fedlr
  # Party B encrypts through the key owner's CRT tables; both schemes
  # must conform, and the golden hashes above must not move, on any core
  # count.
  GOMAXPROCS=$procs go test -race -count=1 -run 'TestBackendConformance' ./internal/he
done

echo "== key-owner encryption and power-of-two SMul (CRT obfuscator and squaring chain vs big.Exp, secrecy boundary, reconfiguration under a live pool, Montgomery kernel; race-enabled) =="
# -short trims the random-exponent sweep at the larger key sizes; the
# edge, single-window and out-of-table exponents always run. The pow2
# kernel is compared byte for byte with big.Int.Exp, and shared read-only
# operands are shifted from several goroutines at once. At 2048 bits both
# run twice, on the Montgomery kernel and on big.Int, and the kernel's
# product, REDC and exponentiation are checked against big.Int on the
# moduli it serves; 2048-bit decryption runs on both paths too. The
# digit-form HAdd is compared with big.Int's Mul+Mod on edge operands and
# non-units, and one shared wire ciphertext is added from several
# goroutines at once, as Party A's pack workers share a node's shift.
go test -race -short -count=1 -run 'Owner|MulScalarPow2|Mont|Decrypt|Digit|SharedAddend' ./internal/paillier ./internal/he

echo "== big.Int path at 2048 bits (purego: the Montgomery kernel compiled out) =="
go test -tags purego -short -count=1 -run 'Owner|MulScalarPow2|Conformance|Mont|Decrypt|Digit|SharedAddend' ./internal/paillier ./internal/he

echo "== non-amd64 builds (the kernel is amd64 assembly; other GOARCHes must compile without it) =="
GOARCH=arm64 go vet ./internal/paillier
GOARCH=386 go vet ./internal/paillier

echo "== ooc smoke (bounded-memory training under GOMEMLIMIT, race-enabled) =="
# GOMEMLIMIT makes the runtime itself enforce the bound: if the shard
# cache leaked past its budget the test would thrash or OOM rather than
# silently grow the heap.
GOMEMLIMIT=256MiB go test -race -short -count=1 -run 'TestBoundedMemoryTraining|TestModelByteParity' ./internal/ooc

echo "== parallel ooc smoke (shard sweeps, lock-split store, parallel build; race-enabled) =="
# The shard sweeps and the lock-split shard cache move real work off the
# store mutex, so this leg runs their parity and concurrency regressions
# under the race detector: sharded vs unsharded byte identity (models and
# histograms, and the refusal of a non-ascending list), build byte
# identity at Workers 0 vs 4, range-scannable and plain sources, shard
# repair through both read branches of the chunk reader (range scan and
# scan-and-stop), the loads bounds (local trainer — also at 4 workers on
# layers narrower than that — and federated engines), the per-visit LRU
# clock against the per-row policy, one pass against
# per-node walks, the slow-prefetch-never-blocks-demand contract, and the
# pooled shard read: a load allocates only the shard it keeps, and a
# pinned shard never sees the buffer reused under it.
go test -race -count=1 \
  -run 'TestShardMajorModelParity|TestBuildHistogramsShardedParity|TestPlanShardTasks|TestParallelBuildByteIdentity|TestShardCorruptionRebuildsFromSource|TestTrainingLoadsBound|TestSlowPrefetchDoesNotBlockDemandLoad|TestConcurrentRowPrefetchCloseRace|TestEvictionOrderAfterInterleavedVisits|TestFederatedLoadsBound|TestRouteNodesMatchesPerNode|TestAccumulatePassMatchesPerNode|TestShardLoadAllocatesOnlyWhatItKeeps|TestPinnedShardSurvivesBufferReuse' \
  ./internal/gbdt ./internal/ooc ./internal/core

echo "== chaos smoke (seeded faults must reproduce the fault-free model) =="
go test -race -run 'TestChaosTrainingMatchesBaseline|TestSessionCheckpointResume' ./internal/core

echo "== storage chaos smoke (disk faults: self-heal or typed abort, byte-identical resume) =="
# Seeded filesystem fault injection over the ooc store and checkpoint
# layers. -short caps the soak at ~30 kill-and-corrupt scenarios (the
# full few-hundred-scenario sweep runs with the tier-1 suite); every
# scenario must self-heal or abort with a typed error — zero panics —
# and every recovered run must resume to the byte-identical model. A
# passive party whose checkpoint save fails must abort the session, not
# leave B waiting.
go test -race -short -count=1 \
  -run 'TestStorageChaosSoak|TestShardCorruption|TestManifest|TestStoreClose|TestTornWriteAtRenameRecovery|TestOpenSweepsOrphanedTempFiles|TestViewSessionFaultyStoreAborts|TestPassiveCheckpointFailureAborts|TestReadFileFillsCallerBuffer' \
  ./internal/fault/fsfault ./internal/ooc ./internal/checkpoint ./internal/core

echo "== fuzz smoke (ooc manifest/shard decode: hostile bytes must never panic) =="
go test -run='^$' -fuzz=FuzzOpenHostileStore -fuzztime=10s ./internal/ooc

echo "== serve chaos smoke (overload, breaker trip/recover, no-hang contract, pipelined rounds) =="
# Scoring rounds are pipelined: several share a worker link, a receive
# pump hands each answer to the round of its id, and a timeout, a cut, a
# hostile frame or Close may land with any number of rounds in flight.
# Which goroutine notices first is the schedule's choice, so the leg runs
# repeatedly at one, two and four procs under the race detector, like
# the training parity suites. A sidecar that receives a frame it cannot
# decode must end with core.ErrUndecodable after one dial, not re-dial. A
# worker answering with a bitmap that is not ceil(rows/8) bytes must cost
# its session, not B's process, and the failed round's error must keep
# that cause. Publish must refuse a broken fragment. Batch prediction is
# one scoring session: it must score like PredictAll, and a session B
# refuses at open (a misaligned shard) must still release every worker.
# The micro-batcher takes a batch only with a window slot held, so the
# batcher's slot hand-off, its drain on Close and its open-loop run on
# virtual time ride the same leg, as does the 429 Retry-After estimate.
for procs in 1 2 4; do
  GOMAXPROCS=$procs go test -race -count=3 -timeout 300s \
    -run 'TestServeChaosHTTPNeverHangs|TestServeHardCutRedialRecovery|TestServeBreakerTimeoutTripAndRecover|TestBreaker|TestBatcherQueueBound|TestPipeline|TestCloseBoundedOnBlackHoledLink|TestWorkerEndsOnUndecodableFrame|TestShortBitmapSeversSession|TestPublishRefusesBrokenFragment|TestScoringSessionMatchesPredictAll|TestFailedOpenReleasesWorkers|TestBatcherLoneRequestFlushesWhenQuiet|TestBatcherTrickleFlushesAtMaxWait|TestBatcherReleasedTogetherLeaveAsOne|TestBatcherFillsWhileWindowBusy|TestBatcherCloseDrainsFlushWaitingOnFullWindow|TestBatcherWaitingBatchGivesUpAtDeadline|TestBatcherOpenLoopOnFullWindow|TestRetryAfterQueueFromMeasuredRounds' \
    ./internal/serve
done

echo "== objective smoke (multiclass + ranking: parity, shared-pass counters, rejection paths, race-enabled) =="
# The multi-output protocol ships a round's k class streams under one
# shipment tree and advances passive-party class trees mid-round; both are
# concurrency-sensitive, so this leg runs under the race detector.
go test -race -count=1 \
  -run 'TestMulticlass|TestRanking|TestPeerObjectiveRejection|TestUnregisteredMultiOutputObjectiveRejected|TestSoftmax|TestLambdaRank|TestNewArgParsing|TestNewUnknownName' \
  ./internal/core ./internal/objective

echo "== objective CLI smoke (sim: multiclass over Paillier, ranking over mock) =="
obj_tmp=$(mktemp -d)
go run ./cmd/datagen -classes 3 -rows 300 -cols 6 -seed 5 -out "$obj_tmp/mc.libsvm" >/dev/null
go run ./cmd/datagen -rank-groups 30 -group-size 6 -cols 6 -seed 5 -out "$obj_tmp/rank.libsvm" >/dev/null
go run ./cmd/vf2boost sim -data "$obj_tmp/mc.libsvm" -split 3,3 -objective multiclass:3 \
  -scheme paillier -keybits 512 -trees 2 -depth 2 -out "$obj_tmp/mc.json" >/dev/null
go run ./cmd/vf2boost sim -data "$obj_tmp/rank.libsvm" -split 3,3 -objective ranking:5 \
  -scheme mock -trees 2 -depth 2 -out "$obj_tmp/rank.json" >/dev/null
rm -rf "$obj_tmp"

echo "== distributed demo (gateway, training, predict and serve as separate processes over TCP) =="
# Trains over the gateway, scores the shards with predict (one scoring
# session in bounded rounds), serves them over HTTP, and checks that the
# served margin of row 0 equals predict's.
bash scripts/distributed-demo.sh >/dev/null

echo "== fuzz smoke (wire decode: binary frames and the refused gob tag) =="
go test -run='^$' -fuzz=FuzzWireDecode -fuzztime=10s ./internal/core

echo "== fuzz smoke (routing tables: arbitrary fragments and bitmaps route like the map walkers or refuse, never panic) =="
go test -run='^$' -fuzz=FuzzRouteTables -fuzztime=10s ./internal/core

echo "== fuzz smoke (ciphertext unmarshal, the wire validation gate: arbitrary bytes must never panic) =="
go test -run='^$' -fuzz=FuzzUnmarshal -fuzztime=10s ./internal/he

echo "== fuzz smoke (ciphertext ops: arbitrary bytes must never panic) =="
go test -run='^$' -fuzz=FuzzCiphertextOps -fuzztime=10s ./internal/paillier

echo "== fuzz smoke (power-of-two SMul at 2048 bits, on the Montgomery kernel where the CPU has one: arbitrary ciphertext bytes and shifts must match big.Int.Exp) =="
go test -run='^$' -fuzz=FuzzMulScalarPow2 -fuzztime=10s ./internal/paillier

echo "== fuzz smoke (digit-form HAdd at 2048 bits: arbitrary valid ciphertext bytes must add like big.Int's Mul+Mod) =="
go test -run='^$' -fuzz=FuzzDigitHAdd -fuzztime=10s ./internal/paillier

echo "== bench smoke (harness runs, output parses, baseline not rotted) =="
bench_json=$(mktemp)
trap 'rm -f "$bench_json"' EXIT
scripts/bench.sh -short -out "$bench_json" >/dev/null 2>&1
go run ./cmd/benchfmt -check "$bench_json"
if [ -f BENCH_crypto.json ]; then
  go run ./cmd/benchfmt -check BENCH_crypto.json
fi
if [ -f BENCH_ooc.json ]; then
  go run ./cmd/benchfmt -check BENCH_ooc.json
fi

echo "== benchmark smoke (every BENCHMARK.json workload, short: correctness checks and probes must pass) =="
# The suite exits non-zero when any operation of any workload fails — a
# federated AUC off the co-located model's, a served margin off
# PredictAll, a wire or cipher probe erroring — so a protocol change that
# breaks a workload fails here, before the benchmark driver sees it.
go run ./benchmark -short >/dev/null

echo "== ci ok =="
