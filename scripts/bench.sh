#!/usr/bin/env bash
# Reproducible crypto/serving benchmark harness. Runs the Paillier
# primitive benchmarks (Enc, Dec and HAdd at 512 and 2048 bits, SMul by the protocol's scalars at
# 2048-bit — packing shift, exponent alignment, a general scalar —
# obfuscator generation baseline r^n vs the key owner's CRT h^x, the key
# owner's Encrypt), the paper's Fig. 7 histogram-accumulation
# benches, the passive party's finalize+pack on 1/2/4 workers, and the
# online-scoring BenchmarkScoreBatch, then pipes the lot
# through cmd/benchfmt into a committed JSON baseline. Two more legs
# follow: the out-of-core scale run and the objective scale run.
#
# Usage: scripts/bench.sh [-short] [-out FILE] [LEG...]
#   -short    small key sizes and minimal bench time: the CI smoke leg.
#             Writes nowhere by default (stdout) so it cannot clobber the
#             committed baseline.
#   -out FILE JSON output path of the crypto leg. The full run defaults to
#             BENCH_crypto.json at the repo root — the committed baseline.
#   LEG       crypto (BENCH_crypto.json), ooc (BENCH_ooc.json) or obj
#             (BENCH_objectives.json); the legs to run, all when none is
#             named. `scripts/bench.sh crypto` refreshes the crypto
#             baseline and leaves the other two files alone.
set -euo pipefail
cd "$(dirname "$0")/.."

short=0
out=""
legs=""
while [ $# -gt 0 ]; do
  case "$1" in
    -short) short=1 ;;
    -out) out="$2"; shift ;;
    crypto | ooc | obj) legs="$legs $1" ;;
    *) echo "usage: scripts/bench.sh [-short] [-out FILE] [crypto|ooc|obj]..." >&2; exit 2 ;;
  esac
  shift
done
[ -n "$legs" ] || legs="crypto ooc obj"

# leg NAME: whether NAME is among the legs to run.
leg() { case " $legs " in *" $1 "*) return 0 ;; esac; return 1; }

if [ "$short" -eq 1 ]; then
  benchtime="20x"
  pack_benchtime="2x"
  # Small moduli only: 2048-bit keygen alone takes longer than the whole
  # smoke budget.
  obf_filter='Benchmark(ObfuscatorBaseline|OwnerObfuscator|EncryptOwner)/bits=(256|512)$'
  prim_filter='BenchmarkEncrypt$|BenchmarkDecryptCRT$/bits=512$|BenchmarkHAdd$/bits=512$|BenchmarkSMul$/bits=512$'
else
  benchtime="1s"
  pack_benchtime="10x"
  obf_filter='BenchmarkObfuscatorBaseline|BenchmarkOwner(Obfuscator|TableBuild)|BenchmarkEncryptOwner'
  prim_filter='BenchmarkEncrypt$|BenchmarkDecryptCRT$|BenchmarkHAdd$|BenchmarkSMul$'
  [ -n "$out" ] || out="BENCH_crypto.json"
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

if leg crypto; then
  echo "== paillier primitives ==" >&2
  go test -run '^$' -bench "$prim_filter" -benchtime "$benchtime" ./internal/paillier | tee -a "$tmp" >&2

  echo "== obfuscator generation: baseline r^n vs key-owner CRT h^x ==" >&2
  go test -run '^$' -bench "$obf_filter" -benchtime "$benchtime" -timeout 30m ./internal/paillier | tee -a "$tmp" >&2

  echo "== histogram accumulation (Fig. 7) ==" >&2
  go test -run '^$' -bench 'BenchmarkFig7' -benchtime "$benchtime" . | tee -a "$tmp" >&2

  echo "== node histogram finalize+pack: 2048-bit, 10 features x 20 bins, full / sparse / both at once, 1/2/4 workers ==" >&2
  # A fixed iteration count: one op is ~0.2 s, and the smoke leg only needs
  # the pack_parallel_speedup and pack_fill rows to derive.
  go test -run '^$' -bench 'BenchmarkWireNodeHist' -benchtime "$pack_benchtime" ./internal/core | tee -a "$tmp" >&2

  echo "== online scoring ==" >&2
  go test -run '^$' -bench 'BenchmarkScoreBatch' -benchtime "$benchtime" . | tee -a "$tmp" >&2

  echo "== benchfmt ==" >&2
  if [ -n "$out" ]; then
    go run ./cmd/benchfmt -in "$tmp" -date "$(date -u +%Y-%m-%d)" -out "$out"
    echo "wrote $out" >&2
  else
    go run ./cmd/benchfmt -in "$tmp" -date "$(date -u +%Y-%m-%d)"
  fi
fi

if leg ooc; then
  echo "== out-of-core scale (rows/sec and peak heap vs shard-cache budget) ==" >&2
  if [ "$short" -eq 1 ]; then
    # Smoke only: tiny row count, result discarded (never clobbers the
    # committed baseline).
    go run ./cmd/experiments -run oocscale -ooc-rows 100000 -trees 2 -build-workers 4 >&2
  else
    go run ./cmd/experiments -run oocscale -build-workers 4 -json BENCH_ooc.json >&2
    echo "wrote BENCH_ooc.json" >&2
  fi
fi

if leg obj; then
  echo "== objective scale (cipher ops per round per class vs k; parity and NDCG gates) ==" >&2
  if [ "$short" -eq 1 ]; then
    # Smoke only: small rows and keys, result discarded.
    go run ./cmd/experiments -run objscale -obj-rows 400 -keybits 256 >&2
  else
    go run ./cmd/experiments -run objscale -json BENCH_objectives.json >&2
    echo "wrote BENCH_objectives.json" >&2
  fi
fi
