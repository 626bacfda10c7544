#!/usr/bin/env bash
# Distributed demo: three processes — a message-queue gateway, a passive
# Party A and an active Party B — train a federated model over TCP, then
# score the training shards in one federated scoring session (predict),
# and serve the same model online (sidecar + serve).
# This is the deployment shape of the paper (Section 3.1), one process per
# enterprise plus the gateway machines.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

echo "== building =="
go build -o "$WORK/vf2boost" ./cmd/vf2boost
go build -o "$WORK/datagen" ./cmd/datagen

echo "== generating per-party shards =="
"$WORK/datagen" -rows 800 -cols 20 -density 0.5 -seed 7 \
  -out "$WORK/demo.libsvm" -split 12,8

SECRET=demo-secret
PORT=17341

echo "== starting gateway =="
"$WORK/vf2boost" gateway -addr "127.0.0.1:$PORT" -secret "$SECRET" &
sleep 1

echo "== training (two processes) =="
"$WORK/vf2boost" party -role a -index 0 -gateway "127.0.0.1:$PORT" -secret "$SECRET" \
  -data "$WORK/demo.partyA0.libsvm" -out "$WORK/fragA.json" \
  -trees 3 -depth 3 -scheme mock &
A_PID=$!
"$WORK/vf2boost" party -role b -peers 1 -gateway "127.0.0.1:$PORT" -secret "$SECRET" \
  -data "$WORK/demo.partyB.libsvm" -out "$WORK/fragB.json" \
  -trees 3 -depth 3 -scheme mock
wait "$A_PID"

echo "== batch prediction: one scoring session (two processes) =="
"$WORK/vf2boost" predict -role a -index 0 -gateway "127.0.0.1:$PORT" -secret "$SECRET" \
  -data "$WORK/demo.partyA0.libsvm" -model "$WORK/fragA.json" &
P_PID=$!
"$WORK/vf2boost" predict -role b -peers 1 -gateway "127.0.0.1:$PORT" -secret "$SECRET" \
  -data "$WORK/demo.partyB.libsvm" -model "$WORK/fragB.json" \
  -out "$WORK/preds.txt"
wait "$P_PID"

LINES=$(wc -l < "$WORK/preds.txt")
echo "== batch prediction done: $LINES margins written =="
test "$LINES" -eq 800

echo "== online scoring (server + sidecar) =="
HTTP_PORT=17342
"$WORK/vf2boost" sidecar -index 0 -gateway "127.0.0.1:$PORT" -secret "$SECRET" \
  -data "$WORK/demo.partyA0.libsvm" -models "$WORK/fragA.json" &
SIDECAR_PID=$!
"$WORK/vf2boost" serve -addr "127.0.0.1:$HTTP_PORT" -peers 1 \
  -gateway "127.0.0.1:$PORT" -secret "$SECRET" \
  -data "$WORK/demo.partyB.libsvm" -models "$WORK/fragB.json" \
  -max-batch 16 -max-wait 5ms &
SERVE_PID=$!

# Wait on /readyz, not /healthz: liveness comes up before the worker
# session and model registry do, and scoring needs all three.
for i in $(seq 1 30); do
  curl -fsS "http://127.0.0.1:$HTTP_PORT/readyz" >/dev/null 2>&1 && break
  sleep 0.3
done
curl -fsS "http://127.0.0.1:$HTTP_PORT/healthz"
curl -fsS "http://127.0.0.1:$HTTP_PORT/readyz"

echo "-- scoring a few rows over HTTP --"
for r in 0 1 2 3; do
  curl -fsS -X POST -d "{\"row\": $r}" "http://127.0.0.1:$HTTP_PORT/score"
  echo
done

echo "-- online margin must match batch prediction --"
M0=$(curl -fsS -X POST -d '{"row": 0}' "http://127.0.0.1:$HTTP_PORT/score" \
  | sed -E 's/.*"margin":([-+0-9.eE]+).*/\1/')
P0=$(head -1 "$WORK/preds.txt")
awk -v a="$M0" -v b="$P0" 'BEGIN { d = a - b; if (d < 0) d = -d; exit !(d < 1e-9) }'
echo "row 0: serve=$M0 predict=$P0 (match)"

echo "-- serving metrics --"
curl -fsS "http://127.0.0.1:$HTTP_PORT/metricsz" | head -8

kill -INT "$SERVE_PID"
wait "$SERVE_PID" || true
wait "$SIDECAR_PID" || true
echo "== done =="
