#!/usr/bin/env bash
# Loopback wire-serving smoke: start ttfs_wire_server, replay the committed
# Poisson trace (bench/traces/wire_smoke.json, 10k arrivals over 2 models)
# with ttfs_loadgen, and gate the resulting BENCH_wire_serving.json against
# the committed baseline in bench/baselines/wire/.
#
# The wire baseline lives in its own directory (not bench/baselines/) on
# purpose: tools/bench_compare.py treats a baseline with no current
# counterpart as a failure, and only this job produces wire numbers — the
# in-process perf-smoke job must not be asked to match them.
#
# What the gate holds firm vs loose here:
#   * "reqs/s" (relative band): in open loop, completed-requests/s tracks the
#     offered rate as long as the server keeps up, so it is robust across
#     runner speeds — a server that can no longer sustain the trace fails.
#   * "shed %" / "reject %" / "error %" (absolute percentage points): the
#     committed baseline is 0.0; a server that starts refusing at a load it
#     used to absorb fails even though relative-to-zero is undefined.
#   * "p95 ms" (relative band, widened to +200% via --latency-tolerance 2.0):
#     absolute tail latency varies with runner class far more than the
#     in-process benches, so it only catches order-of-magnitude regressions.
#
# Usage: tests/ci_wire_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
cd "${REPO_DIR}"

PORT_FILE="$(mktemp)"
SERVER_LOG="$(mktemp)"
trap 'kill "${SERVER_PID}" 2>/dev/null || true; rm -f "${PORT_FILE}"' EXIT

# Two models matching the trace's ids; a bounded queue, so a hypothetical
# overload shows up as "reject %" in the gated table (a full queue refuses
# each request that finds it full).
"${BUILD_DIR}/tools/ttfs_wire_server" \
  --models 2 --replicas 2 --queue-cap 512 \
  --port-file "${PORT_FILE}" >"${SERVER_LOG}" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -s "${PORT_FILE}" ] && break
  kill -0 "${SERVER_PID}" 2>/dev/null || { cat "${SERVER_LOG}"; exit 1; }
  sleep 0.1
done
PORT="$(cat "${PORT_FILE}")"
echo "wire server up on port ${PORT} (pid ${SERVER_PID})"

"${BUILD_DIR}/tools/ttfs_loadgen" \
  --port "${PORT}" --mode replay --trace bench/traces/wire_smoke.json \
  --connections 8 --max-seconds 120 --json

kill -TERM "${SERVER_PID}"
wait "${SERVER_PID}"
cat "${SERVER_LOG}"

python3 tools/bench_compare.py \
  --baseline bench/baselines/wire --current . --latency-tolerance 2.0
