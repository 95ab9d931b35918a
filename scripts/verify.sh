#!/usr/bin/env bash
# Tier-1 verification: what CI runs and what every PR must keep green.
# The workspace has no external dependencies, so everything runs with
# --offline — a network-less container must pass this script.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every test step runs under a hard timeout: the robustness suites
# drive the engine against diverging programs and corrupted artefact
# files, where the failure mode of a regression is a hang, not a
# failing assertion.

echo "==> cargo build --release (offline)"
timeout 900 cargo build --release --offline

echo "==> fault-injection suite, debug and release (offline, 300s budget each)"
# The release run is the optimised build `mspecd` ships as; it also
# keeps the suite honest about tests that need a debug-only hook.
timeout 300 cargo test -q --offline -p mspec-core --test fault_injection
timeout 300 cargo test -q --release --offline -p mspec-core --test fault_injection

echo "==> VM differential suite (offline, 300s budget)"
timeout 300 cargo test -q --offline -p mspec-core --test vm_differential

echo "==> cargo test -q (offline)"
timeout 1800 cargo test -q --offline

echo "==> traced link-spec session + trace validation"
# One end-to-end observability smoke: build generating extensions from
# the example sources, run a traced link-spec, then schema-check both
# emitted documents with the mspec binary itself. The artefacts land in
# target/telemetry/ (uploaded by CI for inspection in Perfetto).
rm -rf target/telemetry
mkdir -p target/telemetry/src
cp examples/programs/power.mspec target/telemetry/src/Power.mspec
timeout 120 ./target/release/mspec build target/telemetry/src --out target/telemetry/gx \
  --trace target/telemetry/build-trace.json
timeout 120 ./target/release/mspec link-spec target/telemetry/gx \
  --entry Power.power --args S:5,D \
  --trace target/telemetry/trace.json --metrics target/telemetry/events.jsonl
timeout 60 ./target/release/mspec trace-check target/telemetry/build-trace.json
timeout 60 ./target/release/mspec trace-check target/telemetry/trace.json
timeout 60 ./target/release/mspec trace-check target/telemetry/events.jsonl

echo "==> ill-typed library smoke (one front end, typed artefact builds)"
# Module B adds a boolean to a natural. The artefact build must refuse
# it, and `spec` must report it identically with and without telemetry:
# every path builds through the same front end. The failed traced run
# still writes its event log, which must schema-check.
rm -rf target/ill-typed
mkdir -p target/ill-typed/src
printf 'module A where\na1 x = x + 1\n' > target/ill-typed/src/A.mspec
printf 'module B where\nimport A\nb1 x = a1 x + (1 < 2)\n' > target/ill-typed/src/B.mspec
if timeout 60 ./target/release/mspec build target/ill-typed/src --out target/ill-typed/gx \
  > target/ill-typed/build.out 2> target/ill-typed/build.err; then
  echo "mspec build accepted an ill-typed module"; exit 1
fi
grep -q 'type mismatch' target/ill-typed/build.err \
  || { echo "mspec build did not report the type error"; exit 1; }
cat target/ill-typed/src/A.mspec target/ill-typed/src/B.mspec > target/ill-typed/all.mspec
if timeout 60 ./target/release/mspec spec target/ill-typed/all.mspec --entry B.b1 --args D \
  2> target/ill-typed/spec.err; then
  echo "mspec spec accepted an ill-typed module"; exit 1
fi
if timeout 60 ./target/release/mspec spec target/ill-typed/all.mspec --entry B.b1 --args D \
  --metrics target/ill-typed/events.jsonl 2> target/ill-typed/spec-traced.err; then
  echo "traced mspec spec accepted an ill-typed module"; exit 1
fi
grep -q 'type mismatch' target/ill-typed/spec.err \
  || { echo "mspec spec did not report the type error"; exit 1; }
cmp target/ill-typed/spec.err target/ill-typed/spec-traced.err \
  || { echo "mspec spec reports the type error differently under --metrics"; exit 1; }
timeout 60 ./target/release/mspec trace-check target/ill-typed/events.jsonl

echo "==> mspecd daemon smoke (stdio via --spawn; TCP: spec + health + injected fault + shutdown)"
# First a one-shot daemon over stdio, spawned by the client itself.
# Then start the daemon on an OS-assigned port with chaos (fault
# injection) enabled and a telemetry trace, drive one of each request
# class through the real client, and stop it gracefully. Every step is
# under timeout: a wedged daemon must fail verify, not hang it.
rm -rf target/serve-smoke
mkdir -p target/serve-smoke/crashes
timeout 120 ./target/release/mspec client spec examples/programs/power.mspec \
  --entry Power.power --args S:4,D --spawn > target/serve-smoke/spawned.txt
timeout 60 ./target/release/mspec spec examples/programs/power.mspec \
  --entry Power.power --args S:4,D > target/serve-smoke/spawned-batch.txt
cmp target/serve-smoke/spawned.txt target/serve-smoke/spawned-batch.txt \
  || { echo "daemon over stdio served a different residual from mspec spec"; exit 1; }
./target/release/mspec serve --port 0 --chaos --vm-opt fuse \
  --trace target/serve-smoke/daemon-trace.jsonl \
  --crash-dir target/serve-smoke/crashes \
  > target/serve-smoke/serve.out 2> target/serve-smoke/serve.err &
SERVE_PID=$!
for _ in $(seq 1 50); do
  grep -q 'listening on' target/serve-smoke/serve.out && break
  sleep 0.1
done
SERVE_ADDR=$(grep -o '127\.0\.0\.1:[0-9]*' target/serve-smoke/serve.out)
echo "    daemon at ${SERVE_ADDR} (pid ${SERVE_PID})"
timeout 60 ./target/release/mspec client spec examples/programs/power.mspec \
  --entry Power.power --args S:5,D --connect "${SERVE_ADDR}" \
  > target/serve-smoke/residual.txt
timeout 60 ./target/release/mspec spec examples/programs/power.mspec \
  --entry Power.power --args S:5,D > target/serve-smoke/batch.txt
cmp target/serve-smoke/residual.txt target/serve-smoke/batch.txt \
  || { echo "daemon residual differs from mspec spec output"; exit 1; }
timeout 60 ./target/release/mspec client health --connect "${SERVE_ADDR}"
# A `run` request executes the residual daemon-side (fused dispatch,
# since the daemon is serving --vm-opt fuse): power 5 3 = 243.
RUN_VALUE=$(timeout 60 ./target/release/mspec client run examples/programs/power.mspec \
  --entry Power.power --args S:5,D --values 3 --connect "${SERVE_ADDR}")
test "${RUN_VALUE}" = "243" \
  || { echo "daemon run returned ${RUN_VALUE}, want 243"; exit 1; }
# Metrics under load, schema-checked: four concurrent spec clients
# load the worker pool while a scrape runs; the exposition must pass
# the same validator as the traces (trace-check sniffs the format).
for i in 1 2 3 4; do
  timeout 60 ./target/release/mspec client spec examples/programs/power.mspec \
    --entry Power.power --args "S:$((100 + i)),D" --connect "${SERVE_ADDR}" \
    > /dev/null 2>&1 &
  LOAD_PIDS[i]=$!
done
timeout 60 ./target/release/mspec client metrics --connect "${SERVE_ADDR}" \
  > target/serve-smoke/metrics.txt
wait "${LOAD_PIDS[@]}"
timeout 60 ./target/release/mspec trace-check target/serve-smoke/metrics.txt
grep -q '^mspecd_ok_total ' target/serve-smoke/metrics.txt \
  || { echo "metrics exposition is missing mspecd_ok_total"; exit 1; }
# One `mspec top` frame renders from the same endpoint.
timeout 60 ./target/release/mspec top --connect "${SERVE_ADDR}" --once \
  > target/serve-smoke/top.txt
grep -q 'latency-us p50' target/serve-smoke/top.txt \
  || { echo "mspec top --once rendered no dashboard frame"; exit 1; }
# An injected fault must come back as a typed internal error while the
# daemon survives; the next health probe proves it is still up.
timeout 60 ./target/release/mspec client fault --connect "${SERVE_ADDR}" --retries 1
timeout 60 ./target/release/mspec client health --connect "${SERVE_ADDR}"
# Chaos evidence: the contained panic left exactly one well-formed
# crash dump (header line naming the request, then the flight ring),
# and the daemon kept serving (the health probe above).
CRASHES=$(ls target/serve-smoke/crashes/crash-*.jsonl 2>/dev/null | wc -l)
test "${CRASHES}" = "1" \
  || { echo "expected exactly one crash dump, found ${CRASHES}"; exit 1; }
head -1 target/serve-smoke/crashes/crash-*.jsonl | grep -q '"kind":"crash"' \
  || { echo "crash dump header is malformed"; exit 1; }
head -1 target/serve-smoke/crashes/crash-*.jsonl | grep -q '"req":' \
  || { echo "crash dump header names no request"; exit 1; }
test "$(wc -l < target/serve-smoke/crashes/crash-*.jsonl)" -ge 2 \
  || { echo "crash dump carries no flight-ring events"; exit 1; }
timeout 60 ./target/release/mspec client shutdown --connect "${SERVE_ADDR}"
wait "${SERVE_PID}"
test -s target/serve-smoke/daemon-trace.jsonl \
  || { echo "daemon wrote no telemetry trace"; exit 1; }
# The daemon trace is req-tagged: replay one request's decisions from
# it, and render the whole trace as collapsed flame stacks.
grep -q '"req":' target/serve-smoke/daemon-trace.jsonl \
  || { echo "daemon trace carries no request ids"; exit 1; }
timeout 60 ./target/release/mspec trace flame target/serve-smoke/daemon-trace.jsonl \
  > target/serve-smoke/stacks.txt
test -s target/serve-smoke/stacks.txt \
  || { echo "trace flame produced no stacks"; exit 1; }

echo "==> tiered-execution smoke (tree, VM and fused VM agree through the CLI)"
# The three execution tiers must agree on a real workload end to end
# through the CLI: tree evaluator (ground truth), plain VM, fused VM.
TREE=$(timeout 60 ./target/release/mspec run examples/programs/power.mspec \
  --entry Power.power --args 5,2 --runner tree)
PLAIN=$(timeout 60 ./target/release/mspec run examples/programs/power.mspec \
  --entry Power.power --args 5,2 --runner vm --vm-opt none)
FUSED=$(timeout 60 ./target/release/mspec run examples/programs/power.mspec \
  --entry Power.power --args 5,2 --runner vm --vm-opt fuse)
test "${TREE}" = "${PLAIN}" && test "${PLAIN}" = "${FUSED}" \
  || { echo "tiers disagree: tree=${TREE} vm=${PLAIN} fused=${FUSED}"; exit 1; }

echo "==> persistent residual cache smoke (warm spec + daemon restart)"
# Cold then warm `mspec spec` through the same --cache-dir: the second
# run must answer from the disk cache (zero engine steps) with a
# byte-identical residual.
rm -rf target/cache-smoke
mkdir -p target/cache-smoke
timeout 60 ./target/release/mspec spec examples/programs/power.mspec \
  --entry Power.power --args S:5,D --cache-dir target/cache-smoke/cache \
  > target/cache-smoke/cold.txt 2> target/cache-smoke/cold.err
timeout 60 ./target/release/mspec spec examples/programs/power.mspec \
  --entry Power.power --args S:5,D --cache-dir target/cache-smoke/cache \
  > target/cache-smoke/warm.txt 2> target/cache-smoke/warm.err
cmp target/cache-smoke/cold.txt target/cache-smoke/warm.txt \
  || { echo "warm cached residual differs from the cold run"; exit 1; }
if grep -q 'cache hit' target/cache-smoke/cold.err; then
  echo "first spec run unexpectedly hit the cache"; exit 1
fi
grep -q 'cache hit.*0 engine steps' target/cache-smoke/warm.err \
  || { echo "second spec run did not hit the cache"; exit 1; }
# Daemon restart against the same cache directory: the restarted daemon
# must serve the identical residual as a memo hit without re-running
# the engine.
for round in cold warm; do
  ./target/release/mspec serve --port 0 --cache-dir target/cache-smoke/dcache \
    > "target/cache-smoke/serve-${round}.out" 2> "target/cache-smoke/serve-${round}.err" &
  CACHE_SERVE_PID=$!
  for _ in $(seq 1 50); do
    grep -q 'listening on' "target/cache-smoke/serve-${round}.out" && break
    sleep 0.1
  done
  CACHE_ADDR=$(grep -o '127\.0\.0\.1:[0-9]*' "target/cache-smoke/serve-${round}.out")
  timeout 60 ./target/release/mspec client spec examples/programs/power.mspec \
    --entry Power.power --args S:6,D --connect "${CACHE_ADDR}" \
    > "target/cache-smoke/daemon-${round}.txt" 2> "target/cache-smoke/daemon-${round}.err"
  timeout 60 ./target/release/mspec client shutdown --connect "${CACHE_ADDR}"
  wait "${CACHE_SERVE_PID}"
done
cmp target/cache-smoke/daemon-cold.txt target/cache-smoke/daemon-warm.txt \
  || { echo "restarted daemon served a different residual"; exit 1; }
ls target/cache-smoke/dcache/*.resid > /dev/null \
  || { echo "the daemon persisted no residual to its cache dir"; exit 1; }
if grep -qF '[memo hit]' target/cache-smoke/daemon-cold.err; then
  echo "cold daemon run unexpectedly hit the memo"; exit 1
fi
grep -qF '[memo hit]' target/cache-smoke/daemon-warm.err \
  || { echo "restarted daemon did not answer from the persistent cache"; exit 1; }
# A body-only rebuild — same interface, new genext — must move the
# artefact directory's identity: the next link-spec through the same
# cache misses and prints what an uncached link-spec prints. The rewrite
# often lands in the same file-time tick as the build's own writes, which
# `build` counts as stale.
mkdir -p target/cache-smoke/lib
printf 'module Power where\npower n x = if n == 1 then x else x * power (n - 1) x\n' \
  > target/cache-smoke/lib/Power.mspec
printf 'module Main where\nimport Power\nmain y = power 3 y\n' > target/cache-smoke/lib/Main.mspec
timeout 60 ./target/release/mspec build target/cache-smoke/lib --out target/cache-smoke/gx > /dev/null
timeout 60 ./target/release/mspec link-spec target/cache-smoke/gx --entry Main.main --args D \
  --cache-dir target/cache-smoke/lcache > /dev/null 2>&1
printf 'module Power where\npower n x = if n == 1 then x else power (n - 1) x + x\n' \
  > target/cache-smoke/lib/Power.mspec
timeout 60 ./target/release/mspec build target/cache-smoke/lib --out target/cache-smoke/gx \
  | grep -qx 'Power: rebuilt' || { echo "body-only edit did not rebuild Power"; exit 1; }
timeout 60 ./target/release/mspec link-spec target/cache-smoke/gx --entry Main.main --args D \
  --cache-dir target/cache-smoke/lcache \
  > target/cache-smoke/rebuilt.txt 2> target/cache-smoke/rebuilt.err
timeout 60 ./target/release/mspec link-spec target/cache-smoke/gx --entry Main.main --args D \
  > target/cache-smoke/uncached.txt 2> /dev/null
cmp target/cache-smoke/rebuilt.txt target/cache-smoke/uncached.txt \
  || { echo "link-spec after a body-only rebuild served a stale residual"; exit 1; }
if grep -q 'cache hit' target/cache-smoke/rebuilt.err; then
  echo "link-spec after a body-only rebuild hit the cache"; exit 1
fi

echo "==> perfbench self-tests + 3 s smoke of each workload + traced spec-run (offline)"
# The benchmark checks every output against its oracles (tree-evaluated
# source, whole-program residuals, batch specialisation), which no
# other step runs. A short seeded run of each workload must exit 0 and
# end with a summary line reporting every output correct and no failed
# operation.
timeout 600 cargo test --release --offline --manifest-path perfbench/Cargo.toml
for WORKLOAD in spec-run serve-mix; do
  timeout 300 cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "${WORKLOAD}" --seed 7 --seconds 3 --trace 0 > "target/perfbench-${WORKLOAD}.out"
  SUMMARY=$(tail -n 1 "target/perfbench-${WORKLOAD}.out")
  case "${SUMMARY}" in
    *'"correct": true,'*'"failed": 0,'*) echo "    ${WORKLOAD}: correct, 0 failed" ;;
    *) echo "perfbench ${WORKLOAD} smoke failed: ${SUMMARY}"; exit 1 ;;
  esac
done
# The traced spec-run path drives `Engine::specialise`,
# `bytecode::compile`, `fuse_chunks` and `Vm` directly and checks every
# op against the facade and the tree evaluator: the oracle for the
# generating-extension engine and the VM layer by layer.
timeout 300 cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload spec-run --seed 7 --seconds 3 --trace 1 > target/perfbench-spec-run-traced.out
SUMMARY=$(tail -n 1 target/perfbench-spec-run-traced.out)
case "${SUMMARY}" in
  *'"correct": true,'*'"failed": 0,'*) echo "    spec-run traced: correct, 0 failed" ;;
  *) echo "perfbench traced spec-run failed: ${SUMMARY}"; exit 1 ;;
esac

echo "==> cargo clippy --all-targets -- -D warnings (offline)"
cargo clippy --all-targets --offline -- -D warnings

echo "verify: OK"
