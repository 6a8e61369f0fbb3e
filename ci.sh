#!/usr/bin/env bash
# Continuous-integration entry point: `./ci.sh`. The `test` job of
# .github/workflows/ci.yml runs exactly this script, so every gate has one
# definition. Needs `jq` and `curl`; fails at once without them. Every
# output lands in target/ci/ (cleared at start), where the workflow's
# artifact uploads find it.
#
# Stages:
#   0. formatting — `cargo fmt --check` over pka-stream, pka-server,
#      pka-gpu, pka-profile, pka-baselines, pka-core, pka-stats, pka-sim,
#      serde, serde_json, serde_derive, proptest and criterion (the other
#      crates are not rustfmt-clean yet)
#   1. release build (the binaries the experiments run through), then the
#      whole-corpus simulator identity gate (tests/sim_corpus.rs: one
#      exhaustive result digest per workload x GPU x interconnect option
#      against results/sim_corpus_digest.json; release-only, ~1 min)
#   2. tier-1 test suite (root package: integration + parity + property tests)
#   3. tier-1 again, single-threaded — the parity suite spawns its own
#      worker threads, so this catches any accidental dependence on the
#      test harness's parallelism
#   4. workspace tests (member-crate unit suites are NOT part of the root
#      package run)
#   5. bench smoke — the hot-path and simulator benchmarks at reduced
#      iteration counts, plus a jq schema check over the BENCH_pka.json
#      they emit (which must include the kmeans_sweep/bounded entry, the
#      simulator's micro_kernel_sequence row and the
#      pka_evaluate/backprop_full whole-evaluation row)
#   6. perfbench — the repository benchmark's helper tests, one traced
#      `simulate` run whose last line must report `"correct": true` (every
#      member's simulated cycles and errors equal the pinned values), and
#      one untraced `serve` run whose last line must report
#      `"correct": true` and `"failed": 0` (every session's K,
#      representatives and projected cycles equal the pinned values after
#      the HTTP, record-decoding and tail-classifier path; ~50 s)
#   7. observability smoke — a traced `pka simulate` run whose
#      run_manifest.json is jq-validated (schema, a fired PKP stop rule,
#      populated stage timings)
#   8. stream smoke — online PKS over a synthetic 100k-kernel stream with
#      `--verify-batch` (exact batch-vs-stream selected-K agreement,
#      projected cycles within 1%), a jq schema check over the emitted
#      `pka.stream_checkpoint/v1` file including the bounded-memory
#      invariant (max_buffered <= reservoir cap + batch size), and a check
#      of the run's `--metrics-out` manifest (stream report, record counter)
#   9. live observability smoke — a snapshot-emitting stream run whose
#      `pka.snapshot/v1` JSONL is jq-validated, `pka trace export` over its
#      trace (valid Chrome trace-event JSON with worker lanes), and the
#      `pka obs diff` regression gate: a counters-only diff against the
#      committed results/ci_baseline_manifest.json, a bench-medians diff
#      against results/ci_baseline_bench.json (catastrophic-only tolerance
#      — medians jitter across hosts), and a self-test proving the gate
#      fires on an injected 1.3x stage-timing regression
#  10. attribution smoke — a `pka.attribution/v1` artifact from
#      `--attribution-out`, jq-validated (schema, per-group terms summing
#      exactly to the reported error), rendered through `pka obs explain`,
#      byte-identical across --workers counts on the stream path, and a
#      self-test proving the accuracy gate fires on an injected
#      representative swap
#  11. server smoke — `pka serve` driven end-to-end over HTTP with curl:
#      a streaming session must report the same selected K and projected
#      cycles as the batch CLI run and serve byte-identical checkpoint and
#      attribution artifacts (`cmp`); a
#      DELETE mid-stream must exit cleanly leaving a resumable checkpoint
#      the CLI can finish from. Live telemetry rides the same service run:
#      `/metrics` is awk-validated raw (every sample family carries a
#      # TYPE), `pka obs scrape | obs diff` gates the deterministic
#      families against committed results/ci_baseline_scrape.json (and a
#      jq-injected regression must fire), a second scrape mid-1M-session
#      proves counters monotonic and `server.sessions.active` == 1, an SSE
#      subscriber sees the snapshot header, and after shutdown the access
#      log's request id for the parity checkpoint fetch must join into a
#      `server.request` trace event carrying the same session id
set -euo pipefail
cd "$(dirname "$0")"

for tool in jq curl; do
    command -v "$tool" >/dev/null 2>&1 || { echo "ci.sh needs \`$tool\` on PATH" >&2; exit 1; }
done
OUT="$PWD/target/ci"
rm -rf "$OUT"
mkdir -p "$OUT"
PKA=./target/release/pka

echo "==> cargo fmt --check (pka-stream, pka-server, pka-gpu, pka-profile, pka-baselines, pka-core, pka-stats, pka-sim, serde, serde_json, serde_derive, proptest, criterion)"
cargo fmt --check -p pka-stream -p pka-server -p pka-gpu -p pka-profile -p pka-baselines \
    -p pka-core -p pka-stats -p pka-sim -p serde -p serde_json -p serde_derive -p proptest \
    -p criterion

echo "==> cargo build --release"
cargo build --release

echo "==> simulator corpus identity gate (release)"
cargo test -q --release --test sim_corpus

echo "==> cargo test -q (tier 1)"
cargo test -q

echo "==> cargo test -q -- --test-threads=1 (tier 1, serial harness)"
cargo test -q -- --test-threads=1

echo "==> cargo test --workspace -q (member crates)"
cargo test --workspace -q

echo "==> bench smoke (reduced iterations)"
# Benches run with the package dir as cwd, hence the absolute output path.
PKA_BENCH_JSON="$OUT/bench_smoke.json" PKA_BENCH_SAMPLES=2 PKA_BENCH_WARMUP=1 \
    cargo bench -q -p pka-bench --bench hot_paths
PKA_BENCH_JSON="$OUT/bench_smoke.json" PKA_BENCH_SAMPLES=2 PKA_BENCH_WARMUP=1 \
    cargo bench -q -p pka-bench --bench simulator
jq -e '
    type == "array" and length >= 3
    and all(.[]; has("name") and has("iterations")
                 and has("median_ns") and has("stddev_ns"))
    and any(.[]; .name == "kmeans_sweep/bounded/50000")
    and any(.[]; .name == "stream_ingest/online_pks/500000")
    and any(.[]; .name == "server_session_roundtrip/http_session/100000")
    and any(.[]; .name == "server_session_roundtrip/feed/100000")
    and any(.[]; .name == "checkpoint_render/synthetic_100000")
    and any(.[]; .name == "record_render/synthetic_100000")
    and any(.[]; .name == "simulator_throughput/micro_kernel_sequence")
    and any(.[]; .name == "pka_evaluate/backprop_full")
' "$OUT/bench_smoke.json" >/dev/null
echo "bench json OK ($(jq length "$OUT/bench_smoke.json") records)"

echo "==> perfbench (helper tests, traced simulate smoke, serve pins)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload simulate --seed 1 --seconds 45 --trace 1 > "$OUT/perfbench_simulate.txt"
tail -n 1 "$OUT/perfbench_simulate.txt" | jq -e '.correct == true' >/dev/null
echo "perfbench simulate OK (every pinned cycle count and error matched)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload serve --seed 1 --seconds 45 --trace 0 > "$OUT/perfbench_serve.txt"
tail -n 1 "$OUT/perfbench_serve.txt" | jq -e '.correct == true and .failed == 0' >/dev/null
echo "perfbench serve OK (every session's K, representatives and projected cycles matched)"

echo "==> observability smoke (traced pka simulate)"
$PKA simulate --workload bfs65536 \
    --metrics-out "$OUT/run_manifest.json" --trace-out "$OUT/pka_trace.jsonl" >/dev/null
jq -e '
    .schema == "pka.run_manifest/v1"
    and (.counters["pkp.stops"] // 0) > 0
    and (.counters | length) >= 6
    and (.stages | length) >= 3
    and (.wall_ns > 0)
' "$OUT/run_manifest.json" >/dev/null
echo "run manifest OK ($(jq '.counters | length' "$OUT/run_manifest.json") counters)"
test -s "$OUT/pka_trace.jsonl"
echo "trace OK ($(wc -l < "$OUT/pka_trace.jsonl") lines)"

echo "==> stream smoke (online PKS vs batch on synthetic:100000)"
$PKA stream --source synthetic:100000 --prefix 1000 \
    --checkpoint-every 20000 --checkpoint "$OUT/stream_checkpoint.json" \
    --workers 4 --verify-batch --metrics-out "$OUT/stream_manifest.json" >/dev/null
jq -e '
    .schema == "pka.stream_checkpoint/v1"
    and .records == 100000
    and .prefix == 1000
    and .selected_k >= 1
    and (.centroids | length) == .selected_k
    and (.reservoir.items | length) <= .reservoir.cap
    and .max_buffered <= (.reservoir.cap + .config.batch)
    and (.config | has("pks"))
' "$OUT/stream_checkpoint.json" >/dev/null
jq -e '
    .schema == "pka.run_manifest/v1"
    and .report.command == "stream"
    and .report.records == 100000
    and (.counters["stream.records"] // 0) == 100000
' "$OUT/stream_manifest.json" >/dev/null
echo "stream checkpoint and manifest OK (K=$(jq .selected_k "$OUT/stream_checkpoint.json"), max_buffered=$(jq .max_buffered "$OUT/stream_checkpoint.json"))"

echo "==> live observability smoke (snapshots, trace export, obs diff gate)"
$PKA stream --source synthetic:100000 --prefix 1000 \
    --checkpoint-every 20000 --workers 4 \
    --snapshot-out "$OUT/snapshots.jsonl" --snapshot-every 25000 \
    --trace-out "$OUT/live_trace.jsonl" >/dev/null
head -n 1 "$OUT/snapshots.jsonl" \
    | jq -e '.schema == "pka.snapshot/v1" and .type == "header"' >/dev/null
jq -es '
    [.[] | select(.type == "snapshot")]
    | length >= 4
    and all(.[]; .phase != "" and .records > 0 and .selected_k >= 1
                 and (.timing | has("kernels_per_sec")))
    and (last.records == 100000)
' "$OUT/snapshots.jsonl" >/dev/null
echo "snapshots OK ($(grep -c '"type":"snapshot"' "$OUT/snapshots.jsonl") records)"

$PKA trace export "$OUT/live_trace.jsonl" --out "$OUT/chrome_trace.json"
jq -e '
    .displayTimeUnit == "ms"
    and (.traceEvents | length) > 0
    and ([.traceEvents[] | select(.ph == "M" and .name == "thread_name")]
         | length) >= 2
' "$OUT/chrome_trace.json" >/dev/null
echo "chrome trace OK ($(jq '.traceEvents | length' "$OUT/chrome_trace.json") events)"

# Regression gate: counters, checksums and gauges are deterministic for a
# fixed config, so a counters-only diff against the committed baseline is
# exact on any host. Bench medians are machine-dependent; that gate only
# catches catastrophic slowdowns.
$PKA simulate --workload bfs65536 --metrics-out "$OUT/current_manifest.json" >/dev/null
$PKA obs diff results/ci_baseline_manifest.json "$OUT/current_manifest.json" --counters-only
$PKA obs diff results/ci_baseline_bench.json "$OUT/bench_smoke.json" --bench --bench-tol 500

# The gate must actually fire: inject a 1.3x stage-timing regression and
# require a non-zero exit. Both sides pass through jq so the comparison is
# not polluted by jq's float re-rendering of 64-bit checksums.
jq '.' "$OUT/current_manifest.json" > "$OUT/manifest_base.json"
jq '(.stages[].total_ns) |= (. * 13 / 10 | floor)' \
    "$OUT/current_manifest.json" > "$OUT/manifest_regressed.json"
if $PKA obs diff "$OUT/manifest_base.json" "$OUT/manifest_regressed.json" \
    > "$OUT/diff_out.txt" 2>&1; then
    echo "obs diff failed to flag an injected 30% stage regression" >&2
    exit 1
fi
grep -q "REGRESSION" "$OUT/diff_out.txt"
echo "obs diff gate OK (injected regression detected)"

echo "==> attribution smoke (pka.attribution/v1, explain, accuracy gate)"
$PKA simulate --workload bfs65536 --attribution-out "$OUT/attribution.json" >/dev/null
# The decomposition contract: signed per-group terms sum exactly to the
# signed reported errors (1e-9 relative in the library; 1e-6 absolute
# here to stay clear of jq's float re-rendering).
jq -e '
    def abs: if . < 0 then -. else . end;
    .schema == "pka.attribution/v1"
    and .kind == "simulation"
    and (.groups | length) >= 1
    and ((([.groups[].pks_term_pct] | add) - .pks_err_signed_pct) | abs) < 1e-6
    and ((([.groups[].total_term_pct] | add) - .pka_err_signed_pct) | abs) < 1e-6
    and ((.pks_err_signed_pct | abs) - .pks_err_pct | abs) < 1e-9
    and all(.groups[]; has("representative") and has("chrono_rank")
                       and has("distance_to_centroid") and has("weight")
                       and has("member_mean_ci_low") and has("member_mean_ci_high"))
' "$OUT/attribution.json" >/dev/null
echo "attribution artifact OK ($(jq '.groups | length' "$OUT/attribution.json") groups)"
$PKA obs explain "$OUT/attribution.json" > "$OUT/explain_out.txt"
grep -q "pka.attribution/v1" "$OUT/explain_out.txt"
echo "obs explain OK ($(wc -l < "$OUT/explain_out.txt") lines)"

# Stream-path determinism: the artifact is byte-identical for any worker
# count (the same contract the checkpoints already gate on).
$PKA stream --source synthetic:100000 --prefix 1000 \
    --workers 1 --attribution-out "$OUT/attr_w1.json" >/dev/null
$PKA stream --source synthetic:100000 --prefix 1000 \
    --workers 4 --attribution-out "$OUT/attr_w4.json" >/dev/null
cmp "$OUT/attr_w1.json" "$OUT/attr_w4.json"
echo "attribution worker parity OK"

# The accuracy gate must actually fire: identical artifacts pass, an
# injected representative swap is an exact-match regression.
$PKA obs diff "$OUT/attribution.json" "$OUT/attribution.json" >/dev/null
jq '.groups[0].representative = 424242' "$OUT/attribution.json" \
    > "$OUT/attribution_swapped.json"
if $PKA obs diff "$OUT/attribution.json" "$OUT/attribution_swapped.json" \
    > "$OUT/attr_diff_out.txt" 2>&1; then
    echo "obs diff failed to flag an injected representative swap" >&2
    exit 1
fi
grep -q "REGRESSION" "$OUT/attr_diff_out.txt"
echo "attribution gate OK (injected representative swap detected)"

echo "==> server smoke (pka serve: HTTP session parity, teardown)"
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
# Batch CLI reference artifacts the service must reproduce bytewise.
$PKA stream --source synthetic:60000 --prefix 800 \
    --checkpoint-every 20000 --checkpoint "$OUT/cli_ckpt.json" \
    --attribution-out "$OUT/cli_attr.json" >/dev/null

$PKA serve --addr 127.0.0.1:0 --read-timeout-ms 5000 \
    --trace-out "$OUT/serve_trace.jsonl" > "$OUT/serve.log" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's#^pka-server listening on http://##p' "$OUT/serve.log")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "pka serve did not come up" >&2; exit 1; }
curl -sf "http://$ADDR/healthz" >/dev/null

# Wait for a session to leave the running states and fetch its result.
wait_result() {
    for _ in $(seq 1 600); do
        CODE="$(curl -s -o "$OUT/result.json" -w '%{http_code}' \
            "http://$ADDR/v1/sessions/$1/result")"
        [ "$CODE" = 200 ] && return 0
        [ "$CODE" = 202 ] || break
        sleep 0.1
    done
    echo "session $1 did not finish (last status $CODE)" >&2
    cat "$OUT/result.json" >&2
    return 1
}

# Single-pipeline streaming session: K and projected cycles must match
# the CLI run exactly; checkpoint/attribution must be byte-identical.
SID="$(curl -sf -X POST "http://$ADDR/v1/sessions" \
    -d '{"mode":"stream","source":"synthetic:60000","prefix":800,"checkpoint_every":20000}' \
    | jq -r .id)"
wait_result "$SID"
jq -e --argjson k "$(jq .selected_k "$OUT/cli_ckpt.json")" \
    --argjson cycles "$(jq .projected_cycles "$OUT/cli_ckpt.json")" \
    '.selected_k == $k and .projected_cycles == $cycles' \
    "$OUT/result.json" >/dev/null
curl -sf "http://$ADDR/v1/sessions/$SID/checkpoint" -o "$OUT/srv_ckpt.json"
curl -sf "http://$ADDR/v1/sessions/$SID/attribution" -o "$OUT/srv_attr.json"
cmp "$OUT/cli_ckpt.json" "$OUT/srv_ckpt.json"
cmp "$OUT/cli_attr.json" "$OUT/srv_attr.json"
head -n 1 <(curl -sf "http://$ADDR/v1/sessions/$SID/progress") \
    | jq -e '.schema == "pka.snapshot/v1" and .type == "header"' >/dev/null
echo "server session parity OK (K=$(jq .selected_k "$OUT/result.json"), artifacts byte-identical)"
PARITY_SID="$SID"

# Live telemetry: raw /metrics must satisfy the exposition grammar
# (every sample line's family declared by a preceding # TYPE), and the
# scrape->diff gate must pass clean against the committed deterministic
# baseline. Extra live families (server traffic, timing histograms) are
# informational on the current side; a baseline family disappearing or
# drifting is a regression.
curl -sf "http://$ADDR/metrics" -o "$OUT/metrics1.txt"
awk '
    /^# TYPE / { type[$3] = 1; next }
    /^#/ { next }
    NF == 0 { next }
    {
        name = $1; sub(/\{.*/, "", name)
        fam = name
        sub(/_bucket$/, "", fam); sub(/_count$/, "", fam); sub(/_sum$/, "", fam)
        if (!(name in type) && !(fam in type)) {
            print "sample without # TYPE: " $1 > "/dev/stderr"; exit 1
        }
    }
' "$OUT/metrics1.txt"
$PKA obs scrape "http://$ADDR/metrics" --out "$OUT/scrape1.json"
$PKA obs diff results/ci_baseline_scrape.json "$OUT/scrape1.json" --counters-only
jq '.counters.pka_stream_records_total += 1' results/ci_baseline_scrape.json \
    > "$OUT/scrape_regressed.json"
if $PKA obs diff "$OUT/scrape_regressed.json" "$OUT/scrape1.json" --counters-only \
    > "$OUT/scrape_diff_out.txt" 2>&1; then
    echo "obs diff failed to flag an injected scrape regression" >&2
    exit 1
fi
grep -q "REGRESSION" "$OUT/scrape_diff_out.txt"
echo "server scrape gate OK ($(jq '.counters | length' "$OUT/scrape1.json") counter series)"

# DELETE mid-stream: cancellation-safe teardown must stop at a batch
# boundary and leave a checkpoint the CLI can resume to completion.
SID="$(curl -sf -X POST "http://$ADDR/v1/sessions" \
    -d "{\"mode\":\"stream\",\"source\":\"synthetic:1000000\",\"prefix\":800,\"checkpoint_every\":10000,\"checkpoint_path\":\"$OUT/teardown_ckpt.json\"}" \
    | jq -r .id)"
for _ in $(seq 1 600); do
    REC="$(curl -sf "http://$ADDR/v1/sessions/$SID" | jq .records)"
    [ "$REC" -ge 10000 ] && break
    sleep 0.05
done

# Mid-session telemetry: the 1M-kernel session is live right now. The
# bare host:port form exercises the default /metrics path of `scrape`.
$PKA obs scrape "http://$ADDR" --out "$OUT/scrape2.json"
jq -e '
    .gauges.pka_server_sessions_active == 1
    and .counters.pka_server_sessions_created_total == 2
' "$OUT/scrape2.json" >/dev/null
# Counters and stage totals only move forward between scrapes.
jq -en --slurpfile a "$OUT/scrape1.json" --slurpfile b "$OUT/scrape2.json" '
    all($a[0].counters | to_entries[]; ($b[0].counters[.key] // -1) >= .value)
    and all($a[0].stages | to_entries[];
            ($b[0].stages[.key].total_ns // -1) >= .value.total_ns)
' >/dev/null
# A live SSE subscriber sees the snapshot header frame first.
(curl -sN --max-time 3 "http://$ADDR/v1/sessions/$SID/events" || true) \
    | head -n 1 > "$OUT/sse_head.txt"
grep -q '^data: {"schema":"pka.snapshot/v1","type":"header"}' "$OUT/sse_head.txt"
echo "server live telemetry OK (sessions_active=1 mid-1M-session, counters monotonic, SSE header seen)"

curl -sf -X DELETE "http://$ADDR/v1/sessions/$SID" -o "$OUT/teardown.json"
jq -e '.status == "cancelled" and .records < 1000000' "$OUT/teardown.json" >/dev/null
jq -e '.schema == "pka.stream_checkpoint/v1" and .records < 1000000' \
    "$OUT/teardown_ckpt.json" >/dev/null
$PKA stream --source synthetic:1000000 --resume \
    --checkpoint "$OUT/teardown_ckpt.json" >/dev/null
jq -e '.records == 1000000' "$OUT/teardown_ckpt.json" >/dev/null
echo "server teardown OK (cancelled at $(jq .records "$OUT/teardown.json") records, CLI resumed to 1000000)"

# Clean service exit: shutdown joins every worker before returning.
curl -sf -X POST "http://$ADDR/v1/shutdown" >/dev/null
wait "$SERVE_PID"
SERVE_PID=""
grep -q "pka-server stopped" "$OUT/serve.log"
echo "server shutdown OK"

# Request correlation: the access line for the parity checkpoint fetch
# must round-trip its request id into a `server.request` trace event
# carrying the same session id.
REQ_ID="$(grep '"type":"access"' "$OUT/serve.log" \
    | jq -s --arg p "/v1/sessions/$PARITY_SID/checkpoint" \
        '[.[] | select(.path == $p)][0].req_id')"
[ -n "$REQ_ID" ] && [ "$REQ_ID" != "null" ]
jq -es --argjson id "$REQ_ID" --arg sid "$PARITY_SID" '
    any(.[]; .type == "event" and .name == "server.request"
             and .fields.req_id == $id and .fields.session == $sid)
' "$OUT/serve_trace.jsonl" >/dev/null
echo "server request correlation OK (req_id $REQ_ID joined access log to trace)"

echo "CI OK"
