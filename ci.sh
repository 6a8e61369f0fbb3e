#!/usr/bin/env bash
# Continuous-integration entry point. Mirrors .github/workflows/ci.yml so
# the same gate runs locally: `./ci.sh`.
#
# Stages:
#   1. release build (the binaries the experiments run through)
#   2. tier-1 test suite (root package: integration + parity + property tests)
#   3. tier-1 again, single-threaded — the parity suite spawns its own
#      worker threads, so this catches any accidental dependence on the
#      test harness's parallelism
#   4. workspace tests (member-crate unit suites are NOT part of the root
#      package run)
#   5. SIMD dispatch matrix — the tier-1 suite again under codegen pinned
#      to AVX2, pinned to SSE4.1, and with the vector tiers disabled
#      entirely (PKA_NO_SIMD=1): the differential parity proof must hold
#      on every dispatch path, and the forced-scalar fallback must pass
#      the identical suite with zero test changes
#   6. bench smoke — the hot-path and simulator benchmarks at reduced
#      iteration counts, plus a jq schema check over the BENCH_pka.json
#      they emit (which must include the kmeans_sweep/bounded_simd
#      fast-math entry and the simulator's micro_kernel_sequence row)
#   7. perfbench — the repository benchmark's helper tests, then one
#      traced `simulate` run whose last line must report `"correct": true`
#      (every member's simulated cycles and errors equal the pinned values)
#   8. observability smoke — a traced `pka simulate` run whose
#      run_manifest.json is jq-validated (schema, a fired PKP stop rule,
#      populated stage timings)
#   9. stream smoke — online PKS over a synthetic 100k-kernel stream with
#      `--verify-batch` (exact batch-vs-stream selected-K agreement,
#      projected cycles within 1%), plus a jq schema check over the emitted
#      `pka.stream_checkpoint/v1` file including the bounded-memory
#      invariant (max_buffered <= reservoir cap + batch size)
#  10. live observability smoke — a snapshot-emitting stream run whose
#      `pka.snapshot/v1` JSONL is jq-validated, `pka trace export` over its
#      trace (valid Chrome trace-event JSON with worker lanes), and the
#      `pka obs diff` regression gate: a counters-only diff against the
#      committed results/ci_baseline_manifest.json, a bench-medians diff
#      against results/ci_baseline_bench.json (catastrophic-only tolerance
#      — medians jitter across hosts), and a self-test proving the gate
#      fires on an injected 1.3x stage-timing regression
#  11. attribution smoke — a `pka.attribution/v1` artifact from
#      `--attribution-out`, jq-validated (schema, per-group terms summing
#      exactly to the reported error), rendered through `pka obs explain`,
#      byte-identical across --workers counts on the stream path, and a
#      self-test proving the accuracy gate fires on an injected
#      representative swap
#  12. server smoke — `pka serve` driven end-to-end over HTTP with curl:
#      a streaming session must report the same selected K and projected
#      cycles as the batch CLI run and serve byte-identical checkpoint and
#      attribution artifacts (`cmp`), including under `--shards 2`; a
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

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier 1)"
cargo test -q

echo "==> cargo test -q -- --test-threads=1 (tier 1, serial harness)"
cargo test -q -- --test-threads=1

echo "==> cargo test --workspace -q (member crates)"
cargo test --workspace -q

echo "==> SIMD dispatch matrix (tier 1 under +avx2 / +sse4.1 / forced scalar)"
# Pinned-codegen runs get their own target dirs so they don't thrash the
# main incremental cache; the forced-scalar run changes no codegen and
# reuses the default dir.
RUSTFLAGS="-C target-feature=+avx2" CARGO_TARGET_DIR=target/simd-avx2 \
    cargo test -q
RUSTFLAGS="-C target-feature=+sse4.1" CARGO_TARGET_DIR=target/simd-sse41 \
    cargo test -q
PKA_NO_SIMD=1 cargo test -q

echo "==> bench smoke (reduced iterations)"
BENCH_SMOKE_JSON="$(mktemp -t bench_pka_smoke.XXXXXX.json)"
trap 'rm -f "$BENCH_SMOKE_JSON"' EXIT
rm -f "$BENCH_SMOKE_JSON"
PKA_BENCH_JSON="$BENCH_SMOKE_JSON" PKA_BENCH_SAMPLES=2 PKA_BENCH_WARMUP=1 \
    cargo bench -q -p pka-bench --bench hot_paths
PKA_BENCH_JSON="$BENCH_SMOKE_JSON" PKA_BENCH_SAMPLES=2 PKA_BENCH_WARMUP=1 \
    cargo bench -q -p pka-bench --bench simulator
if command -v jq >/dev/null 2>&1; then
    jq -e '
        type == "array" and length >= 3
        and all(.[]; has("name") and has("iterations")
                     and has("median_ns") and has("stddev_ns"))
        and any(.[]; .name == "kmeans_sweep/bounded_simd/50000")
        and any(.[]; .name == "stream_ingest/online_pks/500000")
        and any(.[]; .name == "stream_ingest/sharded_s2/500000")
        and any(.[]; .name == "stream_ingest/sharded_s4/500000")
        and any(.[]; .name == "server_session_roundtrip/http_session/100000")
        and any(.[]; .name == "simulator_throughput/micro_kernel_sequence")
    ' "$BENCH_SMOKE_JSON" >/dev/null
    echo "bench json OK ($(jq length "$BENCH_SMOKE_JSON") records)"
else
    echo "jq not found; skipping bench json schema check" >&2
fi

echo "==> perfbench (helper tests, traced simulate smoke)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
PERFBENCH_OUT="$(mktemp -t perfbench_simulate.XXXXXX.txt)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload simulate --seed 1 --seconds 45 --trace 1 > "$PERFBENCH_OUT"
if command -v jq >/dev/null 2>&1; then
    tail -n 1 "$PERFBENCH_OUT" | jq -e '.correct == true' >/dev/null
else
    tail -n 1 "$PERFBENCH_OUT" | grep -q '"correct": true'
fi
echo "perfbench simulate OK (every pinned cycle count and error matched)"
rm -f "$PERFBENCH_OUT"

echo "==> observability smoke (traced pka simulate)"
OBS_MANIFEST="$(mktemp -t pka_manifest.XXXXXX.json)"
OBS_TRACE="$(mktemp -t pka_trace.XXXXXX.jsonl)"
trap 'rm -f "$BENCH_SMOKE_JSON" "$OBS_MANIFEST" "$OBS_TRACE"' EXIT
./target/release/pka simulate --workload bfs65536 \
    --metrics-out "$OBS_MANIFEST" --trace-out "$OBS_TRACE" >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .schema == "pka.run_manifest/v1"
        and (.counters["pkp.stops"] // 0) > 0
        and (.counters | length) >= 6
        and (.stages | length) >= 3
        and (.wall_ns > 0)
    ' "$OBS_MANIFEST" >/dev/null
    echo "run manifest OK ($(jq '.counters | length' "$OBS_MANIFEST") counters)"
else
    echo "jq not found; skipping manifest schema check" >&2
fi
test -s "$OBS_TRACE"
echo "trace OK ($(wc -l < "$OBS_TRACE") lines)"

echo "==> stream smoke (online PKS vs batch on synthetic:100000)"
STREAM_CKPT="$(mktemp -t pka_stream_ckpt.XXXXXX.json)"
trap 'rm -f "$BENCH_SMOKE_JSON" "$OBS_MANIFEST" "$OBS_TRACE" "$STREAM_CKPT"' EXIT
./target/release/pka stream --source synthetic:100000 --prefix 1000 \
    --checkpoint-every 20000 --checkpoint "$STREAM_CKPT" \
    --workers 4 --verify-batch >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .schema == "pka.stream_checkpoint/v1"
        and .records == 100000
        and .prefix == 1000
        and .selected_k >= 1
        and (.centroids | length) == .selected_k
        and (.reservoir.items | length) <= .reservoir.cap
        and .max_buffered <= (.reservoir.cap + .config.batch)
        and (.config | has("pks"))
    ' "$STREAM_CKPT" >/dev/null
    echo "stream checkpoint OK (K=$(jq .selected_k "$STREAM_CKPT"), max_buffered=$(jq .max_buffered "$STREAM_CKPT"))"
else
    echo "jq not found; skipping stream checkpoint schema check" >&2
fi

echo "==> sharded stream smoke (4 shards, forced reshard, verify-batch)"
SHARD_CKPT="$(mktemp -t pka_shard_ckpt.XXXXXX.json)"
trap 'rm -f "$BENCH_SMOKE_JSON" "$OBS_MANIFEST" "$OBS_TRACE" "$STREAM_CKPT" "$SHARD_CKPT"' EXIT
# --reshard-at migrates a shard to a different lane mid-run; lanes are pure
# scheduling, so the final checkpoint must stay byte-identical to an
# unperturbed run and the batch-PKS parity check must still pass.
./target/release/pka stream --source synthetic:100000 --prefix 1000 \
    --checkpoint-every 20000 --checkpoint "$SHARD_CKPT" \
    --shards 4 --reshard-at 50000:1:3 --workers 4 --verify-batch >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .schema == "pka.stream_checkpoint/v1"
        and .records == 100000
        and .topology.shards == 4
        and (.shards | length) == 4
        and ([.shards[].records] | add) == (.records - .prefix)
        and .selected_k >= 1
        and (.merged | has("centroids"))
        and (.config | has("pks"))
    ' "$SHARD_CKPT" >/dev/null
    echo "sharded checkpoint OK (K=$(jq .selected_k "$SHARD_CKPT"), map_hash=$(jq .topology.map_hash "$SHARD_CKPT"))"
else
    echo "jq not found; skipping sharded checkpoint schema check" >&2
fi

echo "==> live observability smoke (snapshots, trace export, obs diff gate)"
LIVE_DIR="$(mktemp -d -t pka_live.XXXXXX)"
trap 'rm -f "$BENCH_SMOKE_JSON" "$OBS_MANIFEST" "$OBS_TRACE" "$STREAM_CKPT"; rm -rf "$LIVE_DIR"' EXIT
./target/release/pka stream --source synthetic:100000 --prefix 1000 \
    --checkpoint-every 20000 --workers 4 \
    --snapshot-out "$LIVE_DIR/snapshots.jsonl" --snapshot-every 25000 \
    --trace-out "$LIVE_DIR/trace.jsonl" >/dev/null
if command -v jq >/dev/null 2>&1; then
    head -n 1 "$LIVE_DIR/snapshots.jsonl" \
        | jq -e '.schema == "pka.snapshot/v1" and .type == "header"' >/dev/null
    jq -es '
        [.[] | select(.type == "snapshot")]
        | length >= 4
        and all(.[]; .phase != "" and .records > 0 and .selected_k >= 1
                     and (.timing | has("kernels_per_sec")))
        and (last.records == 100000)
    ' "$LIVE_DIR/snapshots.jsonl" >/dev/null
    echo "snapshots OK ($(grep -c '"type":"snapshot"' "$LIVE_DIR/snapshots.jsonl") records)"
else
    echo "jq not found; skipping snapshot schema check" >&2
fi

./target/release/pka trace export "$LIVE_DIR/trace.jsonl" --out "$LIVE_DIR/chrome.json"
if command -v jq >/dev/null 2>&1; then
    jq -e '
        .displayTimeUnit == "ms"
        and (.traceEvents | length) > 0
        and ([.traceEvents[] | select(.ph == "M" and .name == "thread_name")]
             | length) >= 2
    ' "$LIVE_DIR/chrome.json" >/dev/null
    echo "chrome trace OK ($(jq '.traceEvents | length' "$LIVE_DIR/chrome.json") events)"
fi

# Regression gate: counters, checksums and gauges are deterministic for a
# fixed config, so a counters-only diff against the committed baseline is
# exact on any host. Bench medians are machine-dependent; that gate only
# catches catastrophic slowdowns.
./target/release/pka simulate --workload bfs65536 \
    --metrics-out "$LIVE_DIR/current_manifest.json" >/dev/null
./target/release/pka obs diff results/ci_baseline_manifest.json \
    "$LIVE_DIR/current_manifest.json" --counters-only
./target/release/pka obs diff results/ci_baseline_bench.json \
    "$BENCH_SMOKE_JSON" --bench --bench-tol 500

# Trend gate: the single-run diff tolerates sub-threshold noise, so a slow
# creep (each step inside the stage tolerance, monotonically up) is
# invisible to it. `obs trend-push` maintains a bounded ring of recent
# manifests; `obs diff --trend` flags exactly that creeping shape.
TREND_DIR="$LIVE_DIR/trend"
./target/release/pka obs trend-push "$LIVE_DIR/current_manifest.json" \
    "$TREND_DIR" --trend-cap 8
# A short history must report without flagging.
./target/release/pka obs diff --trend "$TREND_DIR"
if command -v jq >/dev/null 2>&1; then
    # Inject a +10-12%/run monotonic creep (every step under the 25% stage
    # tolerance, cumulative well over it) and require a non-zero exit.
    for pct in 12 24 38 52; do
        jq --argjson p "$pct" '
            (.stages[].total_ns) |= (. * (100 + $p) / 100 | floor)
            | .wall_ns |= (. * (100 + $p) / 100 | floor)
        ' "$LIVE_DIR/current_manifest.json" > "$LIVE_DIR/creep_$pct.json"
        ./target/release/pka obs trend-push "$LIVE_DIR/creep_$pct.json" \
            "$TREND_DIR/creep" --trend-cap 8
    done
    if ./target/release/pka obs diff --trend "$TREND_DIR/creep" \
        > "$LIVE_DIR/trend_out.txt" 2>&1; then
        echo "obs diff --trend failed to flag an injected creeping slowdown" >&2
        exit 1
    fi
    grep -q "creeping" "$LIVE_DIR/trend_out.txt"
    echo "obs trend gate OK (injected creep detected)"
fi

# The gate must actually fire: inject a 1.3x stage-timing regression and
# require a non-zero exit. Both sides pass through jq so the comparison is
# not polluted by jq's float re-rendering of 64-bit checksums.
if command -v jq >/dev/null 2>&1; then
    jq '.' "$LIVE_DIR/current_manifest.json" > "$LIVE_DIR/manifest_base.json"
    jq '(.stages[].total_ns) |= (. * 13 / 10 | floor)' \
        "$LIVE_DIR/current_manifest.json" > "$LIVE_DIR/manifest_regressed.json"
    if ./target/release/pka obs diff "$LIVE_DIR/manifest_base.json" \
        "$LIVE_DIR/manifest_regressed.json" > "$LIVE_DIR/diff_out.txt" 2>&1; then
        echo "obs diff failed to flag an injected 30% stage regression" >&2
        exit 1
    fi
    grep -q "REGRESSION" "$LIVE_DIR/diff_out.txt"
    echo "obs diff gate OK (injected regression detected)"
fi

echo "==> attribution smoke (pka.attribution/v1, explain, accuracy gate)"
ATTR_DIR="$(mktemp -d -t pka_attr.XXXXXX)"
trap 'rm -f "$BENCH_SMOKE_JSON" "$OBS_MANIFEST" "$OBS_TRACE" "$STREAM_CKPT"; rm -rf "$LIVE_DIR" "$ATTR_DIR"' EXIT
./target/release/pka simulate --workload bfs65536 \
    --attribution-out "$ATTR_DIR/attr.json" >/dev/null
if command -v jq >/dev/null 2>&1; then
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
    ' "$ATTR_DIR/attr.json" >/dev/null
    echo "attribution artifact OK ($(jq '.groups | length' "$ATTR_DIR/attr.json") groups)"
else
    echo "jq not found; skipping attribution schema check" >&2
fi
./target/release/pka obs explain "$ATTR_DIR/attr.json" > "$ATTR_DIR/explain.txt"
grep -q "pka.attribution/v1" "$ATTR_DIR/explain.txt"
echo "obs explain OK ($(wc -l < "$ATTR_DIR/explain.txt") lines)"

# Stream-path determinism: the artifact is byte-identical for any worker
# count (the same contract the checkpoints already gate on).
./target/release/pka stream --source synthetic:100000 --prefix 1000 \
    --workers 1 --attribution-out "$ATTR_DIR/attr_w1.json" >/dev/null
./target/release/pka stream --source synthetic:100000 --prefix 1000 \
    --workers 4 --attribution-out "$ATTR_DIR/attr_w4.json" >/dev/null
cmp -s "$ATTR_DIR/attr_w1.json" "$ATTR_DIR/attr_w4.json"
echo "attribution worker parity OK"

# The accuracy gate must actually fire: identical artifacts pass, an
# injected representative swap is an exact-match regression.
./target/release/pka obs diff "$ATTR_DIR/attr.json" "$ATTR_DIR/attr.json" >/dev/null
if command -v jq >/dev/null 2>&1; then
    jq '.groups[0].representative = 424242' "$ATTR_DIR/attr.json" \
        > "$ATTR_DIR/attr_swapped.json"
    if ./target/release/pka obs diff "$ATTR_DIR/attr.json" \
        "$ATTR_DIR/attr_swapped.json" > "$ATTR_DIR/attr_diff_out.txt" 2>&1; then
        echo "obs diff failed to flag an injected representative swap" >&2
        exit 1
    fi
    grep -q "REGRESSION" "$ATTR_DIR/attr_diff_out.txt"
    echo "attribution gate OK (injected representative swap detected)"
fi

echo "==> server smoke (pka serve: HTTP session parity, sharded, teardown)"
SRV_DIR="$(mktemp -d -t pka_srv.XXXXXX)"
SERVE_PID=""
cleanup_server() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -f "$BENCH_SMOKE_JSON" "$OBS_MANIFEST" "$OBS_TRACE" "$STREAM_CKPT"
    rm -rf "$LIVE_DIR" "$ATTR_DIR" "$SRV_DIR"
}
trap cleanup_server EXIT
if command -v curl >/dev/null 2>&1 && command -v jq >/dev/null 2>&1; then
    # Batch CLI reference artifacts the service must reproduce bytewise.
    ./target/release/pka stream --source synthetic:60000 --prefix 800 \
        --checkpoint-every 20000 --checkpoint "$SRV_DIR/cli_ckpt.json" \
        --attribution-out "$SRV_DIR/cli_attr.json" >/dev/null
    ./target/release/pka stream --source synthetic:60000 --prefix 800 \
        --checkpoint-every 20000 --shards 2 \
        --checkpoint "$SRV_DIR/cli_shard_ckpt.json" >/dev/null

    ./target/release/pka serve --addr 127.0.0.1:0 --read-timeout-ms 5000 \
        --trace-out "$SRV_DIR/serve_trace.jsonl" > "$SRV_DIR/serve.log" 2>&1 &
    SERVE_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's#^pka-server listening on http://##p' "$SRV_DIR/serve.log")"
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    [ -n "$ADDR" ] || { echo "pka serve did not come up" >&2; exit 1; }
    curl -sf "http://$ADDR/healthz" >/dev/null

    # Wait for a session to leave the running states and fetch its result.
    wait_result() {
        for _ in $(seq 1 600); do
            CODE="$(curl -s -o "$SRV_DIR/result.json" -w '%{http_code}' \
                "http://$ADDR/v1/sessions/$1/result")"
            [ "$CODE" = 200 ] && return 0
            [ "$CODE" = 202 ] || break
            sleep 0.1
        done
        echo "session $1 did not finish (last status $CODE)" >&2
        cat "$SRV_DIR/result.json" >&2
        return 1
    }

    # Single-pipeline streaming session: K and projected cycles must match
    # the CLI run exactly; checkpoint/attribution must be byte-identical.
    SID="$(curl -sf -X POST "http://$ADDR/v1/sessions" \
        -d '{"mode":"stream","source":"synthetic:60000","prefix":800,"checkpoint_every":20000}' \
        | jq -r .id)"
    wait_result "$SID"
    jq -e --argjson k "$(jq .selected_k "$SRV_DIR/cli_ckpt.json")" \
        --argjson cycles "$(jq .projected_cycles "$SRV_DIR/cli_ckpt.json")" \
        '.selected_k == $k and .projected_cycles == $cycles' \
        "$SRV_DIR/result.json" >/dev/null
    curl -sf "http://$ADDR/v1/sessions/$SID/checkpoint" -o "$SRV_DIR/srv_ckpt.json"
    curl -sf "http://$ADDR/v1/sessions/$SID/attribution" -o "$SRV_DIR/srv_attr.json"
    cmp -s "$SRV_DIR/cli_ckpt.json" "$SRV_DIR/srv_ckpt.json"
    cmp -s "$SRV_DIR/cli_attr.json" "$SRV_DIR/srv_attr.json"
    head -n 1 <(curl -sf "http://$ADDR/v1/sessions/$SID/progress") \
        | jq -e '.schema == "pka.snapshot/v1" and .type == "header"' >/dev/null
    echo "server session parity OK (K=$(jq .selected_k "$SRV_DIR/result.json"), artifacts byte-identical)"
    PARITY_SID="$SID"

    # Live telemetry: raw /metrics must satisfy the exposition grammar
    # (every sample line's family declared by a preceding # TYPE), and the
    # scrape->diff gate must pass clean against the committed deterministic
    # baseline. Extra live families (server traffic, timing histograms) are
    # informational on the current side; a baseline family disappearing or
    # drifting is a regression.
    curl -sf "http://$ADDR/metrics" -o "$SRV_DIR/metrics1.txt"
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
    ' "$SRV_DIR/metrics1.txt"
    ./target/release/pka obs scrape "http://$ADDR/metrics" --out "$SRV_DIR/scrape1.json"
    ./target/release/pka obs diff results/ci_baseline_scrape.json \
        "$SRV_DIR/scrape1.json" --counters-only
    jq '.counters.pka_stream_records_total += 1' results/ci_baseline_scrape.json \
        > "$SRV_DIR/scrape_regressed.json"
    if ./target/release/pka obs diff "$SRV_DIR/scrape_regressed.json" \
        "$SRV_DIR/scrape1.json" --counters-only > "$SRV_DIR/scrape_diff_out.txt" 2>&1; then
        echo "obs diff failed to flag an injected scrape regression" >&2
        exit 1
    fi
    grep -q "REGRESSION" "$SRV_DIR/scrape_diff_out.txt"
    echo "server scrape gate OK ($(jq '.counters | length' "$SRV_DIR/scrape1.json") counter series)"

    # Sharded session: same contract under --shards 2.
    SID="$(curl -sf -X POST "http://$ADDR/v1/sessions" \
        -d '{"mode":"stream","source":"synthetic:60000","prefix":800,"checkpoint_every":20000,"shards":2}' \
        | jq -r .id)"
    wait_result "$SID"
    curl -sf "http://$ADDR/v1/sessions/$SID/checkpoint" -o "$SRV_DIR/srv_shard_ckpt.json"
    cmp -s "$SRV_DIR/cli_shard_ckpt.json" "$SRV_DIR/srv_shard_ckpt.json"
    echo "server sharded parity OK (map_hash=$(jq .topology.map_hash "$SRV_DIR/srv_shard_ckpt.json"))"

    # DELETE mid-stream: cancellation-safe teardown must stop at a batch
    # boundary and leave a checkpoint the CLI can resume to completion.
    SID="$(curl -sf -X POST "http://$ADDR/v1/sessions" \
        -d "{\"mode\":\"stream\",\"source\":\"synthetic:1000000\",\"prefix\":800,\"checkpoint_every\":10000,\"checkpoint_path\":\"$SRV_DIR/teardown_ckpt.json\"}" \
        | jq -r .id)"
    for _ in $(seq 1 600); do
        REC="$(curl -sf "http://$ADDR/v1/sessions/$SID" | jq .records)"
        [ "$REC" -ge 10000 ] && break
        sleep 0.05
    done

    # Mid-session telemetry: the 1M-kernel session is live right now. The
    # bare host:port form exercises the default /metrics path of `scrape`.
    ./target/release/pka obs scrape "http://$ADDR" --out "$SRV_DIR/scrape2.json"
    jq -e '
        .gauges.pka_server_sessions_active == 1
        and .counters.pka_server_sessions_created_total == 3
    ' "$SRV_DIR/scrape2.json" >/dev/null
    # Counters and stage totals only move forward between scrapes.
    jq -en --slurpfile a "$SRV_DIR/scrape1.json" --slurpfile b "$SRV_DIR/scrape2.json" '
        all($a[0].counters | to_entries[]; ($b[0].counters[.key] // -1) >= .value)
        and all($a[0].stages | to_entries[];
                ($b[0].stages[.key].total_ns // -1) >= .value.total_ns)
    ' >/dev/null
    # A live SSE subscriber sees the snapshot header frame first.
    (curl -sN --max-time 3 "http://$ADDR/v1/sessions/$SID/events" || true) \
        | head -n 1 > "$SRV_DIR/sse_head.txt"
    grep -q '^data: {"schema":"pka.snapshot/v1","type":"header"}' "$SRV_DIR/sse_head.txt"
    echo "server live telemetry OK (sessions_active=1 mid-1M-session, counters monotonic, SSE header seen)"

    curl -sf -X DELETE "http://$ADDR/v1/sessions/$SID" -o "$SRV_DIR/teardown.json"
    jq -e '.status == "cancelled" and .records < 1000000' \
        "$SRV_DIR/teardown.json" >/dev/null
    jq -e '.schema == "pka.stream_checkpoint/v1" and .records < 1000000' \
        "$SRV_DIR/teardown_ckpt.json" >/dev/null
    ./target/release/pka stream --source synthetic:1000000 --resume \
        --checkpoint "$SRV_DIR/teardown_ckpt.json" >/dev/null
    jq -e '.records == 1000000' "$SRV_DIR/teardown_ckpt.json" >/dev/null
    echo "server teardown OK (cancelled at $(jq .records "$SRV_DIR/teardown.json") records, CLI resumed to 1000000)"

    # Clean service exit: shutdown joins every worker before returning.
    curl -sf -X POST "http://$ADDR/v1/shutdown" >/dev/null
    wait "$SERVE_PID"
    SERVE_PID=""
    grep -q "pka-server stopped" "$SRV_DIR/serve.log"
    echo "server shutdown OK"

    # Request correlation: the access line for the parity checkpoint fetch
    # must round-trip its request id into a `server.request` trace event
    # carrying the same session id.
    REQ_ID="$(grep '"type":"access"' "$SRV_DIR/serve.log" \
        | jq -s --arg p "/v1/sessions/$PARITY_SID/checkpoint" \
            '[.[] | select(.path == $p)][0].req_id')"
    [ -n "$REQ_ID" ] && [ "$REQ_ID" != "null" ]
    jq -es --argjson id "$REQ_ID" --arg sid "$PARITY_SID" '
        any(.[]; .type == "event" and .name == "server.request"
                 and .fields.req_id == $id and .fields.session == $sid)
    ' "$SRV_DIR/serve_trace.jsonl" >/dev/null
    echo "server request correlation OK (req_id $REQ_ID joined access log to trace)"
else
    echo "curl or jq not found; skipping server smoke" >&2
fi

echo "CI OK"
