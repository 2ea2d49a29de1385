#!/bin/sh
# Repository gate: formatting, lints, and the full test suite.
# Usage: ./check.sh
set -eu

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
# Every intra-doc link must resolve to a documented item: a link to a
# renamed, moved or private item fails here instead of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "== benchmark builds against the library (--locked) =="
# pfbench is a package of its own with a committed Cargo.lock: removing
# a public item it calls, or changing a crate dependency edge (which
# would rewrite that lockfile), must fail here rather than in a
# benchmark run.
cargo check -q --offline --locked --manifest-path crates/bench/src/bin/pfbench/Cargo.toml

echo "== benchmark's own tests (correctness gate) =="
# pfbench's suite includes a --quick run of every workload, whose gate
# checks each sampled session's readback against Scg::try_specialize of
# its committed parameters: a change to the turn path that serves
# wrong configurations fails here, on every change, not only when the
# benchmark runs.
cargo test -q --offline --locked --manifest-path crates/bench/src/bin/pfbench/Cargo.toml

echo "== cargo test =="
cargo test -q --workspace

echo "== golden digests, corpus replay and sweep equivalence (release profile) =="
# pfbench measures release builds, so the place, route, specialization
# and SCG table pins, the committed corpus journals, and the batch
# sweep's bit-identity to the reference walk (`try_specialize`) must
# hold in that profile too, not only in the debug build the suite runs
# in.
cargo test --release -q --test pr_golden --test replay_corpus --test batch_equivalence

echo "== chaos pass (PFDBG_ICAP_FAULT_RATE=0.05) =="
# The chaos suites again with a 5% injected ICAP fault rate layered on
# top of their built-in sweeps: every committed turn must stay
# bit-identical to the fault-free golden run, and every rollback must
# leave session state untouched.
PFDBG_ICAP_FAULT_RATE=0.05 cargo test -q --test chaos
PFDBG_ICAP_FAULT_RATE=0.05 cargo test -q -p pfdbg-serve --test chaos --test proto_fuzz

echo "== scrub pass (PFDBG_SEU_RATE=0.02) =="
# The scrubbing suites under a 2% per-frame upset rate: the bombarded
# 200-turn session must end bit-identical to the PConf golden oracle,
# and with transport faults layered on top every trace window must
# still match the fault-free golden emulator.
PFDBG_SEU_RATE=0.02 cargo test -q -p pfdbg-serve --test scrub
PFDBG_SEU_RATE=0.02 PFDBG_ICAP_FAULT_RATE=0.02 cargo test -q --test chaos

echo "== shard sweep (PFDBG_SHARDS=1/2/8) =="
# The serve suites at three fleet shapes: session placement moves
# between shard threads, but per-session operation order is
# caller-serialized, so every chaos/replay/scrub assertion (all
# bit-identity against golden oracles) must hold unchanged at any
# shard count. The TCP suite's selects (params, signals, malformed
# lines) take the same inbox route as every other session verb, and
# the counter table's exact counts hold across select and scrub paths.
for shards in 1 2 8; do
    PFDBG_SHARDS=$shards cargo test -q -p pfdbg-serve \
        --test chaos --test replay --test scrub --test backpressure --test fleet --test devices \
        --test serve --test counts
done

echo "== serve smoke test =="
# Start the debug service on an ephemeral port — with SEU injection and
# the background scrubber enabled — drive it with a small serve_load
# run, and check for a clean shutdown plus a non-empty latency report
# carrying the scrub counters and the server's own SEU settings.
cargo build -q -p pfdbg-cli -p pfdbg-bench --bin pfdbg --bin serve_load --bin specialize
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
./target/debug/pfdbg serve @stereov. --store-dir "$SMOKE_DIR/store" \
    --seu-rate 0.02 --scrub-interval 50 \
    --port-file "$SMOKE_DIR/port" >"$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 100); do
    [ -s "$SMOKE_DIR/port" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/port" ] || { echo "serve never published its port"; cat "$SMOKE_DIR/serve.log"; exit 1; }
PORT=$(cat "$SMOKE_DIR/port")
./target/debug/serve_load --addr "127.0.0.1:$PORT" --threads 8 --requests 10 \
    --out "$SMOKE_DIR/BENCH_serve.json"
[ -s "$SMOKE_DIR/BENCH_serve.json" ] || { echo "BENCH_serve.json is empty"; exit 1; }
grep -q '"failures":0' "$SMOKE_DIR/BENCH_serve.json" || { echo "serve smoke saw failed requests"; exit 1; }
# Presence only, not a value: scrub pass counts are timing-dependent.
grep -q '"scrub_passes"' "$SMOKE_DIR/BENCH_serve.json" || { echo "scrub counters missing from bench report"; exit 1; }
# The upset rate and scrub interval come from the server's `stats`,
# not from serve_load's own (unused in --addr mode) flags.
grep -q '"seu_rate":0.02' "$SMOKE_DIR/BENCH_serve.json" || { echo "bench report lacks the server's SEU rate"; exit 1; }
grep -q '"scrub_interval_ms":50' "$SMOKE_DIR/BENCH_serve.json" || { echo "bench report lacks the server's scrub interval"; exit 1; }
# serve_load's --icap-fault-rate configures only an in-process server,
# and `stats` does not carry an external server's rate: null, not 0.
grep -q '"icap_fault_rate":null' "$SMOKE_DIR/BENCH_serve.json" || { echo "bench report claims a fault rate it cannot know"; exit 1; }
# The load report must carry the bucketized latency distribution (tail
# percentile and non-empty bucket string) plus the server-side
# specialize percentiles from the always-on histogram.
grep -q '"hist_p999_ms"' "$SMOKE_DIR/BENCH_serve.json" || { echo "latency histogram p999 missing"; exit 1; }
grep -q '"hist_buckets":"[0-9]' "$SMOKE_DIR/BENCH_serve.json" || { echo "latency histogram buckets missing"; exit 1; }
grep -q '"specialize_p99_us"' "$SMOKE_DIR/BENCH_serve.json" || { echo "server specialize p99 missing"; exit 1; }
# Device-fleet supervision fields (an unsupervised server reports a
# single-device fleet; the counters must still be present numbers).
for field in devices migrations watchdog_trips device_failures sessions_migrated sessions_lost; do
    grep -q "\"$field\"" "$SMOKE_DIR/BENCH_serve.json" \
        || { echo "BENCH_serve.json lacks fleet field $field"; exit 1; }
done

# Fleet telemetry verbs against the live server: the metrics registry
# must expose the specialize histogram, SLO burn, the manager's counter
# table and every shard's inbox depth (on a server started without
# --profile), a session's flight recorder must replay its turns, and
# `pfdbg top` must render a frame.
OPEN=$(./target/debug/pfdbg client "127.0.0.1:$PORT" --request '{"op":"open","session":"smoke"}')
N=$(echo "$OPEN" | sed -n 's/.*"n_params":\([0-9]*\).*/\1/p')
[ -n "$N" ] || { echo "open reply lacks n_params: $OPEN"; exit 1; }
./target/debug/pfdbg client "127.0.0.1:$PORT" \
    --request "{\"op\":\"select\",\"session\":\"smoke\",\"params\":\"$(printf "%0${N}d" 0)\"}" >/dev/null
METRICS=$(./target/debug/pfdbg client "127.0.0.1:$PORT" --request '{"op":"metrics"}')
echo "$METRICS" | grep -q 'scg.specialize_us' || { echo "metrics verb lacks the specialize histogram"; exit 1; }
echo "$METRICS" | grep -q 'slo.specialize_us' || { echo "metrics verb lacks SLO burn lines"; exit 1; }
echo "$METRICS" | grep -q 'serve.shard0.inbox_depth' || { echo "metrics verb lacks the shard inbox depth"; exit 1; }
echo "$METRICS" | grep -q 'serve.scrub_passes' || { echo "metrics verb lacks the scrub counters"; exit 1; }
echo "$METRICS" | grep -qF '\"type\":\"session\"' || { echo "metrics verb lacks per-session rows"; exit 1; }
./target/debug/pfdbg client "127.0.0.1:$PORT" --request '{"op":"dump","session":"smoke"}' \
    | grep -q 'turn_start' || { echo "flight dump lacks the recorded turn"; exit 1; }
./target/debug/pfdbg top "127.0.0.1:$PORT" --iters 1 --no-clear \
    | grep -q '^SESSION' || { echo "pfdbg top rendered no session table"; exit 1; }
./target/debug/pfdbg client "127.0.0.1:$PORT" --shutdown >/dev/null
wait "$SERVE_PID"
# The smoke report stays in the temp dir: an 80-request debug-build run
# is not a benchmark, so it never replaces a committed BENCH_*.json.
echo "serve smoke ok: $(cat "$SMOKE_DIR/BENCH_serve.json")"

echo "== sharded fleet smoke (512 sessions) =="
# A scaled-down fleet soak against an in-process server: 512 sessions
# multiplexed over 8 connections. Gates are the report's backpressure
# ledger and field presence — shed/overload counters, the request-latency
# histogram tail — never absolute latency, which depends on the host.
./target/debug/serve_load --sessions 512 --threads 8 --requests 128 \
    --out "$SMOKE_DIR/BENCH_fleet.json" >/dev/null
grep -q '"failures":0' "$SMOKE_DIR/BENCH_fleet.json" || { echo "fleet smoke saw failed requests"; exit 1; }
grep -q '"sessions":512' "$SMOKE_DIR/BENCH_fleet.json" || { echo "fleet smoke lost sessions"; exit 1; }
for field in shed_total overloaded_replies hist_p99_ms inbox_wait_p99_us shards inbox_capacity; do
    grep -q "\"$field\"" "$SMOKE_DIR/BENCH_fleet.json" \
        || { echo "BENCH_fleet.json lacks $field"; exit 1; }
done
echo "fleet smoke ok"

echo "== device failover chaos smoke (1/2/8 shards) =="
# An in-process server over a supervised device fleet (2 primaries + 2
# spares, journaling on); device 0 is armed to die after 25 frame
# writes, mid-run. The gates: the ledger balances with zero hard
# failures (migration-window refusals are their own bucket), at least
# one failover ran, and no journaled session was lost — at 1, 2, and 8
# session shards.
for shards in 1 2 8; do
    ./target/debug/serve_load --sessions 16 --threads 4 --requests 64 \
        --shards "$shards" --devices 2 --spares 2 --journal --kill-device-at 25 \
        --out "$SMOKE_DIR/BENCH_devices_$shards.json" >/dev/null
    grep -q '"failures":0' "$SMOKE_DIR/BENCH_devices_$shards.json" \
        || { echo "device chaos smoke (shards=$shards) saw hard failures"; exit 1; }
    grep -q '"devices":4' "$SMOKE_DIR/BENCH_devices_$shards.json" \
        || { echo "device chaos smoke (shards=$shards) lost the fleet shape"; exit 1; }
    grep -q '"migrations":[1-9]' "$SMOKE_DIR/BENCH_devices_$shards.json" \
        || { echo "device chaos smoke (shards=$shards) never failed over"; exit 1; }
    grep -q '"sessions_lost":0' "$SMOKE_DIR/BENCH_devices_$shards.json" \
        || { echo "device chaos smoke (shards=$shards) dropped journaled sessions"; exit 1; }
done
echo "device failover smoke ok"

echo "== flight-recorder quarantine smoke =="
# A server with a dead write path (every repair fails) under full SEU
# bombardment: the background scrubber must quarantine stuck frames and
# leave an automatic flight-recorder dump whose events end in the
# quarantine verdict, retrievable via the session-less `dump` verb.
./target/debug/pfdbg serve @stereov. --store-dir "$SMOKE_DIR/store" \
    --icap-fault-rate 1.0 --max-retries 0 --seu-rate 1.0 --scrub-interval 20 \
    --port-file "$SMOKE_DIR/qport" >"$SMOKE_DIR/qserve.log" 2>&1 &
QSERVE_PID=$!
for _ in $(seq 100); do
    [ -s "$SMOKE_DIR/qport" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/qport" ] || { echo "chaos serve never published its port"; cat "$SMOKE_DIR/qserve.log"; exit 1; }
QPORT=$(cat "$SMOKE_DIR/qport")
QOPEN=$(./target/debug/pfdbg client "127.0.0.1:$QPORT" --request '{"op":"open","session":"doomed"}')
QN=$(echo "$QOPEN" | sed -n 's/.*"n_params":\([0-9]*\).*/\1/p')
ZEROS=$(printf "%0${QN}d" 0)
DUMP=""
for _ in $(seq 100); do
    # The all-zeros select commits trivially over the dead port but
    # ticks the SEU channel, keeping upsets landing between scrub passes.
    ./target/debug/pfdbg client "127.0.0.1:$QPORT" \
        --request "{\"op\":\"select\",\"session\":\"doomed\",\"params\":\"$ZEROS\"}" >/dev/null 2>&1 || true
    DUMP=$(./target/debug/pfdbg client "127.0.0.1:$QPORT" --request '{"op":"dump"}' 2>/dev/null || true)
    echo "$DUMP" | grep -q '"ok":true' && break
    sleep 0.1
done
echo "$DUMP" | grep -q '"source":"auto"' || { echo "no automatic flight dump after quarantine"; cat "$SMOKE_DIR/qserve.log"; exit 1; }
echo "$DUMP" | grep -q 'quarantine' || { echo "flight dump lacks the quarantine event: $DUMP"; exit 1; }
echo "$DUMP" | grep -q 'scrub_pass' || { echo "flight dump lacks the scrub passes: $DUMP"; exit 1; }
./target/debug/pfdbg client "127.0.0.1:$QPORT" --shutdown >/dev/null || true
wait "$QSERVE_PID" || true
echo "quarantine smoke ok"

echo "== record/replay round trip =="
# A standalone recording under transport faults and SEUs must replay
# bit-identically.
./target/debug/pfdbg record gen:7 --out "$SMOKE_DIR/rt.pfdj" --turns 6 --seed 1234 \
    --scrub-every 3 --icap-fault-rate 0.05 --seu-rate 0.01 >/dev/null
./target/debug/pfdbg replay "$SMOKE_DIR/rt.pfdj" \
    | grep -q 'bit-identical' || { echo "record/replay round trip diverged"; exit 1; }
echo "record/replay ok"

echo "== scrub demo (pfdbg scrub) =="
# The one verb that drives OnlineReconfigurator::scrub and its
# undetected-divergence check: 20 turns under 2% upsets and 2%
# transport faults, a scrub pass every 5 turns, deterministic under the
# default seeds. Every upset must be repaired or quarantined, and none
# quarantined.
SCRUB_OUT=$(./target/debug/pfdbg scrub @stereov. --no-store --turns 20 --scrub-every 5 \
    --seu-rate 0.02 --icap-fault-rate 0.02) || { echo "pfdbg scrub failed: $SCRUB_OUT"; exit 1; }
echo "$SCRUB_OUT" | grep -q '^undetected divergence: none' \
    || { echo "scrub demo left an undetected divergence: $SCRUB_OUT"; exit 1; }
echo "$SCRUB_OUT" | grep -q '^health: clean' || { echo "scrub demo degraded: $SCRUB_OUT"; exit 1; }
echo "scrub demo ok"

echo "== journaled serve restart smoke =="
# Crash-consistency end to end: a journaling server is killed (SIGKILL,
# no clean close) mid-session; a restart over the same journal dir must
# restore the session, report the restore in `stats`, and replay its
# own journal to a bit-identical verdict via the `replay` verb.
JDIR="$SMOKE_DIR/journal"
start_jserve() {
    rm -f "$SMOKE_DIR/jport"
    ./target/debug/pfdbg serve @stereov. --store-dir "$SMOKE_DIR/store" \
        --journal-dir "$JDIR" --seu-rate 0.01 \
        --port-file "$SMOKE_DIR/jport" >>"$SMOKE_DIR/jserve.log" 2>&1 &
    JSERVE_PID=$!
    for _ in $(seq 100); do
        [ -s "$SMOKE_DIR/jport" ] && break
        sleep 0.1
    done
    [ -s "$SMOKE_DIR/jport" ] || { echo "journaled serve never published its port"; cat "$SMOKE_DIR/jserve.log"; exit 1; }
    JPORT=$(cat "$SMOKE_DIR/jport")
}
start_jserve
JOPEN=$(./target/debug/pfdbg client "127.0.0.1:$JPORT" --request '{"op":"open","session":"jsmoke"}')
JN=$(echo "$JOPEN" | sed -n 's/.*"n_params":\([0-9]*\).*/\1/p')
[ -n "$JN" ] || { echo "journaled open lacks n_params: $JOPEN"; exit 1; }
JZEROS=$(printf "%0${JN}d" 0)
JONES=$(echo "$JZEROS" | tr 0 1)
./target/debug/pfdbg client "127.0.0.1:$JPORT" \
    --request "{\"op\":\"select\",\"session\":\"jsmoke\",\"params\":\"$JZEROS\"}" >/dev/null
./target/debug/pfdbg client "127.0.0.1:$JPORT" \
    --request "{\"op\":\"select\",\"session\":\"jsmoke\",\"params\":\"$JONES\"}" >/dev/null
kill -9 "$JSERVE_PID" 2>/dev/null
wait "$JSERVE_PID" 2>/dev/null || true
start_jserve
REOPEN=$(./target/debug/pfdbg client "127.0.0.1:$JPORT" --request '{"op":"open","session":"jsmoke"}')
echo "$REOPEN" | grep -q '"ok":true' || { echo "session restore failed: $REOPEN"; exit 1; }
./target/debug/pfdbg client "127.0.0.1:$JPORT" --request '{"op":"stats"}' \
    | grep -q '"restores":[1-9]' || { echo "stats shows no session restore"; exit 1; }
JREC=$(./target/debug/pfdbg client "127.0.0.1:$JPORT" --request '{"op":"record","session":"jsmoke"}')
# The replay verb is confined to --journal-dir: it takes the relative
# `file` name from the record reply, never an absolute path.
JPATH=$(echo "$JREC" | sed -n 's/.*"file":"\([^"]*\)".*/\1/p')
[ -n "$JPATH" ] || { echo "record verb returned no journal file: $JREC"; exit 1; }
./target/debug/pfdbg client "127.0.0.1:$JPORT" \
    --request "{\"op\":\"replay\",\"path\":\"$JPATH\"}" \
    | grep -q '"identical":true' || { echo "server replay of its own journal diverged"; exit 1; }
./target/debug/pfdbg client "127.0.0.1:$JPORT" --shutdown >/dev/null
wait "$JSERVE_PID"
# The same journal, spanning the SIGKILL and the restore, must also
# verify on the standalone engine: its meta names the benchmark and the
# server's chaos, so `pfdbg replay` rebuilds what the server ran.
./target/debug/pfdbg replay "$JDIR"/*.pfdj \
    | grep -q 'bit-identical' || { echo "standalone replay of the server's journal diverged"; exit 1; }
echo "journaled restart smoke ok"

echo "== differential fuzz (64 seeded cases) =="
# Seeded random turn sequences through every emulator pair that must
# agree bit-for-bit (faulty-vs-oracle, scrubbed-vs-unscrubbed at zero
# SEU). Divergences shrink to minimal journals in the corpus dir;
# `pfdbg fuzz` exits non-zero on any divergence or error.
FUZZ_OUT=$(./target/debug/pfdbg fuzz --cases 64 --seed 4242 --corpus-dir "$SMOKE_DIR/fuzz-corpus") \
    || { echo "$FUZZ_OUT" | tail -5; echo "differential fuzz found divergences"; exit 1; }
echo "fuzz ok: $(echo "$FUZZ_OUT" | tail -1)"

echo "== specialize micro-bench (batch vs reference bit-identity) =="
# The turn-path micro-bench at a reduced turn count: the gate is the
# report shape and the bit-identity flags of the batch sweep against
# the reference (`try_specialize`) at every scale (two synthetic SCGs
# and diffeq1 through the offline flow) — never absolute latency,
# which depends on the host (the committed BENCH_specialize.json
# carries release-build numbers).
./target/debug/specialize --turns 256 --out "$SMOKE_DIR/BENCH_specialize.json" >/dev/null
for field in t1k_serial_p50_us t1k_batch_p50_us t10k_serial_p50_us t10k_batch_p50_us \
             t10k_serial_p99_us t10k_batch_p99_us d1_nodes d1_serial_p50_us d1_batch_p50_us \
             provenance host_threads turns; do
    grep -q "\"$field\"" "$SMOKE_DIR/BENCH_specialize.json" \
        || { echo "BENCH_specialize.json lacks $field"; exit 1; }
done
grep -q '"t1k_identical":1' "$SMOKE_DIR/BENCH_specialize.json" \
    || { echo "batch evaluator diverged from the reference (try_specialize) at 1k tunables"; exit 1; }
grep -q '"t10k_identical":1' "$SMOKE_DIR/BENCH_specialize.json" \
    || { echo "batch evaluator diverged from the reference (try_specialize) at 10k tunables"; exit 1; }
grep -q '"d1_identical":1' "$SMOKE_DIR/BENCH_specialize.json" \
    || { echo "batch evaluator diverged from the reference (try_specialize) on diffeq1"; exit 1; }
echo "specialize bench ok"

echo "== committed corpus replay and re-record =="
for j in tests/corpus/*.pfdj; do
    ./target/debug/pfdbg replay "$j" >/dev/null || { echo "corpus journal $j diverged"; exit 1; }
done
# Two committed journals, recorded again: the `gen:SEED` parse, the
# design build and the record path must reproduce them byte for byte.
./target/debug/pfdbg record gen:11 --seed 101 --turns 6 \
    --out "$SMOKE_DIR/clean-gen11.pfdj" >/dev/null
cmp "$SMOKE_DIR/clean-gen11.pfdj" tests/corpus/clean-gen11.pfdj \
    || { echo "re-recorded clean-gen11.pfdj differs from the committed journal"; exit 1; }
./target/debug/pfdbg record gen:33 --seed 303 --turns 7 --scrub-every 2 --icap-fault-rate 0.25 \
    --seu-rate 0.03 --seu-seed 909 --seu-burst 3 --out "$SMOKE_DIR/faulty-gen33.pfdj" >/dev/null
cmp "$SMOKE_DIR/faulty-gen33.pfdj" tests/corpus/faulty-gen33.pfdj \
    || { echo "re-recorded faulty-gen33.pfdj differs from the committed journal"; exit 1; }
echo "corpus ok"

echo "all checks passed"
