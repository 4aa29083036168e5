#!/usr/bin/env bash
# CI entry point: build, run the full test suite, then smoke-test the
# fleet batch engine end to end — a small `fpgrind suite` run with a
# JSONL store, validated by parsing it back.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build @all
dune runtest

# Every subcommand stays registered: one dropped from the Cmd.group
# fails its --help here.
for cmd in analyze sanitize run suite validate list-benchmarks improve \
  fuzz campaign serve client loadgen; do
  _build/default/bin/fpgrind_cli.exe "$cmd" --help=plain >/dev/null \
    || { echo "ci: fpgrind $cmd --help failed"; exit 1; }
done

out="$(mktemp /tmp/fpgrind-ci.XXXXXX.jsonl)"
trap 'rm -f "$out"' EXIT

dune exec bin/fpgrind_cli.exe -- suite \
  intro-example nmse-3-1 verhulst midpoint-naive logistic-map newton-sqrt \
  -j 2 --timeout 60 --precision 128 --iterations 4 \
  --json "$out" --no-cache --strict

dune exec bin/fpgrind_cli.exe -- validate "$out"

# Compile-cache smoke, once per engine (each drives the shared shadow
# executor differently): the same suite twice in one process. The
# second pass must decode zero new superblocks (every program served
# from the compiled-block cache) and produce byte-identical records
# modulo wall time. FPGRIND_SUITE_PASSES / FPGRIND_COMPILE_STATS are the
# env hooks the suite command exposes for exactly this check.
cc_store="$(mktemp /tmp/fpgrind-ci-cc.XXXXXX.jsonl)"
cc_stats="$(mktemp /tmp/fpgrind-ci-cc.XXXXXX.stats)"
trap 'rm -f "$out" "$cc_store" "$cc_store.pass2" "$cc_stats"' EXIT
for engine in full sanitize tiered; do
  rm -f "$cc_store" "$cc_store.pass2"
  FPGRIND_SUITE_PASSES=2 FPGRIND_COMPILE_STATS=1 \
    dune exec bin/fpgrind_cli.exe -- suite \
    intro-example nmse-3-1 verhulst midpoint-naive logistic-map newton-sqrt \
    -j 2 --timeout 60 --precision 128 --iterations 4 --engine "$engine" \
    --json "$cc_store" --no-cache --quiet 2>"$cc_stats"
  jq -s -e '(.[1].blocks_compiled == .[0].blocks_compiled)
            and (.[1].cache_hits > .[0].cache_hits)' "$cc_stats" >/dev/null \
    || { echo "ci: second $engine suite pass missed the compile cache"; cat "$cc_stats"; exit 1; }
  cmp <(jq -cS 'del(.wall_s)' "$cc_store") <(jq -cS 'del(.wall_s)' "$cc_store.pass2") \
    || { echo "ci: $engine compile-cache pass records diverged"; exit 1; }
done
rm -f "$cc_store" "$cc_store.pass2" "$cc_stats"
trap 'rm -f "$out"' EXIT

# Differential-fuzz smoke: a fixed-seed campaign (so CI is reproducible)
# plus replay of every committed counterexample in test/corpus. Any
# divergence exits nonzero after printing the shrunken reproducer.
dune exec bin/fpgrind_cli.exe -- fuzz \
  --seed 42 --iters 200 --corpus test/corpus --quiet

# Sanitizer smoke: the second engine must flag a known-bad program
# (cancellation at 1e16 — 62 bits of error) and stay silent on a clean
# one; --fatal turns the first finding into exit 2.
san_bad="$(mktemp /tmp/fpgrind-ci-bad.XXXXXX.mc)"
san_ok="$(mktemp /tmp/fpgrind-ci-ok.XXXXXX.mc)"
trap 'rm -f "$out" "$san_bad" "$san_ok"' EXIT
cat >"$san_bad" <<'EOF'
int main() {
  double x = 1.0e16;
  print((x + 1.0) - x);
  return 0;
}
EOF
cat >"$san_ok" <<'EOF'
int main() {
  double x = 0.5;
  print(x * 2.0 + 0.25);
  return 0;
}
EOF
dune exec bin/fpgrind_cli.exe -- sanitize "$san_bad" | grep -q 'bits max error'
if dune exec bin/fpgrind_cli.exe -- sanitize "$san_bad" --fatal >/dev/null 2>&1
then
  echo "ci: sanitizer missed a known-bad program"; exit 1
fi
dune exec bin/fpgrind_cli.exe -- sanitize "$san_ok" \
  | grep -q 'no floating-point problems'

# Engine-consistency fuzz: fixed seed, the full analysis and the
# sanitizer must agree on which spots are erroneous, program by program.
dune exec bin/fpgrind_cli.exe -- fuzz \
  --seed 42 --iters 100 --consistency --quiet

# Tiered smoke: the two-pass engine must flag the known-bad program at
# the same spot as the full analysis, and stay silent on the clean one.
tier_out="$(mktemp /tmp/fpgrind-ci-tier.XXXXXX.txt)"
full_out="$(mktemp /tmp/fpgrind-ci-full.XXXXXX.txt)"
trap 'rm -f "$out" "$san_bad" "$san_ok" "$tier_out" "$full_out"' EXIT
dune exec bin/fpgrind_cli.exe -- analyze "$san_bad" --engine tiered >"$tier_out"
dune exec bin/fpgrind_cli.exe -- analyze "$san_bad" --engine full >"$full_out"
tier_spot="$(grep -o 'at [^ ]*:[0-9]*' "$tier_out" | head -1)"
full_spot="$(grep -o 'at [^ ]*:[0-9]*' "$full_out" | head -1)"
if [ -z "$tier_spot" ] || [ "$tier_spot" != "$full_spot" ]; then
  echo "ci: tiered engine disagrees with full on the known-bad spot"
  echo "  tiered: ${tier_spot:-<none>}   full: ${full_spot:-<none>}"
  exit 1
fi
dune exec bin/fpgrind_cli.exe -- analyze "$san_ok" --engine tiered \
  | grep -q 'No floating-point problems'

# Tiered-consistency fuzz: fixed seed, every spot the tiered engine
# reports must be bit-identical to the full engine's record for it.
dune exec bin/fpgrind_cli.exe -- fuzz \
  --seed 42 --iters 500 --tiered-consistency --quiet

# Server smoke: ephemeral port, one analysis through `fpgrind client`
# asserted byte-identical (modulo wall time) to the suite record above,
# a /metrics scrape, then SIGTERM and a clean drain. The built binary is
# invoked directly: the backgrounded server must not hold the dune lock.
bin=_build/default/bin/fpgrind_cli.exe
srv_log="$(mktemp /tmp/fpgrind-ci-serve.XXXXXX.log)"
srv_store="$(mktemp /tmp/fpgrind-ci-serve.XXXXXX.jsonl)"
rm -f "$srv_store"
trap 'rm -f "$out" "$san_bad" "$san_ok" "$srv_log" "$srv_store"' EXIT

"$bin" serve --port 0 --jobs 1 --queue 8 --store "$srv_store" >"$srv_log" 2>&1 &
srv_pid=$!
for _ in $(seq 50); do
  port="$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$srv_log" | head -1)"
  [ -n "$port" ] && break
  sleep 0.1
done
[ -n "$port" ] || { echo "ci: server never came up"; cat "$srv_log"; exit 1; }

"$bin" client --port "$port" analyze bench:intro-example \
  --iterations 4 --precision 128 --match "$out" >/dev/null
"$bin" client --port "$port" metrics | grep -q '^fpgrind_http_requests_total'

kill -TERM "$srv_pid"
wait "$srv_pid"   # exits nonzero (and fails CI) unless the drain is clean
grep -q 'drained, store flushed' "$srv_log"
"$bin" validate "$srv_store"

# External-corpus ingestion smoke: the committed fixture corpus (good
# cores + malformed/truncated/duplicate artifacts) must analyze under
# the tiered engine with structured failed rows — exit 0, no crashes.
# (validate is NOT run on this store: failed ingest records are the
# point, and validate treats any failed row as nonzero.)
ing_out="$(mktemp /tmp/fpgrind-ci-ingest.XXXXXX.jsonl)"
ing_txt="$(mktemp /tmp/fpgrind-ci-ingest.XXXXXX.txt)"
trap 'rm -f "$out" "$san_bad" "$san_ok" "$srv_log" "$srv_store" "$ing_out" "$ing_txt"' EXIT
"$bin" suite --dir test/corpus-ext --engine tiered \
  --iterations 2 --timeout 60 --json "$ing_out" --no-cache >"$ing_txt"
grep -q 'ext-sqrt-diff' "$ing_txt"
grep -q 'ingest' "$ing_txt"   # the malformed artifacts surfaced as failed rows

# Regime smoke: the official swept configuration must branch the
# quadratic formula into >= 2 regimes with a strictly lower resampled
# mean error, and must decline to branch the already-accurate thin-lens
# bench (no thresholds, original kept). Both must be sound on resample
# (a regime run exits 1 on an unsound fix).
reg_multi="$(mktemp /tmp/fpgrind-ci-regime.XXXXXX.json)"
reg_single="$(mktemp /tmp/fpgrind-ci-regime1.XXXXXX.json)"
trap 'rm -f "$out" "$san_bad" "$san_ok" "$srv_log" "$srv_store" "$ing_out" "$ing_txt" "$reg_multi" "$reg_single"' EXIT
"$bin" improve bench:quadratic-full --regimes \
  --points 96 --depth 4 --penalty 0.05 --json "$reg_multi" >/dev/null
jq -e '(.regimes >= 2) and (.selected == "branched")
       and (.act_branched_bits < .act_before_bits)
       and (.thresholds | length >= 1) and .sound' "$reg_multi" >/dev/null \
  || { echo "ci: quadratic-full did not branch into sound regimes"; cat "$reg_multi"; exit 1; }
"$bin" improve bench:thin-lens --regimes \
  --points 96 --depth 4 --penalty 0.05 --json "$reg_single" >/dev/null
jq -e '(.regimes == 1) and (.thresholds | length == 0) and .sound' \
  "$reg_single" >/dev/null \
  || { echo "ci: thin-lens emitted a spurious branch"; cat "$reg_single"; exit 1; }
# the server path annotates records and exports the regime counters
"$bin" serve --port 0 --jobs 1 --queue 8 >"$srv_log" 2>&1 &
reg_srv_pid=$!
for _ in $(seq 50); do
  reg_port="$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$srv_log" | head -1)"
  [ -n "$reg_port" ] && break
  sleep 0.1
done
[ -n "$reg_port" ] || { echo "ci: regime server never came up"; cat "$srv_log"; exit 1; }
"$bin" client --port "$reg_port" analyze bench:quadratic-full \
  --iterations 2 --seed 42 --regimes \
  | jq -e '.regimes >= 2 and (.error_table | length > 0)' >/dev/null \
  || { echo "ci: /analyze?regimes=1 did not annotate the record"; exit 1; }
"$bin" client --port "$reg_port" metrics \
  | grep -q '^fpgrind_regimes_inferred_total [1-9]' \
  || { echo "ci: regime counters missing from /metrics"; exit 1; }
kill -TERM "$reg_srv_pid"
wait "$reg_srv_pid"

# Campaign smoke: a fixed-seed campaign covering the full 85-bench
# soundiness sweep interleaved with fuzz programs, SIGINT'd mid-run
# (exit 3, checkpointed), resumed to completion, and the merged
# findings feed must be byte-identical to an uninterrupted run of the
# same seed. Then a server configured with the feed serves it at
# GET /findings and exports the campaign gauges.
camp_dir="$(mktemp -d /tmp/fpgrind-ci-camp.XXXXXX)"
trap 'rm -f "$out" "$san_bad" "$san_ok" "$srv_log" "$srv_store" "$ing_out" "$ing_txt"; rm -rf "$camp_dir"' EXIT
camp_flags=(--seed 42 --iters 170 --soundiness-every 2 --regimes-every 3 --checkpoint-every 10 --quiet)

"$bin" campaign "${camp_flags[@]}" \
  --state "$camp_dir/ref.state.json" --findings "$camp_dir/ref.jsonl"
[ -s "$camp_dir/ref.jsonl" ] || { echo "ci: campaign found nothing at seed 42"; exit 1; }

"$bin" campaign "${camp_flags[@]}" \
  --state "$camp_dir/int.state.json" --findings "$camp_dir/int.jsonl" &
camp_pid=$!
sleep 1
kill -INT "$camp_pid"
camp_rc=0; wait "$camp_pid" || camp_rc=$?
if [ "$camp_rc" -ne 3 ]; then
  echo "ci: interrupted campaign exited $camp_rc, expected 3 (did it finish early?)"
  exit 1
fi
"$bin" campaign "${camp_flags[@]}" \
  --state "$camp_dir/int.state.json" --findings "$camp_dir/int.jsonl"
cmp "$camp_dir/ref.jsonl" "$camp_dir/int.jsonl"

srv_log2="$camp_dir/serve.log"
"$bin" serve --port 0 --jobs 1 --queue 8 --findings "$camp_dir/ref.jsonl" \
  >"$srv_log2" 2>&1 &
srv2_pid=$!
for _ in $(seq 50); do
  port2="$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$srv_log2" | head -1)"
  [ -n "$port2" ] && break
  sleep 0.1
done
[ -n "$port2" ] || { echo "ci: findings server never came up"; cat "$srv_log2"; exit 1; }
"$bin" client --port "$port2" findings >"$camp_dir/feed.jsonl"
cmp "$camp_dir/ref.jsonl" "$camp_dir/feed.jsonl"
# external corpus round-trips through POST /analyze too
"$bin" client --port "$port2" analyze test/corpus-ext/noname.fpcore \
  --iterations 2 >/dev/null
"$bin" client --port "$port2" metrics >"$camp_dir/metrics.txt"
grep -q '^fpgrind_campaign_findings_total [1-9]' "$camp_dir/metrics.txt"
grep -q '^fpgrind_store_torn_records_total' "$camp_dir/metrics.txt"
kill -TERM "$srv2_pid"
wait "$srv2_pid"

# Shard + loadgen smoke: a 2-shard pre-forked server on an ephemeral
# port takes a short seeded open-loop burst with zero 5xx (503
# backpressure is allowed — that's the latency promise, not a failure),
# survives a SIGKILL of one worker (the parent respawns it and the next
# request succeeds), then drains on SIGTERM leaving a validate-clean
# store (the advisory-locked shared cache file).
shard_dir="$(mktemp -d /tmp/fpgrind-ci-shard.XXXXXX)"
trap 'rm -f "$out" "$san_bad" "$san_ok" "$srv_log" "$srv_store" "$ing_out" "$ing_txt"; rm -rf "$camp_dir" "$shard_dir"' EXIT
shard_log="$shard_dir/serve.log"
shard_store="$shard_dir/store.jsonl"

"$bin" serve --shards 2 --port 0 --jobs 1 --queue 16 \
  --store "$shard_store" --quiet >"$shard_log" 2>&1 &
shard_pid=$!
for _ in $(seq 50); do
  shard_port="$(sed -n 's/.*127\.0\.0\.1:\([0-9]*\).*/\1/p' "$shard_log" | head -1)"
  [ -n "$shard_port" ] && break
  sleep 0.1
done
[ -n "$shard_port" ] || { echo "ci: shard server never came up"; cat "$shard_log"; exit 1; }

# seeded open-loop burst: loadgen itself exits nonzero on any 5xx or
# transport error; the jq assert pins the contract in the report too
"$bin" loadgen --url "http://127.0.0.1:$shard_port" \
  --rate 25 --duration 2 --seed 7 --conns 3 --iterations 4 \
  --json "$shard_dir/burst.json"
jq -e '(.errors_5xx == 0) and (.conn_errors == 0)
       and (.ok + .throttled_503 == .requests)' "$shard_dir/burst.json" >/dev/null \
  || { echo "ci: loadgen burst saw server failures"; cat "$shard_dir/burst.json"; exit 1; }

# kill one worker outright: at most that shard's in-flight work is
# lost, the parent respawns it, and the service keeps answering
victim="$(pgrep -P "$shard_pid" | head -1)"
[ -n "$victim" ] || { echo "ci: no shard worker to kill"; exit 1; }
kill -KILL "$victim"
sleep 0.5
"$bin" client --port "$shard_port" analyze bench:intro-example \
  --iterations 4 --precision 128 >/dev/null \
  || { echo "ci: request after shard kill failed"; exit 1; }
grep -q '"restarts": [1-9]' "$shard_store.status.json" \
  || { echo "ci: shard kill not recorded in the status file"; exit 1; }
"$bin" client --port "$shard_port" metrics \
  | grep -q '^fpgrind_shard_restarts_total [1-9]' \
  || { echo "ci: shard restart not visible on /metrics"; exit 1; }

# rolling drain: SIGTERM the parent, wait, assert the drain line and a
# validate-clean store
kill -TERM "$shard_pid"
wait "$shard_pid"
grep -q 'drained, store flushed' "$shard_log"
"$bin" validate "$shard_store"

echo "ci: ok"
