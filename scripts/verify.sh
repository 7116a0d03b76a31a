#!/usr/bin/env bash
# Tier-1 verification, fully offline (see README "Building and testing").
#
#   scripts/verify.sh
#
# 1. guards the offline-only dependency policy (every [dependencies] /
#    [dev-dependencies] entry in every Cargo.toml must be a workspace
#    path dependency — nothing may come from a registry),
# 2. builds and tests the whole workspace with --offline,
# 3. lints the whole workspace with clippy, warnings denied,
# 4. regenerates the seven paper artifacts (Tables 2.1, 5.1, 5.2 and
#    Figs. 2.4, 5.3, 5.4, 5.5) and fails unless each one matches its
#    results/ copy byte for byte,
# 5. (folded into 9: the scale bench's exponents must name every pipeline
#    pass; tests/pipeline.rs pins the pass order),
# 6. runs the mutation campaign (results/BENCH_mutation.json) and gates on
#    a 100% kill rate — every injected fault must be caught by an oracle,
# 7. runs the hostile-input crash campaign (results/BENCH_hostile.json)
#    and gates on zero escaped panics,
# 8. checks the panic-free guard rails: the lint deny attributes on the
#    core passes and the Verilog reader, and the Degradation schema in
#    the golden degraded-flow artifacts, plus the interned-name guard
#    rail (no String-keyed maps inside core/sta/sim pass modules, no
#    per-pin maps in sta, no symbol-table clones inside core/sta, and no
#    SymbolTable anywhere in core, which names cells through its Module),
# 9. runs the parallel scaling bench (results/BENCH_scale.json), which
#    itself fails when a pass grows faster than cells^1.2, checks its
#    schema and that its exponents name all nine pipeline passes, gates
#    on >= 3x flow speedup where there are >= 4 cores
#    (reported, not gated, on narrower hosts), and re-runs the
#    determinism suite under DRD_WORKERS=3 to cross-check that worker
#    count never leaks into artifacts,
# 10. runs the handshake-level variability Monte Carlo
#    (results/BENCH_variability.json), checks its schema, gates on >= 3x
#    Monte-Carlo speedup where there are >= 4 cores, and re-runs the
#    simulator determinism suite and the bit-level handshake golden
#    (tests/golden/handshake_mc.txt) under DRD_WORKERS=3,
# 11. regenerates the kernel micro-benchmarks (results/BENCH_kernels.json)
#    and bounds the Verilog front end's parse and write time on the full
#    DLX by a multiple of a reference task timed in the same iterations,
#    then re-runs the suites that pin its behaviour: the recorded
#    verdicts of the parser it replaced, the hostile-corpus replay and
#    the diagnostics,
# 12. runs the liveness-guard campaign (results/BENCH_liveness.json):
#    fuzzed imbalanced open-chain designs through the flow, gated on
#    zero undiagnosed deadlocks (every shipped design re-verified by the
#    structural liveness oracle and the handshake simulation), then
#    re-runs the liveness suites that pin the guard's behaviour,
# 13. runs the serve-mode throughput campaign (results/BENCH_serve.json):
#    a fuzzed corpus through the concurrent job server at 1/8/64
#    clients, cold and warm cache, gated on zero failed or wedged jobs,
#    on every cache-hit artifact being byte-identical to its cold-path
#    original, and on the warm-cache p50 latency sitting >= 10x below
#    the cold-path p50; then re-runs the serve-vs-CLI differential
#    oracle that pins the server's artifacts to the one-shot flow,
# 14. type-checks the end-to-end benchmark (e2ebench/, its own workspace
#    building against the workspace crates by path) with its tests, on a
#    temporary copy next to symlinks to the root Cargo.toml, src/ and
#    crates/: its Cargo.lock is stale, so a build in place would rewrite
#    a file that must stay as committed.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== dependency guard: no registry dependencies allowed =="
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
  # Inside dependency sections, every entry must be `foo.workspace = true`
  # or `foo = { path = ... }` / `{ workspace = true ... }`. Any version
  # requirement string (`foo = "1"` or `version = "..."`) is a registry
  # dependency trying to sneak back in.
  if awk '
    /^\[/ { in_dep = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/) }
    in_dep && /=/ && !/^[[:space:]]*#/ {
      line = $0
      if (line ~ /"[^"]*"/ && line !~ /path[[:space:]]*=/ && line !~ /workspace[[:space:]]*=[[:space:]]*true/) {
        print FILENAME ": " line
        found = 1
      }
    }
    END { exit found }
  ' "$manifest"; then :; else
    bad=1
  fi
done
if [ "$bad" -ne 0 ]; then
  echo "error: non-path dependency found — this workspace must build offline" >&2
  exit 1
fi
echo "ok: all dependencies are in-tree path dependencies"

echo "== cargo build --release (offline) =="
cargo build --release --offline

echo "== cargo test -q (offline, whole workspace) =="
cargo test -q --workspace --offline

echo "== cargo clippy (offline, warnings denied) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== paper artifacts regenerate byte-identically (offline) =="
# Every artifact is deterministic (per-pass wall times live in --trace
# and results/BENCH_scale.json instead), so a stale results/ copy fails.
fresh=$(mktemp -d)
trap 'rm -rf "$fresh"' EXIT
for bin in table_2_1 fig_2_4 table_5_1 table_5_2 fig_5_3 fig_5_4 fig_5_5; do
  cargo run --release --offline -q -p drd-bench --bin "$bin" > "$fresh/$bin.txt"
  if ! diff -u "results/$bin.txt" "$fresh/$bin.txt"; then
    echo "error: results/$bin.txt is stale; regenerate it with" \
         "cargo run --release -p drd-bench --bin $bin > results/$bin.txt" >&2
    exit 1
  fi
done
echo "ok: all seven paper artifacts match results/"

echo "== mutation score gate (offline) =="
cargo run --release --offline -p drd-bench --bin mutation
mut_json=results/BENCH_mutation.json
if [ ! -s "$mut_json" ]; then
  echo "error: $mut_json missing or empty" >&2
  exit 1
fi
# Schema: every field the gate and the experiment log rely on.
for field in '"name": "mutation"' '"kinds"' '"seeds_per_kind"' '"mutants"' \
             '"killed"' '"kill_rate"' '"workers"' '"coverage_buckets"' \
             '"parallel"' '"single_thread"' '"mutants_per_s"' \
             '"speedup_estimate"' '"results"'; do
  if ! grep -q "$field" "$mut_json"; then
    echo "error: $mut_json misses field $field" >&2
    exit 1
  fi
done
open_braces=$(grep -o '{' "$mut_json" | wc -l)
close_braces=$(grep -o '}' "$mut_json" | wc -l)
if [ "$open_braces" -ne "$close_braces" ]; then
  echo "error: $mut_json is not well-formed (unbalanced braces)" >&2
  exit 1
fi
mutants=$(sed -n 's/^[[:space:]]*"mutants": \([0-9]*\),.*/\1/p' "$mut_json")
killed=$(sed -n 's/^[[:space:]]*"killed": \([0-9]*\),.*/\1/p' "$mut_json")
if [ -z "$mutants" ] || [ "$mutants" -eq 0 ] || [ "$mutants" != "$killed" ]; then
  echo "error: mutation score below 100% ($killed/$mutants killed) — oracle gap" >&2
  exit 1
fi
echo "ok: $killed/$mutants mutants killed (100%)"
# The work-stealing runner must pay off where there are cores to steal
# from; on narrow hosts (CI containers, laptops on battery) only report.
cores=$(nproc 2>/dev/null || echo 1)
speedup=$(sed -n 's/^[[:space:]]*"speedup_estimate": \([0-9.]*\),.*/\1/p' "$mut_json")
if [ "$cores" -ge 4 ]; then
  if ! awk -v s="$speedup" 'BEGIN { exit !(s >= 2.0) }'; then
    echo "error: parallel runner speedup $speedup < 2.0x on a $cores-core host" >&2
    exit 1
  fi
  echo "ok: parallel speedup ${speedup}x on $cores cores"
else
  echo "note: $cores core(s) — speedup ${speedup}x reported, not gated"
fi

echo "== hostile-input crash campaign gate (offline) =="
cargo run --release --offline -p drd-bench --bin hostile
host_json=results/BENCH_hostile.json
if [ ! -s "$host_json" ]; then
  echo "error: $host_json missing or empty" >&2
  exit 1
fi
for field in '"name": "hostile"' '"inputs"' '"rejected"' '"flow_errors"' \
             '"completed"' '"panics"' '"workers"'; do
  if ! grep -q "$field" "$host_json"; then
    echo "error: $host_json misses field $field" >&2
    exit 1
  fi
done
if ! grep -q '"panics": 0' "$host_json"; then
  echo "error: hostile campaign let a panic escape the structured-error boundary:" >&2
  grep '"panics"\|"first_panic' "$host_json" >&2
  exit 1
fi
echo "ok: $(sed -n 's/^[[:space:]]*"inputs": \([0-9]*\),.*/\1/p' "$host_json") hostile inputs, zero escaped panics"

echo "== panic-free guard rails =="
# The core passes and the Verilog reader are the panic-free boundary;
# the deny attributes must stay on their module declarations.
for decl in controller desync ffsub region; do
  if ! grep -B2 "mod $decl;" crates/core/src/lib.rs | grep -q 'deny(clippy::unwrap_used, clippy::panic)'; then
    echo "error: crates/core/src/lib.rs lost the deny attribute on \`mod $decl\`" >&2
    exit 1
  fi
done
for decl in lexer parser; do
  if ! grep -B3 "mod $decl;" crates/netlist/src/verilog/mod.rs | grep -q 'deny(clippy::unwrap_used, clippy::panic)'; then
    echo "error: crates/netlist/src/verilog/mod.rs lost the deny attribute on \`mod $decl\`" >&2
    exit 1
  fi
done
# The golden degraded-flow artifacts must keep the structured
# Degradation schema (region + reason + cells) that tools consume.
deg_trace=tests/golden/mixed_degraded_flow_trace.json
deg_report=tests/golden/mixed_degraded_report.txt
for f in "$deg_trace" "$deg_report"; do
  if [ ! -s "$f" ]; then
    echo "error: golden degraded artifact $f missing or empty" >&2
    exit 1
  fi
done
for field in '"degradations"' '"region"' '"reason"' '"cells"'; do
  if ! grep -q "$field" "$deg_trace"; then
    echo "error: $deg_trace misses Degradation field $field" >&2
    exit 1
  fi
done
if ! grep -q '^degradations (1):' "$deg_report"; then
  echo "error: $deg_report does not list exactly one degradation section" >&2
  exit 1
fi
if ! grep -q 'left synchronous' "$deg_report"; then
  echo "error: $deg_report misses the degradation rationale line" >&2
  exit 1
fi
echo "ok: deny attributes and Degradation schema in place"

echo "== interned-name guard rail =="
# Pass modules in core/sta/sim must key their maps on Symbol/NetId/CellId,
# never on owned String names — names cross the API only at the
# parse/write/report boundaries.
string_maps=$(grep -rn 'HashMap<String' crates/core/src crates/sta/src crates/sim/src || true)
if [ -n "$string_maps" ]; then
  echo "error: String-keyed map in a pass module (use Symbol/NetId/CellId):" >&2
  echo "$string_maps" >&2
  exit 1
fi
echo "ok: no String-keyed maps outside the name boundary"
# The timing graph numbers a cell's pins from a per-cell base node, so a
# pin's node is an array read; a per-pin hash map keyed on the cell must
# not come back.
pin_maps=$(grep -rn 'HashMap<(CellId' crates/sta/src || true)
if [ -n "$pin_maps" ]; then
  echo "error: per-pin map in the timing graph (use the per-cell base node):" >&2
  echo "$pin_maps" >&2
  exit 1
fi
echo "ok: no per-pin maps in sta"
# Cloning a module's symbol table copies every name slot, so a clone per
# flip-flop, region or net makes a pass quadratic. core and sta resolve
# names through the Module instead; the simulator's one clone per
# elaboration (crates/sim) is outside this rail.
table_clones=$(grep -rn 'symbols()\.clone()' crates/core/src crates/sta/src || true)
if [ -n "$table_clones" ]; then
  echo "error: symbol-table clone in a core/sta module (resolve through the Module):" >&2
  echo "$table_clones" >&2
  exit 1
fi
echo "ok: no symbol-table clones in core/sta"
# core resolves every name through its Module: region membership is
# CellId with one dense index, so a second interner must not come back.
core_tables=$(grep -rn 'SymbolTable' crates/core/src || true)
if [ -n "$core_tables" ]; then
  echo "error: SymbolTable in crates/core (resolve names through the Module):" >&2
  echo "$core_tables" >&2
  exit 1
fi
echo "ok: no SymbolTable in core"

echo "== parallel scaling bench gate (offline) =="
# The binary itself exits non-zero if region lookup is no longer O(1),
# if serial and parallel artifacts diverge at any step, or if a pass
# taking >= 1 ms on the largest step grows faster than cells^1.2.
cargo run --release --offline -p drd-bench --bin scale
scale_json=results/BENCH_scale.json
if [ ! -s "$scale_json" ]; then
  echo "error: $scale_json missing or empty" >&2
  exit 1
fi
for field in '"name": "scale"' '"workers"' '"speedup"' '"lookup_ratio"' \
             '"exponents"' '"points"' '"serial_ns"' '"parallel_ns"' '"pass_ns"'; do
  if ! grep -q "$field" "$scale_json"; then
    echo "error: $scale_json misses field $field" >&2
    exit 1
  fi
done
open_braces=$(grep -o '{' "$scale_json" | wc -l)
close_braces=$(grep -o '}' "$scale_json" | wc -l)
if [ "$open_braces" -ne "$close_braces" ]; then
  echo "error: $scale_json is not well-formed (unbalanced braces)" >&2
  exit 1
fi
# Per-pass timings live here: the exponents must name every pass of the
# standard pipeline.
exponents=$(grep '"exponents"' "$scale_json")
for pass in clean clock-id group ddg region-delays ffsub control-network liveness sdc; do
  if ! grep -q "\"$pass\": " <<< "$exponents"; then
    echo "error: $scale_json exponents do not name pass \`$pass\`" >&2
    exit 1
  fi
done
echo "ok: $scale_json exponents name all nine passes"
# The region fan-out must pay off where there are cores to run on; on
# narrow hosts (CI containers, laptops on battery) only report.
cores=$(nproc 2>/dev/null || echo 1)
scale_speedup=$(sed -n 's/^[[:space:]]*"speedup": \([0-9.]*\),.*/\1/p' "$scale_json")
if [ "$cores" -ge 4 ]; then
  if ! awk -v s="$scale_speedup" 'BEGIN { exit !(s >= 3.0) }'; then
    echo "error: flow speedup $scale_speedup < 3.0x on a $cores-core host" >&2
    exit 1
  fi
  echo "ok: flow speedup ${scale_speedup}x on $cores cores"
else
  echo "note: $cores core(s) — flow speedup ${scale_speedup}x reported, not gated"
fi

echo "== determinism cross-check under DRD_WORKERS=3 (offline) =="
DRD_WORKERS=3 cargo test -q --offline --test determinism
echo "ok: artifacts byte-identical with an odd ambient worker count"

echo "== handshake variability Monte Carlo gate (offline) =="
# The binary itself exits non-zero when zero-sigma campaigns are not
# bitwise nominal, when worker splits diverge, when the sync-vs-desync
# variability crossover is lost, or (on >= 4 cores) when the parallel
# Monte Carlo speedup falls under 3x.
cargo run --release --offline -p drd-bench --bin variability
var_json=results/BENCH_variability.json
if [ ! -s "$var_json" ]; then
  echo "error: $var_json missing or empty" >&2
  exit 1
fi
for field in '"name": "variability"' '"chips"' '"workers"' '"host_cores"' \
             '"sigma_grid"' '"speedup"' '"byte_identical": true' '"designs"' \
             '"taps"' '"curve"' '"histogram"' '"desync_mean_norm"' \
             '"sync_worst_norm"' '"fraction_faster"'; do
  if ! grep -q "$field" "$var_json"; then
    echo "error: $var_json misses field $field" >&2
    exit 1
  fi
done
open_braces=$(grep -o '{' "$var_json" | wc -l)
close_braces=$(grep -o '}' "$var_json" | wc -l)
if [ "$open_braces" -ne "$close_braces" ]; then
  echo "error: $var_json is not well-formed (unbalanced braces)" >&2
  exit 1
fi
chips=$(sed -n 's/^[[:space:]]*"chips": \([0-9]*\),.*/\1/p' "$var_json")
if [ -z "$chips" ] || [ "$chips" -lt 1000 ]; then
  echo "error: variability campaign ran $chips chips (< 1000 seeds)" >&2
  exit 1
fi
cores=$(nproc 2>/dev/null || echo 1)
mc_speedup=$(sed -n 's/^[[:space:]]*"speedup": \([0-9.]*\),.*/\1/p' "$var_json")
if [ "$cores" -ge 4 ]; then
  if ! awk -v s="$mc_speedup" 'BEGIN { exit !(s >= 3.0) }'; then
    echo "error: Monte-Carlo speedup $mc_speedup < 3.0x on a $cores-core host" >&2
    exit 1
  fi
  echo "ok: Monte-Carlo speedup ${mc_speedup}x on $cores cores"
else
  echo "note: $cores core(s) — Monte-Carlo speedup ${mc_speedup}x reported, not gated"
fi
DRD_WORKERS=3 cargo test -q --offline --test determinism mc_
DRD_WORKERS=3 cargo test -q --offline --test handshake_mc
echo "ok: $chips-chip campaign byte-identical, simulator determinism and handshake golden hold at DRD_WORKERS=3"

echo "== streaming Verilog front-end gate (offline) =="
cargo bench --offline -p drd-bench
kern_json=results/BENCH_kernels.json
if [ ! -s "$kern_json" ]; then
  echo "error: $kern_json missing or empty" >&2
  exit 1
fi
# Parse and write of the full DLX run interleaved with a fixed reference
# task (sort-and-hash plus random reads, bench code only) in 3 rounds
# of 100 iterations. Each "ratios" entry holds a kernel's lowest per-round
# ratio of fastest iterations: a host slow phase inflates only the rounds
# it overlaps, while a slower front end shows in every round. Calibrated
# on a 2-vCPU host (CHANGES.md): unchanged code read parse 2.32-2.56 and
# write 1.02-1.14 over 20 runs; a deliberate 25 % parse slowdown read
# parse 2.85-3.37 and failed all 20.
parse_bound=2.65
write_bound=1.30
ratio_of() {
  sed -n 's/.*"label": "'"$1"'", "reference": "[^"]*", "rounds": [0-9]*, "min": \([0-9.]*\),.*/\1/p' "$kern_json"
}
parse_ratio=$(ratio_of verilog_parse_dlx_full)
write_ratio=$(ratio_of verilog_write_dlx_full)
if [ -z "$parse_ratio" ] || [ -z "$write_ratio" ]; then
  echo "error: $kern_json misses the verilog_{parse,write}_dlx_full ratios" >&2
  exit 1
fi
if ! awk -v r="$parse_ratio" -v b="$parse_bound" 'BEGIN { exit !(r <= b) }'; then
  echo "error: parse/reference ratio $parse_ratio > $parse_bound" >&2
  exit 1
fi
if ! awk -v r="$write_ratio" -v b="$write_bound" 'BEGIN { exit !(r <= b) }'; then
  echo "error: write/reference ratio $write_ratio > $write_bound" >&2
  exit 1
fi
echo "ok: parse/reference ${parse_ratio} (<= $parse_bound), write/reference ${write_ratio} (<= $write_bound)"
# The behavioural pins: the streaming parser against the recorded
# verdicts of the parser it replaced, the distilled hostile-regression
# corpus, and the exact error-span diagnostics.
cargo test -q --offline --test differential_frontend --test corpus_replay
cargo test -q --offline -p drd-netlist --test diagnostics
echo "ok: recorded-verdict, corpus replay and diagnostics suites pass"

echo "== liveness-guard campaign gate (offline) =="
# The binary itself exits non-zero when any shipped design fails the
# structural liveness oracle or deadlocks in the handshake simulation —
# an undiagnosed wedge, the exact failure the guard exists to prevent.
cargo run --release --offline -p drd-bench --bin liveness
live_json=results/BENCH_liveness.json
if [ ! -s "$live_json" ]; then
  echo "error: $live_json missing or empty" >&2
  exit 1
fi
for field in '"name": "liveness"' '"designs"' '"completed"' \
             '"hazardous_designs"' '"repaired_deepen"' '"repaired_latch"' \
             '"degraded"' '"diagnosed_errors"' '"undiagnosed_deadlocks"' \
             '"guard_wall_ns"' '"flow_wall_ns"' '"guard_fraction"'; do
  if ! grep -q "$field" "$live_json"; then
    echo "error: $live_json misses field $field" >&2
    exit 1
  fi
done
if ! grep -q '"undiagnosed_deadlocks": 0' "$live_json"; then
  echo "error: a design shipped wedged without a diagnosis:" >&2
  grep '"undiagnosed_deadlocks"' "$live_json" >&2
  exit 1
fi
hazardous=$(sed -n 's/^[[:space:]]*"hazardous_designs": \([0-9]*\),.*/\1/p' "$live_json")
if [ -z "$hazardous" ] || [ "$hazardous" -lt 1 ]; then
  echo "error: campaign found $hazardous hazardous designs — generator lost the hazard" >&2
  exit 1
fi
# The behavioural pins for the guard: the repaired classic stall, the
# fuzzed repaired-or-diagnosed property, and the structural oracle's
# own unit suite.
cargo test -q --offline -p drd-check --test handshake_stall --test liveness_props
cargo test -q --offline -p drd-check --lib liveness
echo "ok: $hazardous hazardous design(s) repaired, zero undiagnosed deadlocks"

echo "== serve-mode throughput campaign gate (offline) =="
# The binary itself exits non-zero when any job fails or wedges, or when
# a warm-cache artifact diverges byte-wise from its cold-path original.
cargo run --release --offline -p drd-bench --bin serve
serve_json=results/BENCH_serve.json
if [ ! -s "$serve_json" ]; then
  echo "error: $serve_json missing or empty" >&2
  exit 1
fi
for field in '"name": "serve"' '"jobs"' '"tokens"' '"failed_jobs"' \
             '"identity_mismatches"' '"runs"' '"clients"' '"cache"' \
             '"jobs_per_sec"' '"p50_us"' '"p99_us"'; do
  if ! grep -q "$field" "$serve_json"; then
    echo "error: $serve_json misses field $field" >&2
    exit 1
  fi
done
open_braces=$(grep -o '{' "$serve_json" | wc -l)
close_braces=$(grep -o '}' "$serve_json" | wc -l)
if [ "$open_braces" -ne "$close_braces" ]; then
  echo "error: $serve_json is not well-formed (unbalanced braces)" >&2
  exit 1
fi
if ! grep -q '"failed_jobs": 0' "$serve_json"; then
  echo "error: serve campaign had failed or wedged jobs:" >&2
  grep '"failed_jobs"' "$serve_json" >&2
  exit 1
fi
if ! grep -q '"identity_mismatches": 0' "$serve_json"; then
  echo "error: a cache-hit response diverged from its cold-path artifacts:" >&2
  grep '"identity_mismatches"' "$serve_json" >&2
  exit 1
fi
for c in 1 8 64; do
  if ! grep -q "\"clients\": $c, \"cache\": \"cold\"" "$serve_json" ||
     ! grep -q "\"clients\": $c, \"cache\": \"warm\"" "$serve_json"; then
    echo "error: $serve_json misses the $c-client cold/warm rows" >&2
    exit 1
  fi
done
# The flow cache must actually pay: a warm hit replays stored bytes, so
# its p50 latency has to sit at least 10x below the cold-path p50. Gated
# on the 1-client rows — the least scheduler-noisy configuration.
cold_p50=$(sed -n 's/.*"clients": 1, "cache": "cold".*"p50_us": \([0-9.]*\),.*/\1/p' "$serve_json")
warm_p50=$(sed -n 's/.*"clients": 1, "cache": "warm".*"p50_us": \([0-9.]*\),.*/\1/p' "$serve_json")
if [ -z "$cold_p50" ] || [ -z "$warm_p50" ]; then
  echo "error: $serve_json misses the 1-client p50 latencies" >&2
  exit 1
fi
if ! awk -v c="$cold_p50" -v w="$warm_p50" 'BEGIN { exit !(w * 10.0 <= c) }'; then
  echo "error: warm-cache p50 ${warm_p50} us not 10x below cold p50 ${cold_p50} us" >&2
  exit 1
fi
echo "ok: warm p50 ${warm_p50} us vs cold p50 ${cold_p50} us (>= 10x)"
# The behavioural pin for the server: every artifact byte-identical to
# the one-shot CLI across 1/8 in-flight jobs, cold and warm cache, plus
# the serve protocol suites.
cargo test -q --offline --test serve_differential --test cli
cargo test -q --offline -p drd-serve
echo "ok: serve-vs-CLI differential and serve protocol suites pass"

echo "== e2ebench type-checks against the workspace API (offline) =="
e2e_tmp=$(mktemp -d)
trap 'rm -rf "$fresh" "$e2e_tmp"' EXIT
cp -r e2ebench "$e2e_tmp/e2ebench"
for link in Cargo.toml src crates; do
  ln -s "$PWD/$link" "$e2e_tmp/$link"
done
CARGO_TARGET_DIR="$PWD/target/e2ebench-check" \
  cargo check --offline --tests --quiet --manifest-path "$e2e_tmp/e2ebench/Cargo.toml"
echo "ok: e2ebench and its tests type-check"

echo "verify: OK"
