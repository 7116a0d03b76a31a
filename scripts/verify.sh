#!/usr/bin/env bash
# Tier-1 verification, fully offline (see README "Building and testing").
#
#   scripts/verify.sh
#
# The script only orchestrates: every threshold lives in the test or
# binary that computes the number, and nothing here reads a report.
#
# 1. guards the offline-only dependency policy (every [dependencies] /
#    [dev-dependencies] entry in every Cargo.toml must be a workspace
#    path dependency — nothing may come from a registry),
# 2. builds and tests the whole workspace with --offline, then re-runs
#    the determinism suite and the bit-level handshake golden under
#    DRD_WORKERS=3: the Monte Carlo must merge byte-identically on a
#    worker count of the environment's choosing, and `jobs` must never
#    reach a flow artifact (the workspace tests include
#    crates/bench/tests/reports.rs, which parses every committed bench
#    report and checks its fields),
# 3. checks that the workspace is rustfmt-clean (`cargo fmt --all --
#    --check`; e2ebench/ is a workspace of its own and is not checked),
#    lints it with clippy, warnings denied, then builds the workspace's
#    API docs with rustdoc warnings denied, so a doc link to a renamed or
#    deleted item (or to a private one) fails,
# 4. regenerates the seven paper artifacts (Tables 2.1, 5.1, 5.2 and
#    Figs. 2.4, 5.3, 5.4, 5.5) and fails unless each one matches its
#    results/ copy byte for byte,
# 5. checks the source guard rails: the panic-free lint deny attributes
#    on the core passes (the control network and the liveness guard
#    included) and the Verilog reader, and the interned-name rails (no
#    String-keyed maps inside core/sta/sim pass modules, no per-pin maps
#    in sta, no symbol-table clones inside core/sta, no SymbolTable
#    anywhere in core, which names cells through its Module, no
#    name-prefix scan in core outside tests: the control network's cells
#    are reached by ID, and no generated name rebuilt with
#    `format!("drd_…")` outside tests in check or flow, which read the
#    flow's output through the IDs in DesyncResult), and the library-facts
#    rail (no per-run `level_delay_ns(`, `ResponseModel::probe(`,
#    `mux_overhead_levels(` or `handshake_spec(` outside tests in the
#    pipeline, control-network and liveness modules and the CLI, which
#    read LibraryFacts), the serial-flow rail (no `thread::spawn`,
#    `thread::scope` or `run_indexed` outside tests in crates/core/src
#    or crates/netlist/src: the flow and the parser run on one thread),
#    and the one-snapshot rail (no `.connectivity(` outside tests in
#    crates/core/src but in pipeline.rs, whose FlowContext builds the
#    one snapshot the passes share, and no `format!(` outside tests in
#    ffsub.rs, which composes every name in one reused buffer),
# 6. runs the verification campaigns (mutation, scale, variability,
#    liveness, serve) and then the kernel micro-benchmarks (cargo bench);
#    each writes its report under results/ and exits non-zero naming
#    every gate that failed (the drd-bench crate doc lists the gates),
# 7. type-checks the end-to-end benchmark (e2ebench/, its own workspace
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
DRD_WORKERS=3 cargo test -q --offline --test determinism --test handshake_mc
echo "ok: Monte Carlo and flow artifacts byte-identical at DRD_WORKERS=3"

echo "== cargo fmt --check (root workspace) =="
cargo fmt --all -- --check
echo "ok: the workspace is rustfmt-clean"

echo "== cargo clippy (offline, warnings denied) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc (offline, rustdoc warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --quiet
echo "ok: API docs build without warnings"

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

echo "== panic-free guard rails =="
# The core passes and the Verilog reader are the panic-free boundary;
# the deny attributes must stay on their module declarations.
for decl in controller desync ffsub liveness network region; do
  if ! grep -B1 "mod $decl;" crates/core/src/lib.rs | grep -q 'deny(clippy::unwrap_used, clippy::panic)'; then
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
echo "ok: deny attributes in place"

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
# control-network records the IDs of every cell it builds, so no pass
# finds a generated cell again by scanning names for a prefix. Test
# modules (from `#[cfg(test)]` to the end of a file) are exempt.
prefix_scans=$(awk '/^#\[cfg\(test\)\]/ { nextfile } /starts_with\(/ { print FILENAME ":" FNR ": " $0 }' crates/core/src/*.rs)
if [ -n "$prefix_scans" ]; then
  echo "error: name-prefix scan in crates/core (reach generated cells by ID):" >&2
  echo "$prefix_scans" >&2
  exit 1
fi
echo "ok: no name-prefix scans in core"
# The flow hands what it generated on by ID (the control table, and the
# enable nets and cells of flip-flop substitution, in DesyncResult), so
# the crates that read its output never rebuild a generated name. Test
# modules are exempt.
rebuilt_names=$(awk '/^#\[cfg\(test\)\]/ { nextfile } /format!\("drd_/ { print FILENAME ":" FNR ": " $0 }' crates/check/src/*.rs crates/flow/src/*.rs)
if [ -n "$rebuilt_names" ]; then
  echo "error: generated name rebuilt in check/flow (read the IDs in DesyncResult):" >&2
  echo "$rebuilt_names" >&2
  exit 1
fi
echo "ok: no generated names rebuilt in check/flow"
# The library facts (level delay, response model, mux overhead) are
# measured once per prepared gatefile and read through LibraryFacts, so
# no pass, and no CLI command, probes the library again on every run:
# the CLI projects its handshake spec with `handshake_spec_with`, on the
# facts its flow kept. Test modules are exempt.
probes=$(awk '/^#\[cfg\(test\)\]/ { nextfile } /level_delay_ns\(|ResponseModel::probe\(|mux_overhead_levels\(|handshake_spec\(/ { print FILENAME ":" FNR ": " $0 }' crates/core/src/pipeline.rs crates/core/src/network.rs crates/core/src/liveness.rs src/main.rs)
if [ -n "$probes" ]; then
  echo "error: per-run library probe in a pass (read LibraryFacts):" >&2
  echo "$probes" >&2
  exit 1
fi
echo "ok: passes read the library facts, no per-run probes"
# The flow and the Verilog front end run serially: their parallel share
# was ~1 % of pass time and a second worker made a one-shot run slower,
# so no thread may come back into either. Test modules are exempt.
threads=$(find crates/core/src crates/netlist/src -name '*.rs' -print0 | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } /thread::spawn|thread::scope|run_indexed/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$threads" ]; then
  echo "error: a thread in the flow or the parser (both run serially):" >&2
  echo "$threads" >&2
  exit 1
fi
echo "ok: the flow and the parser are single-threaded"
# The flow builds the working module's connectivity once and shares it:
# clean hands its last snapshot to FlowContext (pipeline.rs), and the
# passes read that, so no other core module builds its own. Flip-flop
# substitution composes every generated name in one reused buffer, so a
# flip-flop costs no allocation. Test modules are exempt.
snapshots=$(find crates/core/src -name '*.rs' ! -name pipeline.rs -print0 | xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } /\.connectivity\(/ { print FILENAME ":" FNR ": " $0 }'
  awk '/^#\[cfg\(test\)\]/ { nextfile } /format!\(/ { print FILENAME ":" FNR ": " $0 }' crates/core/src/ffsub.rs)
if [ -n "$snapshots" ]; then
  echo "error: a connectivity build outside pipeline.rs, or a format! in ffsub.rs (share the flow's snapshot; compose names in the substituter's buffer):" >&2
  echo "$snapshots" >&2
  exit 1
fi
echo "ok: one connectivity snapshot per flow, no per-flip-flop name formatting"

echo "== verification campaigns (offline) =="
for bin in mutation scale variability liveness serve; do
  echo "-- $bin"
  cargo run --release --offline -q -p drd-bench --bin "$bin"
done
cargo bench --offline -p drd-bench
echo "ok: every campaign gate holds"

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
