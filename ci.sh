#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite, and a
# Table 2 smoke run. Mirrors what a hosted pipeline would run; everything
# works offline (the compat/ crates stand in for crates.io).
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release"
cargo build --release --workspace

step "cargo test"
cargo test --workspace -q

step "benchmark crate builds against the library crates and passes its smoke test"
# benchmark/ is its own workspace, so the steps above never compile it;
# it calls the fault-sim engine API directly (benchmark/src/trace.rs).
cargo test --release --offline --manifest-path benchmark/Cargo.toml

step "cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

step "bibs-lint gate (paper datapaths + shipped circuits, deny warnings)"
cargo run --release -p bibs-lint --bin bibs-lint -- --deny warnings \
  c5a2m c3a2m c4a4m fig9 \
  circuits/fig4.ckt circuits/mac.ckt circuits/pipeline.ckt \
  > /tmp/bibs-lint-gate.txt
grep -q "0 deny" /tmp/bibs-lint-gate.txt

step "bibs-lint rejects the broken fixture"
if cargo run --release -p bibs-lint --bin bibs-lint -- \
  circuits/bad_unbuffered_io.ckt > /tmp/bibs-lint-bad.txt 2>&1; then
  echo "ci.sh: bad fixture unexpectedly passed the lint" >&2
  exit 1
fi
grep -q "B000" /tmp/bibs-lint-bad.txt

step "bibs-lint accepts .bench targets and rejects the broken one"
cargo run --release -p bibs-lint --bin bibs-lint -- --deny warnings \
  circuits/c5a2m.bench > /tmp/bibs-lint-bench.txt
grep -q "0 deny" /tmp/bibs-lint-bench.txt
if cargo run --release -p bibs-lint --bin bibs-lint -- \
  circuits/bad_double_drive.bench > /tmp/bibs-lint-bad-bench.txt 2>&1; then
  echo "ci.sh: broken .bench fixture unexpectedly passed the lint" >&2
  exit 1
fi
grep -q "B000" /tmp/bibs-lint-bad-bench.txt
grep -q "defined more than once" /tmp/bibs-lint-bad-bench.txt

step "bibs-lint semantic gate (paper datapaths: zero statically untestable faults)"
# The paper's premise is that the datapath kernels are fully functionally
# testable: the semantic passes may report warn/allow findings from the
# multipliers' tied-zero padding (B040/B041), but deny-level B042 — a
# statically untestable fault outside intentional structure — must never
# fire on them.
cargo run --release -p bibs-lint --bin bibs-lint -- --semantic \
  c5a2m c3a2m c4a4m > /tmp/bibs-lint-semantic.txt
if grep -q "B042" /tmp/bibs-lint-semantic.txt; then
  echo "ci.sh: B042 fired on a paper datapath" >&2
  exit 1
fi

step "bibs-lint semantic gate (redundant fixture trips B040+B043)"
if cargo run --release -p bibs-lint --bin bibs-lint -- --semantic --deny warnings \
  circuits/redundant_mux.ckt > /tmp/bibs-lint-redundant.txt 2>&1; then
  echo "ci.sh: redundant fixture unexpectedly linted clean" >&2
  exit 1
fi
grep -q "B040" /tmp/bibs-lint-redundant.txt
grep -q "B043" /tmp/bibs-lint-redundant.txt

step "table2 smoke run (width 3, small pattern budget)"
# Width 3 keeps each kernel tiny; the bin prints the engine stats line,
# which doubles as a check that the compiled fault simulator ran.
cargo run --release -p bibs-bench --bin table2 -- 3 | tee /tmp/bibs-table2-smoke.txt
grep -q "fault-sim engine:" /tmp/bibs-table2-smoke.txt
grep -q "Maximal delay" /tmp/bibs-table2-smoke.txt

step "compiled-vs-interpreted equivalence smoke (table2 c5a2m, full width)"
# The compiled EvalProgram engines and the reference interpreter must
# produce byte-identical detection-deterministic JSON on a full-width
# paper datapath — the end-to-end version of the equivalence contract
# the test suites pin on scaled circuits.
cargo run --release -p bibs-bench --bin table2 -- --only c5a2m --json \
  --engine compiled > /tmp/bibs-table2-compiled.json
cargo run --release -p bibs-bench --bin table2 -- --only c5a2m --json \
  --engine reference > /tmp/bibs-table2-reference.json
diff /tmp/bibs-table2-compiled.json /tmp/bibs-table2-reference.json
grep -q '"detection_indices"' /tmp/bibs-table2-compiled.json

step "telemetry perf-regression gate (perfdiff vs committed BENCH_table2.json)"
# perfdiff compares the span shape and every counter with hard equality,
# and walls within a wide band. gate_evals was last re-recorded when each
# stem propagation became a sweep of the stem's precomputed fanout cone,
# which evaluates every cone instruction up to its early stop instead of
# only those a difference reaches; every other counter stayed the same,
# and the walls are older. A mismatch means the default hot path does
# other work.
cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
  --telemetry /tmp/bibs-telemetry.json > /dev/null
cargo run --release -p bibs-bench --bin perfdiff -- \
  BENCH_table2.json /tmp/bibs-telemetry.json

step "retired faults, skipped blocks and shared stems: c5a2m's BIBS kernel stops sweeping the good machine once the prover retires its survivors, counts the rest of the plateau without pulling it, sweeps fewer stem cones than it checks faults, and stops cone sweeps early"
# The implication check proves the kernel's two survivors redundant 1,024
# patterns after its last detection. A prover that retired nothing would
# leave good_evals equal to blocks. Once no fault is live, the driver
# skips the source to the stop point and the engine counts the skipped
# blocks: every block is either evaluated or skipped, so good_evals plus
# blocks_skipped is blocks, under the default source and under the LFSR.
# A driver that went back to pulling the dead blocks one by one would
# break that sum whatever the baseline says. The BIBS column comes
# first, so the first fault-sim span is its one kernel's. The engine
# sweeps each fanout-free region's stem cone once per block for all of
# the region's faults; an engine that swept once per fault would record
# as many stem_evals as fault_evals, whatever the baseline says. A sweep
# returns, with cone instructions left, once each of its faults has its
# lowest flipped lane at an output; an engine that always swept whole
# cones would record no stem_stops.
cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
  --source lfsr --telemetry /tmp/bibs-telemetry-lfsr.json > /dev/null
span_counter() { printf '%s' "$sim_span" | grep -o "\"$1\":[0-9]*" | grep -o '[0-9]*$'; }
for telemetry in /tmp/bibs-telemetry.json /tmp/bibs-telemetry-lfsr.json; do
  sim_span=$(grep -o '"label":"fault-sim\[par\]","wall_ns":[0-9]*,"counters":{[^}]*}' \
    "$telemetry" | head -1)
  good=$(span_counter good_evals)
  blocks=$(span_counter blocks)
  retired=$(span_counter faults_retired || true)
  skipped=$(span_counter blocks_skipped || true)
  faults=$(span_counter fault_evals)
  stems=$(span_counter stem_evals || true)
  stops=$(span_counter stem_stops || true)
  echo "$telemetry, BIBS c5a2m kernel 0: ${good} good-machine sweeps and" \
    "${skipped:-0} skipped blocks of ${blocks} blocks, ${retired:-0} faults retired"
  echo "$telemetry, BIBS c5a2m kernel 0: ${stems} stem propagations for" \
    "${faults} live-fault checks, ${stops:-0} stopped early"
  test -n "$good" && test -n "$blocks" && test -n "$retired"
  test "$good" -lt "$blocks" && test "$retired" -gt 0
  test $(( good + ${skipped:-0} )) -eq "$blocks"
  test -n "$faults" && test -n "$stems"
  test "$stems" -lt "$faults"
  test "${stops:-0}" -gt 0
done

step "pattern sources: --source random JSON is byte-identical to the legacy path"
# The same seeded stream drawn through the PatternSource layer must not
# change a byte of the detection-deterministic JSON.
cargo run --release -p bibs-bench --bin table2 -- --only c5a2m --json \
  --source random > /tmp/bibs-table2-srcrandom.json
diff /tmp/bibs-table2-compiled.json /tmp/bibs-table2-srcrandom.json

step "pattern sources: --source lfsr telemetry carries its source span, perf gate vs committed BENCH_table2_lfsr.json"
# The telemetry is the --source lfsr run of the retired-faults step.
grep -q 'source\[lfsr\]' /tmp/bibs-telemetry-lfsr.json
grep -q '"source_clocks"' /tmp/bibs-telemetry-lfsr.json
cargo run --release -p bibs-bench --bin perfdiff -- \
  BENCH_table2_lfsr.json /tmp/bibs-telemetry-lfsr.json

step "pattern sources: the source layer adds no measurable hot-path cost"
# Same machine, back to back: the --source random run (dyn-dispatched
# source, source[...] span) must stay within 1.5x of the legacy run's
# root wall — catches accidental per-block allocation or locking in the
# BlockSim::run stream driver or the source behind it. One ~30 ms run per
# side is too noisy for a 1.5x bound, so compare the medians of 5
# alternating runs per side.
wall_of() { grep -o '"wall_ns":[0-9]*' "$1" | head -1 | grep -o '[0-9]*'; }
median() { printf '%s\n' "$@" | sort -n | sed -n "$(( ($# + 1) / 2 ))p"; }
legacy_walls=() source_walls=()
for _ in 1 2 3 4 5; do
  cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
    --telemetry /tmp/bibs-telemetry-legacy.json > /dev/null
  cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
    --source random --telemetry /tmp/bibs-telemetry-srcrandom.json > /dev/null
  legacy_walls+=("$(wall_of /tmp/bibs-telemetry-legacy.json)")
  source_walls+=("$(wall_of /tmp/bibs-telemetry-srcrandom.json)")
done
legacy_med=$(median "${legacy_walls[@]}")
source_med=$(median "${source_walls[@]}")
echo "root wall medians of 5: legacy ${legacy_med} ns, --source random ${source_med} ns"
test "$source_med" -lt $(( legacy_med * 3 / 2 ))

step "pattern sources: --source mintpg really runs the TPG"
# Width 7 is the tpg-stream benchmark configuration: the BIBS kernels fit
# the TPG's degree cap. At least one kernel must report the mintpg
# descriptor, so a silent fallback to the plain LFSR cannot hide the TPG
# source.
cargo run --release -p bibs-bench --bin table2 -- 7 --source mintpg \
  --json > /tmp/bibs-table2-mintpg.json
grep -q '"kind":"mintpg"' /tmp/bibs-table2-mintpg.json

step "all three datapaths: table2 JSON is byte-identical under --engine reference"
# The c5a2m diffs above never reach c4a4m's 1,520-instruction BIBS
# kernel, where fault cones are smallest (8% of the program on average)
# and a bug in the cone sweep's early stop would most likely hide. Each
# run takes well under a second.
cargo run --release -p bibs-bench --bin table2 -- --json > /tmp/bibs-table2-all.json
cargo run --release -p bibs-bench --bin table2 -- --json --engine reference \
  > /tmp/bibs-table2-all-alt.json
diff /tmp/bibs-table2-all.json /tmp/bibs-table2-all-alt.json
grep -q '"c4a4m"' /tmp/bibs-table2-all.json

step "redundant fixture: table2 JSON is byte-identical under --engine reference, and the prover retires the provably redundant faults"
# circuits/redundant_mux.ckt computes a - a, which only case analysis on
# a reconvergent stem proves constant. No static prover runs before
# simulation, so its 103 provably untestable faults must leave the live
# list through the prover's retirement, and the report must not change.
# At width 8 the implication check proves every Table 2 survivor, so this
# is the one end-to-end run where PODEM still searches: both must prove
# some faults.
cargo run --release -p bibs-bench --bin table2 -- --circuit circuits/redundant_mux.ckt \
  --json --telemetry /tmp/bibs-telemetry-redundant.json > /tmp/bibs-table2-redundant.json
cargo run --release -p bibs-bench --bin table2 -- --circuit circuits/redundant_mux.ckt \
  --json --engine reference > /tmp/bibs-table2-redundant-alt.json
diff /tmp/bibs-table2-redundant.json /tmp/bibs-table2-redundant-alt.json
counter_sum() {
  grep -o "\"$1\":[0-9]*" /tmp/bibs-telemetry-redundant.json \
    | grep -o '[0-9]*$' | awk '{ s += $1 } END { print s + 0 }'
}
retired=$(counter_sum faults_retired)
implied=$(counter_sum implied_redundant)
backtracks=$(counter_sum podem_backtracks)
echo "redundant_mux: ${retired} faults retired by the prover," \
  "${implied} proved by implication, ${backtracks} PODEM backtracks"
test "$retired" -ge 103
test "$implied" -gt 0 && test "$backtracks" -gt 0

step "bench bins exit nonzero on bad input (no panics)"
# `set -e` ignores a failing `! cmd`, so the check is a function whose
# status the shell does act on.
no_panic() {
  if grep -q "panicked" "$1"; then
    echo "ci.sh: $1 records a panic" >&2
    return 1
  fi
}
if cargo run --release -p bibs-bench --bin bits -- circuits/does_not_exist.ckt \
  > /tmp/bibs-bits-missing.txt 2>&1; then
  echo "ci.sh: bits unexpectedly succeeded on a missing circuit" >&2
  exit 1
fi
grep -q "cannot read" /tmp/bibs-bits-missing.txt
no_panic /tmp/bibs-bits-missing.txt
if cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
  --source replay:/nonexistent.seeds > /tmp/bibs-table2-badreplay.txt 2>&1; then
  echo "ci.sh: table2 unexpectedly succeeded on a missing replay file" >&2
  exit 1
fi
no_panic /tmp/bibs-table2-badreplay.txt
# A bad datapath name or width, a removed flag, a bad bits argument, or a
# pattern source that cannot drive a kernel (an LFSR past 64 inputs,
# directly or as mintpg's fallback; a replay schedule declared for another
# width) is a usage error: exit 2 with a message, never a panic (exit 101).
printf 'width 5\n0x51B51994 256\n' > /tmp/bibs-width5.seeds
for bad in "table2 0" "table2 --opt" "table2 --collapse dominance" \
  "table2 --lanes 256" "coverage c5a2m 4 --lanes 512" \
  "bits circuits/mac.ckt --lanes 256" "bits circuits/mac.ckt --tdm foo" \
  "coverage c5a2m 0" "coverage foo" "coverage c5a2m x" \
  "coverage c5a2m 4 --collapse none" "convert c5a2m@0 -:bench" \
  "table2 16 --only c4a4m --source lfsr" "table2 12 --only c4a4m --source mintpg" \
  "coverage c4a4m 16 --source lfsr" \
  "table2 --only c5a2m --source replay:/tmp/bibs-width5.seeds"; do
  read -ra cmd <<< "$bad"
  status=0
  cargo run --release -q -p bibs-bench --bin "${cmd[0]}" -- "${cmd[@]:1}" \
    > /tmp/bibs-bad-input.txt 2>&1 || status=$?
  echo "$bad: exit $status"
  test "$status" -eq 2
  no_panic /tmp/bibs-bad-input.txt
done
# Malformed circuit files are rejected with each binary's status for a
# file it cannot load: 2 for table2 (a usage error), 1 for bits, convert
# and bibs-lint (deny[B000]). A non-ASCII character inside a .bench
# keyword, and a .ckt register of width 0, once panicked (exit 101).
# bibs-lint's removed --jobs flag is an unknown option: exit 2.
printf 'INPUT(a)\nINP\342\202\254T(b)\nOUTPUT(a)\n' > /tmp/bibs-non-ascii.bench
sed 's/reg Ra width [0-9]*/reg Ra width 0/' circuits/mac.ckt > /tmp/bibs-zero-width.ckt
grep -q 'reg Ra width 0 ' /tmp/bibs-zero-width.ckt
for bad in "2 table2 --circuit /tmp/bibs-non-ascii.bench" \
  "1 convert /tmp/bibs-non-ascii.bench -:bench" \
  "1 bibs-lint /tmp/bibs-non-ascii.bench" \
  "2 table2 --circuit /tmp/bibs-zero-width.ckt" \
  "1 convert /tmp/bibs-zero-width.ckt -:bench" \
  "1 bits /tmp/bibs-zero-width.ckt" \
  "1 bibs-lint /tmp/bibs-zero-width.ckt" \
  "2 bibs-lint --batch corpus/ --jobs 2"; do
  read -ra cmd <<< "$bad"
  package=bibs-bench
  test "${cmd[1]}" = bibs-lint && package=bibs-lint
  status=0
  cargo run --release -q -p "$package" --bin "${cmd[1]}" -- "${cmd[@]:2}" \
    > /tmp/bibs-bad-input.txt 2>&1 || status=$?
  echo "${cmd[*]:1}: exit $status"
  test "$status" -eq "${cmd[0]}"
  no_panic /tmp/bibs-bad-input.txt
done

step "circuit formats: committed c5a2m fixtures are byte-stable"
# The committed .ckt/.bench fixtures must regenerate byte-identically
# from the built-in datapath, and .bench must be a print->parse->print
# fixpoint (including the RTL sidecar).
cargo run --release -p bibs-bench --bin convert -- c5a2m@8 -:ckt \
  | diff - circuits/c5a2m.ckt
cargo run --release -p bibs-bench --bin convert -- c5a2m@8 -:bench \
  | diff - circuits/c5a2m.bench
cargo run --release -p bibs-bench --bin convert -- circuits/c5a2m.bench -:bench \
  | diff - circuits/c5a2m.bench

step "circuit formats: table2 JSON is route-independent (.bench vs built-in)"
# Loading c5a2m through the .bench front door (RTL sidecar) must produce
# byte-identical table2 JSON to the built-in construction.
cargo run --release -p bibs-bench --bin table2 -- --circuit circuits/c5a2m.bench \
  --json > /tmp/bibs-table2-benchroute.json
diff /tmp/bibs-table2-benchroute.json /tmp/bibs-table2-compiled.json

step "fuzz corpus: committed seeds are in sync with the generators"
rm -rf /tmp/bibs-fuzz-seeds && mkdir -p /tmp/bibs-fuzz-seeds
cargo run --release -p bibs-corpus --bin bibs-fuzz -- --write-seeds \
  --corpus /tmp/bibs-fuzz-seeds > /dev/null
for f in /tmp/bibs-fuzz-seeds/*.bench; do
  diff "$f" "corpus/$(basename "$f")"
done
for f in /tmp/bibs-fuzz-seeds/seq/*.bench; do
  diff "$f" "corpus/seq/$(basename "$f")"
done

step "fuzz smoke (200 seeded cases through the four differential oracles)"
# Time-boxed; a divergence writes a minimized fixture to
# corpus/regressions/ and fails the run. Oracle 3 (podem) checks every
# PODEM verdict against exhaustive simulation in release, where PODEM's
# debug-build implication check is compiled out. Oracle 4 (retire)
# requires a run that retires PODEM-proved faults mid-run to reproduce
# the plain run.
timeout 300 cargo run --release -p bibs-corpus --bin bibs-fuzz -- --smoke \
  --cases 200 | tee /tmp/bibs-fuzz-smoke.txt
grep -q "0 divergence(s)" /tmp/bibs-fuzz-smoke.txt

step "fuzz regressions gate (committed fixtures stay fixed)"
timeout 300 cargo run --release -p bibs-corpus --bin bibs-fuzz -- --regressions

step "bibs-lint batch gate (whole corpus, baselined)"
# The recursive batch walk lints every committed corpus circuit —
# including the deliberately X-unsafe corpus/seq fixtures, whose known
# findings are fingerprint-pinned in lint-baseline.json — and must gate
# deny-clean.
cargo run --release -p bibs-lint --bin bibs-lint -- --batch corpus/ \
  --baseline lint-baseline.json > /tmp/bibs-lint-batch.txt
grep -q "0 deny" /tmp/bibs-lint-batch.txt

step "bibs-lint SARIF gate (emit + vendored-schema check)"
cargo run --release -p bibs-lint --bin bibs-lint -- --batch corpus/ \
  --baseline lint-baseline.json --format sarif > /tmp/bibs-lint.sarif
cargo run --release -p bibs-lint --bin bibs-lint -- \
  --check-sarif /tmp/bibs-lint.sarif

step "bibs-lint rejects the uninitialized-flop fixture (B050)"
if cargo run --release -p bibs-lint --bin bibs-lint -- --deny warnings \
  circuits/bad_uninit_dff.bench > /tmp/bibs-lint-uninit.txt 2>&1; then
  echo "ci.sh: uninitialized-flop fixture unexpectedly linted clean" >&2
  exit 1
fi
grep -q "B050" /tmp/bibs-lint-uninit.txt

step "criterion bench smoke-build"
cargo bench --workspace --no-run -q

printf '\nci.sh: all gates passed\n'
