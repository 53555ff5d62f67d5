#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite, and a
# Table 2 smoke run. Mirrors what a hosted pipeline would run; everything
# works offline (the compat/ crates stand in for crates.io).
#
# Usage: ./ci.sh            (full gate)
#        BIBS_JOBS=4 ./ci.sh  (pin the fault-sim worker count)
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
# which doubles as a check that the parallel fault simulator ran.
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

step "dominance collapse equivalence (table2 c5a2m, byte-identical JSON)"
# Simulating only dominance-class representatives and expanding through
# the class map must reproduce the equiv-collapsed run's JSON byte for
# byte (the compiled-engine run above used the default equiv collapse).
cargo run --release -p bibs-bench --bin table2 -- --only c5a2m --json \
  --collapse dominance > /tmp/bibs-table2-dominance.json
diff /tmp/bibs-table2-compiled.json /tmp/bibs-table2-dominance.json

step "dominance collapse simulates strictly fewer faults (width 4)"
sim_count() {
  sed -n 's/^static analysis ([a-z]* mode): \([0-9]*\)\/[0-9]* faults simulated.*/\1/p' "$1"
}
cargo run --release -p bibs-bench --bin table2 -- 4 --only c5a2m \
  --collapse equiv > /tmp/bibs-table2-eqw4.txt
cargo run --release -p bibs-bench --bin table2 -- 4 --only c5a2m \
  --collapse dominance > /tmp/bibs-table2-domw4.txt
eq_sim=$(sim_count /tmp/bibs-table2-eqw4.txt)
dom_sim=$(sim_count /tmp/bibs-table2-domw4.txt)
echo "equiv simulates $eq_sim faults, dominance simulates $dom_sim"
test -n "$eq_sim" && test -n "$dom_sim" && test "$dom_sim" -lt "$eq_sim"

step "telemetry determinism (table2 c5a2m: 1 vs 8 worker threads, wall-stripped)"
# The exported counters are detection-deterministic: two runs under
# different thread counts must emit identical span trees and counter
# values (only wall_ns may differ, so diff after stripping it).
BIBS_JOBS=1 cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
  --telemetry /tmp/bibs-telemetry-j1.json > /dev/null
BIBS_JOBS=8 cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
  --telemetry /tmp/bibs-telemetry-j8.json > /dev/null
strip_wall() { sed 's/"wall_ns":[0-9]*,//g' "$1"; }
diff <(strip_wall /tmp/bibs-telemetry-j1.json) <(strip_wall /tmp/bibs-telemetry-j8.json)

step "telemetry perf-regression gate (perfdiff vs committed BENCH_table2.json)"
# The baseline predates the PatternSource refactor, and perfdiff compares
# counter maps with hard equality — passing proves the refactored driver
# added no recorder traffic or extra work to the default hot path.
cargo run --release -p bibs-bench --bin perfdiff -- \
  BENCH_table2.json /tmp/bibs-telemetry-j8.json

step "retired faults: c5a2m's BIBS kernel stops sweeping the good machine once PODEM retires its survivors"
# PODEM proves the kernel's two survivors redundant 1,024 patterns after
# its last detection; the rest of the 100,000-pattern plateau still
# applies every block but evaluates nothing. A prover that retired
# nothing would leave good_evals equal to blocks. The BIBS column comes
# first, so the first fault-sim span is its one kernel's.
sim_span=$(grep -o '"label":"fault-sim\[par\]","wall_ns":[0-9]*,"counters":{[^}]*}' \
  /tmp/bibs-telemetry-j8.json | head -1)
span_counter() { printf '%s' "$sim_span" | grep -o "\"$1\":[0-9]*" | grep -o '[0-9]*$'; }
good=$(span_counter good_evals)
blocks=$(span_counter blocks)
retired=$(span_counter faults_retired || true)
echo "BIBS c5a2m kernel 0: ${good} good-machine sweeps over ${blocks} blocks, ${retired:-0} faults retired"
test -n "$good" && test -n "$blocks" && test -n "$retired"
test "$good" -lt "$blocks" && test "$retired" -gt 0

step "pattern sources: --source random JSON is byte-identical to the legacy path"
# The same seeded stream drawn through the PatternSource layer must not
# change a byte of the detection-deterministic JSON.
cargo run --release -p bibs-bench --bin table2 -- --only c5a2m --json \
  --source random > /tmp/bibs-table2-srcrandom.json
diff /tmp/bibs-table2-compiled.json /tmp/bibs-table2-srcrandom.json

step "pattern sources: --source lfsr is thread-count deterministic (1 vs 8, wall-stripped)"
# Blocks are pulled serially, so the LFSR stream — and every counter in
# its source[lfsr] span (patterns_emitted, source_clocks) — must be
# bit-identical for any worker count.
BIBS_JOBS=1 cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
  --source lfsr --telemetry /tmp/bibs-telemetry-lfsr-j1.json > /dev/null
BIBS_JOBS=8 cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
  --source lfsr --telemetry /tmp/bibs-telemetry-lfsr-j8.json > /dev/null
diff <(strip_wall /tmp/bibs-telemetry-lfsr-j1.json) \
     <(strip_wall /tmp/bibs-telemetry-lfsr-j8.json)
grep -q 'source\[lfsr\]' /tmp/bibs-telemetry-lfsr-j8.json
grep -q '"source_clocks"' /tmp/bibs-telemetry-lfsr-j8.json

step "pattern sources: perf gate vs committed BENCH_table2_lfsr.json"
cargo run --release -p bibs-bench --bin perfdiff -- \
  BENCH_table2_lfsr.json /tmp/bibs-telemetry-lfsr-j8.json

step "pattern sources: the source layer adds no measurable hot-path cost"
# Same machine, back to back: the --source random run (dyn-dispatched
# source, source[...] span) must stay within 1.5x of the legacy run's
# root wall — catches accidental per-block allocation or locking in the
# generic run_source_with loop. One ~30 ms run per side is too noisy for a
# 1.5x bound, so compare the medians of 5 alternating runs per side.
wall_of() { grep -o '"wall_ns":[0-9]*' "$1" | head -1 | grep -o '[0-9]*'; }
median() { printf '%s\n' "$@" | sort -n | sed -n "$(( ($# + 1) / 2 ))p"; }
legacy_walls=() source_walls=()
for _ in 1 2 3 4 5; do
  BIBS_JOBS=8 cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
    --telemetry /tmp/bibs-telemetry-legacy.json > /dev/null
  BIBS_JOBS=8 cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
    --source random --telemetry /tmp/bibs-telemetry-srcrandom.json > /dev/null
  legacy_walls+=("$(wall_of /tmp/bibs-telemetry-legacy.json)")
  source_walls+=("$(wall_of /tmp/bibs-telemetry-srcrandom.json)")
done
legacy_med=$(median "${legacy_walls[@]}")
source_med=$(median "${source_walls[@]}")
echo "root wall medians of 5: legacy ${legacy_med} ns, --source random ${source_med} ns"
test "$source_med" -lt $(( legacy_med * 3 / 2 ))

step "pattern sources: --source mintpg is thread-count deterministic and really runs the TPG"
# Width 7 is the tpg-stream benchmark configuration: the BIBS kernels fit
# the TPG's degree cap. The JSON must be byte-identical at 1 and 8
# workers, and at least one kernel must report the mintpg descriptor, so
# a silent fallback to the plain LFSR cannot hide the TPG source.
BIBS_JOBS=1 cargo run --release -p bibs-bench --bin table2 -- 7 --source mintpg \
  --json > /tmp/bibs-table2-mintpg-j1.json
BIBS_JOBS=8 cargo run --release -p bibs-bench --bin table2 -- 7 --source mintpg \
  --json > /tmp/bibs-table2-mintpg-j8.json
diff /tmp/bibs-table2-mintpg-j1.json /tmp/bibs-table2-mintpg-j8.json
grep -q '"kind":"mintpg"' /tmp/bibs-table2-mintpg-j8.json

step "optimizer: table2 --opt JSON is byte-identical (c5a2m, full width)"
# The CEC-validated optimized program must be behaviorally invisible: the
# detection-deterministic JSON may not change by a byte when the engine
# runs the rewritten program (faults remap through the rewrite, with
# original-program fallback for the unmappable ones).
cargo run --release -p bibs-bench --bin table2 -- --only c5a2m --json \
  --opt > /tmp/bibs-table2-opt.json
diff /tmp/bibs-table2-compiled.json /tmp/bibs-table2-opt.json

step "optimizer: perf gate vs committed BENCH_table2_opt.json"
# The committed baseline records the optimized run's counters — including
# the reduced gate_evals (the whole point of --opt) and the
# opt_instrs_saved/opt_rewrites pipeline telemetry. perfdiff's hard
# counter equality keeps both the savings and the pass behavior pinned.
BIBS_JOBS=8 cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
  --opt --telemetry /tmp/bibs-telemetry-opt-j8.json > /dev/null
grep -q '"opt_instrs_saved"' /tmp/bibs-telemetry-opt-j8.json
cargo run --release -p bibs-bench --bin perfdiff -- \
  BENCH_table2_opt.json /tmp/bibs-telemetry-opt-j8.json
# And the optimized run must actually execute fewer instructions than the
# default run on the same kernel set.
first_counter() { grep -o "\"$2\":[0-9]*" "$1" | head -1 | grep -o '[0-9]*$'; }
default_ge=$(first_counter /tmp/bibs-telemetry-j8.json gate_evals)
opt_ge=$(first_counter /tmp/bibs-telemetry-opt-j8.json gate_evals)
echo "gate_evals: default ${default_ge}, --opt ${opt_ge}"
test -n "$default_ge" && test -n "$opt_ge" && test "$opt_ge" -lt "$default_ge"

step "wide lanes: table2 --lanes JSON is byte-identical (c5a2m, full width)"
# Wide-word PPSFP evaluation must be report-invisible: one good-machine
# sweep per 256/512-lane block, same detection-deterministic JSON to the
# byte as the scalar 64-lane run.
cargo run --release -p bibs-bench --bin table2 -- --only c5a2m --json \
  --lanes 256 > /tmp/bibs-table2-l256.json
diff /tmp/bibs-table2-compiled.json /tmp/bibs-table2-l256.json
cargo run --release -p bibs-bench --bin table2 -- --only c5a2m --json \
  --lanes 512 > /tmp/bibs-table2-l512.json
diff /tmp/bibs-table2-compiled.json /tmp/bibs-table2-l512.json

step "all three datapaths: table2 JSON is byte-identical under --engine reference, --lanes 512 and --opt"
# The c5a2m diffs above never reach c4a4m's 1,520-instruction BIBS
# kernel, where fault cones are smallest (8% of the program on average)
# and a bug in the event-driven faulty evaluation's early exit would most
# likely hide. Each run takes well under a second.
cargo run --release -p bibs-bench --bin table2 -- --json > /tmp/bibs-table2-all.json
for opts in "--engine reference" "--lanes 512" "--opt"; do
  # shellcheck disable=SC2086 # $opts is a flag and its value
  cargo run --release -p bibs-bench --bin table2 -- --json $opts \
    > /tmp/bibs-table2-all-alt.json
  diff /tmp/bibs-table2-all.json /tmp/bibs-table2-all-alt.json
done
grep -q '"c4a4m"' /tmp/bibs-table2-all.json

step "wide lanes: telemetry determinism (1 vs 8 worker threads, wall-stripped)"
BIBS_JOBS=1 cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
  --lanes 512 --telemetry /tmp/bibs-telemetry-lanes-j1.json > /dev/null
BIBS_JOBS=8 cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
  --lanes 512 --telemetry /tmp/bibs-telemetry-lanes-j8.json > /dev/null
diff <(strip_wall /tmp/bibs-telemetry-lanes-j1.json) \
     <(strip_wall /tmp/bibs-telemetry-lanes-j8.json)
grep -q '"lanes":512' /tmp/bibs-telemetry-lanes-j8.json

step "wide lanes: perf gate vs committed BENCH_table2_lanes.json"
# The baseline records the 512-lane run's counters — including the
# lane-normalized gate_evals (higher than scalar: a fault detected early
# in a sweep still rides out the whole wide block) and the lanes marker.
cargo run --release -p bibs-bench --bin perfdiff -- \
  BENCH_table2_lanes.json /tmp/bibs-telemetry-lanes-j8.json
# And the wide sweeps must actually deliver: gate-evals per second on the
# same machine, back to back, strictly greater than the scalar run's.
lanes_ge=$(first_counter /tmp/bibs-telemetry-lanes-j8.json gate_evals)
lanes_wall=$(wall_of /tmp/bibs-telemetry-lanes-j8.json)
scalar_ge=$default_ge
scalar_wall=$(wall_of /tmp/bibs-telemetry-j8.json)
echo "gate-evals/s: scalar ${scalar_ge}/${scalar_wall} ns, 512 lanes ${lanes_ge}/${lanes_wall} ns"
test -n "$lanes_ge" && test -n "$lanes_wall"
test $(( lanes_ge * scalar_wall )) -gt $(( scalar_ge * lanes_wall ))

step "optimizer: CEC rejects the committed broken rewrite with a witness"
# circuits/cec_broken.bench is a hand-broken "optimized" form of
# circuits/cec_orig.bench (a bogus CSE merged two different cones). The
# checker must refute the pair with a replayable counterexample — and
# prove the identity pair, so the gate can't pass vacuously.
if cargo run --release -p bibs-corpus --bin bibs-fuzz -- --cec \
  circuits/cec_orig.bench circuits/cec_broken.bench \
  > /tmp/bibs-cec-broken.txt; then
  echo "ci.sh: CEC unexpectedly proved the broken rewrite" >&2
  exit 1
fi
grep -q "counterexample" /tmp/bibs-cec-broken.txt
grep -q "replayed" /tmp/bibs-cec-broken.txt
cargo run --release -p bibs-corpus --bin bibs-fuzz -- --cec \
  circuits/cec_orig.bench circuits/cec_orig.bench > /tmp/bibs-cec-ok.txt
grep -q "equivalent" /tmp/bibs-cec-ok.txt

step "bench bins exit nonzero on bad input (no panics)"
if cargo run --release -p bibs-bench --bin bits -- circuits/does_not_exist.ckt \
  > /tmp/bibs-bits-missing.txt 2>&1; then
  echo "ci.sh: bits unexpectedly succeeded on a missing circuit" >&2
  exit 1
fi
grep -q "cannot read" /tmp/bibs-bits-missing.txt
grep -vq "panicked" /tmp/bibs-bits-missing.txt
if cargo run --release -p bibs-bench --bin table2 -- --only c5a2m \
  --source replay:/nonexistent.seeds > /tmp/bibs-table2-badreplay.txt 2>&1; then
  echo "ci.sh: table2 unexpectedly succeeded on a missing replay file" >&2
  exit 1
fi
grep -vq "panicked" /tmp/bibs-table2-badreplay.txt

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

step "fuzz smoke (200 seeded cases through the nine differential oracles)"
# Time-boxed; a divergence writes a minimized fixture to
# corpus/regressions/ and fails the run. Oracle 7 (lanes) cross-checks
# wide 256/512-lane sweeps against the scalar engine on every case,
# including a plateau-stop run that exercises sub-block retraction.
# Oracle 8 (podem) checks every PODEM verdict against exhaustive
# simulation in release, where PODEM's debug-build implication check is
# compiled out. Oracle 9 (retire) requires runs that retire PODEM-proved
# faults mid-run to reproduce the plain run at every lane width.
timeout 300 cargo run --release -p bibs-corpus --bin bibs-fuzz -- --smoke \
  --cases 200 | tee /tmp/bibs-fuzz-smoke.txt
grep -q "0 divergence(s)" /tmp/bibs-fuzz-smoke.txt

step "fuzz regressions gate (committed fixtures stay fixed)"
timeout 300 cargo run --release -p bibs-corpus --bin bibs-fuzz -- --regressions

step "bibs-lint batch gate (whole corpus, baselined, job-count invariant)"
# The recursive batch walk lints every committed corpus circuit —
# including the deliberately X-unsafe corpus/seq fixtures, whose known
# findings are fingerprint-pinned in lint-baseline.json — and must gate
# deny-clean with byte-identical output for every worker count.
cargo run --release -p bibs-lint --bin bibs-lint -- --batch corpus/ \
  --baseline lint-baseline.json --jobs 1 > /tmp/bibs-lint-batch-j1.txt
grep -q "0 deny" /tmp/bibs-lint-batch-j1.txt
for j in 2 4 8; do
  cargo run --release -p bibs-lint --bin bibs-lint -- --batch corpus/ \
    --baseline lint-baseline.json --jobs "$j" > /tmp/bibs-lint-batch-jn.txt
  diff /tmp/bibs-lint-batch-j1.txt /tmp/bibs-lint-batch-jn.txt
done

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
