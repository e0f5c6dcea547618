#!/usr/bin/env bash
# Staged, fully offline CI for the CLaMPI reproduction.
#
# Usage:
#   ./ci.sh                 run every stage, stopping at the first FAIL
#   ./ci.sh --keep-going    run every stage even after a FAIL, report at end
#   ./ci.sh <stage>...      run only the named stage(s)
#   ./ci.sh --list          list stage names
#
# Stages (in pipeline order):
#   xlint         the full in-tree lint pass (crates/xlint): hermeticity
#                 (no external, non-path dependency in any Cargo.toml,
#                 including the table form [dependencies.<name>]),
#                 no-std-time, no-unwrap, safety-comment, no-println —
#                 self-tested against the seeded ci/fixtures/ trees (each planted violation must be
#                 flagged, the clean files must stay clean), then run over
#                 the whole workspace (see `xlint --list`)
#   fmt           cargo fmt --all --check   (skipped loudly if rustfmt
#                 is not installed)
#   clippy        cargo clippy -D warnings  (skipped loudly if clippy is
#                 not installed)
#   doc           RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps:
#                 a deleted or private item a doc comment still links to
#                 fails here
#   build         cargo build --release --offline (workspace)
#   test          cargo test -q --offline (workspace)
#   release-test  the engine, simulator and datatype suites again in a
#                 release build (cargo test --release -p clampi -p
#                 clampi-rma -p clampi-datatype): wrapping arithmetic and
#                 compiled-out debug_asserts exist only there
#   san-test      the whole test suite again under CLAMPI_SAN=1 (the RMA
#                 semantics sanitizer armed; run_collect asserts zero
#                 diagnostics after every simulation — this includes the
#                 DHT property suite's fault-plan cases), plus a smoke
#                 run of every figure binary that prints a `# SAN diags`
#                 summary (each crates/bench/src/bin/*.rs calling
#                 san_summary()); each summary must be 0
#   prop-matrix   every property suite (each tests/prop_*.rs) under 3 fixed
#                 CLAMPI_PROP_SEED values (single-case replay determinism)
#   bench-smoke   the microcosts wall-clock rungs at CLAMPI_BENCH_SMOKE=1,
#                 printed to the log: every rung still builds and runs.
#                 Deterministic figure output is golden's to check.
#   ab-pairs      MANUAL (not in ALL_STAGES, never part of a full run):
#                 alternating parent/change pairs of benchmark workloads
#                 (crates/bench/src/bin/ab_pairs.rs), e.g.
#                 AB_PAIRS_ARGS="--parent HEAD~1 --workload dht_mixed" \
#                 ./ci.sh ab-pairs - --workload takes a comma-separated
#                 list or `all`; per workload it prints each pair's
#                 end-to-end metrics, each side's median and quartiles,
#                 the win/verdict rule of a performance claim, and in how
#                 many pairs virt_ns_per_op and virt_speedup_x were
#                 bit-equal (naming any pair where they were not)
#   benchmark-smoke  the standalone benchmark suite (benchmark/, the one
#                 BENCHMARK.json declares): its own tests, then
#                 `benchmark/run.sh --smoke` - every workload untraced and
#                 traced with tiny op counts, every returned byte checked.
#                 The suite links the library's public API from outside
#                 the workspace, so drift against what it uses fails here
#                 instead of at the benchmark driver.
#   golden        every figure and ablation binary (fig*, abl_*) at
#                 CLAMPI_BENCH_SMOKE=1 under the default seed and --seed 1,
#                 plus the six benchmark workloads' virt_ns_per_op and
#                 virt_speedup_x from `benchmark/run.sh --smoke`, with the
#                 wall-clock fields masked by name (ci/golden.sh), diffed
#                 against the committed results/golden/. Writes no tracked
#                 file. A change that moves a figure or virtual time on
#                 purpose regenerates the files with
#                 `bash ci/golden.sh results/golden` and says so.
#
# No stage may write a file git tracks: inside a git work tree the runner
# records `git status --porcelain` and a hash of `git diff` before the
# first stage and fails the run if either differs after the last one.
#
# Every `cargo test` of the test, release-test, san-test and prop-matrix
# stages runs under `timeout` (TEST_TIMEOUT_S below). A rank that panics
# fails its run, but a true deadlock still hangs it: a barrier-count
# mismatch (no lock blocks). A hung suite must come back FAIL instead of
# sitting there forever.
#
# This repo builds on machines with no network and no cargo registry
# cache, so any external crate in a dependency section is a build break
# by definition — xlint's hermeticity rule is the contract for that.
set -euo pipefail
cd "$(dirname "$0")"

ALL_STAGES=(xlint fmt clippy doc build test release-test san-test prop-matrix bench-smoke benchmark-smoke golden)
# Run only when named: minutes of host time, and a verdict, not a gate.
MANUAL_STAGES=(ab-pairs)
PROP_SEEDS=(1 42 20170527)
# Seconds one `cargo test` invocation may take, build included. The slowest
# (the whole workspace) takes 5-13 s warm on the reference host, plus the
# compile when cold; a hang takes forever.
TEST_TIMEOUT_S=900

# limited <seconds> <command...>: the command under coreutils `timeout`
# (TERM at the limit, KILL 10 s later, both to the whole process group).
limited() {
    local limit=$1 rc=0
    shift
    timeout --kill-after=10 "$limit" "$@" || rc=$?
    if [ "$rc" -eq 124 ]; then
        echo "FAIL (timed out after ${limit}s): $*" >&2
    fi
    return "$rc"
}

stage_xlint() {
    # All five rules: self-test against the seeded fixtures (each planted
    # violation must be flagged, the clean file must stay clean), then
    # scan the real tree. A registry dependency in a workspace member's
    # manifest already fails `cargo run` at offline resolution (cargo
    # names the package), so the stage FAILs before xlint prints
    # file:line; the scan pinpoints manifests cargo tolerates.
    cargo run -q --offline -p xlint -- --self-test
    cargo run -q --offline -p xlint
}

stage_fmt() {
    if ! command -v rustfmt >/dev/null 2>&1; then
        echo "##############################################################" >&2
        echo "## WARNING: rustfmt not installed - fmt stage SKIPPED.      ##" >&2
        echo "## Formatting is NOT being checked on this machine.         ##" >&2
        echo "## Install with: rustup component add rustfmt               ##" >&2
        echo "##############################################################" >&2
        return 77
    fi
    cargo fmt --all -- --check
}

stage_clippy() {
    if ! cargo clippy --version >/dev/null 2>&1; then
        echo "##############################################################" >&2
        echo "## WARNING: clippy not installed - clippy stage SKIPPED.    ##" >&2
        echo "## Lints are NOT being checked on this machine.             ##" >&2
        echo "## Install with: rustup component add clippy                ##" >&2
        echo "##############################################################" >&2
        return 77
    fi
    cargo clippy --offline --workspace --all-targets -- -D warnings
}

stage_doc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

stage_build() {
    cargo build --release --offline
}

stage_test() {
    limited "$TEST_TIMEOUT_S" cargo test -q --offline --workspace
}

stage_release_test() {
    limited "$TEST_TIMEOUT_S" cargo test --release -q --offline \
        -p clampi -p clampi-rma -p clampi-datatype
}

stage_san_test() {
    # The whole suite again with the RMA semantics sanitizer armed:
    # CLAMPI_SAN=1 makes run_collect install a collecting checker and
    # assert zero diagnostics after every simulation, so any MPI-3 RMA
    # misuse introduced by a test or by library code fails here. The
    # checker is observation-only (prop_checker_is_observation_only pins
    # bit-identical results), so this is purely a semantic re-check.
    CLAMPI_SAN=1 limited "$TEST_TIMEOUT_S" cargo test -q --offline --workspace
    # Every figure binary that prints the summary, found the way
    # prop-matrix finds its suites. fig_tx skips its wall-clock phase
    # under CLAMPI_SAN (its naive baseline races reads against puts by
    # design); the deterministic snapshot phase must come back clean.
    local file bin out
    for file in $(grep -l 'san_summary()' crates/bench/src/bin/*.rs); do
        bin=$(basename "$file" .rs)
        echo "-- $bin (smoke) under CLAMPI_SAN=1"
        out=$(CLAMPI_SAN=1 CLAMPI_BENCH_SMOKE=1 cargo run -q --offline --release \
            -p clampi-bench --bin "$bin")
        if ! grep -q "^# SAN diags 0$" <<<"$out"; then
            echo "FAIL: $bin reported sanitizer diagnostics:" >&2
            grep "^# SAN diags" <<<"$out" >&2 || echo "(no SAN summary line)" >&2
            return 1
        fi
        echo "$bin clean under the sanitizer (# SAN diags 0)"
    done
}

stage_prop_matrix() {
    # Every property suite (each `prop_*.rs` under a `tests/` directory),
    # replayed as a single case under 3 fixed seeds (CLAMPI_PROP_SEED
    # makes the harness run exactly that case). Catches seed-dependent
    # flakiness and keeps the replay knob itself exercised.
    local seed suite file dir pkg name
    local suites=()
    for file in tests/prop_*.rs crates/*/tests/prop_*.rs; do
        dir=$(dirname "$(dirname "$file")")
        pkg=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$dir/Cargo.toml" | head -n 1)
        suites+=("$pkg:$(basename "$file" .rs)")
    done
    for seed in "${PROP_SEEDS[@]}"; do
        for suite in "${suites[@]}"; do
            pkg=${suite%%:*} name=${suite##*:}
            echo "-- CLAMPI_PROP_SEED=$seed $pkg/$name"
            CLAMPI_PROP_SEED=$seed limited "$TEST_TIMEOUT_S" \
                cargo test -q --offline -p "$pkg" --test "$name" > /dev/null
        done
    done
    echo "${#suites[@]} suites x ${#PROP_SEEDS[@]} seeds replayed"
}

stage_bench_smoke() {
    CLAMPI_BENCH_SMOKE=1 cargo bench -q --offline -p clampi-bench --bench microcosts
}

stage_benchmark_smoke() {
    # Its own workspace and target directory (benchmark/target); results
    # and traces go to benchmark/out/. All three are gitignored.
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
    bash benchmark/run.sh --smoke
}

stage_golden() {
    local fresh
    fresh=$(mktemp -d)
    trap 'rm -rf "$fresh"' RETURN
    bash ci/golden.sh "$fresh"
    if ! diff -ru results/golden "$fresh"; then
        echo "FAIL: output differs from results/golden/ (diff above: - golden, + this tree)." >&2
        echo "      If the change is intended, regenerate with: bash ci/golden.sh results/golden" >&2
        return 1
    fi
    echo "golden: $(find "$fresh" -type f | wc -l) files equal to results/golden/"
}

stage_ab_pairs() {
    if [ -z "${AB_PAIRS_ARGS:-}" ]; then
        echo "ab-pairs: set AB_PAIRS_ARGS, e.g. \"--parent HEAD~1 --workload dht_mixed\"" >&2
        return 1
    fi
    # shellcheck disable=SC2086 # the arguments are meant to split
    cargo run -q --offline --release -p clampi-bench --bin ab_pairs -- $AB_PAIRS_ARGS
}

# -------------------------------------------------------------- runner --
declare -A RESULT DURATION

# Fixture stages for the runner self-test, reachable only when
# CI_ALLOW_FAKE_STAGES=1 so `./ci.sh fake-fail` can't be run by accident.
stage_fake_pass() { echo "fake-pass stage ran"; }
# fake-fail fails in the *middle*: a runner that loses `set -e` inside its
# stages would run on to the final `true` and report PASS.
stage_fake_fail() { echo "fake-fail stage ran"; false; true; }
# fake-hang never finishes on its own: only the timeout wrapper ends it.
stage_fake_hang() { limited 1 sleep 600; }

runner_self_test() {
    # A fail-fast runner that doesn't actually stop (or a --keep-going
    # that doesn't actually keep going) silently changes what a green or
    # red CI run means, so the runner checks itself against the fake
    # stages before doing real work.
    echo "-- runner self-test (fail-fast / --keep-going / timeout)"
    local out
    if out=$(CI_ALLOW_FAKE_STAGES=1 "$0" fake-fail fake-pass 2>&1); then
        echo "FAIL: self-test: runner exited 0 despite a failing stage" >&2
        return 1
    fi
    if grep -q "fake-pass stage ran" <<<"$out"; then
        echo "FAIL: self-test: fail-fast ran a stage after the failure" >&2
        return 1
    fi
    if out=$(CI_ALLOW_FAKE_STAGES=1 "$0" --keep-going fake-fail fake-pass 2>&1); then
        echo "FAIL: self-test: --keep-going must still exit nonzero on failure" >&2
        return 1
    fi
    if ! grep -q "fake-pass stage ran" <<<"$out"; then
        echo "FAIL: self-test: --keep-going skipped the remaining stage" >&2
        return 1
    fi
    if out=$(CI_ALLOW_FAKE_STAGES=1 "$0" fake-hang 2>&1); then
        echo "FAIL: self-test: runner exited 0 despite a hung stage" >&2
        return 1
    fi
    if ! grep -q "FAIL (timed out after 1s)" <<<"$out"; then
        echo "FAIL: self-test: the hung stage was not reported as timed out" >&2
        return 1
    fi
    echo "runner self-test ok (fail-fast stops, --keep-going finishes, a hang times out)"
}

# tree_state: `git status --porcelain` and a hash of `git diff`, or
# nothing outside a git work tree.
tree_state() {
    git rev-parse --is-inside-work-tree >/dev/null 2>&1 || return 0
    git status --porcelain
    git diff --binary | sha256sum
}

run_stage() {
    local s=$1 fn rc=0 start
    fn=stage_${s//-/_}
    echo
    echo "===== stage: $s ====="
    start=$SECONDS
    # Not `(...) || rc=$?`: bash ignores `set -e` inside any command of an
    # `||` list, so a stage would run on past its failing commands and
    # report only its last one's status.
    set +e
    (set -euo pipefail; "$fn")
    rc=$?
    set -e
    DURATION[$s]=$((SECONDS - start))
    case $rc in
        0)  RESULT[$s]=PASS ;;
        77) RESULT[$s]=SKIP ;;
        *)  RESULT[$s]=FAIL ;;
    esac
    return 0
}

main() {
    local requested=() stages=() ran=() s k known keep_going=0
    for s in "$@"; do
        case $s in
            --list)
                printf '%s\n' "${ALL_STAGES[@]}"
                exit 0
                ;;
            --keep-going) keep_going=1 ;;
            *) requested+=("$s") ;;
        esac
    done
    if [ ${#requested[@]} -eq 0 ]; then
        # A full run proves the runner itself first; explicit stage lists
        # (including the self-test's own recursive invocations) skip it,
        # which also bounds the recursion.
        runner_self_test || exit 1
        stages=("${ALL_STAGES[@]}")
    else
        for s in "${requested[@]}"; do
            known=0
            for k in "${ALL_STAGES[@]}" "${MANUAL_STAGES[@]}"; do
                [ "$s" = "$k" ] && known=1
            done
            if [ "${CI_ALLOW_FAKE_STAGES:-0}" = 1 ]; then
                case $s in fake-pass | fake-fail | fake-hang) known=1 ;; esac
            fi
            if [ "$known" -ne 1 ]; then
                echo "unknown stage '$s' (try: ./ci.sh --list)" >&2
                exit 2
            fi
            stages+=("$s")
        done
    fi

    local tree_before
    tree_before=$(tree_state)
    for s in "${stages[@]}"; do
        run_stage "$s"
        ran+=("$s")
        if [ "${RESULT[$s]}" = FAIL ] && [ "$keep_going" -ne 1 ]; then
            echo
            echo "stage '$s' FAILED - stopping here (re-run with --keep-going" \
                "to finish the remaining stages and report everything at the end)"
            break
        fi
    done

    echo
    echo "===== summary ====="
    printf '%-16s %-6s %s\n' STAGE RESULT TIME
    local failed=0 total=0
    for s in "${ran[@]}"; do
        printf '%-16s %-6s %ss\n' "$s" "${RESULT[$s]}" "${DURATION[$s]}"
        total=$((total + DURATION[$s]))
        [ "${RESULT[$s]}" = FAIL ] && failed=1
    done
    printf '%-16s %-6s %ss\n' total "" "$total"
    if [ ${#ran[@]} -lt ${#stages[@]} ]; then
        echo "(${#ran[@]}/${#stages[@]} stages ran - fail-fast)"
    fi
    if [ "$(tree_state)" != "$tree_before" ]; then
        echo "FAIL: the run changed the work tree; git status now reads:" >&2
        git status --porcelain >&2
        failed=1
    fi
    if [ "$failed" -ne 0 ]; then
        echo "CI FAILED"
        exit 1
    fi
    echo "CI PASSED"
}

main "$@"
