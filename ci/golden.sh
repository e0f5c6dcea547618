#!/usr/bin/env bash
# Golden outputs: what the seeds and the virtual clock decide, with the
# host's wall clock masked out.
#
#   bash ci/golden.sh <dir>
#
# Writes into <dir>:
#   <bin>.default.txt, <bin>.seed1.txt
#       stdout of every figure and ablation binary
#       (crates/bench/src/bin/fig*.rs and abl_*.rs) at CLAMPI_BENCH_SMOKE=1,
#       under the default seed and under --seed 1;
#   benchmark.txt
#       the six workloads' virt_ns_per_op and virt_speedup_x lines of
#       `bash benchmark/run.sh --smoke`.
# Wall-clock fields are masked by name: wall_ms, gets_per_sec_*,
# p99_ns_t*, and fig_contention's table rates, p99 column, host
# parallelism and scaling lines (the last depend on the host's CPU count).
#
# `./ci.sh golden` writes a fresh set into a temporary directory and diffs
# it against the committed results/golden/. A change that moves a figure
# or virtual time on purpose regenerates the files with
#   bash ci/golden.sh results/golden
# and says so in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:?usage: ci/golden.sh <dir>}
mkdir -p "$out"
bin_dir=${CARGO_TARGET_DIR:-target}/release
cargo build -q --offline --release -p clampi-bench

# mask <bin>: stdin to stdout with the wall-clock fields replaced by `*`.
mask() {
    local table=()
    if [ "$1" = fig_contention ]; then
        # The table's rows: threads <tab> mgets_per_sec <tab> p99_ns.
        table=(-e 's/^([0-9]+)\t[0-9.]+\t[0-9]+$/\1\t*\t*/')
    fi
    sed -E \
        -e 's/^(# PERF (wall_ms|gets_per_sec_[a-z0-9]+|p99_ns_t[a-z0-9]+)) .*/\1 */' \
        -e 's/^(# host_parallelism) .*/\1 */' \
        -e '/^# note scaling skipped/d' \
        -e '/^# PERF scaling_x /d' \
        "${table[@]}"
}

for src in crates/bench/src/bin/fig*.rs crates/bench/src/bin/abl_*.rs; do
    bin=$(basename "$src" .rs)
    CLAMPI_BENCH_SMOKE=1 "$bin_dir/$bin" | mask "$bin" > "$out/$bin.default.txt"
    CLAMPI_BENCH_SMOKE=1 "$bin_dir/$bin" --seed 1 | mask "$bin" > "$out/$bin.seed1.txt"
done
bash benchmark/run.sh --smoke | grep -E '^[a-z_]+ +virt_(ns_per_op|speedup_x) ' \
    > "$out/benchmark.txt"
