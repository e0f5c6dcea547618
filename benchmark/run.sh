#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh                      build, run the whole suite (six workloads,
#                                         untraced + traced), print every metric
#   benchmark/run.sh --repeat-check       the suite twice on one seed plus once on
#                                         another; fails unless the runs agree
#   benchmark/run.sh --smoke              the suite with tiny op counts (<= 10 s)
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one run; the last line of standard output
#                                         is the result object (the driver's form)
#
# Builds offline into $CARGO_TARGET_DIR (default benchmark/target), writes
# only under benchmark/out/, exits non-zero on any correctness failure.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Hermeticity: every dependency is a path into this repository.
deps="$(sed -n '/^\[dependencies\]/,/^\[/p' "$manifest" | grep -vE '^\[|^[[:space:]]*(#|$)' || true)"
if grep -vE 'path[[:space:]]*=' <<<"$deps" | grep -q .; then
    echo "run.sh: refusing a non-path dependency in $manifest:" >&2
    grep -vE 'path[[:space:]]*=' <<<"$deps" >&2
    exit 1
fi

cargo build --release --offline --quiet --manifest-path "$manifest" >&2

if grep -q '^source = ' "$here/Cargo.lock"; then
    echo "run.sh: refusing a registry dependency in $here/Cargo.lock" >&2
    exit 1
fi

# glibc raises its mmap threshold after the first large free, so whether a
# later large buffer comes from the heap or from mmap - and with it the peak
# RSS - would depend on allocation history (55 or 68 MiB on one workload,
# run to run). Pinning the threshold makes rss_peak_mb repeat.
export MALLOC_MMAP_THRESHOLD_=131072

exec "$CARGO_TARGET_DIR/release/clampi-benchmark" --out "$here/out" "$@"
