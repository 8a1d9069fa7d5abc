#!/usr/bin/env bash
# Same-bytes check for a refactor: builds <rev> (from `git archive`, in a
# temporary directory) and the working tree in release, runs every
# simulated output on both and stops at the first difference.
#
#   scripts/same_bytes.sh <rev>
#
# Compared, in this order:
#   - the stdout of fig1, tab3, fig4, fig5 --sets 40, fig6, fig7,
#     fault_coverage, ablate_fifo, ablate_segment and ablate_vd;
#   - the stdout of every example, and trace_schedule.trace.json;
#   - the --out JSON of fig7_manycore --quick (with and without
#     --recovery), fig8 --quick --ooo and fig9_modes --quick, with the
#     host-timed "wall_s" and "steps_per_sec" fields removed, and the
#     --trace files of the first three (fig8's stdout prints host-timed
#     steps/s, so it is not compared);
#   - the merge of CI's 48-shard campaignd smoke campaign;
#   - the benchmark's simulated work: the sim_digest of a one-second
#     perfbench run of each workload (--seed 1 --trace 0), built on each
#     side with its own target directory under the temporary directory.
#
# Exits 0 when every output matches. Otherwise it names the first
# differing output, shows the start of the difference and exits 1.
# Set TMPDIR to choose where the temporary directory goes; it holds a
# second release build and both sides' perfbench builds (about 0.5 GiB).
set -euo pipefail

rev=${1:?usage: scripts/same_bytes.sh <rev>}
root=$(git rev-parse --show-toplevel)
git -C "$root" rev-parse --verify --quiet "$rev^{commit}" >/dev/null ||
    { echo "unknown revision: $rev" >&2; exit 2; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/src" "$work/run-rev" "$work/run-tree"
git -C "$root" archive "$rev" | tar -x -C "$work/src"

# The release directory each side's binaries land in.
declare -A release=([rev]="$work/target/release" [tree]="$root/target/release")

build() { # <source dir> <target dir>
    cargo build --release --offline --quiet --bins --examples \
        --manifest-path "$1/Cargo.toml" --target-dir "$2"
}
echo "building $rev"
build "$work/src" "$work/target"
echo "building the working tree"
build "$root" "$root/target"
# perfbench is a standalone package (see perfbench/README.md).
declare -A perfbench=([rev]="$work/perfbench-rev" [tree]="$work/perfbench-tree")
echo "building perfbench at $rev and in the working tree"
cargo build --release --offline --quiet --manifest-path "$work/src/perfbench/Cargo.toml" \
    --target-dir "${perfbench[rev]}"
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" \
    --target-dir "${perfbench[tree]}"

# run <stdout file> <binary under release/> [args...]: runs the binary
# on both sides, each in its own directory, so files it writes stay
# apart.
run() {
    local out=$1 bin=$2 side
    shift 2
    for side in rev tree; do
        if ! (cd "$work/run-$side" && "${release[$side]}/$bin" "$@" >"$out"); then
            echo "FAILED on $side: $bin $*" >&2
            exit 1
        fi
    done
}

# same <file>: the file must be byte-identical on both sides.
same() {
    if ! cmp -s "$work/run-rev/$1" "$work/run-tree/$1"; then
        echo "DIFFERENT: $1 ($rev vs working tree)" >&2
        diff "$work/run-rev/$1" "$work/run-tree/$1" | head -c 2000 >&2 || true
        exit 1
    fi
    echo "same: $1"
}

# same_json <file>: as `same`, after removing host-timed fields.
same_json() {
    local side
    for side in rev tree; do
        sed -E 's/"(wall_s|steps_per_sec)": [^,}]*//g' \
            "$work/run-$side/$1" >"$work/run-$side/$1.untimed"
    done
    same "$1.untimed"
}

for fig in fig1 tab3 fig4 fig6 fig7 fault_coverage ablate_fifo ablate_segment ablate_vd; do
    run "$fig.out" "$fig"
    same "$fig.out"
done
run fig5.out fig5 --sets 40
same fig5.out

for src in "$root"/examples/*.rs; do
    ex=$(basename "$src" .rs)
    run "example_$ex.out" "examples/$ex"
    same "example_$ex.out"
done
same trace_schedule.trace.json

run fig7_manycore.out fig7_manycore --quick --out FIG7_MANYCORE.json --trace FIG7_MANYCORE.trace.json
same_json FIG7_MANYCORE.json
same FIG7_MANYCORE.trace.json
run fig7_recovery.out fig7_manycore --quick --recovery --out FIG7_RECOVERY.json \
    --trace FIG7_RECOVERY.trace.json
same_json FIG7_RECOVERY.json
same FIG7_RECOVERY.trace.json
run fig8.out fig8 --quick --ooo --out FIG8.json --trace FIG8.trace.json
same_json FIG8.json
same FIG8.trace.json
run fig9_modes.out fig9_modes --quick --out FIG9_MODES.json
same_json FIG9_MODES.json

spec=(--cores 16 --shards 48 --iters 4000 --shots 8 --name ci-smoke)
run campaign_submit.out campaignd submit --dir campaign "${spec[@]}"
run campaign_run.out campaignd run --dir campaign
run campaign_merge.out campaignd merge --dir campaign --out campaign_merged.jsonl
same campaign_merged.jsonl

for workload in paired_suite shared_modes fault_campaign; do
    for side in rev tree; do
        if ! (cd "$work/run-$side" &&
            "${perfbench[$side]}/release/perfbench" --workload "$workload" --seed 1 \
                --seconds 1 --trace 0 | grep -o '"sim_digest": "[0-9a-f]*"') \
            >"$work/run-$side/perfbench_$workload.digest"; then
            echo "FAILED on $side: perfbench --workload $workload" >&2
            exit 1
        fi
    done
    same "perfbench_$workload.digest"
done

echo "all outputs match $rev"
