#!/bin/sh
# Regenerates every table/figure at meaningful sample sizes.
#
# Fails fast: the first figure binary that exits non-zero aborts the run
# with a message naming the offending figure, and the partial transcript in
# $OUT ends at that point so the failure is easy to localize.
set -eu
OUT=${1:-figures_output.txt}
: > "$OUT"
run() {
    name=$1
    shift
    printf '\n\n############ %s ############\n' "$name" >> "$OUT"
    if ! "$@" >> "$OUT" 2>&1; then
        status=$?
        echo "run_figures.sh: FAILED at '$name' (exit $status): $*" >&2
        echo "run_figures.sh: see the tail of $OUT for the panic/output" >&2
        exit "$status"
    fi
}
run fig5  cargo run -q --release --offline -p rjam-bench --bin fig5_timelines -- --trials 40
run table1 cargo run -q --release --offline -p rjam-bench --bin table1_insertion_loss
run fig6  cargo run -q --release --offline -p rjam-bench --bin fig6_long_preamble -- --frames 250 --fa-samples 25000000
run fig7  cargo run -q --release --offline -p rjam-bench --bin fig7_short_preamble -- --frames 250 --fa-samples 12000000
run fig8  cargo run -q --release --offline -p rjam-bench --bin fig8_energy -- --frames 250
run fig10 cargo run -q --release --offline -p rjam-bench --bin fig10_bandwidth -- --seconds 10
run fig11 cargo run -q --release --offline -p rjam-bench --bin fig11_prr -- --seconds 10
run fig12 cargo run -q --release --offline -p rjam-bench --bin fig12_wimax -- --frames 24
run reconfig cargo run -q --release --offline -p rjam-bench --bin reconfig_latency
run energy cargo run -q --release --offline -p rjam-bench --bin energy_efficiency -- --seconds 6
run corrlen cargo run -q --release --offline -p rjam-bench --bin ablation_corr_len -- --frames 200
run rtscts cargo run -q --release --offline -p rjam-bench --bin ablation_rts_cts -- --seconds 6
run fading cargo run -q --release --offline -p rjam-bench --bin ablation_fading -- --frames 150
run health cargo run -q --release --offline -p rjam-bench --bin health_time_to_detect -- --seconds 3 --cadence 8
echo DONE >> "$OUT"
echo "run_figures.sh: all figures regenerated into $OUT"
