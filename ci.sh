#!/bin/sh
# Hermetic CI gate. Everything here runs offline — the workspace has zero
# external dependencies (see "Hermetic verification" in README.md), so a
# network failure can only mean a regression in the manifests.
set -eu

step() {
    echo
    echo "==== $* ===="
}

# The CI gate tool (crates/bench/src/bin/check.rs): exits 0 on pass, 1 on
# invalid input or a regression, 2 on a usage error.
check() {
    cargo run -q --release --offline -p rjam-bench --bin check -- "$@"
}

step "rustfmt (check only)"
cargo fmt --check

step "clippy, deny warnings, all targets"
cargo clippy --workspace --all-targets --offline -- -D warnings

step "rustdoc, deny warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

step "release build"
cargo build --workspace --release --offline

step "committed baselines are valid bench reports"
check bench baselines/BENCH_*.json

step "tests (unit + integration + property)"
cargo test -q --workspace --offline

step "bit-exactness tests of the DSP kernels and the link model in the release profile"
# The ADC-domain noise generator and the resamplers must match their
# reference paths bit for bit in the optimized build rjamd ships, too, the
# lane bank's word kernel must fire where the DSP core triggers, the link
# model's ln k! table must give the per-term sums' bits, and the health
# monitor must leave the flight recorder what per-frame writes would.
cargo test --release -q --offline -p rjam-sdr -p rjam-channel -p rjam-fpga \
    -p rjam-phy80211 -p rjam-mac -p rjam-obs

step "bench smoke run (reduced samples, JSON to the workspace root)"
# cargo runs bench binaries with cwd = the package dir, so pin the output
# directory explicitly.
RJAM_BENCH_SAMPLES=3 RJAM_BENCH_WARMUP_MS=5 RJAM_BENCH_BATCH_MS=2 \
    RJAM_BENCH_OUT="$(pwd)" \
    cargo bench -q -p rjam-bench --offline --bench xcorr_throughput

step "bench report is valid JSON"
test -s BENCH_xcorr_throughput.json
check bench BENCH_xcorr_throughput.json

step "lane bank bench smoke (lanes 1/4/16/64, block sizes, multi-template)"
RJAM_BENCH_SAMPLES=3 RJAM_BENCH_WARMUP_MS=5 RJAM_BENCH_BATCH_MS=2 \
    RJAM_BENCH_OUT="$(pwd)" \
    cargo bench -q -p rjam-bench --offline --bench dsp_lanes
test -s BENCH_dsp_lanes.json
check bench BENCH_dsp_lanes.json

step "lane bank scaling gate (lanes_16 vs lanes_1 aggregate throughput)"
# Fails the build if the lane bank stops amortizing its shared correlator
# evaluation: 16 lanes sharing one template must deliver at least 4x the
# single-lane aggregate throughput. The bench counts samples x lanes, so
# that is the lanes_16 median at most 4x the lanes_1 median. The speedup
# is instruction-level sharing on one core, so unlike the thread-scaling
# gate below there is no core-count escape hatch.
check ratio BENCH_dsp_lanes.json lanes_16 lanes_1 --max-ratio 4

step "DSP core bench smoke (full core, energy, jam controller, personality switch)"
# The microbench of the per-sample core path `ReactiveJammer` runs for
# jamming episodes, timelines and traces, including the register-level
# reconfiguration path. Detection, false-alarm and WiMAX jobs run
# `DspLaneBank` lanes, which the lane-bank bench above times.
RJAM_BENCH_SAMPLES=3 RJAM_BENCH_WARMUP_MS=5 RJAM_BENCH_BATCH_MS=2 \
    RJAM_BENCH_OUT="$(pwd)" \
    cargo bench -q -p rjam-bench --offline --bench dsp_core
test -s BENCH_dsp_core.json
check bench BENCH_dsp_core.json

step "PHY chain and MAC campaign bench smokes (schema only, no gate or baseline)"
# The two bench targets no gate reads: a smoke run keeps them compiling,
# running and emitting schema-valid reports.
RJAM_BENCH_SAMPLES=3 RJAM_BENCH_WARMUP_MS=5 RJAM_BENCH_BATCH_MS=2 \
    RJAM_BENCH_OUT="$(pwd)" \
    cargo bench -q -p rjam-bench --offline --bench phy_chain --bench mac_campaign
check bench BENCH_phy_chain.json BENCH_mac_campaign.json

step "campaign engine bench smoke (threads 1/2/4 + inline determinism cross-check)"
# The bench itself panics if any sharded run diverges bitwise from the
# serial reference, so a passing run doubles as a determinism gate.
RJAM_BENCH_SAMPLES=3 RJAM_BENCH_WARMUP_MS=5 RJAM_BENCH_BATCH_MS=2 \
    RJAM_BENCH_OUT="$(pwd)" \
    cargo bench -q -p rjam-bench --offline --bench campaign_engine
test -s BENCH_campaign_engine.json
check bench BENCH_campaign_engine.json

step "campaign engine scaling gate (threads_4 vs threads_1 medians)"
# Fails the build if the parallel engine regresses. When the threads_4
# record ran on at least 4 host cores (its own host_cores field), the
# 4-thread median must be a real speedup (<= 0.7x serial); on smaller
# hosts, where speedup is physically impossible, it must at least stay
# within scheduling-overhead range of serial (<= 1.15x). The old
# one-shard-per-point engine sat at 1.19x and would fail either bound.
check ratio BENCH_campaign_engine.json threads_4 threads_1 \
    --max-ratio 0.7 --oversubscribed-max-ratio 1.15

step "health monitor bench smoke (paired monitored/unmonitored slices + detector updates)"
# One process emits both suites: BENCH_health.json (monitored) and
# BENCH_health_unmonitored.json, interleaved per label so the pair shares
# CPU state. The overhead gate below compares them.
RJAM_BENCH_SAMPLES=5 RJAM_BENCH_WARMUP_MS=5 RJAM_BENCH_BATCH_MS=2 \
    RJAM_BENCH_OUT="$(pwd)" \
    cargo bench -q -p rjam-bench --offline --bench health_monitor
test -s BENCH_health.json
test -s BENCH_health_unmonitored.json
check bench BENCH_health.json BENCH_health_unmonitored.json

step "health monitor overhead gate (monitored <= 1.02x unmonitored, paired mins)"
# The monitor's per-frame cost is one branch plus window arithmetic; the
# paired in-process blocks plus --stat min keep scheduler noise out of the
# 2 % bound (see benches/health_monitor.rs for the sizing rationale). A
# tripped run re-measures before failing: on an oversubscribed runner a
# single paired block can still drift a few tenths of a percent, and a
# real regression trips every fresh measurement.
health_gate_ok=0
for health_gate_attempt in 1 2 3; do
    if check baseline BENCH_health.json BENCH_health_unmonitored.json \
        --max-ratio 1.02 --stat min; then
        health_gate_ok=1
        break
    fi
    echo "overhead gate attempt ${health_gate_attempt} tripped; re-measuring"
    RJAM_BENCH_SAMPLES=5 RJAM_BENCH_WARMUP_MS=5 RJAM_BENCH_BATCH_MS=2 \
        RJAM_BENCH_OUT="$(pwd)" \
        cargo bench -q -p rjam-bench --offline --bench health_monitor
done
test "$health_gate_ok" = 1

step "perf baseline gate (fresh smoke medians vs committed baselines/)"
# Bounds median regressions against committed snapshots measured on the
# same runner class with the same smoke settings. The default bound
# (1.25x, the checker's REGRESSION_RATIO) absorbs shared-runner noise
# while still catching algorithmic regressions; after an intentional perf
# change, regenerate the snapshots (see baselines/README.md) in the same
# PR. The campaign gate watches the serial record only: oversubscribed
# threads_2/4 wall-clocks on a small runner are scheduler noise, and the
# thread-scaling gate above already bounds them *relative to* threads_1
# within this same run.
check baseline BENCH_xcorr_throughput.json baselines/BENCH_xcorr_throughput.json
check baseline BENCH_campaign_engine.json baselines/BENCH_campaign_engine.json \
    --params threads_1
# The lane-bank gate watches the 16-lane records only: the sub-millisecond
# lanes_1 smoke run is dominated by scheduler noise, and the lane-scaling
# gate above already bounds it *relative to* lanes_16 within this same run.
check baseline BENCH_dsp_lanes.json baselines/BENCH_dsp_lanes.json --params lanes_16
# The health gate watches the detector microbench only: the scenario-slice
# records exist for the paired overhead comparison above, and their
# sub-millisecond wall-clocks are scheduler noise against a snapshot from
# another run.
check baseline BENCH_health.json baselines/BENCH_health.json \
    --params cusum_ewma_quantile_1m

step "campaign determinism: RJAM_THREADS=1 and RJAM_THREADS=4 outputs are byte-identical"
# The whole-engine contract, checked through the operator console: the same
# campaign at different worker counts must print the same bytes.
for cmd in \
    "detect --preset wifi-short --snr 5 --frames 20" \
    "detect --preset energy --snr 5 --frames 20" \
    "fa --preset wifi-long --threshold 0.34 --samples 2000000" \
    "fa --preset wifi-short --grid 0.30,0.34 --samples 1000000" \
    "fa --preset energy --samples 1000000" \
    "iperf --jammer reactive-long --sir 14 --seconds 1" \
    "roc --preset wifi-short --frames 16 --fa-samples 524288" \
    "roc --preset energy --frames 16 --fa-samples 524288" \
    "fa --preset energy --grid 6,10 --samples 1000000" \
    "submit --local --spec {\"campaign\":\"wifi_detection\",\"preset\":{\"kind\":\"wifi_long\",\"threshold\":0.34},\"emission\":{\"kind\":\"full_frames\",\"psdu_len\":1000},\"channel\":{\"kind\":\"rayleigh\",\"taps\":8,\"rms\":2},\"snrs_db\":[-6,0,6,12],\"trials\":16,\"seed\":3}" \
    "submit --local --spec {\"campaign\":\"wimax\",\"fused\":true,\"frames\":40,\"snr_db\":10,\"threshold\":0.45,\"seed\":3}" \
    "submit --local --spec {\"campaign\":\"wimax\",\"fused\":false,\"frames\":22,\"snr_db\":0,\"threshold\":0.45,\"seed\":3}" \
    "submit --local --spec {\"campaign\":\"wimax\",\"fused\":true,\"frames\":22,\"snr_db\":20,\"threshold\":0.45,\"seed\":3}" \
    "submit --local --spec {\"campaign\":\"jamming\",\"jammer\":\"reactive_short\",\"sirs_db\":[1,8,14,20,26,32],\"duration_s\":1,\"seed\":3}"; do
    RJAM_THREADS=1 cargo run -q --release --offline -p rjam-cli -- $cmd > rjam_ci_t1.out
    RJAM_THREADS=4 cargo run -q --release --offline -p rjam-cli -- $cmd > rjam_ci_t4.out
    diff rjam_ci_t1.out rjam_ci_t4.out || {
        echo "determinism violation: '$cmd' differs between 1 and 4 threads"; exit 1;
    }
done
rm -f rjam_ci_t1.out rjam_ci_t4.out

step "examples refuse a malformed RJAM_THREADS (exit 2, nothing on stdout)"
example_status=0
RJAM_THREADS=abc cargo run -q --release --offline --example wifi_jamming \
    > rjam_ci_example.out 2> /dev/null || example_status=$?
test "$example_status" = 2 || {
    echo "wifi_jamming with RJAM_THREADS=abc exited $example_status, not 2"; exit 1;
}
test ! -s rjam_ci_example.out || {
    echo "wifi_jamming printed to stdout on a malformed RJAM_THREADS"; exit 1;
}
rm -f rjam_ci_example.out

step "figures: run_figures.sh output byte-matches figures_output.txt"
# The figure contract, checked on every run: fig5's timelines and the
# reconfiguration latencies (the per-sample core), table1's insertion
# losses, the MAC simulator's figures, every detection figure (fig6/fig7
# with their false-alarm calibration, fig8's energy rise, the correlator
# length and Rayleigh-fading ablations, all fed by the ADC-domain noise
# generator) and fig12's WiMAX rows and ASCII scope (the detector lane,
# the jam controller's burst timing, the ordered fold and the scope
# window). run_figures.sh holds the one list of figure commands; its whole
# transcript, section headers and the DONE line included, must equal the
# committed one.
./run_figures.sh target/rjam_ci_figures.txt
diff figures_output.txt target/rjam_ci_figures.txt || {
    echo "figure drift: run_figures.sh output differs from figures_output.txt"; exit 1;
}
rm -f target/rjam_ci_figures.txt

step "no-default-features: obs layer compiles out (build + clippy + tests)"
# The whole observability/tracing layer must degrade to zero-sized no-ops
# when the 'obs' feature is off; any accidental hard dependency on it is a
# build or lint failure here, and the tests must pass in that build too
# (the flag parser and the JSON field view are compiled in both).
cargo build --workspace --no-default-features --offline
cargo clippy --workspace --no-default-features --all-targets --offline -- -D warnings
cargo test -q --workspace --offline --no-default-features

step "telemetry overhead gate: obs-on engine within 1.02x of obs-off (threads_1 median)"
# The engine's per-unit timing, stream hooks and profile publication must
# cost <= 2 % on the serial hot path. Both runs use identical settings,
# back to back, on this runner; the no-default build compiles the whole
# obs layer to zero-sized no-ops.
mkdir -p target/ci_obs_off target/ci_obs_on
RJAM_BENCH_SAMPLES=5 RJAM_BENCH_WARMUP_MS=5 RJAM_BENCH_BATCH_MS=2 \
    RJAM_BENCH_OUT="$(pwd)/target/ci_obs_off" \
    cargo bench -q -p rjam-bench --no-default-features --offline --bench campaign_engine
RJAM_BENCH_SAMPLES=5 RJAM_BENCH_WARMUP_MS=5 RJAM_BENCH_BATCH_MS=2 \
    RJAM_BENCH_OUT="$(pwd)/target/ci_obs_on" \
    cargo bench -q -p rjam-bench --offline --bench campaign_engine
check baseline target/ci_obs_on/BENCH_campaign_engine.json \
    target/ci_obs_off/BENCH_campaign_engine.json \
    --max-ratio 1.02 --params threads_1

step "observability smoke: stats report + metrics snapshot round-trip"
# `stats` exercises live episodes and must report the trigger-to-TX
# histogram against the paper's response budget; `--metrics-out` must
# write a rjam-metrics-v1 snapshot that `stats FILE` parses back.
cargo run -q --release --offline -p rjam-cli -- stats | grep -q "== counters =="
cargo run -q --release --offline -p rjam-cli -- stats | grep -q "2640 ns xcorr response budget"
cargo run -q --release --offline -p rjam-cli -- \
    timeline --trials 1 --metrics-out rjam_ci_metrics.json > /dev/null
test -s rjam_ci_metrics.json
grep -q '"schema": "rjam-metrics-v1"' rjam_ci_metrics.json
cargo run -q --release --offline -p rjam-cli -- stats rjam_ci_metrics.json \
    | grep -q "fpga.samples_in"
rm -f rjam_ci_metrics.json

step "live progress smoke: rjamctl --progress streams a valid start->done chain"
# A real campaign through the console must emit a complete, schema-valid
# rjam-progress-v1 chain — to a file via --progress=FILE and to stderr via
# bare --progress.
cargo run -q --release --offline -p rjam-cli -- \
    --progress=rjam_ci_progress.ndjson \
    detect --preset wifi-short --snr 3 --frames 16 > /dev/null
test -s rjam_ci_progress.ndjson
grep -q "campaign_started" rjam_ci_progress.ndjson
grep -q "campaign_done" rjam_ci_progress.ndjson
check progress rjam_ci_progress.ndjson
cargo run -q --release --offline -p rjam-cli -- \
    --progress detect --preset wifi-short --snr 3 --frames 16 \
    > /dev/null 2> rjam_ci_progress_err.ndjson
check progress rjam_ci_progress_err.ndjson
rm -f rjam_ci_progress.ndjson rjam_ci_progress_err.ndjson

step "engine profile report: rjamctl report attributes >= 95% of worker wall-clock"
# The post-run profile must account for (busy + idle + merge-wait) at
# least 95 % of total worker wall-clock on a real campaign — anything
# less means the engine is losing time the profile cannot explain.
cargo run -q --release --offline -p rjam-cli -- report --frames 32 --top 3 \
    > rjam_ci_report.out
grep -q "engine profile: wifi_detection" rjam_ci_report.out
awk '/^attributed /{p=$2; sub(/%/,"",p); found=1;
         if (p+0 < 95.0) { print "attribution below 95%: " p; exit 1 } }
     END { if (!found) { print "no attribution line in report"; exit 1 } }' \
    rjam_ci_report.out
rm -f rjam_ci_report.out

step "causal tracing smoke: rjamctl trace emits a valid rjam-trace-v1 doc"
# A default traced run must produce a document the round-trip parser
# accepts, in which at least one jammed frame carries the full causal
# chain (MAC emit -> detector fire -> trigger -> jam TX -> MAC outcome).
cargo run -q --release --offline -p rjam-cli -- \
    trace --episodes 4 --out rjam_ci_trace.json --chrome rjam_ci_trace_chrome.json \
    | grep -q "full causal chains"
test -s rjam_ci_trace.json
grep -q '"schema": "rjam-trace-v1"' rjam_ci_trace.json
grep -q '"traceEvents"' rjam_ci_trace_chrome.json
check trace --require-chain rjam_ci_trace.json
rm -f rjam_ci_trace.json rjam_ci_trace_chrome.json

step "link-health smoke: jammed run alarms within 32 frames, clean run stays silent"
# The monitor watches a stock jamming scenario through the operator
# console: reactive-long at SIR 1 collapses PRR, which must raise
# prr_collapse within 32 frames of onset and exit non-zero; the clean run
# must finish healthy and exit 0. Both NDJSON streams must round-trip the
# rjam-health-v1 validator with the matching alarm expectation.
if cargo run -q --release --offline -p rjam-cli -- \
    monitor --jammer reactive-long --sir 1 --seconds 1 \
    --out rjam_ci_health_jam.ndjson > rjam_ci_health_jam.out; then
    echo "jammed monitor run reported healthy"; exit 1
fi
grep -q "link health: ALARMED" rjam_ci_health_jam.out
grep -q "prr_collapse" rjam_ci_health_jam.out
check health --require-alarm --alarm-within 32 rjam_ci_health_jam.ndjson
cargo run -q --release --offline -p rjam-cli -- \
    monitor --jammer off --seconds 1 --out rjam_ci_health_clean.ndjson \
    > rjam_ci_health_clean.out
grep -q "link health: HEALTHY" rjam_ci_health_clean.out
check health --forbid-alarm rjam_ci_health_clean.ndjson
rm -f rjam_ci_health_jam.ndjson rjam_ci_health_jam.out
rm -f rjam_ci_health_clean.ndjson rjam_ci_health_clean.out

step "campaign service soak: concurrent rjamd jobs, cancel+resume, byte-identical exports"
# The rjam-job-v1 contract end to end: a live socket-mode rjamd takes
# three concurrent jobs, one is cancelled and resumed from its
# checkpoint, and every completed export must byte-match a direct
# in-process run of the same spec at a *different* thread count. A
# stdio-mode transcript is validated against the protocol schema.
SPEC1='{"campaign":"false_alarm","preset":{"kind":"wifi_long","threshold":0.34},"samples":2097152,"seed":41}'
SPEC2='{"campaign":"wifi_detection","preset":{"kind":"wifi_short","threshold":0.35},"emission":{"kind":"full_frames","psdu_len":60},"channel":{"kind":"awgn"},"snrs_db":[3,9],"trials":8,"seed":42}'
SPEC3='{"campaign":"false_alarm","preset":{"kind":"wifi_short","threshold":0.30},"samples":1048576,"seed":43}'
RJAMD=target/release/rjamd
RJAMCTL=target/release/rjamctl

# Direct single-process references (the determinism baseline), 3 threads.
"$RJAMCTL" submit --local --spec "$SPEC1" --export rjam_ci_ref1 --threads 3 > /dev/null
"$RJAMCTL" submit --local --spec "$SPEC2" --export rjam_ci_ref2 --threads 3 > /dev/null
"$RJAMCTL" submit --local --spec "$SPEC3" --export rjam_ci_ref3 --threads 3 > /dev/null

# Protocol transcript over stdio: submit + watch job-1 in one session.
printf '%s\n%s\n' \
    "{\"req\":\"submit\",\"spec\":$SPEC3,\"v\":\"rjam-job-v1\"}" \
    '{"req":"watch","job":"job-1","v":"rjam-job-v1"}' \
    | "$RJAMD" --stdio --threads 2 > rjam_ci_job_transcript.ndjson
check job --job job-1 --require-done rjam_ci_job_transcript.ndjson
# The same for the e2e benchmark's iperf_sweep job shape: a jamming job of
# six SIR points, whose job_metrics snapshot `check job` reads as an
# rjam-metrics-v1 document.
SPEC_IPERF='{"campaign":"jamming","jammer":"reactive_long","sirs_db":[1,8,14,20,26,32],"duration_s":1,"seed":5}'
printf '%s\n%s\n' \
    "{\"req\":\"submit\",\"spec\":$SPEC_IPERF,\"v\":\"rjam-job-v1\"}" \
    '{"req":"watch","job":"job-1","v":"rjam-job-v1"}' \
    | "$RJAMD" --stdio --threads 2 > rjam_ci_iperf_transcript.ndjson
check job --job job-1 --require-done rjam_ci_iperf_transcript.ndjson

# Live socket soak at 4 threads.
RJAM_SOCK="$(pwd)/target/rjam_ci_rjamd.sock"
rm -f "$RJAM_SOCK"
"$RJAMD" --socket "$RJAM_SOCK" --threads 4 2> /dev/null &
RJAMD_PID=$!
trap 'kill "$RJAMD_PID" 2> /dev/null || true' EXIT
for _ in $(seq 1 100); do test -S "$RJAM_SOCK" && break; sleep 0.1; done
test -S "$RJAM_SOCK"

"$RJAMCTL" submit --socket "$RJAM_SOCK" --spec "$SPEC1" | grep -q "job-1 accepted"
"$RJAMCTL" submit --socket "$RJAM_SOCK" --spec "$SPEC2" | grep -q "job-2 accepted"
"$RJAMCTL" submit --socket "$RJAM_SOCK" --spec "$SPEC3" | grep -q "job-3 accepted"
# job-1 (8 engine units of noise) is still running, so job-3 is queued:
# cancel it (checkpoint retained), then resume it from that checkpoint.
"$RJAMCTL" cancel --socket "$RJAM_SOCK" job-3 | grep -q "job-3 cancelled"
"$RJAMCTL" resume --socket "$RJAM_SOCK" job-3 | grep -q "job-3 resumed"

"$RJAMCTL" watch --socket "$RJAM_SOCK" job-1 --export rjam_ci_out1 > /dev/null
"$RJAMCTL" watch --socket "$RJAM_SOCK" job-2 --export rjam_ci_out2 > /dev/null
"$RJAMCTL" watch --socket "$RJAM_SOCK" job-3 --export rjam_ci_out3 > /dev/null
"$RJAMCTL" status --socket "$RJAM_SOCK" | grep -q "job-3 .*done"

for k in 1 2 3; do
    cmp "rjam_ci_ref$k" "rjam_ci_out$k" || {
        echo "determinism violation: job-$k export differs from direct run"; exit 1;
    }
done

# Each connection runs on a detached thread, so 500 more sequential
# connections must leave the daemon's memory mappings where they were
# (threads kept for a join once added ~2 lines of /proc/PID/maps each).
maps_before=$(wc -l < "/proc/$RJAMD_PID/maps")
for _ in $(seq 1 500); do
    "$RJAMCTL" status --socket "$RJAM_SOCK" > /dev/null
done
maps_after=$(wc -l < "/proc/$RJAMD_PID/maps")
test $((maps_after - maps_before)) -lt 100 || {
    echo "rjamd mappings grew from $maps_before to $maps_after lines over 500 connections"; exit 1;
}

kill "$RJAMD_PID" 2> /dev/null || true
trap - EXIT
rm -f "$RJAM_SOCK" rjam_ci_job_transcript.ndjson rjam_ci_iperf_transcript.ndjson
rm -f rjam_ci_ref1 rjam_ci_ref2 rjam_ci_ref3 rjam_ci_out1 rjam_ci_out2 rjam_ci_out3

step "rjamd memory soak: a WiMAX job's memory is flat in its frames"
# A WiMAX job folds its units in order as they finish and its scope keeps
# a fixed leading window, so its memory does not grow with its frames.
# After a 24-frame job, one 268-frame job runs to done and another is
# cancelled midway; rjamd's peak (VmHWM) and its resident memory after
# the cancel (VmRSS) must stay within 1.25x of the peak after the
# 24-frame job. When every unit's scope was kept until the run ended,
# the peaks read 53 MB and 531 MB. The daemon runs in stdio mode, fed
# through a FIFO, so no connection threads share the engine workers'
# allocator arenas.
SOAK=target/rjam_ci_soak
rm -rf "$SOAK"
mkdir -p "$SOAK"
mkfifo "$SOAK/in"
"$RJAMD" --stdio --threads 2 < "$SOAK/in" > "$SOAK/out" 2> /dev/null &
RJAMD_PID=$!
exec 3> "$SOAK/in"
trap 'exec 3>&-; kill "$RJAMD_PID" 2> /dev/null || true' EXIT
soak_submit() {
    printf '{"req":"submit","spec":{"campaign":"wimax","fused":true,"frames":%s,"snr_db":10,"threshold":0.45,"seed":%s},"v":"rjam-job-v1"}\n' \
        "$1" "$2" >&3
}
# Polls status until job $1 is in state $2, for at most two minutes.
soak_wait() {
    for _ in $(seq 1 2400); do
        printf '{"req":"status","job":"%s","v":"rjam-job-v1"}\n' "$1" >&3
        sleep 0.05
        if tail -n 1 "$SOAK/out" | grep -q "\"state\":\"$2\""; then
            return 0
        fi
    done
    echo "memory soak: $1 never reached $2"; tail -n 3 "$SOAK/out"; exit 1
}
soak_kb() {
    awk -v k="$1:" '$1 == k { print $2 }' "/proc/$RJAMD_PID/status"
}
soak_submit 24 1
soak_wait job-1 done
hwm24=$(soak_kb VmHWM)
t0=$(date +%s.%N)
soak_submit 268 2
soak_wait job-2 done
t1=$(date +%s.%N)
hwm268=$(soak_kb VmHWM)
soak_submit 268 3
soak_wait job-3 running
sleep "$(awk -v a="$t0" -v b="$t1" 'BEGIN { print (b - a) / 2 }')"
printf '{"req":"cancel","job":"job-3","v":"rjam-job-v1"}\n' >&3
soak_wait job-3 cancelled
hwm=$(soak_kb VmHWM)
rss=$(soak_kb VmRSS)
echo "rjamd VmHWM after 24 frames ${hwm24} kB, after 268 ${hwm268} kB," \
    "after a cancelled 268 ${hwm} kB (VmRSS ${rss} kB)"
grep -q '"ev":"job_cancelled","job":"job-3"' "$SOAK/out"
for kb in "$hwm" "$rss"; do
    awk -v a="$kb" -v b="$hwm24" 'BEGIN { exit !(a <= 1.25 * b) }' || {
        echo "rjamd memory grew with frames: $kb kB against $hwm24 kB after 24 frames"; exit 1;
    }
done
exec 3>&-
kill "$RJAMD_PID" 2> /dev/null || true
trap - EXIT
rm -rf "$SOAK"

step "rjamd admission smoke: oversized jobs are bad_specs, an over-long line a bad_request, and status still answers"
# A jamming job asking for 1e15 s of air per SIR point, and a false-alarm
# job asking for 2^53 noise samples (2^35 engine units), each once aborted
# the daemon on a failed allocation; both must be refused before they are
# queued. An 8.5 MB line, past the 8 454 144-byte request-line limit, once
# grew one buffer without bound; it must be answered and skipped.
{
    printf '%s\n%s\n' \
        '{"req":"submit","spec":{"campaign":"jamming","jammer":"off","sirs_db":[14],"duration_s":1e15,"seed":1},"v":"rjam-job-v1"}' \
        '{"req":"submit","spec":{"campaign":"false_alarm","preset":{"kind":"wifi_short","threshold":0.3},"samples":9007199254740992,"seed":1},"v":"rjam-job-v1"}'
    head -c 8500000 /dev/zero | tr '\0' '['
    printf '\n%s\n' '{"req":"status","v":"rjam-job-v1"}'
} | "$RJAMD" --stdio --threads 1 > rjam_ci_admission.ndjson
sed -n 1p rjam_ci_admission.ndjson | grep -q '"code":"bad_spec"'
sed -n 1p rjam_ci_admission.ndjson | grep -q "duration_s"
sed -n 2p rjam_ci_admission.ndjson | grep -q '"code":"bad_spec"'
sed -n 2p rjam_ci_admission.ndjson | grep -q "samples"
sed -n 3p rjam_ci_admission.ndjson | grep -q '"code":"bad_request"'
sed -n 3p rjam_ci_admission.ndjson | grep -q "8454144 bytes"
sed -n 4p rjam_ci_admission.ndjson | grep -q '"ev":"status","jobs":\[\]'
rm -f rjam_ci_admission.ndjson

step "e2e benchmark unit tests (the traced shadow must reproduce every export)"
# The benchmark is a package of its own (crates/bench/src/bin/e2e). Its
# shadow test fails if campaign synthesis stops matching the public-call
# mirror the per-layer trace is built on.
cargo test -q --offline --manifest-path crates/bench/src/bin/e2e/Cargo.toml

step "e2e benchmark smoke: every workload at seed 1 reproduces the committed digests"
# Each workload's jobs run through a live rjamd — every job kind goes
# through the engine's one checkpointed loop; every export is checked
# against digests_seed1.txt, and the summary line must count no failure.
for workload in detect_sweep noise_floor wimax_downlink iperf_sweep; do
    bash crates/bench/src/bin/e2e/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        > rjam_ci_e2e.out
    tail -n 1 rjam_ci_e2e.out | grep -q '"failed":0[,}]' || {
        echo "e2e smoke ($workload): jobs failed or no summary line"
        tail -n 1 rjam_ci_e2e.out; exit 1;
    }
done
rm -f rjam_ci_e2e.out

step "deprecated-API purge holds: no allow(deprecated) anywhere in crates/"
if grep -rn "allow(deprecated)" crates/; then
    echo "allow(deprecated) crept back into the workspace"; exit 1
fi

echo
echo "ci.sh: all gates passed"
