#!/usr/bin/env bash
# Perf smoke: time the PLC spectrum hot path (uncached reference vs the
# epoch-keyed cache, out/BENCH_channel.json), the probe loop (PB-error
# memo vs recompute, out/BENCH_probe.json), Fig. 20's link sweep (one
# worker vs the default count, out/BENCH_hybrid.json) and the MAC hot loop
# (reference vs zero-allocation stepper, out/BENCH_mac.json) — seed,
# wall clock per path, speedup, cache/idle-skip hit rates. Fast enough
# to run on every change; pass --criterion to also run the full
# criterion component benches (slower).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== bench_channel smoke (writes out/BENCH_channel.json) =="
# Tiny loops — the gate-relevant invariants (digest match, zero
# allocations) still hold; run without ELECTRIFI_BENCH_SMOKE=1 for
# gate-quality cold_rebuild_us timings.
cargo build --release -q -p electrifi-bench --bin bench_channel
ELECTRIFI_BENCH_SMOKE=1 ./target/release/bench_channel

echo "== bench_probe smoke (writes out/BENCH_probe.json) =="
# Memo vs recompute-every-frame over one Fig. 17 link; the digest match
# holds at any window length.
cargo build --release -q -p electrifi-bench --bin bench_probe
ELECTRIFI_BENCH_SMOKE=1 ./target/release/bench_probe

echo "== bench_hybrid smoke (writes out/BENCH_hybrid.json) =="
# Fig. 20 at quick scale, one worker vs the default worker count; the
# digest match holds at any scale.
cargo build --release -q -p electrifi-bench --bin bench_hybrid
ELECTRIFI_BENCH_SMOKE=1 ./target/release/bench_hybrid

echo "== bench_mac smoke (writes out/BENCH_mac.json) =="
# Short windows — fast enough for every change. Run the binary without
# ELECTRIFI_BENCH_SMOKE=1 (and then scripts/perf_gate.sh without
# --smoke) for gate-quality timing ratios.
cargo build --release -q -p electrifi-bench --bin bench_mac
ELECTRIFI_BENCH_SMOKE=1 ./target/release/bench_mac
./scripts/perf_gate.sh --smoke

echo "== campaign smoke (writes out/smoke-campaign/) =="
cargo build --release -q -p electrifi-bench --bin campaign
./target/release/campaign scenarios/smoke-campaign.json --workers 2 --out out/smoke-campaign

echo "== checkpoint/resume smoke (interrupted == uninterrupted) =="
rm -rf out/smoke-ckpt
./target/release/campaign scenarios/smoke-campaign.json --workers 1 \
    --out out/smoke-ckpt --stop-after 1
./target/release/campaign scenarios/smoke-campaign.json --workers 1 \
    --out out/smoke-ckpt --resume out/smoke-ckpt
cmp out/smoke-campaign/summary.json out/smoke-ckpt/summary.json

echo "== bench_state (writes out/BENCH_state.json) =="
cargo build --release -q -p electrifi-bench --bin bench_state
./target/release/bench_state

if [[ "${1:-}" == "--criterion" ]]; then
    echo "== criterion component benches =="
    cargo bench -p electrifi-bench --bench components
fi
