#!/usr/bin/env bash
# Perf-regression gate for the MAC hot loop and the PHY spectrum kernels.
#
# Compares out/BENCH_mac.json (written by `bench_mac`) against the
# checked-in baseline scripts/baselines/BENCH_mac.baseline.json and
# fails on a regression:
#
#   - any digest mismatch between the reference and optimized steppers
#     (the optimizations must stay bit-identical);
#   - any heap allocation in an optimized quiesced steady-state window
#     (the zero-allocation property is the whole point);
#   - mac_loop speedup below the 3x acceptance floor;
#   - mac_loop / saturated speedup or idle-skip hit rate more than 20%
#     below the committed baseline;
#   - a digest mismatch between the span-traced and untraced optimized
#     arms (observation must never perturb the simulation), or — full
#     mode only — an enabled/disabled throughput ratio below 0.95
#     (spans may cost at most 5% on the gated workload).
#
# It also compares out/BENCH_channel.json (written by `bench_channel`)
# against scripts/baselines/BENCH_channel.baseline.json:
#
#   - the cached/reference spectrum digest tour must match (the SoA
#     kernels must stay the bit-exact ground truth);
#   - the warm path and the rebuild path must be allocation-free;
#   - full mode only: cold_rebuild_us must stay under the 100 µs
#     acceptance ceiling, and cold_rebuild_us / warm per-call /
#     speedup may not regress >20% vs. the committed baseline.
#
# It also compares out/BENCH_probe.json (written by `bench_probe`)
# against scripts/baselines/BENCH_probe.baseline.json:
#
#   - the memo and recompute-every-frame arms must fold the same digest
#     (the per-slot PB-error memo may save work, never change an output);
#   - full mode only: the memo/reference speedup may not regress >20%
#     vs. the committed baseline.
#
# Ratios (speedup, hit rate) are compared, not absolute steps/sec —
# absolute throughput varies with the host; ratios are self-normalizing
# because both arms run on the same machine. Absolute numbers are
# printed as warnings only unless PERF_GATE_ABSOLUTE=1.
#
# `--smoke` relaxes the timing gates (a smoke run's windows are a few
# sim-seconds, far too short for stable ratios) and checks only the
# correctness invariants: digests match and the optimized quiesced
# windows are allocation-free.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
if [[ "${1:-}" == "--smoke" ]]; then
    MODE=smoke
fi

REPORT=out/BENCH_mac.json
BASELINE=scripts/baselines/BENCH_mac.baseline.json
CH_REPORT=out/BENCH_channel.json
CH_BASELINE=scripts/baselines/BENCH_channel.baseline.json
PR_REPORT=out/BENCH_probe.json
PR_BASELINE=scripts/baselines/BENCH_probe.baseline.json

if [[ ! -f "$REPORT" ]]; then
    echo "perf_gate: $REPORT not found — run ./target/release/bench_mac first" >&2
    exit 1
fi
if [[ ! -f "$BASELINE" ]]; then
    echo "perf_gate: baseline $BASELINE not found" >&2
    exit 1
fi
if [[ ! -f "$CH_REPORT" ]]; then
    echo "perf_gate: $CH_REPORT not found — run ./target/release/bench_channel first" >&2
    exit 1
fi
if [[ ! -f "$CH_BASELINE" ]]; then
    echo "perf_gate: baseline $CH_BASELINE not found" >&2
    exit 1
fi
if [[ ! -f "$PR_REPORT" ]]; then
    echo "perf_gate: $PR_REPORT not found — run ./target/release/bench_probe first" >&2
    exit 1
fi
if [[ ! -f "$PR_BASELINE" ]]; then
    echo "perf_gate: baseline $PR_BASELINE not found" >&2
    exit 1
fi

MODE="$MODE" REPORT="$REPORT" BASELINE="$BASELINE" \
CH_REPORT="$CH_REPORT" CH_BASELINE="$CH_BASELINE" \
PR_REPORT="$PR_REPORT" PR_BASELINE="$PR_BASELINE" python3 - <<'PY'
import json, os, sys

mode = os.environ["MODE"]
with open(os.environ["REPORT"]) as f:
    rep = json.load(f)
with open(os.environ["BASELINE"]) as f:
    base = json.load(f)
with open(os.environ["CH_REPORT"]) as f:
    ch = json.load(f)
with open(os.environ["CH_BASELINE"]) as f:
    ch_base = json.load(f)
with open(os.environ["PR_REPORT"]) as f:
    pr = json.load(f)
with open(os.environ["PR_BASELINE"]) as f:
    pr_base = json.load(f)

failures = []
warnings = []

def check(cond, msg):
    if not cond:
        failures.append(msg)

# --- correctness invariants (gated in both modes) ----------------------
for section in ("mac_loop", "saturated", "full_profile"):
    check(rep[section]["digest_match"], f"{section}: digest mismatch — "
          "optimized stepper diverged from the reference")
check(rep["idle"]["digest_match"], "idle: digest mismatch — idle-skip "
      "changed simulation outputs")

# The quiesced arms are the steady-state MAC loop; the acceptance
# criterion is zero per-step heap allocations there. full_profile keeps
# the estimator running, whose observation path may legitimately touch
# the heap, so it is reported but not gated.
for section in ("mac_loop", "saturated"):
    allocs = rep[section]["optimized"]["allocs_in_window"]
    check(allocs == 0, f"{section}: optimized window performed {allocs} "
          "heap allocation(s); expected zero")

# Bit-inertness of span tracing: the stats-mode arm must see the exact
# observables the untraced arm saw. Gated in both modes — a digest is
# stable even in a tiny smoke window.
check(rep["span_overhead"]["digest_match"],
      "span_overhead: digest mismatch — span tracing perturbed the "
      "simulation")

# PHY spectrum kernels: the cached evaluator runs the chunked kernels,
# the reference runs the scalar twins — the digest tour proves they
# still agree bitwise. Both hot paths must stay off the heap.
check(ch["digest_match"], "channel: digest mismatch — cached spectrum "
      "diverged from the reference evaluator")
ch_allocs = ch["warm"]["allocs_per_call"]
check(ch_allocs == 0, f"channel: warm spectrum_at_phase_into performed "
      f"{ch_allocs} heap allocation(s)/call; expected zero")
rb_allocs = ch["cold_rebuild"]["allocs_per_rebuild"]
check(rb_allocs == 0, f"channel: epoch rebuild performed {rb_allocs} "
      f"heap allocation(s)/rebuild; expected zero")
check(ch["cold_rebuild"]["rebuilds"]
      == ch["cold_rebuild"]["iters"] * ch["cold_rebuild"]["reps"],
      "channel: rebuild arm did not rebuild on every call — "
      "cold_rebuild_us is not measuring the rebuild path")

# Probe loop: the memo arm must see exactly the frame outcomes of the
# arm that recomputes the PB error probability on every frame.
check(pr["digest_match"], "probe: digest mismatch — the PB-error memo "
      "changed a frame outcome")

if mode == "smoke":
    print(f"perf_gate --smoke: digests match, optimized quiesced windows "
          f"allocation-free ({len(failures)} failure(s))")
    for msg in failures:
        print(f"  FAIL {msg}")
    sys.exit(1 if failures else 0)

# --- timing gates (full mode only) -------------------------------------
FLOOR = 3.0       # acceptance floor for the headline workload
TOL = 0.8         # fail on >20% regression vs. the committed baseline

sp = rep["mac_loop"]["speedup"]
check(sp >= FLOOR, f"mac_loop: speedup {sp:.2f}x below the {FLOOR:.1f}x floor")

for section in ("mac_loop", "saturated"):
    cur, ref = rep[section]["speedup"], base[section]["speedup"]
    check(cur >= TOL * ref,
          f"{section}: speedup {cur:.2f}x regressed >20% vs baseline {ref:.2f}x")
    print(f"{section:>12}: speedup {cur:.2f}x (baseline {ref:.2f}x)")

cur, ref = rep["idle"]["hit_rate"], base["idle"]["hit_rate"]
check(cur >= TOL * ref,
      f"idle: skip hit rate {cur:.2f} regressed >20% vs baseline {ref:.2f}")
print(f"{'idle':>12}: hit rate {cur:.2f} (baseline {ref:.2f})")

fp = rep["full_profile"]["speedup"]
print(f"{'full_profile':>12}: speedup {fp:.2f}x (reported, not gated)")

# Span hot-path budget: stats-mode spans may cost at most 5% of the
# gated workload's throughput. Ratio of two same-host arms, so it is
# self-normalizing like the speedups above.
SPAN_BUDGET = 0.95
ratio = rep["span_overhead"]["ratio"]
check(ratio >= SPAN_BUDGET,
      f"span_overhead: enabled/disabled ratio {ratio:.3f} below the "
      f"{SPAN_BUDGET:.2f} budget (spans cost more than 5%)")
print(f"{'spans':>12}: enabled/disabled ratio {ratio:.3f} "
      f"(budget {SPAN_BUDGET:.2f})")

# --- channel timing gates ----------------------------------------------
# The epoch-rebuild ceiling is absolute by design: the acceptance
# criterion is "tens of µs per 917-carrier rebuild", so a hard 100 µs
# cap applies on top of the baseline ratio.
REBUILD_CEILING_US = 100.0

cur = ch["cold_rebuild_us"]
check(cur <= REBUILD_CEILING_US,
      f"channel: cold_rebuild_us {cur:.1f} exceeds the "
      f"{REBUILD_CEILING_US:.0f} µs ceiling")
ref = ch_base["cold_rebuild_us"]
check(cur <= ref / TOL,
      f"channel: cold_rebuild_us {cur:.1f} regressed >20% vs "
      f"baseline {ref:.1f}")
print(f"{'channel':>12}: cold rebuild {cur:.1f} µs "
      f"(baseline {ref:.1f} µs, ceiling {REBUILD_CEILING_US:.0f} µs)")

cur, ref = ch["warm"]["per_call_us"], ch_base["warm"]["per_call_us"]
check(cur <= ref / TOL,
      f"channel: warm per-call {cur:.2f} µs regressed >20% vs "
      f"baseline {ref:.2f} µs")
print(f"{'channel':>12}: warm per-call {cur:.2f} µs (baseline {ref:.2f} µs)")

cur, ref = ch["speedup"], ch_base["speedup"]
check(cur >= TOL * ref,
      f"channel: speedup {cur:.1f}x regressed >20% vs baseline {ref:.1f}x")
print(f"{'channel':>12}: cached/reference speedup {cur:.1f}x "
      f"(baseline {ref:.1f}x)")

# --- probe timing gate ---------------------------------------------------
cur, ref = pr["speedup"], pr_base["speedup"]
check(cur >= TOL * ref,
      f"probe: memo/reference speedup {cur:.2f}x regressed >20% vs "
      f"baseline {ref:.2f}x")
print(f"{'probe':>12}: memo/reference speedup {cur:.2f}x (baseline "
      f"{ref:.2f}x), {pr['memo']['ns_per_frame']:,.0f} ns/frame, memo hit "
      f"share {pr['memo_hit_share']:.3f}")

# Absolute throughput is host-dependent: warn by default, gate only on
# request (e.g. pinned CI hardware).
cur = rep["mac_loop"]["optimized"]["steps_per_sec"]
ref = base["mac_loop"]["optimized"]["steps_per_sec"]
if cur < TOL * ref:
    msg = (f"mac_loop: absolute {cur:,.0f} steps/s is >20% below "
           f"baseline {ref:,.0f} steps/s")
    if os.environ.get("PERF_GATE_ABSOLUTE") == "1":
        failures.append(msg)
    else:
        warnings.append(msg + " (warn-only; set PERF_GATE_ABSOLUTE=1 to gate)")

for msg in warnings:
    print(f"  WARN {msg}")
for msg in failures:
    print(f"  FAIL {msg}")
if failures:
    sys.exit(1)
print("perf_gate: OK")
PY
