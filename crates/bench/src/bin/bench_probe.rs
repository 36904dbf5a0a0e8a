//! `bench_probe` — perf-regression harness for the probe measurement
//! loop (`LinkProbeSim::frame`, the hot path of Figs. 16–18).
//!
//! Probes one Fig. 17 link (1-6, its seed, reset first, 1300-byte probes
//! at 20 pkt/s) through two arms and reports to `out/BENCH_probe.json`:
//!
//! * **memo** — the program's loop, where the per-slot PB-error memo
//!   serves every frame whose spectrum and tone map are unchanged;
//! * **reference** — the same loop with the memo cleared before every
//!   frame, so every frame recomputes `pb_error_prob`;
//! * **ns/frame** for both arms (best of reps), their ratio (the gated
//!   `speedup`), heap allocations per frame (reported), and the memo
//!   **hit share** (frames the memo served);
//! * a **digest match** over every frame outcome of both arms: the memo
//!   may only save work, never change an output.
//!
//! `scripts/perf_gate.sh` compares this output against the checked-in
//! baseline in `scripts/baselines/BENCH_probe.baseline.json`.
//!
//! Environment:
//! * `ELECTRIFI_BENCH_SMOKE=1` — a short window, for CI smoke runs
//!   (timings meaningless; the digest is still checked).

use electrifi::experiments::PAPER_SEED;
use electrifi::{LinkProbeSim, PaperEnv};
use serde::Serialize;
use simnet::obs::{self, Obs};
use simnet::time::{Duration, Time};

#[global_allocator]
static ALLOC: allocprobe::CountingAlloc = allocprobe::CountingAlloc::new();

/// The probed Fig. 17 link and its seed.
const LINK: (u16, u16) = (1, 6);
const SEED: u64 = 0xF17 ^ (1 << 16) ^ 6;
const PROBE_BYTES: u32 = 1300;
const FRAME_GAP: Duration = Duration::from_millis(50);

/// FNV-1a fold over 64-bit words.
fn mix(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// One timed arm.
#[derive(Debug, Clone, Serialize)]
struct Arm {
    /// Wall ns per frame (best rep).
    ns_per_frame: f64,
    /// `pb_error_prob` evaluations in one rep.
    pberr_evals: u64,
    /// Heap allocations (allocs + reallocs) per frame, reset included.
    allocs_per_frame: f64,
    /// Digest of every frame outcome and the final estimate.
    digest: String,
}

/// What `out/BENCH_probe.json` records.
#[derive(Debug, Serialize)]
struct ProbeBenchReport {
    seed: u64,
    link: (u16, u16),
    frames: u64,
    reps: u64,
    smoke: bool,
    memo: Arm,
    reference: Arm,
    /// Reference ns/frame over memo ns/frame.
    speedup: f64,
    /// Share of frames whose PB error probability the memo served.
    memo_hit_share: f64,
    /// Both arms produced the same outcomes, bit for bit.
    digest_match: bool,
}

/// Probe the link for `frames` frames under a fresh `Obs` (so every run
/// registers, and allocates, its counters alike); `recompute` clears the
/// memo before every frame. Returns (seconds, pberr evaluations,
/// allocation events, digest).
fn probe(env: &PaperEnv, frames: u64, recompute: bool) -> (f64, u64, u64, u64) {
    obs::with_default(Obs::new(), || probe_link(env, frames, recompute))
}

fn probe_link(env: &PaperEnv, frames: u64, recompute: bool) -> (f64, u64, u64, u64) {
    let (a, b) = LINK;
    let mut sim = LinkProbeSim::new(
        env.plc_channel(a, b),
        PaperEnv::dir(a, b),
        env.estimator,
        SEED,
    );
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let before = ALLOC.snapshot();
    let t0 = std::time::Instant::now();
    sim.reset();
    let mut t = Time::from_hours(1);
    for _ in 0..frames {
        if recompute {
            sim.clear_pberr_memo();
        }
        let o = sim.frame(t, PROBE_BYTES);
        for v in [
            o.slot as u64,
            o.ble_mbps.to_bits(),
            o.pberr.to_bits(),
            o.pbs as u64,
            o.pb_errors as u64,
            o.n_symbols,
            o.regenerated as u64,
        ] {
            mix(&mut digest, v);
        }
        t += FRAME_GAP;
    }
    let secs = t0.elapsed().as_secs_f64();
    let allocs = before.delta(&ALLOC.snapshot()).events();
    mix(&mut digest, sim.ble_avg().to_bits());
    (secs, sim.pberr_evals(), allocs, digest)
}

fn main() {
    let smoke = std::env::var("ELECTRIFI_BENCH_SMOKE").is_ok_and(|v| v == "1");
    // Full mode: 1000 s of probing — 33 tone-map expiries and ~10^4
    // spectrum refreshes, the regime Fig. 17 runs in.
    let frames: u64 = if smoke { 2_000 } else { 20_000 };
    let reps: u64 = if smoke { 1 } else { 3 };
    let env = PaperEnv::new(PAPER_SEED);

    // Alternate the arms so host drift hits both alike; keep each arm's
    // best rep. Every rep of an arm must fold the same digest.
    let mut best = [f64::INFINITY; 2];
    let mut runs = [None; 2];
    for _ in 0..reps {
        for (k, recompute) in [false, true].into_iter().enumerate() {
            let (secs, evals, allocs, digest) = probe(&env, frames, recompute);
            best[k] = best[k].min(secs);
            if let Some((_, _, d)) = runs[k] {
                assert_eq!(d, digest, "an arm's digest changed between reps");
            }
            runs[k] = Some((evals, allocs, digest));
        }
    }
    let arm = |k: usize| {
        let (evals, allocs, digest) = runs[k].expect("at least one rep");
        Arm {
            ns_per_frame: best[k] / frames as f64 * 1e9,
            pberr_evals: evals,
            allocs_per_frame: allocs as f64 / frames as f64,
            digest: format!("{digest:016x}"),
        }
    };
    let (memo, reference) = (arm(0), arm(1));
    assert_eq!(
        reference.pberr_evals, frames,
        "the reference arm must evaluate every frame"
    );
    let report = ProbeBenchReport {
        seed: PAPER_SEED,
        link: LINK,
        frames,
        reps,
        smoke,
        speedup: reference.ns_per_frame / memo.ns_per_frame.max(1e-9),
        memo_hit_share: 1.0 - memo.pberr_evals as f64 / frames as f64,
        digest_match: memo.digest == reference.digest,
        memo,
        reference,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    let _ = std::fs::create_dir_all("out");
    std::fs::write("out/BENCH_probe.json", &json).expect("write out/BENCH_probe.json");
    println!("{json}");
    assert!(
        report.digest_match,
        "memo and reference arms diverged — the PB-error memo changed an output"
    );
}
