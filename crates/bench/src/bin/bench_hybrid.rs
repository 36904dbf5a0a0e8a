//! `bench_hybrid` — perf-regression harness for Fig. 20's link sweep
//! (`hybrid::fig20`: the detail link plus the 13 completion links, each
//! a saturated `PlcSim` and `WifiSim` run and a `combine_streams` pass).
//!
//! Runs the figure at paper scale through two arms, alternating, and
//! reports to `out/BENCH_hybrid.json`:
//!
//! * **serial** — `ELECTRIFI_THREADS=1`, set in-process for the arm and
//!   restored afterwards, so the sweep takes its sequential path;
//! * **parallel** — the default worker count (`ELECTRIFI_THREADS` as the
//!   caller set it, else `available_parallelism`);
//! * wall seconds per arm (best of reps), their ratio (the gated
//!   `speedup`) and the parallel arm's worker count;
//! * a **digest** per arm over the serialized `Fig20Result` and whether
//!   they match: the sweep may only save time, never change an output.
//!
//! `scripts/perf_gate.sh` compares this output against the checked-in
//! baseline in `scripts/baselines/BENCH_hybrid.baseline.json`.
//!
//! Environment:
//! * `ELECTRIFI_BENCH_SMOKE=1` — quick scale and one rep, for CI smoke
//!   runs (timings meaningless; the digest is still checked).

use electrifi::experiments::{hybrid, Scale, PAPER_SEED};
use electrifi::PaperEnv;
use electrifi_testbed::sweep;
use serde::Serialize;
use simnet::obs::{self, Obs};

/// One timed arm.
#[derive(Debug, Clone, Serialize)]
struct Arm {
    /// Wall seconds of one `fig20` run (best rep).
    wall_s: f64,
    /// FNV-1a digest of the serialized `Fig20Result`.
    digest: String,
}

/// What `out/BENCH_hybrid.json` records.
#[derive(Debug, Serialize)]
struct HybridBenchReport {
    seed: u64,
    scale: Scale,
    reps: u64,
    smoke: bool,
    /// Sweep workers of the parallel arm.
    workers: usize,
    serial: Arm,
    parallel: Arm,
    /// Serial wall time over parallel wall time.
    speedup: f64,
    /// Both arms produced the same result, byte for byte.
    digest_match: bool,
}

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run Fig. 20 once under a fresh `Obs`; `serial` pins the sweep to one
/// worker for the run. Returns (seconds, digest).
fn run(env: &PaperEnv, scale: Scale, serial: bool) -> (f64, u64) {
    let prior = std::env::var_os(sweep::THREADS_ENV);
    if serial {
        std::env::set_var(sweep::THREADS_ENV, "1");
    }
    let t0 = std::time::Instant::now();
    let r = obs::with_default(Obs::new(), || hybrid::fig20(env, scale));
    let secs = t0.elapsed().as_secs_f64();
    match prior {
        Some(v) => std::env::set_var(sweep::THREADS_ENV, v),
        None => std::env::remove_var(sweep::THREADS_ENV),
    }
    let json = serde_json::to_string(&r).expect("serializable result");
    (secs, fnv1a(json.as_bytes()))
}

fn main() {
    let smoke = std::env::var("ELECTRIFI_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let scale = if smoke { Scale::Quick } else { Scale::Paper };
    let reps: u64 = if smoke { 1 } else { 3 };
    let env = PaperEnv::new(PAPER_SEED);
    // The sweep's items: the detail link plus the completion links.
    let workers = sweep::thread_count(hybrid::FIG20_LINKS.len() + 1);

    // Alternate the arms so host drift hits both alike; keep each arm's
    // best rep. Every rep of an arm must fold the same digest.
    let mut best = [f64::INFINITY; 2];
    let mut digests = [None; 2];
    for _ in 0..reps {
        for (k, serial) in [true, false].into_iter().enumerate() {
            let (secs, digest) = run(&env, scale, serial);
            best[k] = best[k].min(secs);
            if let Some(d) = digests[k] {
                assert_eq!(d, digest, "an arm's digest changed between reps");
            }
            digests[k] = Some(digest);
        }
    }
    let arm = |k: usize| Arm {
        wall_s: best[k],
        digest: format!("{:016x}", digests[k].expect("at least one rep")),
    };
    let (serial, parallel) = (arm(0), arm(1));
    let report = HybridBenchReport {
        seed: PAPER_SEED,
        scale,
        reps,
        smoke,
        workers,
        speedup: serial.wall_s / parallel.wall_s.max(1e-9),
        digest_match: serial.digest == parallel.digest,
        serial,
        parallel,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    let _ = std::fs::create_dir_all("out");
    std::fs::write("out/BENCH_hybrid.json", &json).expect("write out/BENCH_hybrid.json");
    println!("{json}");
    assert!(
        report.digest_match,
        "serial and parallel arms diverged — the Fig. 20 sweep changed an output"
    );
}
