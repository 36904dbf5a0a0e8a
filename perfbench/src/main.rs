//! `perfbench --workload <probe|mac-hybrid|campaign> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Untraced (`--trace 0`): set up the workload's inputs, then run passes
//! back to back for `--seconds` (at least [`MIN_PASSES`]), checking
//! every output, and print the end-to-end metrics. Set-up is sampled
//! before the first pass and again after every pass. Traced
//! (`--trace 1`): re-drive the workload step by step through the same
//! public API with spans around each layer call and print the
//! per-layer metrics. The last stdout line is the JSON result.

use perfbench::report::{result_line, Metric, Tally, END_TO_END};
use perfbench::stats::{median, peak_rss_mb};
use perfbench::traced;
use perfbench::workloads::{self, Pass, Scratch, Workload, DEFAULT_SEED};
use std::process::ExitCode;
use std::time::Instant;

/// Passes every untraced run makes at least: the second is the
/// determinism check against the first.
const MIN_PASSES: usize = 2;
/// One set-up takes tens of microseconds (figures) or a fraction of a
/// millisecond (campaign), too short to time one at a time on a shared
/// host. Each `setup_s` sample therefore repeats the set-up until
/// [`SETUP_SAMPLE_S`] have passed and divides by the count;
/// [`SETUP_SAMPLES`] such samples are taken before the first pass and
/// again after every pass, so they span the run rather than one moment
/// of it. `setup_s` is the median sample.
const SETUP_SAMPLE_S: f64 = 0.02;
const SETUP_SAMPLES: usize = 25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <probe|mac-hybrid|campaign> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch directory: {e}");
            return ExitCode::from(3);
        }
    };
    let out = if args.trace {
        traced::run(args.workload, args.seed, &scratch)
    } else {
        untraced(&args, &scratch)
    };
    match out {
        Ok((tally, metrics)) => {
            for d in &tally.known_defects {
                println!("KNOWN-DEFECT {d}");
            }
            for f in &tally.failures {
                println!("FAILED {f}");
            }
            for m in &metrics {
                println!(
                    "{:<32} {:>18} {}",
                    m.name,
                    format!("{:.6}", m.value),
                    m.unit
                );
            }
            println!(
                "{}",
                result_line(tally.failed == 0, tally.attempted, tally.failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The end-to-end run: set-up samples, then timed, checked passes.
fn untraced(args: &Args, scratch: &Scratch) -> Result<(Tally, Vec<Metric>), String> {
    let w = args.workload;
    let inputs = workloads::setup(w, args.seed)?;
    let mut setup_s = Vec::new();
    let sample_setup = |setup_s: &mut Vec<f64>| {
        setup_s.extend((0..SETUP_SAMPLES).map(|_| setup_sample(w, args.seed)));
    };
    sample_setup(&mut setup_s);

    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut tally = Tally::default();
    while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let pass = workloads::run_pass(w, &inputs, &scratch.pass_dir(passes.len()));
        tally.record(passes.first().unwrap_or(&pass), &pass);
        eprintln!(
            "{} pass {}: {:.3} s, {} events, {} runs, digest {}",
            w.name(),
            passes.len(),
            pass.wall_s,
            pass.events,
            pass.runs,
            pass.digest
        );
        passes.push(pass);
        sample_setup(&mut setup_s);
    }

    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let eps: Vec<f64> = passes.iter().map(|p| p.events as f64 / p.wall_s).collect();
    let rps: Vec<f64> = passes.iter().map(|p| p.runs as f64 / p.wall_s).collect();
    println!(
        "workload {} seed {} nproc {}: {} passes, output digest {}",
        w.name(),
        args.seed,
        perfbench::stats::host_workers(),
        passes.len(),
        passes[0].digest
    );
    println!(
        "wall_s median {:.4} over {} passes; setup_s median over {} samples; fail_rate {}/{} = {}",
        median(&wall),
        wall.len(),
        setup_s.len(),
        tally.failed,
        tally.attempted,
        tally.fail_rate()
    );
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "wall_s" => median(&wall),
                "events_per_s" => median(&eps),
                "runs_per_s" => median(&rps),
                "setup_s" => median(&setup_s),
                "peak_rss_mb" => peak_rss_mb(),
                _ => unreachable!("every end-to-end metric is measured"),
            };
            Metric::new(name, value, unit)
        })
        .collect();
    Ok((tally, metrics))
}

/// Host seconds per set-up, over set-ups repeated until
/// [`SETUP_SAMPLE_S`] have passed. Each set-up's inputs are dropped before
/// the next is built, so memory stays that of one set-up.
fn setup_sample(w: Workload, seed: u64) -> f64 {
    let started = Instant::now();
    let mut n = 0u32;
    while n == 0 || started.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
        drop(workloads::setup(w, seed));
        n += 1;
    }
    started.elapsed().as_secs_f64() / f64::from(n)
}
