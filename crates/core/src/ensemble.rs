//! Batched link-ensemble measurement: many [`LinkProbeSim`]s through
//! one lockstep engine.
//!
//! The probing experiment measures hundreds of independent link pairs
//! with an identical schedule (8 s warm-up, then one saturation
//! burst and throughput sample every `sample`). Serially that is one
//! [`measure_plc`](crate::experiments::spatial::measure_plc) call per
//! pair; batched, each pair becomes a [`ProbeMeasureTask`] — a tiny
//! event-shaped state machine over the very same [`LinkProbeSim`]
//! calls — and a [`Lockstep`] engine advances the whole ensemble
//! epoch by epoch.
//!
//! The campaign runner measures pairs serially (one `measure_plc` per
//! pair under `sweep::par_map`); this module is kept for the
//! `perfbench` traced arm, which times both paths per link.
//!
//! # Bit-identity
//!
//! A task performs **exactly** the call sequence of the serial
//! measurement, in the same per-link order: `warmup(start, 8)` as one
//! event, then `saturate_interval(t, t+20ms, 10ms)` +
//! `throughput_now(t)` per sample instant. Link sims are fully
//! independent (own RNG, own channel), so interleaving tasks across
//! epochs cannot change any per-link result, and the shared
//! `core.probe.*` counters — bound to the ambient [`Obs`] at task
//! construction, exactly as the serial path binds them — receive the
//! same per-link contributions and therefore the same totals. The
//! engine's own `mac.batch.*` counters are quarantined to a detached
//! registry so a batched measurement's metrics stay byte-identical to
//! serial runs (execution shape, like worker count, must never leak into
//! artifacts); its `mac.batch_epoch` span still lands in
//! `ELECTRIFI_PROFILE` traces, which are observational by contract.
//!
//! [`Obs`]: simnet::obs::Obs

use crate::env::PaperEnv;
use crate::probesim::LinkProbeSim;
use electrifi_testbed::StationId;
use plc_phy::PlcTechnology;
use simnet::obs::{self, Obs};
use simnet::stats::RunningStats;
use simnet::time::{Duration, Time};
use simnet::wheel::{Lockstep, LockstepSim};

/// Where a measurement task stands in its fixed schedule.
enum Phase {
    /// Waiting for the warm-up event at `start`.
    Warmup,
    /// Sampling: next burst + sample at `t`.
    Sampling { t: Time },
}

/// One link-pair measurement as a lockstep member: the schedule of
/// [`measure_plc`](crate::experiments::spatial::measure_plc), event by
/// event, over the pair's own [`LinkProbeSim`].
pub struct ProbeMeasureTask {
    sim: LinkProbeSim,
    phase: Phase,
    start: Time,
    sample: Duration,
    /// Sampling stops at this instant (exclusive), `warmup_end + duration`.
    sample_end: Time,
    stats: RunningStats,
}

/// Warm-up length in seconds, matching the serial measurement.
const WARMUP_SECS: u64 = 8;

impl ProbeMeasureTask {
    /// A task measuring `sim` over the standard window: warm-up at
    /// `start`, then `duration` of samples every `sample`.
    pub fn new(sim: LinkProbeSim, start: Time, duration: Duration, sample: Duration) -> Self {
        ProbeMeasureTask {
            sim,
            phase: Phase::Warmup,
            start,
            sample,
            sample_end: start + Duration::from_secs(WARMUP_SECS) + duration,
            stats: RunningStats::new(),
        }
    }

    /// The (mean, std) of the sampled throughput, with the serial
    /// path's connectivity floor applied (mean < 0.3 Mb/s = dead link).
    pub fn result(&self) -> (f64, f64) {
        if self.stats.mean() < 0.3 {
            (0.0, 0.0)
        } else {
            (self.stats.mean(), self.stats.std())
        }
    }
}

impl LockstepSim for ProbeMeasureTask {
    fn wake(&self) -> Time {
        match self.phase {
            Phase::Warmup => self.start,
            Phase::Sampling { t } => t,
        }
    }

    fn advance(&mut self, horizon: Time, _end: Time) -> Option<Time> {
        loop {
            match self.phase {
                Phase::Warmup => {
                    if self.start >= horizon {
                        return Some(self.start);
                    }
                    // One event, exactly like the serial call — the
                    // warm-up's internal bursts are not re-sliced, so
                    // its probe.warmup span and frame sequence are
                    // identical to the serial path's.
                    let t = self.sim.warmup(self.start, WARMUP_SECS);
                    self.phase = Phase::Sampling { t };
                }
                Phase::Sampling { t } => {
                    if t >= horizon {
                        return Some(t);
                    }
                    self.sim.saturate_interval(
                        t,
                        t + Duration::from_millis(20),
                        Duration::from_millis(10),
                    );
                    self.stats.push(self.sim.throughput_now(t));
                    let next = t + self.sample;
                    if next >= self.sample_end {
                        return None;
                    }
                    self.phase = Phase::Sampling { t: next };
                }
            }
        }
    }
}

/// Measure a set of directed PLC links in one lockstep batch,
/// bit-identically to calling
/// [`measure_plc`](crate::experiments::spatial::measure_plc) on each
/// pair in order. Results come back in pair order.
pub fn measure_plc_batch(
    env: &PaperEnv,
    pairs: &[(StationId, StationId)],
    tech: PlcTechnology,
    start: Time,
    duration: Duration,
    sample: Duration,
) -> Vec<(f64, f64)> {
    // Dead-link screening first, preserving the serial path's "no sim
    // is ever built for a hopeless link" behaviour (and its counters).
    let mut results: Vec<Option<(f64, f64)>> = Vec::with_capacity(pairs.len());
    let mut tasks = Vec::new();
    let mut task_pair = Vec::new();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let channel = env.plc_channel_tech(a, b, tech);
        if channel.spectrum(PaperEnv::dir(a, b), start).mean_db()
            < crate::experiments::spatial::PLC_DEAD_SNR_DB
        {
            results.push(Some((0.0, 0.0)));
            continue;
        }
        results.push(None);
        let seed = crate::experiments::spatial::probe_seed(a, b);
        // Construct under the ambient Obs: the task's LinkProbeSim
        // binds its core.probe.* counters here, exactly as the serial
        // path does.
        let sim = LinkProbeSim::new(channel, PaperEnv::dir(a, b), env.estimator, seed);
        tasks.push(ProbeMeasureTask::new(sim, start, duration, sample));
        task_pair.push(i);
    }
    if !tasks.is_empty() {
        // The engine itself observes under a detached registry: its
        // mac.batch.* counters describe execution shape and must not
        // land in run records (summary.json is byte-identical across
        // batch sizes, like it is across worker counts).
        let mut engine = obs::with_default(Obs::new(), || Lockstep::new(tasks));
        engine.run_until(start + Duration::from_secs(WARMUP_SECS) + duration);
        for (task, &slot) in engine.sims().iter().zip(&task_pair) {
            results[slot] = Some(task.result());
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every pair measured"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::spatial::measure_plc;
    use crate::experiments::PAPER_SEED;

    /// The batched ensemble must reproduce the serial per-pair results
    /// to the bit, and leave identical core.probe.* counter totals.
    #[test]
    fn batched_measurement_matches_serial() {
        let env = PaperEnv::new(PAPER_SEED);
        let mut pairs: Vec<(StationId, StationId)> =
            env.plc_pairs().into_iter().filter(|(a, b)| a < b).collect();
        pairs.truncate(6);
        assert!(pairs.len() >= 2, "fixture too small: {pairs:?}");
        let start = Time::from_hours(10);
        let duration = Duration::from_secs(2);
        let sample = Duration::from_millis(100);

        let serial_obs = Obs::new();
        let serial_reg = serial_obs.registry().clone();
        let serial: Vec<(f64, f64)> = obs::with_default(serial_obs, || {
            pairs
                .iter()
                .map(|&(a, b)| {
                    measure_plc(&env, a, b, PlcTechnology::HpAv, start, duration, sample)
                })
                .collect()
        });

        let batch_obs = Obs::new();
        let batch_reg = batch_obs.registry().clone();
        let batched = obs::with_default(batch_obs, || {
            measure_plc_batch(&env, &pairs, PlcTechnology::HpAv, start, duration, sample)
        });

        for (i, (s, b)) in serial.iter().zip(&batched).enumerate() {
            assert_eq!(s.0.to_bits(), b.0.to_bits(), "pair {i} mean");
            assert_eq!(s.1.to_bits(), b.1.to_bits(), "pair {i} std");
        }
        // Counter totals match exactly; the engine's own mac.batch.*
        // series never reaches the ambient registry at all.
        let batch_counters = batch_reg.snapshot().counters;
        assert!(
            !batch_counters
                .iter()
                .any(|(n, _)| n.starts_with("mac.batch.")),
            "engine counters leaked into the measurement registry"
        );
        assert_eq!(serial_reg.snapshot().counters, batch_counters);
    }
}
