//! Traced runs: per-layer metrics.
//!
//! A traced run first makes one untraced reference pass of its workload
//! (its outputs are checked like any pass, and its CPU use gives
//! `sweep.cpu_util`). It then re-drives the workload step by step through
//! the same public API, with the same inputs and seeds, timing each call
//! into a layer from here — the benchmark's own spans; none are added
//! inside the program. Each replica's output digest is compared with the
//! program's own output for the same inputs: a mismatch marks the
//! per-layer numbers as stale (`trace.replica_match` < 1) but is not a
//! failed operation.
//!
//! Every traced run reports every per-layer metric. Layers the workload
//! reaches are measured on the workload's own replica at full size (its
//! *home* drive). Layers it does not reach are measured on a fixed small
//! *tour*: the other workloads' replicas at `Scale::Quick`, and the
//! generated campaign's runs for its first seed. Compare a per-layer
//! number only between traced runs of the same workload.

use crate::report::{Metric, Tally};
use crate::stats::{digest, host_workers, median, process_cpu_s, quantile, timed};
use crate::workloads::{self, Inputs, Pass, Scratch, Workload};
use electrifi::ensemble;
use electrifi::experiments::capacity::{self, Fig17Result};
use electrifi::experiments::disturbance::{self, DisturbanceConfig, WARMUP_SECS};
use electrifi::experiments::hybrid::{self, CompletionRow, Fig20Result, Fig20Throughput};
use electrifi::experiments::retrans::{self, Fig23Result, Fig24Result, SensitivityTrace};
use electrifi::experiments::spatial;
use electrifi::experiments::Scale;
use electrifi::probesim::LinkProbeSim;
use electrifi::PaperEnv;
use electrifi_faults::{evaluate, CompiledFaults};
use electrifi_scenario::campaign::{
    execute_run_opts, summarize, validate_scenarios, write_artifacts, CampaignSpec, ExecOptions,
    RunRecord, RunSpec,
};
use electrifi_scenario::checkpoint::{write_checkpoint, CHECKPOINT_FILE};
use electrifi_scenario::spec::ExperimentKind;
use electrifi_scenario::Scenario;
use electrifi_testbed::{sweep, StationId};
use hybrid1905::balancer::{combine_streams, CombinedDelivery, SplitStrategy};
use plc_mac::pb::pbs_for_packet;
use plc_mac::sim::{Flow, PlcSim, SimConfig};
use plc_phy::channel::{LinkDir, PlcChannel};
use plc_phy::error::pb_error_prob;
use plc_phy::estimation::{ChannelEstimator, EstimatorConfig, PB_BITS};
use plc_phy::tonemap::{ToneMap, TONEMAP_SLOTS};
use plc_phy::{PlcTechnology, SnrSpectrum};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::obs::{self, config_digest, Obs};
use simnet::rng::Distributions;
use simnet::stats::RunningStats;
use simnet::time::{Duration, Time};
use simnet::trace::Series;
use simnet::traffic::{TrafficPattern, TrafficSource};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use wifi80211::sim::{WifiFlow, WifiSim, WifiSimConfig};

/// Replica passes of the `campaign` home drive: enough run samples
/// (passes × runs) that the 90th percentile of `campaign.run_ms` has at
/// least ten samples beyond it.
pub const CAMPAIGN_TRACE_PASSES: usize = 4;

/// The per-layer metrics every traced run prints, in `BENCHMARK.json`
/// order: name and unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("phy.channel_build_ms", "ms"),
    ("phy.spectrum_us", "us"),
    ("phy.epoch_rebuild_share", "ratio"),
    ("est.observe_us", "us"),
    ("est.observe_calls", "count"),
    ("err.pberr_us", "us"),
    ("err.pberr_repeat_share", "ratio"),
    ("probe.frame_us", "us"),
    ("probe.frames", "count"),
    ("probe.regen_share", "ratio"),
    ("mac.run_until_s", "s"),
    ("mac.ns_per_event", "ns"),
    ("mac.idle_skip_share", "ratio"),
    ("wifi.run_until_s", "s"),
    ("wifi.ns_per_event", "ns"),
    ("hybrid.combine_ms", "ms"),
    ("sweep.cpu_util", "ratio"),
    ("scenario.load_ms", "ms"),
    ("campaign.validate_ms", "ms"),
    ("campaign.run_ms", "ms"),
    ("campaign.run_ms_p90", "ms"),
    ("campaign.run_samples", "count"),
    ("campaign.emit_ms", "ms"),
    ("state.checkpoint_ms", "ms"),
    ("state.checkpoint_bytes", "B"),
    ("faults.compile_us", "us"),
    ("faults.evaluate_us", "us"),
    ("ensemble.serial_ms_per_link", "ms"),
    ("ensemble.batch_ms_per_link", "ms"),
    ("trace_overhead", "ratio"),
    ("trace.replica_match", "ratio"),
];

/// Busy time and call counts per layer call, plus counters and samples,
/// recorded by the benchmark around its calls into the program.
#[derive(Debug, Default)]
struct Trace {
    /// Span name → (calls, busy seconds).
    busy: BTreeMap<&'static str, (f64, f64)>,
    /// Counter name → value.
    counts: BTreeMap<&'static str, f64>,
    /// Sample name → per-call values.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        self.add(name, 1.0, secs);
        out
    }

    fn add(&mut self, name: &'static str, calls: f64, secs: f64) {
        let e = self.busy.entry(name).or_default();
        e.0 += calls;
        e.1 += secs;
    }

    fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn merge(&mut self, other: Trace) {
        for (k, (c, s)) in other.busy {
            self.add(k, c, s);
        }
        for (k, v) in other.counts {
            self.count(k, v);
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }

    /// Mean busy seconds per call.
    fn per_call(&self, name: &str) -> Option<f64> {
        self.busy
            .get(name)
            .filter(|(c, _)| *c > 0.0)
            .map(|(c, s)| s / c)
    }

    fn busy_s(&self, name: &str) -> Option<f64> {
        self.busy.get(name).map(|(_, s)| *s)
    }

    fn calls(&self, name: &str) -> Option<f64> {
        self.busy.get(name).map(|(c, _)| *c)
    }

    fn counter(&self, name: &str) -> Option<f64> {
        self.counts.get(name).copied()
    }

    /// Absorb a program-reported counter from `obs`'s registry.
    fn absorb_counter(&mut self, obs: &Obs, program_name: &str, name: &'static str) {
        let v = obs.registry().counter(program_name).get();
        self.count(name, v as f64);
    }

    /// The PHY spectrum cache's own counters (program-reported).
    fn absorb_spectrum_counters(&mut self, obs: &Obs) {
        self.absorb_counter(obs, "plc.phy.spectrum.epoch_hits", "phy.epoch_hits");
        self.absorb_counter(obs, "plc.phy.spectrum.epoch_rebuilds", "phy.epoch_rebuilds");
    }

    /// The per-layer metrics this trace has data for (`None` where the
    /// drives it recorded never reached the layer).
    fn layer_metrics(&self) -> BTreeMap<&'static str, Option<f64>> {
        let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
            (Some(n), Some(d)) if d > 0.0 => Some(n / d),
            _ => None,
        };
        let scaled = |v: Option<f64>, k: f64| v.map(|x| x * k);
        let runs = self.samples.get("campaign.run_ms");
        let hits = self.counter("phy.epoch_hits");
        let rebuilds = self.counter("phy.epoch_rebuilds");
        let mac_events = self.counter("mac.events");
        let idle = self.counter("mac.idle_skips");
        let links = self.counter("ensemble.links");
        BTreeMap::from([
            (
                "phy.channel_build_ms",
                scaled(self.per_call("phy.channel_build"), 1e3),
            ),
            (
                "phy.spectrum_us",
                scaled(self.per_call("phy.spectrum"), 1e6),
            ),
            (
                "phy.epoch_rebuild_share",
                ratio(rebuilds, hits.zip(rebuilds).map(|(h, r)| h + r)),
            ),
            ("est.observe_us", scaled(self.per_call("est.observe"), 1e6)),
            ("est.observe_calls", self.calls("est.observe")),
            ("err.pberr_us", scaled(self.per_call("err.pberr"), 1e6)),
            (
                "err.pberr_repeat_share",
                ratio(self.counter("err.pberr_repeats"), self.calls("err.pberr")),
            ),
            ("probe.frame_us", scaled(self.per_call("probe.frame"), 1e6)),
            ("probe.frames", self.calls("probe.frame")),
            (
                "probe.regen_share",
                ratio(self.counter("probe.regens"), self.calls("probe.frame")),
            ),
            ("mac.run_until_s", self.busy_s("mac.run_until")),
            (
                "mac.ns_per_event",
                ratio(scaled(self.busy_s("mac.run_until"), 1e9), mac_events),
            ),
            (
                "mac.idle_skip_share",
                ratio(idle, idle.zip(mac_events).map(|(i, e)| i + e)),
            ),
            ("wifi.run_until_s", self.busy_s("wifi.run_until")),
            (
                "wifi.ns_per_event",
                ratio(
                    scaled(self.busy_s("wifi.run_until"), 1e9),
                    self.counter("wifi.events"),
                ),
            ),
            (
                "hybrid.combine_ms",
                scaled(self.per_call("hybrid.combine"), 1e3),
            ),
            (
                "scenario.load_ms",
                scaled(self.per_call("scenario.load"), 1e3),
            ),
            (
                "campaign.validate_ms",
                scaled(self.per_call("campaign.validate"), 1e3),
            ),
            ("campaign.run_ms", runs.map(|v| median(v))),
            ("campaign.run_ms_p90", runs.map(|v| quantile(v, 0.9))),
            ("campaign.run_samples", runs.map(|v| v.len() as f64)),
            (
                "campaign.emit_ms",
                scaled(self.per_call("campaign.emit"), 1e3),
            ),
            (
                "state.checkpoint_ms",
                scaled(self.per_call("state.checkpoint"), 1e3),
            ),
            (
                "state.checkpoint_bytes",
                ratio(
                    self.counter("state.checkpoint_bytes"),
                    self.calls("state.checkpoint"),
                ),
            ),
            (
                "faults.compile_us",
                scaled(self.per_call("faults.compile"), 1e6),
            ),
            (
                "faults.evaluate_us",
                scaled(self.per_call("faults.evaluate"), 1e6),
            ),
            (
                "ensemble.serial_ms_per_link",
                ratio(scaled(self.busy_s("ensemble.serial"), 1e3), links),
            ),
            (
                "ensemble.batch_ms_per_link",
                ratio(scaled(self.busy_s("ensemble.batch"), 1e3), links),
            ),
        ])
    }
}

/// Replica-versus-program output comparisons.
#[derive(Debug, Default)]
struct Replicas {
    checked: u32,
    matched: u32,
    stale: Vec<String>,
}

impl Replicas {
    fn compare(&mut self, what: &str, program: &[Option<String>], replica: &[Option<String>]) {
        self.checked += 1;
        if program == replica && program.iter().all(Option::is_some) {
            self.matched += 1;
        } else {
            self.stale.push(format!(
                "{what}: replica digests {replica:?} differ from the program's {program:?}"
            ));
        }
    }

    fn share(&self) -> f64 {
        self.matched as f64 / self.checked.max(1) as f64
    }
}

fn digests<T: serde::Serialize>(values: &[&T]) -> Vec<Option<String>> {
    values.iter().map(|v| Some(digest(v))).collect()
}

fn item_digests(pass: &Pass) -> Vec<Option<String>> {
    pass.items.iter().map(|i| i.digest.clone()).collect()
}

/// Run a traced run of `w` and return its per-layer metrics.
pub fn run(w: Workload, seed: u64, scratch: &Scratch) -> Result<(Tally, Vec<Metric>), String> {
    let inputs = workloads::setup(w, seed)?;
    let cpu0 = process_cpu_s();
    let reference = workloads::run_pass(w, &inputs, &scratch.pass_dir(0));
    let cpu_util = (process_cpu_s() - cpu0) / (reference.wall_s * host_workers() as f64);
    let mut tally = Tally::default();
    tally.record(&reference, &reference);
    eprintln!(
        "{} reference pass: {:.3} s, digest {}",
        w.name(),
        reference.wall_s,
        reference.digest
    );

    let mut home = Trace::default();
    let mut tour = Trace::default();
    let mut rep = Replicas::default();
    let reference_digests = item_digests(&reference);
    let traced_wall = match (w, &inputs) {
        (Workload::Probe, Inputs::Env(env)) => {
            let wall = probe_drive(
                env,
                Scale::Paper,
                Some(&reference_digests),
                &mut home,
                &mut rep,
            );
            mac_drive(env, Scale::Quick, None, &mut tour, &mut rep);
            campaign_tour(seed, scratch, &mut tour, &mut rep)?;
            wall
        }
        (Workload::MacHybrid, Inputs::Env(env)) => {
            let wall = mac_drive(
                env,
                Scale::Paper,
                Some(&reference_digests),
                &mut home,
                &mut rep,
            );
            probe_drive(env, Scale::Quick, None, &mut tour, &mut rep);
            campaign_tour(seed, scratch, &mut tour, &mut rep)?;
            wall
        }
        (Workload::Campaign, Inputs::Campaign { spec, runs }) => {
            let wall = campaign_drive(
                spec,
                runs,
                scratch,
                CAMPAIGN_TRACE_PASSES,
                Some(&reference_digests),
                &mut home,
                &mut rep,
            )?;
            let env = PaperEnv::new(seed);
            probe_drive(&env, Scale::Quick, None, &mut tour, &mut rep);
            mac_drive(&env, Scale::Quick, None, &mut tour, &mut rep);
            wall
        }
        _ => unreachable!("inputs are built for their workload"),
    };
    for s in &rep.stale {
        println!("STALE {s}");
    }

    let mut home_m = home.layer_metrics();
    home_m.insert("sweep.cpu_util", Some(cpu_util));
    home_m.insert("trace_overhead", Some(traced_wall / reference.wall_s));
    home_m.insert("trace.replica_match", Some(rep.share()));
    let tour_m = tour.layer_metrics();
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit) in PER_LAYER {
        let measured = |m: &BTreeMap<&str, Option<f64>>| m.get(name).copied().flatten();
        let (value, origin) = match (measured(&home_m), measured(&tour_m)) {
            (Some(v), _) => (v, "home"),
            (None, Some(v)) => (v, "tour"),
            (None, None) => return Err(format!("per-layer metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("per-layer metric {name} is not finite: {value}"));
        }
        println!("layer {name:<30} {origin}");
        metrics.push(Metric::new(name, value, unit));
    }
    Ok((tally, metrics))
}

// ---------------------------------------------------------------------
// probe: Fig. 17 re-driven frame by frame.

/// The four Fig. 17 links, as `capacity::fig17` probes them.
const FIG17_LINKS: [(StationId, StationId); 4] = [(1, 0), (1, 6), (1, 10), (1, 5)];
/// Probing rate and probe size of Fig. 17.
const FIG17_RATE: u32 = 20;
const FIG17_BYTES: u32 = 1300;
/// `LinkProbeSim`'s per-slot spectrum cache lifetime.
const SPECTRUM_TTL: Duration = Duration::from_millis(100);

/// One probed link, as the replica drives it.
trait Prober {
    fn frame(&mut self, t: Time, payload_bytes: u32, acc: &mut FrameAcc);
    fn ble_avg(&self) -> f64;
}

/// Hot-loop accumulators, folded into a [`Trace`] once per drive.
#[derive(Debug, Default)]
struct FrameAcc {
    frame: (f64, f64),
    spectrum: (f64, f64),
    pberr: (f64, f64),
    observe: (f64, f64),
    regens: f64,
    pberr_repeats: f64,
}

impl FrameAcc {
    fn into_trace(self, tr: &mut Trace) {
        for (name, (calls, secs)) in [
            ("probe.frame", self.frame),
            ("phy.spectrum", self.spectrum),
            ("err.pberr", self.pberr),
            ("est.observe", self.observe),
        ] {
            if calls > 0.0 {
                tr.add(name, calls, secs);
            }
        }
        if self.frame.0 > 0.0 {
            tr.count("probe.regens", self.regens);
        }
        if self.pberr.0 > 0.0 {
            tr.count("err.pberr_repeats", self.pberr_repeats);
        }
    }
}

fn add_elapsed(slot: &mut (f64, f64), t0: Instant) {
    slot.0 += 1.0;
    slot.1 += t0.elapsed().as_secs_f64();
}

/// The program's own measurement loop: `LinkProbeSim::frame` timed per
/// call.
struct WholeFrames(LinkProbeSim);

impl Prober for WholeFrames {
    fn frame(&mut self, t: Time, payload_bytes: u32, acc: &mut FrameAcc) {
        let t0 = Instant::now();
        let out = self.0.frame(t, payload_bytes);
        add_elapsed(&mut acc.frame, t0);
        if out.regenerated {
            acc.regens += 1.0;
        }
    }

    fn ble_avg(&self) -> f64 {
        self.0.estimator().ble_avg()
    }
}

/// `LinkProbeSim::frame` taken apart into its public PHY and estimator
/// calls — spectrum refresh, PB error probability, error draws,
/// estimator update, regeneration — so each can be timed on its own. It
/// mirrors the program's frame step by step, so its output digest equals
/// the program's while the two agree.
struct SplitFrames {
    channel: PlcChannel,
    dir: LinkDir,
    est: ChannelEstimator,
    rng: StdRng,
    window: (u64, u64),
    spec_cache: Vec<Option<(Time, SnrSpectrum)>>,
    robo: ToneMap,
    /// Per slot: spectrum refreshes so far (the spectrum's generation).
    refreshes: Vec<u64>,
    /// Per slot: the (spectrum generation, regenerations, tuned map)
    /// inputs of the previous frame's PB error probability.
    last_inputs: Vec<Option<(u64, u64, bool)>>,
}

impl SplitFrames {
    fn new(channel: PlcChannel, dir: LinkDir, cfg: EstimatorConfig, seed: u64) -> SplitFrames {
        let n = channel.plan().len();
        SplitFrames {
            channel,
            dir,
            est: ChannelEstimator::new(cfg, n),
            rng: StdRng::seed_from_u64(seed),
            window: (0, 0),
            spec_cache: vec![None; TONEMAP_SLOTS],
            robo: ToneMap::robo(n),
            refreshes: vec![0; TONEMAP_SLOTS],
            last_inputs: vec![None; TONEMAP_SLOTS],
        }
    }

    fn reset(&mut self) {
        self.est.reset();
        self.window = (0, 0);
        self.spec_cache.iter_mut().for_each(|e| *e = None);
    }
}

impl Prober for SplitFrames {
    fn frame(&mut self, t: Time, payload_bytes: u32, acc: &mut FrameAcc) {
        let slot = t.tonemap_slot(TONEMAP_SLOTS);
        let stale = match &self.spec_cache[slot] {
            Some((at, _)) => t.saturating_since(*at) >= SPECTRUM_TTL,
            None => true,
        };
        if stale {
            let phase = (slot as f64 + 0.5) / TONEMAP_SLOTS as f64;
            let (at, spec) = self.spec_cache[slot].get_or_insert_with(|| (t, SnrSpectrum::empty()));
            *at = t;
            let t0 = Instant::now();
            self.channel
                .spectrum_at_phase_into(self.dir, t, phase, spec);
            add_elapsed(&mut acc.spectrum, t0);
            self.refreshes[slot] += 1;
        }
        let pbs = pbs_for_packet(payload_bytes);
        let bits = pbs as u64 * PB_BITS;
        let spec = &self.spec_cache[slot].as_ref().expect("just refreshed").1;
        let tuned = self.est.last_regen().is_some();
        let map = if tuned {
            &self.est.tonemaps().slots[slot % TONEMAP_SLOTS]
        } else {
            &self.robo
        };
        let n_symbols = map.symbols_for_bits(bits).clamp(1, 1_000);
        let inputs = (self.refreshes[slot], self.est.stats().regenerations, tuned);
        if self.last_inputs[slot] == Some(inputs) {
            acc.pberr_repeats += 1.0;
        }
        self.last_inputs[slot] = Some(inputs);
        let t0 = Instant::now();
        let pberr = pb_error_prob(map, spec);
        add_elapsed(&mut acc.pberr, t0);
        let mut pb_errors = 0u64;
        for _ in 0..pbs {
            if Distributions::bernoulli(&mut self.rng, pberr) {
                pb_errors += 1;
            }
        }
        self.window.0 += pbs as u64;
        self.window.1 += pb_errors;
        let t0 = Instant::now();
        self.est.observe(&mut self.rng, slot, spec, n_symbols, pbs);
        add_elapsed(&mut acc.observe, t0);
        let recent = if self.window.0 >= 20 {
            self.window.1 as f64 / self.window.0 as f64
        } else {
            0.0
        };
        if self.est.maybe_regenerate(t, recent) {
            self.window = (0, 0);
        }
    }

    fn ble_avg(&self) -> f64 {
        self.est.ble_avg()
    }
}

/// `capacity::probe_at_rate`, re-driven.
fn probe_at_rate<P: Prober>(
    p: &mut P,
    start: Time,
    duration: Duration,
    acc: &mut FrameAcc,
) -> Series {
    let mut series = Series::new(format!("{FIG17_RATE} pkt/s"));
    let gap = Duration::from_secs_f64(1.0 / FIG17_RATE as f64);
    let mut t = start;
    let end = start + duration;
    let mut next_sample = start;
    while t < end {
        p.frame(t, FIG17_BYTES, acc);
        if t >= next_sample {
            series.push(t, p.ble_avg());
            next_sample += Duration::from_secs(5);
        }
        t += gap;
    }
    series
}

/// `capacity::fig17`, re-driven with `make` building each link's prober.
fn fig17_replica<P: Prober>(
    env: &PaperEnv,
    scale: Scale,
    tr: &mut Trace,
    mut make: impl FnMut(PlcChannel, LinkDir, u64) -> P,
) -> Fig17Result {
    let before = scale.dur(Duration::from_secs(2_300), 100);
    let pause = scale.dur(Duration::from_secs(420), 100);
    let after = scale.dur(Duration::from_secs(2_000), 100);
    let start = Time::from_hours(1);
    let pause_at = start + before;
    let resume_at = pause_at + pause;
    let mut acc = FrameAcc::default();
    let mut links = Vec::new();
    for (a, b) in FIG17_LINKS {
        let seed = 0xF17 ^ ((a as u64) << 16) ^ b as u64;
        let channel = tr.span("phy.channel_build", || env.plc_channel(a, b));
        let mut p = make(channel, PaperEnv::dir(a, b), seed);
        let mut series = probe_at_rate(&mut p, start, before, &mut acc);
        let resumed = probe_at_rate(&mut p, resume_at, after, &mut acc);
        for &(t, v) in resumed.points() {
            series.push(t, v);
        }
        links.push(((a, b), series));
    }
    acc.into_trace(tr);
    Fig17Result {
        links,
        pause_at,
        resume_at,
    }
}

/// Both Fig. 17 replicas at `scale`; returns the host seconds of the
/// whole-frame replica (the one comparable with the untraced pass).
fn probe_drive(
    env: &PaperEnv,
    scale: Scale,
    reference: Option<&[Option<String>]>,
    tr: &mut Trace,
    rep: &mut Replicas,
) -> f64 {
    let program = match reference {
        Some(d) => d.to_vec(),
        None => digests(&[&capacity::fig17(env, scale)]),
    };
    let (whole, wall) = timed(|| {
        fig17_replica(env, scale, tr, |ch, dir, seed| {
            let mut sim = LinkProbeSim::new(ch, dir, env.estimator, seed);
            sim.reset();
            WholeFrames(sim)
        })
    });
    rep.compare("fig17 (LinkProbeSim::frame)", &program, &digests(&[&whole]));
    // Channels of the split replica count their spectrum-cache hits and
    // rebuilds into a registry of their own.
    let phy = Obs::new();
    let split = obs::with_default(phy.clone(), || {
        fig17_replica(env, scale, tr, |ch, dir, seed| {
            let mut p = SplitFrames::new(ch, dir, env.estimator, seed);
            p.reset();
            p
        })
    });
    tr.absorb_spectrum_counters(&phy);
    rep.compare("fig17 (split frame)", &program, &digests(&[&split]));
    wall
}

// ---------------------------------------------------------------------
// mac-hybrid: Figs. 20, 23 and 24 re-driven around the MAC simulators.

/// Packet size of the hybrid experiment.
const PKT_BYTES: u32 = 1500;

/// `hybrid::delivery_timelines`, re-driven: each simulator runs under a
/// registry of its own so its events and idle skips are counted apart.
fn delivery_timelines(
    env: &PaperEnv,
    a: StationId,
    b: StationId,
    duration: Duration,
    tr: &mut Trace,
) -> (Vec<Time>, Vec<Time>) {
    let plc_obs = Obs::new();
    let plc_times = obs::with_default(plc_obs.clone(), || {
        let cfg = SimConfig {
            seed: env.testbed.seed ^ 0xF20 ^ ((a as u64) << 12) ^ b as u64,
            ..SimConfig::default()
        };
        let outlets = [
            (a, env.testbed.station(a).outlet),
            (b, env.testbed.station(b).outlet),
        ];
        let mut plc = PlcSim::new(cfg, &env.testbed.grid, &outlets);
        if !plc.connected(a, b) {
            return Vec::new();
        }
        let f = plc.add_flow(Flow::unicast(a, b, TrafficSource::iperf_saturated()));
        tr.span("mac.run_until", || plc.run_until(Time::ZERO + duration));
        let mut d = plc.take_delivered(f);
        d.sort_by_key(|p| p.delivered);
        d.into_iter().map(|p| p.delivered).collect()
    });
    absorb_mac_counters(tr, &plc_obs);
    let wifi_obs = Obs::new();
    let wifi_times = obs::with_default(wifi_obs.clone(), || {
        let wcfg = WifiSimConfig {
            seed: env.testbed.seed ^ 0x20F ^ ((a as u64) << 12) ^ b as u64,
            channel: env.wifi_params,
            ..WifiSimConfig::default()
        };
        let positions = [
            (a, env.testbed.station(a).pos),
            (b, env.testbed.station(b).pos),
        ];
        let mut wifi = WifiSim::new(wcfg, &env.testbed.floor, &positions);
        let f = wifi.add_flow(WifiFlow {
            src: a,
            dst: b,
            source: TrafficSource::iperf_saturated(),
        });
        tr.span("wifi.run_until", || wifi.run_until(Time::ZERO + duration));
        let mut wd = wifi.take_delivered(f);
        wd.sort_by_key(|p| p.delivered);
        wd.into_iter().map(|p| p.delivered).collect::<Vec<Time>>()
    });
    tr.absorb_counter(&wifi_obs, "sim.events_fired", "wifi.events");
    (plc_times, wifi_times)
}

fn absorb_mac_counters(tr: &mut Trace, plc_obs: &Obs) {
    tr.absorb_counter(plc_obs, "sim.events_fired", "mac.events");
    tr.absorb_counter(plc_obs, "plc.mac.idle_skips", "mac.idle_skips");
    tr.absorb_spectrum_counters(plc_obs);
}

fn mean_rate_mbps(times: &[Time]) -> f64 {
    match (times.first(), times.last()) {
        (Some(&f), Some(&l)) if l > f && times.len() > 1 => {
            (times.len() - 1) as f64 * PKT_BYTES as f64 * 8.0 / (l - f).as_secs_f64() / 1e6
        }
        _ => 0.0,
    }
}

fn jitter_ms(times: &[Time]) -> f64 {
    if times.len() < 3 {
        return 0.0;
    }
    let mut s = RunningStats::new();
    for w in times.windows(2) {
        s.push((w[1] - w[0]).as_millis_f64());
    }
    s.std()
}

fn completion_s(delivery: &CombinedDelivery) -> f64 {
    delivery
        .completion_time()
        .map(|t| t.as_secs_f64())
        .unwrap_or(f64::INFINITY)
}

/// The 13 completion-time links of Fig. 20.
const FIG20_LINKS: [(StationId, StationId); 13] = [
    (0, 9),
    (0, 5),
    (9, 0),
    (9, 6),
    (9, 7),
    (3, 9),
    (1, 6),
    (1, 8),
    (2, 11),
    (2, 5),
    (6, 1),
    (6, 2),
    (7, 9),
];

/// `hybrid::fig20`, re-driven.
fn fig20_replica(env: &PaperEnv, scale: Scale, tr: &mut Trace) -> Fig20Result {
    let (a, b) = (0, 4);
    let (plc_times, wifi_times) =
        delivery_timelines(env, a, b, scale.dur(Duration::from_secs(100), 20), tr);
    let strategy =
        SplitStrategy::capacity_weighted(mean_rate_mbps(&plc_times), mean_rate_mbps(&wifi_times));
    let total = plc_times.len() + wifi_times.len();
    let combined = tr.span("hybrid.combine", || {
        combine_streams(&plc_times, &wifi_times, strategy, total, 0xF20)
    });
    let rr = tr.span("hybrid.combine", || {
        combine_streams(
            &plc_times,
            &wifi_times,
            SplitStrategy::RoundRobin,
            total,
            0xF20,
        )
    });
    let single_jitter_ms = if mean_rate_mbps(&plc_times) > mean_rate_mbps(&wifi_times) {
        jitter_ms(&plc_times)
    } else {
        jitter_ms(&wifi_times)
    };
    let detail = Fig20Throughput {
        link: (a, b),
        wifi_only: mean_rate_mbps(&wifi_times),
        plc_only: mean_rate_mbps(&plc_times),
        hybrid: combined.mean_throughput_mbps(PKT_BYTES),
        round_robin: rr.mean_throughput_mbps(PKT_BYTES),
        hybrid_jitter_ms: combined.jitter_ms(),
        single_jitter_ms,
    };
    let file_bytes: u64 = match scale {
        Scale::Paper => 600_000_000,
        Scale::Quick => 12_000_000,
    };
    let n_packets = (file_bytes / PKT_BYTES as u64) as usize;
    let duration = scale.dur(Duration::from_secs(120), 12);
    let mut completions = Vec::new();
    for (a, b) in FIG20_LINKS {
        let (plc_times, wifi_times) = delivery_timelines(env, a, b, duration, tr);
        if wifi_times.is_empty() {
            continue;
        }
        let wifi_rate = mean_rate_mbps(&wifi_times);
        let wifi_s = file_bytes as f64 * 8.0 / (wifi_rate * 1e6);
        let strategy = SplitStrategy::capacity_weighted(mean_rate_mbps(&plc_times), wifi_rate);
        let seed = 0xC0C0 ^ ((a as u64) << 8) ^ b as u64;
        let combined = tr.span("hybrid.combine", || {
            combine_streams(&plc_times, &wifi_times, strategy, n_packets, seed)
        });
        completions.push(CompletionRow {
            link: (a, b),
            wifi_s,
            hybrid_s: completion_s(&combined),
        });
    }
    Fig20Result {
        detail,
        completions,
        file_bytes,
    }
}

/// `retrans::sensitivity_run`, re-driven with `run_until` timed per
/// one-second step.
fn sensitivity_replica(
    env: &PaperEnv,
    probe: (StationId, StationId),
    background: (StationId, StationId),
    bursts: bool,
    scale: Scale,
) -> (SensitivityTrace, Trace) {
    let mut tr = Trace::default();
    let plc_obs = Obs::new();
    let trace = obs::with_default(plc_obs.clone(), || {
        let total = scale.dur(Duration::from_secs(600), 30);
        let background_at = Time::ZERO + total / 3;
        let mut stations = vec![probe.0, probe.1, background.0, background.1];
        stations.sort_unstable();
        stations.dedup();
        let outlets: Vec<_> = stations
            .iter()
            .map(|&s| (s, env.testbed.station(s).outlet))
            .collect();
        let cfg = SimConfig {
            seed: env.testbed.seed
                ^ 0xF23
                ^ ((probe.0 as u64) << 24)
                ^ ((probe.1 as u64) << 16)
                ^ ((background.0 as u64) << 8)
                ^ bursts as u64,
            ..SimConfig::default()
        };
        let mut sim = PlcSim::new(cfg, &env.testbed.grid, &outlets);
        let probe_source = if bursts {
            TrafficSource::probe_bursts_150kbps()
        } else {
            TrafficSource::probe_150kbps()
        };
        sim.add_flow(Flow::unicast(probe.0, probe.1, probe_source));
        sim.add_flow(Flow::unicast(
            background.0,
            background.1,
            TrafficSource::new(TrafficPattern::Saturated { pkt_bytes: 1500 }, background_at),
        ));
        let mut ble = Series::new(format!("BLE {}-{}", probe.0, probe.1));
        let mut pberr = Series::new(format!("PBerr {}-{}", probe.0, probe.1));
        let step = Duration::from_secs(1);
        let mut t = Time::ZERO + step;
        while t <= Time::ZERO + total {
            tr.span("mac.run_until", || sim.run_until(t));
            ble.push(t, sim.int6krate(probe.0, probe.1));
            if let Some(p) = sim.ampstat(probe.0, probe.1) {
                pberr.push(t, p);
            }
            t += step;
        }
        SensitivityTrace {
            probe_link: probe,
            background_link: background,
            bursts,
            ble,
            pberr,
            background_at,
        }
    });
    absorb_mac_counters(&mut tr, &plc_obs);
    (trace, tr)
}

type PairSpec = ((StationId, StationId), (StationId, StationId), bool);

/// `retrans::sensitivity_pair`, re-driven through the same sweep.
fn sensitivity_pair_replica(
    env: &PaperEnv,
    specs: [PairSpec; 2],
    scale: Scale,
    tr: &mut Trace,
) -> (SensitivityTrace, SensitivityTrace) {
    let mut out = sweep::par_map(&specs, |_, &(probe, background, bursts)| {
        sensitivity_replica(env, probe, background, bursts, scale)
    })
    .into_iter()
    .map(|(trace, t)| {
        tr.merge(t);
        trace
    })
    .collect::<Vec<_>>()
    .into_iter();
    (
        out.next().expect("two traces"),
        out.next().expect("two traces"),
    )
}

/// Figs. 20, 23 and 24 re-driven at `scale`; returns their host seconds.
fn mac_drive(
    env: &PaperEnv,
    scale: Scale,
    reference: Option<&[Option<String>]>,
    tr: &mut Trace,
    rep: &mut Replicas,
) -> f64 {
    let program = match reference {
        Some(d) => d.to_vec(),
        None => {
            let f20 = hybrid::fig20(env, scale);
            let f23 = retrans::fig23(env, scale);
            let f24 = retrans::fig24(env, scale);
            vec![Some(digest(&f20)), Some(digest(&f23)), Some(digest(&f24))]
        }
    };
    let ((f20, f23, f24), wall) = timed(|| {
        let f20 = fig20_replica(env, scale, tr);
        let (insensitive, sensitive) = sensitivity_pair_replica(
            env,
            [((0, 11), (1, 6), false), ((6, 11), (1, 0), false)],
            scale,
            tr,
        );
        let (single, bursts) = sensitivity_pair_replica(
            env,
            [((7, 6), (8, 3), false), ((7, 6), (8, 3), true)],
            scale,
            tr,
        );
        (
            f20,
            Fig23Result {
                insensitive,
                sensitive,
            },
            Fig24Result { single, bursts },
        )
    });
    let replica = vec![Some(digest(&f20)), Some(digest(&f23)), Some(digest(&f24))];
    rep.compare("fig20/fig23/fig24", &program, &replica);
    wall
}

// ---------------------------------------------------------------------
// campaign: the checkpointed campaign runner re-driven run by run.

/// The checkpointed campaign runner (as `run_campaign_monitored_opts`
/// drives it with the CLI defaults), re-driven with each run, checkpoint
/// and artifact write timed. Returns the run records.
fn campaign_replica(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    out: &Path,
    tr: &mut Trace,
) -> Result<Vec<RunRecord>, String> {
    let digest = config_digest(&runs);
    let workers = sweep::thread_count(runs.len());
    let ckpt = out.join(CHECKPOINT_FILE);
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut records: Vec<RunRecord> = Vec::with_capacity(runs.len());
    let mut sim_secs = 0.0f64;
    while records.len() < runs.len() {
        let done = records.len();
        let wave = &runs[done..done + workers.min(runs.len() - done)];
        let results = sweep::par_map_workers(wave, workers, |_, run| {
            timed(|| {
                execute_run_opts(
                    run,
                    &spec.scenarios[run.scenario_index],
                    Obs::new(),
                    &ExecOptions::default(),
                )
            })
        });
        for (r, secs) in results {
            tr.sample("campaign.run_ms", secs * 1e3);
            records.push(r.map_err(|e| format!("campaign run failed: {e}"))?);
        }
        sim_secs += wave.iter().map(|r| r.workload.duration_s).sum::<f64>();
        if records.len() < runs.len() && sim_secs >= workloads::CHECKPOINT_EVERY_SIM_S {
            let bytes = tr
                .span("state.checkpoint", || {
                    write_checkpoint(&ckpt, &digest, runs.len(), &records)
                })
                .map_err(|e| format!("checkpoint failed: {e}"))?;
            tr.count("state.checkpoint_bytes", bytes as f64);
            sim_secs = 0.0;
        }
    }
    let _ = std::fs::remove_file(&ckpt);
    let summary = summarize(spec, runs, records);
    tr.span("campaign.emit", || write_artifacts(&summary, out))
        .map_err(|e| format!("artifacts not written: {e}"))?;
    Ok(summary.runs)
}

/// The layer calls the campaign makes inside each run, re-driven once per
/// run: scenario materialisation, channel construction of the probing
/// pairs, serial-versus-batched probing measurement, and fault
/// compilation plus verdict evaluation of disturbed runs. The replicated
/// probing results and verdicts are compared with the run records.
fn campaign_layers(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    records: &[RunRecord],
    tr: &mut Trace,
    rep: &mut Replicas,
) -> Result<(), String> {
    let mut program = Vec::new();
    let mut replica = Vec::new();
    for (run, record) in runs.iter().zip(records) {
        let scenario = spec.scenarios[run.scenario_index].clone();
        let sc = tr
            .span("scenario.load", || {
                Scenario::load_with_seed(scenario, run.seed)
            })
            .map_err(|e| format!("scenario {}: {e}", run.run_name))?;
        let env = PaperEnv::from_testbed(sc.testbed.clone());
        let wl = &run.workload;
        if run.experiments.contains(&ExperimentKind::Probing) {
            let mut pairs: Vec<_> = env.plc_pairs().into_iter().filter(|(a, b)| a < b).collect();
            if let Some(keep) = wl.max_pairs {
                pairs.truncate(keep);
            }
            for &(a, b) in &pairs {
                tr.span("phy.channel_build", || env.plc_channel(a, b));
            }
            let tech = PlcTechnology::HpAv;
            let serial: Vec<(f64, f64)> = tr.span("ensemble.serial", || {
                pairs
                    .iter()
                    .map(|&(a, b)| {
                        spatial::measure_plc(
                            &env,
                            a,
                            b,
                            tech,
                            wl.start(),
                            wl.duration(),
                            wl.sample(),
                        )
                    })
                    .collect()
            });
            let batch = tr.span("ensemble.batch", || {
                ensemble::measure_plc_batch(
                    &env,
                    &pairs,
                    tech,
                    wl.start(),
                    wl.duration(),
                    wl.sample(),
                )
            });
            tr.count("ensemble.links", pairs.len() as f64);
            program.push(Some(digest(&serial)));
            replica.push(Some(digest(&batch)));
        }
        if run.experiments.contains(&ExperimentKind::Disturbance) {
            let t0 = wl.start() + Duration::from_secs(WARMUP_SECS);
            let faults = tr
                .span("faults.compile", || {
                    CompiledFaults::compile(&sc.spec.disturbances, &sc.spec.couplings, t0)
                })
                .map_err(|e| format!("faults of {}: {e}", run.run_name))?;
            let cfg = DisturbanceConfig {
                start: t0,
                duration: wl.duration(),
                sample: wl.sample(),
                probe: Duration::from_secs(1),
            };
            let run_obs = Obs::new();
            run_obs.registry().counter("campaign.runs_started").inc();
            let outcome = obs::with_default(run_obs.clone(), || {
                disturbance::run_disturbance(&env, &faults, cfg)
            });
            let counters: Vec<(String, f64)> = run_obs
                .registry()
                .snapshot()
                .counters
                .into_iter()
                .map(|(n, v)| (n, v as f64))
                .collect();
            let verdict = tr.span("faults.evaluate", || {
                evaluate(&sc.spec.assertions, &faults, &outcome.series, &counters, t0)
            });
            program.push(record.verdict.as_ref().map(digest));
            replica.push(Some(digest(&verdict)));
        }
    }
    rep.compare(
        "campaign layer calls (batch vs serial probing, verdicts)",
        &program,
        &replica,
    );
    Ok(())
}

/// The campaign re-driven `passes` times over `runs`, plus one pass of
/// its inner layer calls. Returns the median replica pass seconds.
fn campaign_drive(
    spec: &CampaignSpec,
    runs: &[RunSpec],
    scratch: &Scratch,
    passes: usize,
    reference: Option<&[Option<String>]>,
    tr: &mut Trace,
    rep: &mut Replicas,
) -> Result<f64, String> {
    let program = match reference {
        Some(d) => d.to_vec(),
        None => {
            let filter = single_seed_filter(runs);
            let (items, _) = workloads::campaign(spec, filter.as_deref(), &scratch.pass_dir(1));
            items.into_iter().map(|i| i.digest).collect()
        }
    };
    tr.span("campaign.validate", || validate_scenarios(spec, runs))
        .map_err(|e| format!("campaign does not validate: {e}"))?;
    let mut walls = Vec::with_capacity(passes);
    let mut records = Vec::new();
    for k in 0..passes {
        let out = scratch.pass_dir(2 + k);
        let (recs, wall) = timed(|| campaign_replica(spec, runs, &out, tr));
        let recs = recs?;
        let replica: Vec<Option<String>> = recs.iter().map(|r| Some(digest(r))).collect();
        rep.compare(&format!("campaign replica pass {k}"), &program, &replica);
        walls.push(wall);
        records = recs;
    }
    campaign_layers(spec, runs, &records, tr, rep)?;
    Ok(median(&walls))
}

/// The run-name filter selecting one seed's runs, when every run of
/// `runs` shares a seed; `None` for the whole campaign.
fn single_seed_filter(runs: &[RunSpec]) -> Option<String> {
    let seed = runs.first()?.seed;
    runs.iter()
        .all(|r| r.seed == seed)
        .then(|| format!("-s{seed}-"))
}

/// The campaign tour: the generated campaign's runs for its first seed,
/// one replica pass.
fn campaign_tour(
    seed: u64,
    scratch: &Scratch,
    tr: &mut Trace,
    rep: &mut Replicas,
) -> Result<(), String> {
    let Inputs::Campaign { spec, runs } = workloads::setup(Workload::Campaign, seed)? else {
        unreachable!("campaign set-up builds a campaign");
    };
    let first = runs[0].seed;
    let runs: Vec<RunSpec> = runs.into_iter().filter(|r| r.seed == first).collect();
    campaign_drive(&spec, &runs, scratch, 1, None, tr, rep).map(|_| ())
}
