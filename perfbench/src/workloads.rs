//! The three workloads, their generated inputs, and one untraced pass of
//! each through the library's public entry points.
//!
//! Every workload is a closed loop with one client: the next pass starts
//! when the previous one ends. Each pass yields one checked item per
//! operation (a figure runner's result, or a campaign run's record)
//! together with its output digest.

use crate::campaign_gen;
use crate::checks;
use crate::stats::{digest, timed};
use electrifi::experiments::retrans::Fig23Result;
use electrifi::experiments::{capacity, hybrid, retrans, Scale};
use electrifi::PaperEnv;
use electrifi_scenario::campaign::{
    validate_scenarios, write_artifacts, CampaignSpec, ExecOptions, RunSpec,
};
use electrifi_scenario::checkpoint::{
    run_campaign_monitored_opts, CampaignOutcome, CheckpointOptions,
};
use electrifi_scenario::telemetry::TelemetryOptions;
use electrifi_testbed::sweep;
use simnet::obs::{self, Obs};
use std::path::{Path, PathBuf};

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 2015;

/// Checkpoint interval of the `campaign` workload, in accumulated
/// simulated seconds: small enough that every wave but the last writes
/// one, as a long campaign would.
pub const CHECKPOINT_EVERY_SIM_S: f64 = 1.0;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 17 at paper scale: the estimator/probe hot path.
    Probe,
    /// Figs. 20, 23 and 24 at paper scale: PLC MAC, WiFi and the hybrid
    /// combiner.
    MacHybrid,
    /// A generated campaign run like the `campaign` CLI.
    Campaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Probe, Workload::MacHybrid, Workload::Campaign];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Probe => "probe",
            Workload::MacHybrid => "mac-hybrid",
            Workload::Campaign => "campaign",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The generated inputs a pass runs on.
pub enum Inputs {
    /// The paper environment built from the seed (figure workloads).
    Env(Box<PaperEnv>),
    /// The parsed, expanded and validated generated campaign.
    Campaign {
        /// The parsed campaign.
        spec: CampaignSpec,
        /// Its expanded work list.
        runs: Vec<RunSpec>,
    },
}

/// Build a workload's inputs from the seed: `PaperEnv::new` for the
/// figure workloads; spec generation, parse, expansion and
/// `validate_scenarios` for `campaign`. This is what `setup_s` times.
pub fn setup(w: Workload, seed: u64) -> Result<Inputs, String> {
    match w {
        Workload::Probe | Workload::MacHybrid => Ok(Inputs::Env(Box::new(PaperEnv::new(seed)))),
        Workload::Campaign => {
            let json = campaign_gen::campaign_json(seed);
            let spec = CampaignSpec::from_json_str(&json, Path::new("."))
                .map_err(|e| format!("generated campaign does not parse: {e}"))?;
            let runs = spec.expand();
            validate_scenarios(&spec, &runs)
                .map_err(|e| format!("generated campaign does not validate: {e}"))?;
            Ok(Inputs::Campaign { spec, runs })
        }
    }
}

/// One checked operation of a pass.
#[derive(Debug, Clone)]
pub struct Item {
    /// Operation name (figure, or campaign run name).
    pub name: String,
    /// Digest of the operation's output (`None` when it produced none).
    pub digest: Option<String>,
    /// The output check's verdict.
    pub check: Result<(), String>,
    /// A known defect of the program this output shows, reported on
    /// every pass but not counted as a failure.
    pub known_defect: Option<String>,
}

impl Item {
    fn new<T: serde::Serialize>(name: &str, out: &T, check: Result<(), String>) -> Item {
        Item {
            name: name.to_string(),
            digest: Some(digest(out)),
            check,
            known_defect: None,
        }
    }
}

/// What one pass did.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds of the pass.
    pub wall_s: f64,
    /// The program's `sim.events_fired` over the pass.
    pub events: u64,
    /// Completed figure runs or campaign runs.
    pub runs: u64,
    /// Checked operations, in a fixed order.
    pub items: Vec<Item>,
    /// Digest of the whole pass output.
    pub digest: String,
}

impl Pass {
    /// A pass from its checked items.
    pub fn from_items(wall_s: f64, events: u64, items: Vec<Item>) -> Pass {
        let digests: Vec<&str> = items
            .iter()
            .map(|i| i.digest.as_deref().unwrap_or("-"))
            .collect();
        Pass {
            wall_s,
            events,
            runs: items.iter().filter(|i| i.digest.is_some()).count() as u64,
            digest: crate::stats::fnv1a(digests.join(",").as_bytes()),
            items,
        }
    }
}

/// Run one untraced pass of `w`. `scratch` is a directory the pass may
/// write into (the campaign's artifacts and checkpoints).
pub fn run_pass(w: Workload, inputs: &Inputs, scratch: &Path) -> Pass {
    // Figure runners count events on the ambient registry (sweep
    // workers' registries are absorbed into it); campaign runs each count
    // into their own record.
    let obs = Obs::new();
    let ((items, events), wall_s) = obs::with_default(obs.clone(), || {
        timed(|| match (w, inputs) {
            (Workload::Probe, Inputs::Env(env)) => (probe(env), None),
            (Workload::MacHybrid, Inputs::Env(env)) => (mac_hybrid(env), None),
            (Workload::Campaign, Inputs::Campaign { spec, .. }) => {
                let (items, events) = campaign(spec, None, scratch);
                (items, Some(events))
            }
            _ => unreachable!("inputs are built for their workload"),
        })
    });
    let events = events.unwrap_or_else(|| obs.registry().counter("sim.events_fired").get());
    Pass::from_items(wall_s, events, items)
}

fn probe(env: &PaperEnv) -> Vec<Item> {
    let r = capacity::fig17(env, Scale::Paper);
    vec![Item::new("fig17", &r, checks::fig17(&r))]
}

fn mac_hybrid(env: &PaperEnv) -> Vec<Item> {
    let f20 = hybrid::fig20(env, Scale::Paper);
    let f23 = retrans::fig23(env, Scale::Paper);
    let f24 = retrans::fig24(env, Scale::Paper);
    vec![
        Item::new("fig20", &f20, checks::fig20(&f20)),
        fig23_item(&f23),
        Item::new("fig24", &f24, checks::fig24(&f24)),
    ]
}

/// Fig. 23's item: its structural check decides pass or fail, and the
/// paper claim the program does not reproduce is its known defect.
pub fn fig23_item(r: &Fig23Result) -> Item {
    Item {
        known_defect: checks::fig23_paper_claim(r),
        ..Item::new("fig23", r, checks::fig23(r))
    }
}

/// The campaign as the CLI runs it by default (one worker per core, no
/// batching, no telemetry), with checkpointing on and artifacts written
/// to `out`; `filter` narrows the runs like the CLI's `--filter`.
/// Returns the per-run items and the events summed over run records.
pub fn campaign(spec: &CampaignSpec, filter: Option<&str>, out: &Path) -> (Vec<Item>, u64) {
    let n_runs = spec.expand_filtered(filter).len();
    let workers = sweep::thread_count(n_runs);
    let opts = CheckpointOptions {
        every_sim_secs: Some(CHECKPOINT_EVERY_SIM_S),
        ..CheckpointOptions::default()
    };
    let result = run_campaign_monitored_opts(
        spec,
        workers,
        filter,
        out,
        &opts,
        &TelemetryOptions::default(),
        &ExecOptions::default(),
    );
    let failed_all = |why: String| {
        let items = (0..n_runs)
            .map(|i| Item {
                name: format!("run{i}"),
                digest: None,
                check: Err(why.clone()),
                known_defect: None,
            })
            .collect();
        (items, 0)
    };
    let summary = match result {
        Ok((CampaignOutcome::Complete(s), _)) => s,
        Ok((CampaignOutcome::Checkpointed { completed, total }, _)) => {
            return failed_all(format!("campaign stopped after {completed}/{total} runs"))
        }
        Err(e) => return failed_all(format!("campaign failed: {e}")),
    };
    if let Err(e) = write_artifacts(&summary, out) {
        return failed_all(format!("artifacts not written: {e}"));
    }
    let events = summary
        .runs
        .iter()
        .map(|r| r.metrics.counter("sim.events_fired"))
        .sum();
    let items = summary
        .runs
        .iter()
        .map(|r| Item {
            known_defect: checks::campaign_known_defect(r),
            ..Item::new(&r.run, r, checks::campaign_run(r))
        })
        .collect();
    (items, events)
}

/// A per-process scratch directory under the working directory's
/// `.bench_tmp/`, removed again by [`Scratch::drop`].
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Create `.bench_tmp/<pid>` under the working directory.
    pub fn create() -> std::io::Result<Scratch> {
        let dir = Path::new(".bench_tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// A fresh, empty subdirectory for pass `k`.
    pub fn pass_dir(&self, k: usize) -> PathBuf {
        let d = self.dir.join(format!("pass-{k}"));
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Leaves `.bench_tmp` itself only while another run still uses it.
        let _ = std::fs::remove_dir(Path::new(".bench_tmp"));
    }
}
