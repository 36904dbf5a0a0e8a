//! Self-tests of the benchmark: metric naming, failure accounting and
//! the campaign generator. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use electrifi::experiments::{capacity, retrans, Scale};
use electrifi::PaperEnv;
use electrifi_scenario::campaign::{execute_run, validate_scenarios, CampaignSpec};
use perfbench::campaign_gen::{campaign_json, SCENARIOS, SEEDS};
use perfbench::checks;
use perfbench::report::{result_line, valid_name, Metric, Tally, END_TO_END};
use perfbench::stats::digest;
use perfbench::traced::PER_LAYER;
use perfbench::workloads::{self, Item, Pass};
use std::path::Path;

/// `BENCHMARK.json` at the repository root, as `(section, name, unit)`.
fn declared_metrics() -> Vec<(String, String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let Some(serde::Value::Arr(items)) = doc.get(section) else {
            panic!("{section} is a list");
        };
        for m in items {
            let (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) =
                (m.get("name"), m.get("unit"))
            else {
                panic!("{section} entries carry a name and a unit");
            };
            out.push((section.to_string(), n.clone(), u.clone()));
        }
    }
    out
}

#[test]
fn metric_names_are_valid_and_printed_with_their_units() {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    for (name, unit) in &all {
        assert!(valid_name(name), "metric name {name:?}");
        assert!(!unit.is_empty(), "{name} has a unit");
    }
    let metrics: Vec<Metric> = all.iter().map(|&(n, u)| Metric::new(n, 1.5, u)).collect();
    let line = result_line(true, 3, 0, &metrics);
    let doc: serde::Value = serde_json::from_str(&line).expect("the result line is JSON");
    let metrics = doc.get("metrics").expect("metrics object");
    for (name, unit) in &all {
        let m = metrics.get(name).expect("every metric is printed");
        assert!(
            matches!(m.get("unit"), Some(serde::Value::Str(u)) if u == unit),
            "{name}"
        );
        assert!(
            matches!(m.get("value"), Some(serde::Value::Num(_))),
            "{name}"
        );
    }
    assert!(!valid_name("bad name"));
    assert!(!valid_name(".leading-dot"));
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let declared = declared_metrics();
    let printed: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| ("end_to_end".to_string(), n.to_string(), u.to_string()))
        .chain(
            PER_LAYER
                .iter()
                .map(|&(n, u)| ("per_layer".to_string(), n.to_string(), u.to_string())),
        )
        .collect();
    assert_eq!(declared, printed);
}

fn pass_of(items: Vec<Item>) -> Pass {
    Pass::from_items(1.0, 10, items)
}

#[test]
fn a_violated_invariant_counts_as_a_failed_operation() {
    let env = PaperEnv::new(2015);
    let good = capacity::fig17(&env, Scale::Quick);
    checks::fig17(&good).expect("fig17 keeps its estimate across the pause");

    // Break the invariant: every estimate after the resume collapses.
    let mut bad = good.clone();
    for (_, series) in &mut bad.links {
        let mut broken = simnet::trace::Series::new(series.name.clone());
        for &(t, v) in series.points() {
            broken.push(t, if t >= bad.resume_at { 0.1 * v } else { v });
        }
        *series = broken;
    }
    let item = |r: &capacity::Fig17Result| Item {
        name: "fig17".into(),
        digest: Some(digest(r)),
        check: checks::fig17(r),
        known_defect: None,
    };
    let first = pass_of(vec![item(&good)]);
    let mut tally = Tally::default();
    tally.record(&first, &first);
    assert_eq!((tally.attempted, tally.failed), (1, 0));
    tally.record(&first, &pass_of(vec![item(&bad)]));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(tally.fail_rate() > 0.0);
    let line = result_line(tally.failed == 0, tally.attempted, tally.failed, &[]);
    assert!(line.starts_with(r#"{"correct": false, "attempted": 2, "failed": 1"#));
}

#[test]
fn a_nondeterministic_output_counts_as_a_failed_operation() {
    let ok = |d: &str| Item {
        name: "x".into(),
        digest: Some(d.into()),
        check: Ok(()),
        known_defect: None,
    };
    let first = pass_of(vec![ok("aaaa")]);
    let mut tally = Tally::default();
    tally.record(&first, &pass_of(vec![ok("aaaa")]));
    tally.record(&first, &pass_of(vec![ok("bbbb")]));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
}

#[test]
fn known_defects_are_reported_not_failed() {
    let item = Item {
        name: "fig23".into(),
        digest: Some("cccc".into()),
        check: Ok(()),
        known_defect: Some("claim not reproduced".into()),
    };
    let first = pass_of(vec![item.clone()]);
    let mut tally = Tally::default();
    tally.record(&first, &first);
    tally.record(&first, &pass_of(vec![item]));
    assert_eq!(tally.failed, 0);
    assert_eq!(tally.known_defects, ["claim not reproduced"]);
}

#[test]
fn fig23_reports_its_paper_claim_as_a_known_defect() {
    let env = PaperEnv::new(2015);
    let r = retrans::fig23(&env, Scale::Quick);
    let item = workloads::fig23_item(&r);
    assert_eq!(item.check, checks::fig23(&r));
    assert_eq!(item.known_defect, checks::fig23_paper_claim(&r));

    // A trace that reproduces the claim carries no known defect; one
    // that keeps its BLE does.
    let mut collapsed = r.clone();
    collapsed.sensitive = collapsed.insensitive.clone();
    let mut ble = simnet::trace::Series::new(collapsed.sensitive.ble.name.clone());
    for &(t, v) in collapsed.insensitive.ble.points() {
        ble.push(
            t,
            if t < collapsed.sensitive.background_at {
                v
            } else {
                0.1 * v
            },
        );
    }
    collapsed.sensitive.ble = ble;
    assert_eq!(checks::fig23_paper_claim(&collapsed), None);
    let mut kept = r.clone();
    kept.sensitive = kept.insensitive.clone();
    assert!(checks::fig23_paper_claim(&kept).is_some());
}

#[test]
fn campaign_known_defect_assertions_are_reported_not_failed() {
    let spec = CampaignSpec::from_json_str(&campaign_json(2015), Path::new(".")).expect("parses");
    let run = spec
        .expand()
        .into_iter()
        .find(|r| spec.scenarios[r.scenario_index].name == "disturbed-floor")
        .expect("the campaign has a disturbed run");
    let record = execute_run(&run, &spec.scenarios[run.scenario_index])
        .expect("the disturbed run completes");
    let verdict = record
        .verdict
        .as_ref()
        .expect("the disturbed run has a verdict");
    let kinds: Vec<&str> = verdict.assertions.iter().map(|a| a.kind.as_str()).collect();
    assert!(kinds.contains(&"estimate-within"), "{kinds:?}");

    for estimate_passes in [true, false] {
        let mut r = record.clone();
        let v = r.verdict.as_mut().expect("verdict");
        for a in &mut v.assertions {
            a.pass = a.kind != "estimate-within" || estimate_passes;
        }
        v.pass = estimate_passes;
        assert_eq!(checks::campaign_run(&r), Ok(()));
        assert_eq!(
            checks::campaign_known_defect(&r).is_some(),
            !estimate_passes
        );
    }
    let mut r = record.clone();
    let v = r.verdict.as_mut().expect("verdict");
    for a in &mut v.assertions {
        a.pass = a.kind != "recovery-within";
    }
    v.pass = false;
    assert!(checks::campaign_run(&r).is_err());
    assert_eq!(checks::campaign_known_defect(&r), None);
}

#[test]
fn campaign_generator_is_deterministic_per_seed_and_valid() {
    for seed in [1u64, 2015, 987_654_321] {
        let json = campaign_json(seed);
        assert_eq!(json, campaign_json(seed), "seed {seed}");
        let spec = CampaignSpec::from_json_str(&json, Path::new(".")).expect("parses");
        let runs = spec.expand();
        assert_eq!(runs.len(), SCENARIOS * SEEDS);
        assert_eq!(
            validate_scenarios(&spec, &runs).expect("validates"),
            SCENARIOS
        );
    }
    assert_ne!(campaign_json(1), campaign_json(2));
}
