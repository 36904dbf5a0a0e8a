//! The assertion engine: declarative invariants evaluated against the
//! measured series of a disturbed run, producing the typed `verdict`
//! block campaigns gate on.
//!
//! Evaluation is plain arithmetic over the sampled series — no clocks,
//! no RNG — so the same series always yields byte-identical verdicts.
//! Detail strings round to three decimals for the same reason: they are
//! artifacts, not debug output.

use crate::engine::CompiledFaults;
use crate::spec::AssertionSpec;
use serde::{Deserialize, Serialize};
use simnet::Time;

/// Numerical slack for the aggregate >= best-medium comparison: the two
/// sides are sums of the same measured samples, so anything beyond
/// accumulated rounding is a real violation.
const AGG_EPS: f64 = 1e-9;

/// The sampled time series of one disturbed run. All series are parallel
/// to `t_s`; throughputs are in Mbit/s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSet {
    /// Sample instants, seconds since measurement start.
    pub t_s: Vec<f64>,
    /// PLC delivered throughput.
    pub plc: Vec<f64>,
    /// WiFi delivered throughput.
    pub wifi: Vec<f64>,
    /// Hybrid aggregate delivered throughput.
    pub hybrid: Vec<f64>,
    /// The hybrid layer's capacity estimate (stale during dropouts).
    pub estimate: Vec<f64>,
    /// Total delivered throughput (what the assertions recover against).
    pub delivered: Vec<f64>,
}

/// Outcome of one assertion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssertionResult {
    /// Stable assertion kind name (`hybrid-at-least-best-medium`, ...).
    pub kind: String,
    /// Did the invariant hold?
    pub pass: bool,
    /// Slack: how far inside (positive) or outside (negative) the bound
    /// the worst sample landed, in the assertion's own unit.
    pub margin: f64,
    /// Worst observed recovery time, seconds (recovery assertions only).
    pub recovery_s: Option<f64>,
    /// Human-readable one-liner (deterministic formatting).
    pub detail: String,
}

/// One disturbance window as reported in the verdict block, in seconds
/// relative to measurement start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VerdictWindow {
    /// Stable disturbance kind name.
    pub kind: String,
    /// Disturbance label (empty for anonymous/coupled windows).
    pub name: String,
    /// Window start, s.
    pub start_s: f64,
    /// Window end, s.
    pub end_s: f64,
}

/// The typed pass/fail block emitted into `summary.json` for a disturbed
/// run; campaigns exit 5 when any run's verdict fails.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// Conjunction of all assertion results.
    pub pass: bool,
    /// The disturbance timeline the run was subjected to.
    pub disturbances: Vec<VerdictWindow>,
    /// Worst recovery time across recovery assertions, seconds.
    pub max_recovery_s: Option<f64>,
    /// Per-assertion outcomes, in scenario order.
    pub assertions: Vec<AssertionResult>,
}

/// Evaluate `specs` against the measured `series` of a run disturbed by
/// `faults` (anchored at `t0`); `counters` is the run's final metrics
/// snapshot as `(name, value)` pairs.
pub fn evaluate(
    specs: &[AssertionSpec],
    faults: &CompiledFaults,
    series: &SeriesSet,
    counters: &[(String, f64)],
    t0: Time,
) -> Verdict {
    let t0_s = t0.as_secs_f64();
    // Windows in seconds relative to measurement start, matching t_s.
    let windows: Vec<(f64, f64)> = faults
        .disturbance_windows()
        .iter()
        .map(|w| (w.start_ns as f64 / 1e9 - t0_s, w.end_ns as f64 / 1e9 - t0_s))
        .collect();
    let edges: Vec<f64> = faults
        .edges()
        .iter()
        .map(|e| e.as_secs_f64() - t0_s)
        .collect();

    let mut results = Vec::with_capacity(specs.len());
    let mut max_recovery: Option<f64> = None;
    for spec in specs {
        let r = match spec {
            AssertionSpec::HybridAtLeastBestMedium { within_s } => {
                eval_hybrid_floor(series, &edges, *within_s)
            }
            AssertionSpec::EstimateWithin {
                tolerance_frac,
                settle_s,
            } => eval_estimate_within(series, &windows, *tolerance_frac, *settle_s),
            AssertionSpec::RecoveryWithin { within_s, frac } => {
                let r = eval_recovery(series, &windows, *within_s, *frac);
                if let Some(rec) = r.recovery_s {
                    max_recovery = Some(max_recovery.map_or(rec, |m: f64| m.max(rec)));
                }
                r
            }
            AssertionSpec::CounterAtLeast { counter, min } => eval_counter(counters, counter, *min),
        };
        results.push(r);
    }

    Verdict {
        pass: results.iter().all(|r| r.pass),
        disturbances: faults
            .disturbance_windows()
            .iter()
            .map(|w| VerdictWindow {
                kind: w.kind.to_string(),
                name: w.name.clone(),
                start_s: round3(w.start_ns as f64 / 1e9 - t0_s),
                end_s: round3(w.end_ns as f64 / 1e9 - t0_s),
            })
            .collect(),
        max_recovery_s: max_recovery.map(round3),
        assertions: results,
    }
}

/// Round to 3 decimals so verdict floats are short, stable artifacts.
fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn in_grace(t: f64, edges: &[f64], within_s: f64) -> bool {
    edges.iter().any(|&e| t >= e && t < e + within_s)
}

fn in_any_window(t: f64, windows: &[(f64, f64)]) -> bool {
    windows.iter().any(|&(s, e)| t >= s && t < e)
}

/// Quiesced = outside every disturbance window AND at least `settle_s`
/// past the end of every window that already closed.
fn is_quiesced(t: f64, windows: &[(f64, f64)], settle_s: f64) -> bool {
    !windows.iter().any(|&(s, e)| t >= s && t < e + settle_s)
}

fn eval_hybrid_floor(series: &SeriesSet, edges: &[f64], within_s: f64) -> AssertionResult {
    let mut margin = f64::MAX;
    let mut checked = 0usize;
    let mut worst_t = 0.0;
    for (i, &t) in series.t_s.iter().enumerate() {
        if in_grace(t, edges, within_s) {
            continue;
        }
        checked += 1;
        let best = series.plc[i].max(series.wifi[i]);
        let m = series.hybrid[i] - best;
        if m < margin {
            margin = m;
            worst_t = t;
        }
    }
    if checked == 0 {
        return AssertionResult {
            kind: "hybrid-at-least-best-medium".to_string(),
            pass: false,
            margin: 0.0,
            recovery_s: None,
            detail: "no samples outside the grace windows".to_string(),
        };
    }
    let pass = margin >= -AGG_EPS;
    AssertionResult {
        kind: "hybrid-at-least-best-medium".to_string(),
        pass,
        margin: round3(margin),
        recovery_s: None,
        detail: format!(
            "worst slack {:.3} Mbit/s at t={:.3}s over {} samples",
            margin, worst_t, checked
        ),
    }
}

fn eval_estimate_within(
    series: &SeriesSet,
    windows: &[(f64, f64)],
    tolerance_frac: f64,
    settle_s: f64,
) -> AssertionResult {
    let mut worst = 0.0f64;
    let mut worst_t = 0.0;
    let mut checked = 0usize;
    for (i, &t) in series.t_s.iter().enumerate() {
        if !is_quiesced(t, windows, settle_s) {
            continue;
        }
        let delivered = series.delivered[i];
        if delivered <= 0.0 {
            continue;
        }
        checked += 1;
        let err = (series.estimate[i] - delivered).abs() / delivered;
        if err > worst {
            worst = err;
            worst_t = t;
        }
    }
    if checked == 0 {
        return AssertionResult {
            kind: "estimate-within".to_string(),
            pass: false,
            margin: 0.0,
            recovery_s: None,
            detail: "no quiesced samples with delivered > 0".to_string(),
        };
    }
    AssertionResult {
        kind: "estimate-within".to_string(),
        pass: worst <= tolerance_frac,
        margin: round3(tolerance_frac - worst),
        recovery_s: None,
        detail: format!(
            "worst relative error {:.3} (tolerance {:.3}) at t={:.3}s over {} quiesced samples",
            worst, tolerance_frac, worst_t, checked
        ),
    }
}

fn eval_recovery(
    series: &SeriesSet,
    windows: &[(f64, f64)],
    within_s: f64,
    frac: f64,
) -> AssertionResult {
    // Baseline: mean delivered over pre-disturbance samples.
    let first_start = windows.iter().map(|&(s, _)| s).fold(f64::MAX, f64::min);
    let mut base_sum = 0.0;
    let mut base_n = 0usize;
    for (i, &t) in series.t_s.iter().enumerate() {
        if t < first_start {
            base_sum += series.delivered[i];
            base_n += 1;
        }
    }
    if base_n == 0 || windows.is_empty() {
        return AssertionResult {
            kind: "recovery-within".to_string(),
            pass: false,
            margin: 0.0,
            recovery_s: None,
            detail: "no pre-disturbance baseline samples".to_string(),
        };
    }
    let baseline = base_sum / base_n as f64;
    let target = frac * baseline;
    let mut worst_recovery = 0.0f64;
    let mut unrecovered = 0usize;
    // Overlapping windows are one outage as far as recovery is
    // concerned — a coupled jam inside a breaker trip must not charge
    // the trip's tail to its own deadline — so merge them into disjoint
    // clusters and measure from each cluster's end.
    for &(_, end) in &merge_windows(windows) {
        // A window that outlives the series cannot be judged.
        let Some(last_t) = series.t_s.last() else {
            break;
        };
        if end > *last_t {
            continue;
        }
        let mut recovered_at = None;
        for (i, &t) in series.t_s.iter().enumerate() {
            if t < end {
                continue;
            }
            // Skip instants still inside a later overlapping window.
            if in_any_window(t, windows) {
                continue;
            }
            if series.delivered[i] >= target {
                recovered_at = Some(t - end);
                break;
            }
        }
        match recovered_at {
            Some(r) => worst_recovery = worst_recovery.max(r),
            None => unrecovered += 1,
        }
    }
    let pass = unrecovered == 0 && worst_recovery <= within_s;
    AssertionResult {
        kind: "recovery-within".to_string(),
        pass,
        margin: round3(within_s - worst_recovery),
        recovery_s: Some(round3(worst_recovery)),
        detail: format!(
            "worst recovery {:.3}s (deadline {:.3}s, target {:.3} Mbit/s), {} window(s) never recovered",
            worst_recovery, within_s, target, unrecovered
        ),
    }
}

/// Merge overlapping/touching `(start, end)` windows into disjoint
/// clusters, sorted by start.
fn merge_windows(windows: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut sorted = windows.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut clusters: Vec<(f64, f64)> = Vec::new();
    for (s, e) in sorted {
        match clusters.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => clusters.push((s, e)),
        }
    }
    clusters
}

fn eval_counter(counters: &[(String, f64)], name: &str, min: f64) -> AssertionResult {
    let value = counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    match value {
        Some(v) => AssertionResult {
            kind: "counter-at-least".to_string(),
            pass: v >= min,
            margin: round3(v - min),
            recovery_s: None,
            detail: format!("counter `{}` = {:.3}, required >= {:.3}", name, v, min),
        },
        None => AssertionResult {
            kind: "counter-at-least".to_string(),
            pass: false,
            margin: round3(-min),
            recovery_s: None,
            detail: format!("counter `{}` absent from the metrics snapshot", name),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DisturbanceKind, DisturbanceSpec};

    fn faults_one_trip() -> CompiledFaults {
        CompiledFaults::compile(
            &[DisturbanceSpec {
                name: "trip".to_string(),
                at_s: 10.0,
                duration_s: 5.0,
                ramp_s: 0.0,
                kind: DisturbanceKind::BreakerTrip { board: 0 },
            }],
            &[],
            Time::ZERO,
        )
        .unwrap()
    }

    /// 0..30s at 1 Hz: delivered 100 except dip to 20 during [10,15),
    /// recovering at t=16; estimate tracks delivered exactly.
    fn series_dip() -> SeriesSet {
        let mut s = SeriesSet::default();
        for i in 0..30 {
            let t = i as f64;
            let delivered = if (10.0..16.0).contains(&t) {
                20.0
            } else {
                100.0
            };
            s.t_s.push(t);
            s.plc.push(delivered * 0.6);
            s.wifi.push(delivered * 0.4);
            s.hybrid.push(delivered);
            s.estimate.push(delivered);
            s.delivered.push(delivered);
        }
        s
    }

    #[test]
    fn all_assertions_pass_on_well_behaved_series() {
        let faults = faults_one_trip();
        let series = series_dip();
        let specs = vec![
            AssertionSpec::HybridAtLeastBestMedium { within_s: 2.0 },
            AssertionSpec::EstimateWithin {
                tolerance_frac: 0.10,
                settle_s: 2.0,
            },
            AssertionSpec::RecoveryWithin {
                within_s: 2.0,
                frac: 0.9,
            },
            AssertionSpec::CounterAtLeast {
                counter: "faults.edges".to_string(),
                min: 2.0,
            },
        ];
        let counters = vec![("faults.edges".to_string(), 2.0)];
        let v = evaluate(&specs, &faults, &series, &counters, Time::ZERO);
        for a in &v.assertions {
            assert!(a.pass, "{}: {}", a.kind, a.detail);
        }
        assert!(v.pass);
        assert_eq!(v.disturbances.len(), 1);
        assert_eq!(v.disturbances[0].kind, "breaker-trip");
        assert_eq!(v.max_recovery_s, Some(1.0));
    }

    #[test]
    fn hybrid_floor_violation_fails_with_negative_margin() {
        let faults = faults_one_trip();
        let mut series = series_dip();
        // Break aggregation at a quiesced instant: hybrid below PLC alone.
        series.hybrid[25] = 30.0;
        let v = evaluate(
            &[AssertionSpec::HybridAtLeastBestMedium { within_s: 2.0 }],
            &faults,
            &series,
            &[],
            Time::ZERO,
        );
        assert!(!v.pass);
        assert!(v.assertions[0].margin < 0.0);
        assert!(
            v.assertions[0].detail.contains("t=25.000"),
            "{}",
            v.assertions[0].detail
        );
    }

    #[test]
    fn slow_recovery_fails_the_deadline() {
        let faults = faults_one_trip();
        let series = series_dip(); // recovers 1s after window end
        let v = evaluate(
            &[AssertionSpec::RecoveryWithin {
                within_s: 0.5,
                frac: 0.9,
            }],
            &faults,
            &series,
            &[],
            Time::ZERO,
        );
        assert!(!v.pass);
        assert_eq!(v.assertions[0].recovery_s, Some(1.0));
    }

    #[test]
    fn stale_estimate_fails_only_outside_settle() {
        let faults = faults_one_trip();
        let mut series = series_dip();
        // Estimate wildly wrong while the trip is active: ignored.
        series.estimate[12] = 500.0;
        let ok = evaluate(
            &[AssertionSpec::EstimateWithin {
                tolerance_frac: 0.10,
                settle_s: 2.0,
            }],
            &faults,
            &series,
            &[],
            Time::ZERO,
        );
        assert!(ok.pass, "{}", ok.assertions[0].detail);
        // Wrong long after quiescing: counted.
        series.estimate[25] = 500.0;
        let bad = evaluate(
            &[AssertionSpec::EstimateWithin {
                tolerance_frac: 0.10,
                settle_s: 2.0,
            }],
            &faults,
            &series,
            &[],
            Time::ZERO,
        );
        assert!(!bad.pass);
    }

    #[test]
    fn overlapping_windows_recover_as_one_cluster() {
        // A short jam [10, 12) nested in the trip [10, 15): its recovery
        // must be measured from the cluster end (15+1=16 -> 1s), not
        // from its own end (16-12 = 4s).
        let faults = CompiledFaults::compile(
            &[
                DisturbanceSpec {
                    name: "trip".to_string(),
                    at_s: 10.0,
                    duration_s: 5.0,
                    ramp_s: 0.0,
                    kind: DisturbanceKind::BreakerTrip { board: 0 },
                },
                DisturbanceSpec {
                    name: "jam".to_string(),
                    at_s: 10.0,
                    duration_s: 2.0,
                    ramp_s: 0.0,
                    kind: DisturbanceKind::WifiJam { penalty_db: 20.0 },
                },
            ],
            &[],
            Time::ZERO,
        )
        .unwrap();
        let v = evaluate(
            &[AssertionSpec::RecoveryWithin {
                within_s: 2.0,
                frac: 0.9,
            }],
            &faults,
            &series_dip(),
            &[],
            Time::ZERO,
        );
        assert!(v.pass, "{}", v.assertions[0].detail);
        assert_eq!(v.max_recovery_s, Some(1.0));
    }

    #[test]
    fn missing_counter_fails_with_named_detail() {
        let faults = CompiledFaults::default();
        let v = evaluate(
            &[AssertionSpec::CounterAtLeast {
                counter: "faults.edges".to_string(),
                min: 1.0,
            }],
            &faults,
            &SeriesSet::default(),
            &[],
            Time::ZERO,
        );
        assert!(!v.pass);
        assert!(v.assertions[0].detail.contains("faults.edges"));
    }

    #[test]
    fn verdict_serialises_deterministically() {
        let faults = faults_one_trip();
        let series = series_dip();
        let specs = vec![AssertionSpec::RecoveryWithin {
            within_s: 2.0,
            frac: 0.9,
        }];
        let a = serde::Serialize::to_value(&evaluate(&specs, &faults, &series, &[], Time::ZERO));
        let b = serde::Serialize::to_value(&evaluate(&specs, &faults, &series, &[], Time::ZERO));
        assert_eq!(serde_json::to_string(&a), serde_json::to_string(&b));
    }

    #[test]
    fn nan_inputs_do_not_panic_the_sorts() {
        use simnet::stats::{spearman, Ecdf};
        // Quantiles and rank correlation drop NaN samples.
        let ecdf = Ecdf::new(vec![3.0, f64::NAN, 1.0, 2.0]);
        assert_eq!(ecdf.len(), 3);
        assert_eq!(
            (ecdf.quantile(0.0), ecdf.median(), ecdf.quantile(1.0)),
            (1.0, 2.0, 3.0)
        );
        let rho = spearman(&[(1.0, 1.0), (f64::NAN, 0.0), (2.0, 2.0), (3.0, 3.0)]);
        assert!((rho.expect("3 finite points") - 1.0).abs() < 1e-12);
        // A NaN window bound sorts last under the total order and stays
        // a cluster of its own instead of panicking the merge.
        let merged = merge_windows(&[(5.0, 6.0), (f64::NAN, 1.0), (1.0, 5.5)]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], (1.0, 6.0));
        assert!(merged[1].0.is_nan());
    }
}
