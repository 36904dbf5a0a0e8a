//! Output checks: the paper-shape invariants the figures' own unit tests
//! assert, applied to every pass at paper scale. A violated invariant is
//! a failed operation and counts in the benchmark's fail rate.

use electrifi::experiments::capacity::Fig17Result;
use electrifi::experiments::hybrid::Fig20Result;
use electrifi::experiments::retrans::{Fig23Result, Fig24Result};
use electrifi_faults::AssertionResult;
use electrifi_scenario::campaign::RunRecord;

/// Fig. 17: after the probing pause, each link's first estimate stays
/// within 20% of its last estimate before the pause.
pub fn fig17(r: &Fig17Result) -> Result<(), String> {
    if r.links.is_empty() {
        return Err("fig17: no links".into());
    }
    for ((a, b), series) in &r.links {
        let pts = series.points();
        let before = pts.iter().rfind(|(t, _)| *t < r.pause_at).map(|p| p.1);
        let after = pts.iter().find(|(t, _)| *t >= r.resume_at).map(|p| p.1);
        match (before, after) {
            (Some(x), Some(y)) if y >= 0.8 * x => {}
            (x, y) => {
                return Err(format!(
                    "fig17 link {a}-{b}: estimate not kept across the pause ({x:?} -> {y:?})"
                ))
            }
        }
    }
    Ok(())
}

/// Fig. 20: every listed link completes the download in finite time, and
/// hybrid beats WiFi alone on a clear majority of them.
pub fn fig20(r: &Fig20Result) -> Result<(), String> {
    if r.completions.is_empty() {
        return Err("fig20: no completion rows".into());
    }
    if let Some(c) = r.completions.iter().find(|c| !c.hybrid_s.is_finite()) {
        return Err(format!("fig20 link {:?}: hybrid never completes", c.link));
    }
    let better = r
        .completions
        .iter()
        .filter(|c| c.hybrid_s < c.wifi_s)
        .count();
    if better * 2 <= r.completions.len() {
        return Err(format!(
            "fig20: hybrid beats WiFi alone on only {better}/{} links",
            r.completions.len()
        ));
    }
    Ok(())
}

/// Fig. 23: both pairs produce BLE traces with a finite retention. (No
/// unit test of the program asserts more for this figure; the paper's
/// claim itself is [`fig23_paper_claim`].)
pub fn fig23(r: &Fig23Result) -> Result<(), String> {
    for (name, t) in [("sensitive", &r.sensitive), ("insensitive", &r.insensitive)] {
        if t.ble.points().is_empty() || !t.ble_retention().is_finite() {
            return Err(format!("fig23: {name} pair has no usable BLE trace"));
        }
    }
    Ok(())
}

/// Fig. 23's paper claim — the capture-prone pair's BLE collapses under
/// background traffic (retention below 1 and below the insensitive
/// pair's) — as a known-defect report: `Some(description)` when the
/// program does not reproduce it. The program does not reproduce it on
/// any seed tried, so it is reported on every pass rather than counted
/// as a failed operation, which would make every run of every commit
/// fail and carry no information.
pub fn fig23_paper_claim(r: &Fig23Result) -> Option<String> {
    let sensitive = r.sensitive.ble_retention();
    let insensitive = r.insensitive.ble_retention();
    (!(sensitive < 1.0 && sensitive < insensitive)).then(|| {
        format!(
            "fig23: sensitive pair keeps {sensitive:.3} of its BLE under background traffic \
             (insensitive pair {insensitive:.3}); the paper shows it collapsing"
        )
    })
}

/// Fig. 24: probe bursts are no worse than single probes and hold BLE.
pub fn fig24(r: &Fig24Result) -> Result<(), String> {
    let single = r.single.ble_retention();
    let bursts = r.bursts.ble_retention();
    if bursts >= single - 0.05 && bursts > 0.7 {
        Ok(())
    } else {
        Err(format!(
            "fig24: bursts do not restore BLE (single {single}, bursts {bursts})"
        ))
    }
}

/// Assertion kinds whose failure is a known defect of the program, not
/// a failed operation: `estimate-within` (the capacity estimate settles
/// within 10% of the true value after each disturbance) fails on most
/// seeds of the paper floor at this commit.
pub const KNOWN_DEFECT_ASSERTIONS: [&str; 1] = ["estimate-within"];

/// A campaign run: every assertion of its verdict, when it has one,
/// passes, apart from those in [`KNOWN_DEFECT_ASSERTIONS`].
pub fn campaign_run(r: &RunRecord) -> Result<(), String> {
    let failed: Vec<&str> = failed_assertions(r, false)
        .map(|a| a.kind.as_str())
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "run {}: verdict failed ({})",
            r.run,
            failed.join(", ")
        ))
    }
}

/// A campaign run's failed [`KNOWN_DEFECT_ASSERTIONS`], as a known-defect
/// report.
pub fn campaign_known_defect(r: &RunRecord) -> Option<String> {
    let failed: Vec<&str> = failed_assertions(r, true)
        .map(|a| a.detail.as_str())
        .collect();
    (!failed.is_empty()).then(|| format!("run {}: assertion failed: {}", r.run, failed.join("; ")))
}

/// The failed assertions of a run's verdict whose kind is (`known`) or
/// is not in [`KNOWN_DEFECT_ASSERTIONS`].
fn failed_assertions(r: &RunRecord, known: bool) -> impl Iterator<Item = &AssertionResult> {
    r.verdict
        .iter()
        .flat_map(|v| &v.assertions)
        .filter(move |a| !a.pass && KNOWN_DEFECT_ASSERTIONS.contains(&a.kind.as_str()) == known)
}
