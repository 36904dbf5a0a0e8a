//! One runner per figure/table of the paper's evaluation.
//!
//! Every runner takes a [`Scale`]: `Paper` reproduces the experiment at
//! (close to) the paper's durations and link populations — that is what
//! the `electrifi-bench` binaries run — while `Quick` shrinks durations
//! for unit tests and smoke runs without changing the mechanics.
//!
//! The per-experiment index lives in `DESIGN.md`; measured-vs-paper
//! numbers in `EXPERIMENTS.md`.

pub mod capacity;
pub mod disturbance;
pub mod hybrid;
pub mod retrans;
pub mod spatial;
pub mod temporal;

use serde::{Deserialize, Serialize};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Shrunk durations for tests (seconds instead of minutes, minutes
    /// instead of days).
    Quick,
    /// The paper's durations (within reason: multi-month repetitions are
    /// collapsed to one pass).
    Paper,
}

impl Scale {
    /// Scale a duration: `Paper` keeps it, `Quick` divides by `factor`.
    pub fn dur(self, paper: simnet::time::Duration, factor: u64) -> simnet::time::Duration {
        match self {
            Scale::Paper => paper,
            Scale::Quick => paper / factor.max(1),
        }
    }

    /// Pick a link subset size: `Paper` keeps all, `Quick` truncates.
    pub fn take(self, n_paper: usize, n_quick: usize) -> usize {
        match self {
            Scale::Paper => n_paper,
            Scale::Quick => n_quick.min(n_paper),
        }
    }
}

/// Canonical seed used by the reproduction binaries.
pub const PAPER_SEED: u64 = 2015;

/// A result's serialised form: two results are equal field by field,
/// floats bit for bit, when these strings are.
#[cfg(test)]
fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("results serialise")
}
