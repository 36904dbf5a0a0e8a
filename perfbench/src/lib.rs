//! End-to-end and per-layer benchmark of the electrifi workspace.
//!
//! The benchmark drives the system only through public library entry
//! points — the `electrifi::experiments` figure runners and the
//! `electrifi_scenario` campaign functions — on inputs generated from a
//! seed. See `perfbench/README.md` for the workloads, the metrics and how
//! to run the untraced and traced modes.

pub mod campaign_gen;
pub mod checks;
pub mod report;
pub mod stats;
pub mod traced;
pub mod workloads;
