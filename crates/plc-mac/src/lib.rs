//! # plc-mac — the IEEE 1901 (HomePlug AV) MAC layer
//!
//! Implements the MAC machinery the paper's measurements go through
//! (paper §2.2, Fig. 1):
//!
//! * [`timing`] — slot, inter-frame-space and frame-duration constants.
//! * [`csma`] — the 1901 CSMA/CA backoff engine, including the **deferral
//!   counter**: unlike 802.11, stations escalate their contention window
//!   not only on collisions but also after sensing the medium busy.
//! * [`pb`] — two-level frame aggregation: Ethernet packets are segmented
//!   into 512-byte **physical blocks** (PBs), PBs are merged into PLC
//!   frames, and a **selective acknowledgment** (SACK) retransmits only
//!   the corrupted PBs.
//! * [`frame`] — PLC frames and the **start-of-frame (SoF) delimiter**
//!   carrying the BLE that the paper's capacity estimation reads.
//! * [`cco`] — central-coordinator election and logical (encryption)
//!   networks: the paper's two-network floor with statically pinned
//!   CCos, plus HomePlug's dynamic election.
//! * [`sim`] — an event-driven contention-domain simulation: stations,
//!   traffic flows, channel estimation, tone-map exchange, SACKs,
//!   collisions with the capture effect, beacons, broadcast (ROBO) frames
//!   and a sniffer.
//! * [`mm`] — the management-message interface mirroring the Qualcomm
//!   Atheros Open Powerline Toolkit tools the paper uses (`ampstat` for
//!   PBerr, `int6krate` for average BLE, device reset, CCo pinning).
//! * [`throughput`] — an analytic saturation-throughput model (BLE and
//!   PBerr in, UDP goodput out) used by long-horizon experiments where
//!   frame-level simulation would be wasteful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cco;
pub mod csma;
pub mod frame;
pub mod mm;
pub mod pb;
mod persist;
pub mod reference;
mod scratch;
pub mod sim;
pub mod throughput;
pub mod timing;

pub use csma::BackoffState;
pub use frame::{Frame, SofDelimiter, SofRecord};
pub use sim::{Flow, PlcSim, SimConfig, StationId};
pub use throughput::saturation_throughput_mbps;
