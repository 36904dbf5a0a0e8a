//! Multi-hop routing over hybrid link metrics.
//!
//! The paper's §4.3 motivation: "mesh configurations, hence routing and
//! load balancing algorithms, are needed for seamless connectivity", and
//! its related work \[17\] finds that "using alternating technologies for
//! multi-hop routes yields good performance". This module closes that
//! loop: given the [`LinkMetricsDb`] the
//! probing layer maintains, compute best multi-hop paths with an
//! **expected transmission time** (ETT) metric — the quality-aware
//! algorithm IEEE 1905 leaves unspecified.
//!
//! The ETT of a link follows Draves et al. (the paper's \[8\]):
//! `ETT = ETX × S / B` with packet size `S`, capacity `B`, and
//! `ETX = 1/(1 − loss)` from the link's loss metric. Stale metrics are
//! excluded (the probing-policy layer decides staleness).

use crate::metrics::{LinkId, LinkMetricsDb};
use serde::{Deserialize, Serialize};
use simnet::time::{Duration, Time};
use std::collections::{BinaryHeap, HashMap, HashSet};

/// One hop of a computed route.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hop {
    /// The directed link taken.
    pub link: LinkId,
    /// Its expected transmission time, seconds.
    pub ett_s: f64,
}

/// A computed route with its total cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    /// Hops in order, source first.
    pub hops: Vec<Hop>,
    /// Total expected transmission time, seconds.
    pub total_ett_s: f64,
}

impl Route {
    /// Stations visited, source first, destination last.
    pub fn stations(&self) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.hops.len() + 1);
        if let Some(first) = self.hops.first() {
            out.push(first.link.src);
        }
        for h in &self.hops {
            out.push(h.link.dst);
        }
        out
    }

    /// Does the route switch technology at any hop (the \[17\]
    /// "alternating technologies" pattern)?
    pub fn alternates_mediums(&self) -> bool {
        self.hops
            .windows(2)
            .any(|w| w[0].link.medium != w[1].link.medium)
    }
}

/// Expected transmission time of a link: `ETX × S / B` (seconds), with
/// `ETX = 1/(1 − loss)`. `None` for unusable links (zero capacity or
/// certain loss).
pub fn ett_s(capacity_mbps: f64, loss_rate: f64, pkt_bytes: u32) -> Option<f64> {
    if capacity_mbps <= 0.0 || loss_rate >= 1.0 {
        return None;
    }
    let etx = 1.0 / (1.0 - loss_rate.max(0.0));
    Some(etx * pkt_bytes as f64 * 8.0 / (capacity_mbps * 1e6))
}

/// Routing configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// Packet size the ETT is computed for.
    pub pkt_bytes: u32,
    /// Metrics older than this are treated as unknown (the link is not
    /// used) — §4.3's accuracy requirement.
    pub max_metric_age: Duration,
    /// Maximum hops per route.
    pub max_hops: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            pkt_bytes: 1500,
            max_metric_age: Duration::from_secs(90),
            max_hops: 6,
        }
    }
}

/// Quality-aware multi-hop router over a hybrid metric database.
#[derive(Debug, Clone)]
pub struct Router {
    cfg: RouterConfig,
}

impl Router {
    /// Create a router.
    pub fn new(cfg: RouterConfig) -> Self {
        Router { cfg }
    }

    /// The minimum-ETT route from `src` to `dst` using any mix of
    /// mediums. `None` when no fresh-metric path exists.
    pub fn best_route(&self, db: &LinkMetricsDb, src: u16, dst: u16, now: Time) -> Option<Route> {
        // Build the usable edge set.
        let mut edges: HashMap<u16, Vec<(LinkId, f64)>> = HashMap::new();
        for (link, metric) in db.links() {
            let fresh = now.saturating_since(metric.updated_at) <= self.cfg.max_metric_age;
            if !fresh {
                continue;
            }
            let loss = metric.loss_rate.unwrap_or(0.0);
            if let Some(ett) = ett_s(metric.capacity_mbps, loss, self.cfg.pkt_bytes) {
                edges.entry(link.src).or_default().push((*link, ett));
            }
        }
        // Dijkstra with hop bound.
        #[derive(PartialEq)]
        struct Entry(f64, u16, usize); // cost, node, hops
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.0.total_cmp(&self.0)
            }
        }
        let mut best: HashMap<u16, (f64, Option<LinkId>)> = HashMap::new();
        let mut heap = BinaryHeap::new();
        let mut done: HashSet<u16> = HashSet::new();
        best.insert(src, (0.0, None));
        heap.push(Entry(0.0, src, 0));
        while let Some(Entry(cost, node, hops)) = heap.pop() {
            if !done.insert(node) {
                continue;
            }
            if node == dst {
                break;
            }
            if hops >= self.cfg.max_hops {
                continue;
            }
            if let Some(out) = edges.get(&node) {
                for (link, ett) in out {
                    let next_cost = cost + ett;
                    let better = best
                        .get(&link.dst)
                        .map(|(c, _)| next_cost < *c)
                        .unwrap_or(true);
                    if better {
                        best.insert(link.dst, (next_cost, Some(*link)));
                        heap.push(Entry(next_cost, link.dst, hops + 1));
                    }
                }
            }
        }
        // Reconstruct.
        let (total, _) = best.get(&dst)?;
        let mut hops_rev = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (_, via) = best.get(&cur)?;
            let link = (*via)?;
            let metric = db.get(link)?;
            let ett = ett_s(
                metric.capacity_mbps,
                metric.loss_rate.unwrap_or(0.0),
                self.cfg.pkt_bytes,
            )?;
            hops_rev.push(Hop { link, ett_s: ett });
            cur = link.src;
        }
        hops_rev.reverse();
        Some(Route {
            hops: hops_rev,
            total_ett_s: *total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{LinkMetric, Medium};

    fn link(src: u16, dst: u16, medium: Medium) -> LinkId {
        LinkId { src, dst, medium }
    }

    fn metric(cap: f64, loss: f64, at: Time) -> LinkMetric {
        LinkMetric {
            capacity_mbps: cap,
            loss_rate: Some(loss),
            updated_at: at,
        }
    }

    fn router() -> Router {
        Router::new(RouterConfig::default())
    }

    #[test]
    fn ett_formula_behaves() {
        // 1500 B at 12 Mb/s, no loss: 1 ms.
        let e = ett_s(12.0, 0.0, 1500).unwrap();
        assert!((e - 1e-3).abs() < 1e-9);
        // 50% loss doubles it.
        let lossy = ett_s(12.0, 0.5, 1500).unwrap();
        assert!((lossy - 2e-3).abs() < 1e-9);
        assert!(ett_s(0.0, 0.0, 1500).is_none());
        assert!(ett_s(10.0, 1.0, 1500).is_none());
    }

    #[test]
    fn direct_route_when_it_is_best() {
        let mut db = LinkMetricsDb::new();
        db.update(link(0, 1, Medium::Plc), metric(100.0, 0.0, Time::ZERO));
        let r = router().best_route(&db, 0, 1, Time::ZERO).unwrap();
        assert_eq!(r.hops.len(), 1);
        assert_eq!(r.stations(), vec![0, 1]);
        assert!(!r.alternates_mediums());
    }

    #[test]
    fn two_fast_hops_beat_one_slow_link() {
        let mut db = LinkMetricsDb::new();
        db.update(link(0, 2, Medium::Wifi), metric(2.0, 0.0, Time::ZERO));
        db.update(link(0, 1, Medium::Wifi), metric(100.0, 0.0, Time::ZERO));
        db.update(link(1, 2, Medium::Plc), metric(100.0, 0.0, Time::ZERO));
        let r = router().best_route(&db, 0, 2, Time::ZERO).unwrap();
        assert_eq!(r.stations(), vec![0, 1, 2]);
        assert!(r.alternates_mediums(), "WiFi then PLC: the [17] pattern");
        assert!(r.total_ett_s < ett_s(2.0, 0.0, 1500).unwrap());
    }

    #[test]
    fn lossy_shortcut_loses_to_clean_detour() {
        let mut db = LinkMetricsDb::new();
        db.update(link(0, 2, Medium::Plc), metric(50.0, 0.9, Time::ZERO));
        db.update(link(0, 1, Medium::Plc), metric(50.0, 0.0, Time::ZERO));
        db.update(link(1, 2, Medium::Plc), metric(50.0, 0.0, Time::ZERO));
        let r = router().best_route(&db, 0, 2, Time::ZERO).unwrap();
        assert_eq!(r.hops.len(), 2);
    }

    #[test]
    fn stale_metrics_are_not_used() {
        let mut db = LinkMetricsDb::new();
        db.update(link(0, 1, Medium::Plc), metric(100.0, 0.0, Time::ZERO));
        let later = Time::from_secs(1_000);
        assert!(router().best_route(&db, 0, 1, later).is_none());
        // Refreshing restores the route.
        db.update(link(0, 1, Medium::Plc), metric(100.0, 0.0, later));
        assert!(router().best_route(&db, 0, 1, later).is_some());
    }

    #[test]
    fn hop_bound_is_respected() {
        let mut db = LinkMetricsDb::new();
        // A long chain 0 -> 1 -> ... -> 9.
        for k in 0..9u16 {
            db.update(link(k, k + 1, Medium::Plc), metric(100.0, 0.0, Time::ZERO));
        }
        let cfg = RouterConfig {
            max_hops: 4,
            ..RouterConfig::default()
        };
        assert!(Router::new(cfg).best_route(&db, 0, 9, Time::ZERO).is_none());
        assert!(router().best_route(&db, 0, 5, Time::ZERO).is_some());
    }

    #[test]
    fn asymmetric_links_route_directionally() {
        let mut db = LinkMetricsDb::new();
        // 0 -> 1 exists, 1 -> 0 does not (severe asymmetry, §5).
        db.update(link(0, 1, Medium::Plc), metric(80.0, 0.0, Time::ZERO));
        assert!(router().best_route(&db, 0, 1, Time::ZERO).is_some());
        assert!(router().best_route(&db, 1, 0, Time::ZERO).is_none());
    }

    #[test]
    fn no_route_between_disconnected_components() {
        let mut db = LinkMetricsDb::new();
        db.update(link(0, 1, Medium::Plc), metric(80.0, 0.0, Time::ZERO));
        db.update(link(2, 3, Medium::Plc), metric(80.0, 0.0, Time::ZERO));
        assert!(router().best_route(&db, 0, 3, Time::ZERO).is_none());
    }

    #[test]
    fn picks_the_faster_medium_between_the_same_pair() {
        let mut db = LinkMetricsDb::new();
        db.update(link(0, 1, Medium::Plc), metric(90.0, 0.0, Time::ZERO));
        db.update(link(0, 1, Medium::Wifi), metric(30.0, 0.0, Time::ZERO));
        let r = router().best_route(&db, 0, 1, Time::ZERO).unwrap();
        assert_eq!(r.hops[0].link.medium, Medium::Plc);
    }
}
