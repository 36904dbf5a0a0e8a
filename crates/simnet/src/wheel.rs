//! Hierarchical time wheel + lockstep engine for ensembles of
//! independent simulations.
//!
//! Stepping N independent sims one after another means N private event
//! queues and N cold struct traversals per wall-clock slice. This
//! module offers **one** shared schedule instead — a two-level time
//! wheel keyed by *epoch index* — and a [`Lockstep`] engine that
//! advances every due member through the same epoch window before
//! touching the next one, so a mostly-idle ensemble costs one wheel pop
//! per *due* member. Its one caller is the batched probe ensemble
//! (`electrifi::ensemble`), which the benchmark harness times against
//! the serial per-pair path.
//!
//! Members implement [`LockstepSim`]: the engine only needs to know
//! *when* a member next has work ([`LockstepSim::wake`]) and how to run
//! it up to a horizon ([`LockstepSim::advance`]). Crucially the engine
//! never re-implements member semantics — `advance` is required to
//! behave exactly as the member's own serial stepper would over the
//! same `[now, end)` run, just sliced at epoch boundaries. That is what
//! makes batched execution bit-identical to serial execution: the
//! slices concatenate to the very same step sequence (see
//! `core/src/ensemble.rs` and DESIGN.md §13).
//!
//! The wheel itself is allocation-free in steady state: intrusive
//! singly-linked slot lists over a preallocated `next[]` lane, `u64`
//! occupancy bitmaps per level (next-due slot is a `trailing_zeros`),
//! and a `far` overflow list for members scheduled beyond the second
//! level's horizon.

use crate::obs::{self, span, Counter};
use crate::time::{Duration, Time};

/// Sentinel link value: "end of slot list" / "not linked".
const NIL: u32 = u32::MAX;

/// Slots per wheel level. 64 matches the occupancy-bitmap word so the
/// nearest occupied slot is one `trailing_zeros` away.
const SLOTS: usize = 64;

/// A member of a lockstep batch: a simulation the engine can park until
/// its next pending work and then advance through an epoch window.
pub trait LockstepSim {
    /// Earliest instant at which this member has pending work (its
    /// current clock for a sim that steps continuously, or the next
    /// scheduled event for a task-shaped member).
    fn wake(&self) -> Time;

    /// Run all work strictly before `horizon`, exactly as the member's
    /// serial stepper would during a continuous run to `end`
    /// (`horizon <= end` always). Returns the next wake instant
    /// (`>= horizon`), or `None` when the member is permanently
    /// finished and must never be scheduled again.
    ///
    /// The bit-identity contract: for any ascending sequence of
    /// horizons ending at `end`, the concatenated `advance` calls must
    /// leave the member in exactly the state a single serial run to
    /// `end` would — same outputs, same RNG stream, same metrics.
    fn advance(&mut self, horizon: Time, end: Time) -> Option<Time>;
}

/// Two-level hierarchical time wheel over `u64` ticks.
///
/// Level 0 resolves single ticks within the cursor's current 64-tick
/// block; level 1 resolves 64-tick blocks within the next 64 blocks;
/// anything further lands in the `far` list and is promoted when the
/// cursor approaches. Ticks are abstract here — [`Lockstep`] maps one
/// tick to one epoch.
#[derive(Debug)]
pub struct TimeWheel {
    /// Slot heads, level 0: one tick per slot, `l0[t % 64]`.
    l0: [u32; SLOTS],
    /// Slot heads, level 1: one 64-tick block per slot, `l1[(t/64) % 64]`.
    l1: [u32; SLOTS],
    /// Occupancy bitmap per level (bit i set = slot i non-empty).
    l0_occ: u64,
    l1_occ: u64,
    /// Intrusive per-member link to the next member in the same slot.
    next: Vec<u32>,
    /// Exact scheduled tick per member (needed to cascade L1 -> L0).
    tick: Vec<u64>,
    /// Members scheduled beyond the L1 horizon, promoted lazily.
    far: Vec<u32>,
    far_min: u64,
    /// Current tick. Every scheduled tick is `>= cursor`.
    cursor: u64,
    len: usize,
}

impl TimeWheel {
    /// A wheel for members `0..capacity`, starting at tick 0.
    pub fn new(capacity: usize) -> Self {
        TimeWheel {
            l0: [NIL; SLOTS],
            l1: [NIL; SLOTS],
            l0_occ: 0,
            l1_occ: 0,
            next: vec![NIL; capacity],
            tick: vec![0; capacity],
            far: Vec::with_capacity(capacity),
            far_min: u64::MAX,
            cursor: 0,
            len: 0,
        }
    }

    /// Members currently scheduled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current tick: no member is scheduled earlier.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Schedule member `id` at `tick` (clamped up to the cursor — the
    /// past is not schedulable). Each member may be scheduled at most
    /// once; the caller (the engine) re-schedules after draining.
    pub fn schedule(&mut self, id: u32, tick: u64) {
        let tick = tick.max(self.cursor);
        debug_assert_eq!(self.next[id as usize], NIL, "member {id} already linked");
        self.tick[id as usize] = tick;
        let block = tick / SLOTS as u64;
        let cur_block = self.cursor / SLOTS as u64;
        if block == cur_block {
            let s = (tick % SLOTS as u64) as usize;
            self.next[id as usize] = self.l0[s];
            self.l0[s] = id;
            self.l0_occ |= 1 << s;
        } else if block < cur_block + SLOTS as u64 {
            let s = (block % SLOTS as u64) as usize;
            self.next[id as usize] = self.l1[s];
            self.l1[s] = id;
            self.l1_occ |= 1 << s;
        } else {
            self.far.push(id);
            self.far_min = self.far_min.min(tick);
        }
        self.len += 1;
    }

    /// Drain the earliest occupied tick into `due` (cleared first) and
    /// advance the cursor to it. Returns that tick, or `None` when the
    /// wheel is empty. Members in `due` are no longer scheduled.
    pub fn pop_next(&mut self, due: &mut Vec<u32>) -> Option<u64> {
        due.clear();
        if self.len == 0 {
            return None;
        }
        loop {
            // Promote far members that fell inside the L1 horizon as
            // the cursor advanced; afterwards every far member is
            // strictly later than everything resident in L0/L1, so the
            // level order below is the tick order.
            self.promote_far();
            if self.l0_occ != 0 {
                let s = self.l0_occ.trailing_zeros() as usize;
                let tick = (self.cursor / SLOTS as u64) * SLOTS as u64 + s as u64;
                debug_assert!(tick >= self.cursor);
                self.cursor = tick;
                let mut id = self.l0[s];
                self.l0[s] = NIL;
                self.l0_occ &= !(1 << s);
                while id != NIL {
                    due.push(id);
                    let n = self.next[id as usize];
                    self.next[id as usize] = NIL;
                    id = n;
                }
                self.len -= due.len();
                return Some(tick);
            }
            if self.l1_occ != 0 {
                // Nearest occupied block strictly after the current
                // one: rotate the bitmap so that block cur+1 is bit 0.
                let cur_block = self.cursor / SLOTS as u64;
                let first = ((cur_block + 1) % SLOTS as u64) as u32;
                let rotated = self.l1_occ.rotate_right(first);
                let off = rotated.trailing_zeros() as u64;
                let block = cur_block + 1 + off;
                let s = (block % SLOTS as u64) as usize;
                // Advance into that block and cascade its slot into L0
                // by exact tick; the loop re-runs and pops from L0.
                self.cursor = block * SLOTS as u64;
                let mut id = self.l1[s];
                self.l1[s] = NIL;
                self.l1_occ &= !(1 << s);
                while id != NIL {
                    let n = self.next[id as usize];
                    let t = self.tick[id as usize];
                    debug_assert_eq!(t / SLOTS as u64, block);
                    let ls = (t % SLOTS as u64) as usize;
                    self.next[id as usize] = self.l0[ls];
                    self.l0[ls] = id;
                    self.l0_occ |= 1 << ls;
                    id = n;
                }
                continue;
            }
            // Only far members remain: jump the cursor to the earliest
            // and let promote_far sort them into the levels.
            debug_assert!(!self.far.is_empty());
            self.cursor = self.far_min;
        }
    }

    /// Re-insert far members whose tick is now within the L1 horizon.
    fn promote_far(&mut self) {
        let horizon = (self.cursor / SLOTS as u64 + SLOTS as u64) * SLOTS as u64;
        if self.far_min >= horizon {
            return;
        }
        self.far_min = u64::MAX;
        let mut i = 0;
        while i < self.far.len() {
            let id = self.far[i];
            let t = self.tick[id as usize];
            if t < horizon {
                self.far.swap_remove(i);
                self.len -= 1; // schedule() re-adds it
                self.schedule(id, t);
            } else {
                self.far_min = self.far_min.min(t);
                i += 1;
            }
        }
    }
}

/// Batch-engine counters, registered against the ambient [`Obs`] at
/// engine construction (see [`obs::current`]).
///
/// [`Obs`]: crate::obs::Obs
#[derive(Debug, Clone)]
struct BatchMetrics {
    /// Non-empty epochs processed.
    epochs: Counter,
    /// Sum over epochs of members advanced in that epoch.
    active_sims: Counter,
    /// Sum over epochs of members that stayed parked in the wheel
    /// (scheduled, but not due) while the epoch ran — the work the
    /// per-sim round-robin would have paid and the wheel skips.
    idle_skips: Counter,
}

impl BatchMetrics {
    fn new() -> Self {
        let obs = obs::current();
        let reg = obs.registry();
        BatchMetrics {
            epochs: reg.counter("mac.batch.epochs"),
            active_sims: reg.counter("mac.batch.active_sims"),
            idle_skips: reg.counter("mac.batch.idle_skips"),
        }
    }
}

/// Default epoch width: 10 ms, half a mains cycle — the natural beat of
/// the HomePlug AV MAC and the chunk width the per-sim sweeps already
/// use.
pub const DEFAULT_EPOCH: Duration = Duration::from_millis(10);

/// Lockstep batch engine: advances N independent [`LockstepSim`]s
/// through shared epochs scheduled on a [`TimeWheel`].
///
/// [`run_until`](Lockstep::run_until) admits every unfinished member
/// whose wake falls before `end`, then repeatedly pops the earliest
/// occupied epoch and advances each due member through it. Members
/// whose next wake lands at or beyond `end` are parked (cheap: one
/// `u64` lane write) and re-admitted by a later `run_until`; members
/// whose `advance` returns `None` are finished for good.
///
/// Determinism: members are independent, so per-member results do not
/// depend on the interleaving; the engine still processes epochs in
/// ascending order and members within an epoch in wheel drain order,
/// which is itself a pure function of the schedule history.
#[derive(Debug)]
pub struct Lockstep<S: LockstepSim> {
    sims: Vec<S>,
    wheel: TimeWheel,
    epoch_ns: u64,
    /// SoA wake lane, nanoseconds; `u64::MAX` = permanently finished.
    wake_ns: Vec<u64>,
    /// Reused drain scratch.
    due: Vec<u32>,
    metrics: BatchMetrics,
}

impl<S: LockstepSim> Lockstep<S> {
    /// Engine over `sims` with the [`DEFAULT_EPOCH`] width.
    pub fn new(sims: Vec<S>) -> Self {
        Self::with_epoch(sims, DEFAULT_EPOCH)
    }

    /// Engine over `sims` with an explicit epoch width (must be > 0).
    pub fn with_epoch(sims: Vec<S>, epoch: Duration) -> Self {
        assert!(epoch.as_nanos() > 0, "epoch must be positive");
        let n = sims.len();
        let wake_ns = sims.iter().map(|s| s.wake().as_nanos()).collect();
        Lockstep {
            sims,
            wheel: TimeWheel::new(n),
            epoch_ns: epoch.as_nanos(),
            wake_ns,
            due: Vec::with_capacity(n),
            metrics: BatchMetrics::new(),
        }
    }

    /// Number of members (finished ones included).
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// True when the batch has no members.
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }

    /// The members, for draining outputs between `run_until` calls.
    pub fn sims(&self) -> &[S] {
        &self.sims
    }

    /// Mutable members. Callers may drain buffers or read state but
    /// must not create earlier pending work than the member's `wake`
    /// reported — the engine re-reads `wake()` only at the next
    /// `run_until` admission.
    pub fn sims_mut(&mut self) -> &mut [S] {
        &mut self.sims
    }

    /// Consume the engine and hand the members back.
    pub fn into_sims(self) -> Vec<S> {
        self.sims
    }

    /// Advance every member to `end`, bit-identically to running each
    /// member's own stepper to `end` serially. `end` must not decrease
    /// across calls.
    pub fn run_until(&mut self, end: Time) {
        let end_ns = end.as_nanos();
        // Admit: every unfinished member with pending work before
        // `end`. The wheel is always empty between run_until calls
        // (the loop below drains it), so one O(N) scan per call — not
        // per epoch — is the whole admission cost.
        debug_assert!(self.wheel.is_empty());
        for (i, sim) in self.sims.iter().enumerate() {
            // Re-read wake for parked members: cheap, and robust to
            // callers that drained state between calls.
            if self.wake_ns[i] != u64::MAX {
                let w = sim.wake().as_nanos();
                self.wake_ns[i] = w;
                if w < end_ns {
                    self.wheel.schedule(i as u32, w / self.epoch_ns);
                }
            }
        }
        let mut due = std::mem::take(&mut self.due);
        while let Some(tick) = self.wheel.pop_next(&mut due) {
            let epoch_start = tick * self.epoch_ns;
            debug_assert!(epoch_start < end_ns);
            let horizon = Time(end_ns.min(epoch_start + self.epoch_ns));
            let _ep = span::enter_at("mac.batch_epoch", Time(epoch_start));
            self.metrics.epochs.inc();
            self.metrics.active_sims.add(due.len() as u64);
            self.metrics.idle_skips.add(self.wheel.len() as u64);
            for &id in &due {
                let i = id as usize;
                match self.sims[i].advance(horizon, end) {
                    Some(w) => {
                        let w_ns = w.as_nanos();
                        debug_assert!(w_ns >= horizon.as_nanos());
                        self.wake_ns[i] = w_ns;
                        if w_ns < end_ns {
                            self.wheel.schedule(id, w_ns / self.epoch_ns);
                        }
                        // else: parked until a later run_until.
                    }
                    None => self.wake_ns[i] = u64::MAX,
                }
            }
        }
        self.due = due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    // -- wheel ----------------------------------------------------------

    /// Drive the wheel and a BinaryHeap model with the same schedule
    /// stream; they must agree on every (tick, member-set) pop.
    fn check_against_model(inserts: &[(u32, u64)], reschedule_gap: u64) {
        let n = inserts.iter().map(|&(id, _)| id + 1).max().unwrap_or(0);
        let mut wheel = TimeWheel::new(n as usize);
        let mut model: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = BinaryHeap::new();
        for &(id, tick) in inserts {
            wheel.schedule(id, tick);
            model.push(std::cmp::Reverse((tick, id)));
        }
        let mut due = Vec::new();
        let mut rounds = 0u64;
        while let Some(tick) = wheel.pop_next(&mut due) {
            let mut expect = Vec::new();
            while let Some(&std::cmp::Reverse((t, id))) = model.peek() {
                if t != tick {
                    break;
                }
                model.pop();
                expect.push(id);
            }
            let mut got = due.clone();
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect, "tick {tick} member set");
            // Reschedule every other popped member further out, like
            // the engine does, to exercise cascades and far promotion.
            if reschedule_gap > 0 && rounds < 200 {
                for (k, &id) in due.iter().enumerate() {
                    if k % 2 == 0 {
                        let t2 = tick + reschedule_gap + id as u64 % 7;
                        wheel.schedule(id, t2);
                        model.push(std::cmp::Reverse((t2, id)));
                    }
                }
            }
            rounds += 1;
        }
        assert!(model.is_empty(), "wheel drained before the model");
    }

    #[test]
    fn wheel_matches_heap_model_short_range() {
        let inserts: Vec<(u32, u64)> = (0..50).map(|i| (i, (i as u64 * 13) % 60)).collect();
        check_against_model(&inserts, 0);
    }

    #[test]
    fn wheel_matches_heap_model_l1_range() {
        let inserts: Vec<(u32, u64)> = (0..80).map(|i| (i, (i as u64 * 101) % 4000)).collect();
        check_against_model(&inserts, 57);
    }

    #[test]
    fn wheel_matches_heap_model_far_range() {
        // Ticks far beyond the L1 horizon (64*64 = 4096) force the far
        // list and its promotion path.
        let inserts: Vec<(u32, u64)> = (0..60).map(|i| (i, (i as u64 * 7919) % 100_000)).collect();
        check_against_model(&inserts, 4096 + 17);
    }

    #[test]
    fn wheel_clamps_past_ticks_to_cursor() {
        let mut wheel = TimeWheel::new(4);
        wheel.schedule(0, 100);
        let mut due = Vec::new();
        assert_eq!(wheel.pop_next(&mut due), Some(100));
        // Scheduling "in the past" lands on the cursor, never before.
        wheel.schedule(1, 3);
        assert_eq!(wheel.pop_next(&mut due), Some(100));
        assert_eq!(due, vec![1]);
        assert!(wheel.pop_next(&mut due).is_none());
    }

    #[test]
    fn wheel_same_tick_members_drain_together() {
        let mut wheel = TimeWheel::new(8);
        for id in 0..8 {
            wheel.schedule(id, 42);
        }
        let mut due = Vec::new();
        assert_eq!(wheel.pop_next(&mut due), Some(42));
        assert_eq!(due.len(), 8);
        assert!(wheel.is_empty());
    }

    // -- engine ---------------------------------------------------------

    /// Toy member: fires at a fixed period, records every firing time,
    /// finishes after `limit` firings. Serial reference = a plain loop.
    struct Ticker {
        period: u64,
        next: u64,
        fired: Vec<u64>,
        limit: usize,
    }

    impl LockstepSim for Ticker {
        fn wake(&self) -> Time {
            Time(self.next)
        }
        fn advance(&mut self, horizon: Time, _end: Time) -> Option<Time> {
            while self.next < horizon.as_nanos() {
                self.fired.push(self.next);
                self.next += self.period;
                if self.fired.len() >= self.limit {
                    return None;
                }
            }
            Some(Time(self.next))
        }
    }

    fn tickers() -> Vec<Ticker> {
        (0..37)
            .map(|i| Ticker {
                period: 1_000 + 317 * i,
                next: 13 * i,
                fired: Vec::new(),
                limit: 50 + (i as usize % 9),
            })
            .collect()
    }

    #[test]
    fn lockstep_matches_serial_execution() {
        let serial: Vec<Vec<u64>> = tickers()
            .into_iter()
            .map(|mut t| {
                // Serial reference: advance straight to the end.
                let _ = t.advance(Time(200_000), Time(200_000));
                t.fired
            })
            .collect();
        let mut batch = Lockstep::with_epoch(tickers(), Duration::from_nanos(4_096));
        // Split the run across several run_until calls to exercise
        // parking and re-admission.
        for end in [50_000u64, 50_000, 120_001, 200_000] {
            batch.run_until(Time(end));
        }
        let batched: Vec<Vec<u64>> = batch.into_sims().into_iter().map(|t| t.fired).collect();
        assert_eq!(serial, batched);
    }

    #[test]
    fn lockstep_counters_account_for_epochs() {
        let obs = obs::Obs::new();
        let reg = obs.registry().clone();
        obs::with_default(obs, || {
            let mut batch = Lockstep::with_epoch(
                (0..4)
                    .map(|i| Ticker {
                        period: 10_000,
                        next: 2_500 * i,
                        fired: Vec::new(),
                        limit: 100,
                    })
                    .collect(),
                Duration::from_nanos(1_000),
            );
            batch.run_until(Time(40_000));
        });
        let snap = reg.snapshot();
        let epochs = snap.counter("mac.batch.epochs");
        let active = snap.counter("mac.batch.active_sims");
        // 4 tickers x 4 firings each before t=40_000, one epoch per
        // firing (periods are multiples of the epoch).
        assert_eq!(active, 16);
        assert_eq!(epochs, 16);
    }

    #[test]
    #[should_panic(expected = "epoch must be positive")]
    fn zero_epoch_is_rejected() {
        let _ = Lockstep::with_epoch(Vec::<Ticker>::new(), Duration::ZERO);
    }
}
