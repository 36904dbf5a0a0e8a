//! Deterministic parallel sweeps over independent link measurements.
//!
//! The spatial/capacity experiments iterate over station pairs and
//! measure each pair with a **pure, per-pair-seeded** function — no state
//! is carried from one pair to the next. That makes the loops
//! embarrassingly parallel, *provided* the parallel schedule cannot leak
//! into the results:
//!
//! * items are split into contiguous chunks and results are collected in
//!   item-index order, so the output `Vec` is byte-identical to a
//!   sequential run;
//! * each chunk runs under its own fresh [`Obs`](simnet::obs::Obs) (the
//!   `Rc`-based instruments are intentionally `!Send`) and returns a
//!   [`MetricsSnapshot`]; the coordinator folds the snapshots into the
//!   ambient registry in chunk order, so same-seed metric totals are
//!   reproducible too. Chunk 0 runs on the calling thread (under the
//!   same fresh-`Obs` wrapping) while chunks 1.. run on spawned workers,
//!   so a sweep over `w` workers spawns `w - 1` threads. Structured
//!   *events* raised inside chunks are dropped — sweeps record metrics,
//!   not event streams.
//!
//! Thread count comes from `ELECTRIFI_THREADS` (a positive integer; `1`
//! forces the sequential path) or `std::thread::available_parallelism()`.
//! A set-but-invalid value (`0`, garbage) is rejected with a clear
//! message rather than silently falling back — a sweep silently running
//! sequential because of a typo is exactly the misconfiguration the
//! variable exists to prevent.

use simnet::obs::span::{self, SpanReport};
use simnet::obs::{self, MetricsSnapshot, Obs};

/// Environment variable overriding the sweep worker count (re-exported
/// from [`simnet::threads`], the one validated parser every worker-count
/// surface shares).
pub const THREADS_ENV: &str = simnet::threads::THREADS_ENV;

/// Number of workers a sweep over `n_items` items would use.
///
/// # Panics
/// Panics with the [`simnet::threads::WorkerCountError`] message when
/// `ELECTRIFI_THREADS` is set to an invalid value: a misconfigured worker
/// count should stop the run at the first sweep, not silently change its
/// parallelism.
pub fn thread_count(n_items: usize) -> usize {
    let hw = simnet::threads::worker_count_from_env()
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    hw.clamp(1, n_items.max(1))
}

/// Map `f` over `items` in parallel, returning results in item order.
///
/// `f(i, &items[i])` must be pure with respect to sweep order (derive any
/// randomness from the item itself, e.g. a per-link seed): the output is
/// then byte-identical to `items.iter().enumerate().map(...)`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_workers(items, thread_count(items.len()), f)
}

/// [`par_map`] with an explicit worker count (exposed for tests).
pub fn par_map_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        // Sequential fast path: runs under the ambient Obs directly
        // (including the ambient span collector, if any).
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Span collection propagates like metrics do: every chunk re-enables
    // the coordinator's configuration under a fresh collector, returns the
    // (Send) report, and the coordinator absorbs the reports in chunk
    // order.
    let span_cfg = span::active_config();
    let chunk_len = items.len().div_ceil(workers);
    let f = &f;
    // One contiguous chunk under its own fresh Obs (and span collector):
    // its results, metrics and spans. `with_default` and `scoped` restore
    // the calling thread's Obs and collector, so chunk 0 runs on the
    // calling thread exactly as the others run on workers.
    let run_chunk = move |k: usize, chunk: &[T]| {
        let obs = Obs::new();
        let work = || {
            obs::with_default(obs.clone(), || {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(j, t)| f(k * chunk_len + j, t))
                    .collect::<Vec<R>>()
            })
        };
        let (results, spans) = match span_cfg {
            Some(cfg) => span::scoped(cfg, work),
            None => (work(), SpanReport::default()),
        };
        (results, obs.registry().snapshot(), spans)
    };
    let mut chunks = items.chunks(chunk_len);
    let first = chunks
        .next()
        .expect("a sweep of two or more items has a chunk");
    // Chunks 1.. run on spawned workers while the calling thread runs
    // chunk 0; the (results, metrics, spans) triples are then
    // concatenated and absorbed in chunk order, so the thread schedule
    // cannot influence anything observable.
    let per_chunk: Vec<(Vec<R>, MetricsSnapshot, SpanReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .enumerate()
            .map(|(k, chunk)| scope.spawn(move || run_chunk(k + 1, chunk)))
            .collect();
        let mut per_chunk = Vec::with_capacity(handles.len() + 1);
        per_chunk.push(run_chunk(0, first));
        per_chunk.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked")),
        );
        per_chunk
    });
    let ambient = obs::current();
    let mut out = Vec::with_capacity(items.len());
    for (results, snap, spans) in per_chunk {
        ambient.registry().absorb(&snap);
        span::absorb(&spans);
        out.extend(results);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..23).collect();
        let seq = par_map_workers(&items, 1, |i, &x| (i as u64) * 1000 + x * x);
        for workers in (2..=8).chain([64]) {
            let par = par_map_workers(&items, workers, |i, &x| (i as u64) * 1000 + x * x);
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    #[test]
    fn worker_metrics_fold_into_ambient_registry() {
        for workers in 1..=8 {
            let obs = Obs::new();
            let items: Vec<u64> = (0..10).collect();
            obs::with_default(obs.clone(), || {
                par_map_workers(&items, workers, |_, &x| {
                    obs::current().registry().counter("sweep.work").add(x);
                    x
                });
            });
            let snap = obs.registry().snapshot();
            assert_eq!(
                snap.counter("sweep.work"),
                (0..10).sum::<u64>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn worker_spans_fold_into_ambient_collector() {
        for workers in 1..=8 {
            let ((), rep) = span::scoped(span::SpanConfig::stats(), || {
                let items: Vec<u64> = (0..10).collect();
                par_map_workers(&items, workers, |i, _| {
                    let _g = span::enter("sweep.item");
                    if i % 3 == 0 {
                        let _h = span::enter("sweep.inner");
                    }
                });
            });
            let count = |name: &str| rep.get(name).map_or(0, |s| s.count);
            assert_eq!(count("sweep.item"), 10, "workers={workers}");
            assert_eq!(count("sweep.inner"), 4, "workers={workers}");
        }
    }

    #[test]
    fn chunk_zero_runs_on_the_calling_thread_and_restores_its_state() {
        let caller = std::thread::current().id();
        for workers in 1..=8 {
            let obs = Obs::new();
            let items: Vec<u64> = (0..16).collect();
            let (ran_here, rep) = obs::with_default(obs.clone(), || {
                let out = span::scoped(span::SpanConfig::stats(), || {
                    let _outer = span::enter("sweep.outer");
                    let ran_here = par_map_workers(&items, workers, |i, _| {
                        let here = std::thread::current().id() == caller;
                        if here {
                            let _g = span::enter("sweep.caller_item");
                        }
                        // Chunk 0 counts into its own registry, not the
                        // caller's, until the sweep absorbs it.
                        obs::current().registry().counter("sweep.item").inc();
                        (i, here)
                    });
                    // The caller's own collector is back, outer span open.
                    let _after = span::enter("sweep.after");
                    ran_here
                });
                obs::current().registry().counter("sweep.after").inc();
                out
            });
            let chunk_len = items.len().div_ceil(workers);
            for (i, here) in ran_here {
                if i < chunk_len {
                    assert!(here, "workers={workers}: item {i} left the calling thread");
                } else {
                    assert!(
                        !here,
                        "workers={workers}: item {i} ran on the calling thread"
                    );
                }
            }
            let count = |name: &str| rep.get(name).map_or(0, |s| s.count);
            assert_eq!(
                count("sweep.caller_item"),
                chunk_len as u64,
                "workers={workers}"
            );
            assert_eq!(count("sweep.outer"), 1, "workers={workers}");
            assert_eq!(count("sweep.after"), 1, "workers={workers}");
            let snap = obs.registry().snapshot();
            assert_eq!(snap.counter("sweep.item"), 16, "workers={workers}");
            assert_eq!(snap.counter("sweep.after"), 1, "workers={workers}");
        }
        assert!(!span::is_enabled());
    }

    #[test]
    fn sweeps_without_spans_collect_none() {
        let items: Vec<u64> = (0..4).collect();
        par_map_workers(&items, 2, |_, _| {
            let _g = span::enter("sweep.ignored");
        });
        assert!(!span::is_enabled());
        assert!(span::disable().stats.is_empty());
    }

    #[test]
    fn empty_and_single_item_sweeps_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn thread_count_is_clamped_to_items() {
        assert_eq!(thread_count(0), 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(1_000_000) >= 1);
    }
}
