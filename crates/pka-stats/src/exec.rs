//! Deterministic scoped-thread executor for the PKA pipeline.
//!
//! Every parallelizable stage of PKA — per-kernel silicon profiling, the
//! independent K=1..max_k clustering runs, per-representative simulation —
//! is a *map over independent items*. [`Executor`] fans those maps out over
//! `std::thread::scope` workers while guaranteeing the observable result is
//! **bitwise identical** to a sequential run:
//!
//! * results are placed into their item's slot by index, never in
//!   completion order, so reductions downstream fold in item order;
//! * [`Executor::try_map`] reports the error of the *smallest-indexed*
//!   failing item, matching what a sequential early-exit loop would see;
//! * no RNG state is shared across items — callers derive per-item seeds;
//! * with a trace sink attached, spans and events emitted *inside* work
//!   items are captured per item ([`pka_obs::capture_trace`]) and flushed
//!   in item order, so trace JSONL line order matches a sequential run
//!   regardless of thread schedule.
//!
//! Worker threads are named `pka-w<N>`, matching the per-worker
//! `executor.worker_busy.w<N>` stages, so trace viewers get one stable
//! lane per worker.
//!
//! Worker count `1` (the default) bypasses threads entirely, so the
//! sequential path is not merely equivalent but literally the same code the
//! parity tests compare against.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

/// A scoped-thread work fan-out with deterministic, order-preserving
/// results.
///
/// `Executor` is tiny and `Copy`; embed it in configuration structs and
/// pass it by value. The worker count is fixed at construction:
/// [`Executor::new(0)`](Executor::new) resolves to the host's available
/// parallelism.
///
/// # Examples
///
/// ```
/// use pka_stats::Executor;
///
/// let exec = Executor::new(4);
/// let squares = exec.map(&[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Executor {
    workers: NonZeroUsize,
}

impl Default for Executor {
    /// The sequential executor.
    fn default() -> Self {
        Self::sequential()
    }
}

impl Executor {
    /// An executor that runs everything inline on the calling thread.
    pub fn sequential() -> Self {
        Self {
            workers: NonZeroUsize::MIN,
        }
    }

    /// An executor with `workers` threads; `0` means one worker per
    /// available hardware thread.
    pub fn new(workers: usize) -> Self {
        let resolved = match NonZeroUsize::new(workers) {
            Some(n) => n,
            None => std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        };
        Self { workers: resolved }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers.get()
    }

    /// True when work runs inline on the calling thread.
    pub fn is_sequential(&self) -> bool {
        self.workers.get() == 1
    }

    /// Threads actually spawned for a fan-out over `n_tasks` tasks: the
    /// configured count, capped by the task count and by the hardware
    /// thread count. Tasks are claimed from a shared counter, so fewer
    /// threads simply take more tasks each and every result is identical —
    /// oversubscribing a CPU-bound fan-out buys nothing but scheduler
    /// churn (an `Executor::new(4)` on a single-core host was measurably
    /// *slower* than sequential before this cap). When the cap resolves to
    /// one thread the fan-out runs inline on the caller, exactly like the
    /// sequential executor (and publishes no per-worker busy stages).
    pub fn spawn_count(&self, n_tasks: usize) -> usize {
        let hw = std::thread::available_parallelism().map_or(usize::MAX, NonZeroUsize::get);
        self.workers.get().min(n_tasks).min(hw)
    }

    /// Applies `f` to every item and returns the results in item order.
    ///
    /// `f` receives `(index, &item)`. With more than one worker, items are
    /// claimed from a shared counter and may *execute* in any order; the
    /// returned vector is always `[f(0, &items[0]), f(1, &items[1]), ...]`.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        if self.is_sequential() || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let n = items.len();
        let obs = pka_obs::enabled();
        if obs {
            pka_obs::counter("executor.parallel_maps").incr();
            pka_obs::counter("executor.items").add(n as u64);
        }
        // With a sink attached, per-item trace output is captured on the
        // worker and re-emitted in item order below, keeping trace files
        // byte-comparable across worker counts.
        let tracing = obs && pka_obs::global().tracing();
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, U, pka_obs::CapturedTrace)>();
        let workers = self.spawn_count(n);
        if workers == 1 {
            // The cap resolved to one thread (single-core host): claiming
            // items through a channel from one worker is pure overhead.
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let busy: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let out = std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                let busy = &busy;
                std::thread::Builder::new()
                    .name(format!("pka-w{w}"))
                    .spawn_scoped(scope, move || {
                        let start = obs.then(std::time::Instant::now);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let (value, trace) = if tracing {
                                pka_obs::capture_trace(|| f(i, &items[i]))
                            } else {
                                (f(i, &items[i]), pka_obs::CapturedTrace::default())
                            };
                            if tx.send((i, value, trace)).is_err() {
                                break;
                            }
                        }
                        if let Some(start) = start {
                            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            pka_obs::stage("executor.worker_busy").record_ns(ns);
                            pka_obs::stage(pka_obs::intern(&format!("executor.worker_busy.w{w}")))
                                .record_ns(ns);
                            busy.lock().expect("busy vec").push(ns);
                        }
                    })
                    .expect("spawn executor worker");
            }
            drop(tx);
            let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
            let mut traces: Vec<Option<pka_obs::CapturedTrace>> = if tracing {
                (0..n).map(|_| None).collect()
            } else {
                Vec::new()
            };
            for (i, value, trace) in rx {
                slots[i] = Some(value);
                if tracing {
                    traces[i] = Some(trace);
                }
            }
            for trace in traces.into_iter().flatten() {
                pka_obs::emit_captured(trace);
            }
            slots
                .into_iter()
                .map(|slot| slot.expect("every index yields exactly one result"))
                .collect()
        });
        if obs {
            record_busy_spread(&busy.into_inner().expect("busy vec"));
        }
        out
    }

    /// Repeatedly fans a fixed chunked job out over a *persistent* set of
    /// workers.
    ///
    /// [`map`](Executor::map) spawns fresh scoped threads on every call —
    /// fine for one-shot fan-outs, but an iterative algorithm dispatching a
    /// round per iteration (the bounded K-Means assignment step) would pay
    /// ~100 µs of thread spawn per iteration. `rounds` spawns the workers
    /// once, then lets `body` trigger any number of rounds through the
    /// `run` callback it receives: each `run()` executes `f` over the same
    /// fixed chunk grid — `f` receives `(chunk_index, range)`, every range
    /// but possibly the last spanning exactly `chunk_size` items — and
    /// returns the per-chunk results in chunk order.
    ///
    /// `f` is fixed for the lifetime of the pool, so per-round inputs must
    /// reach it through interior mutability (e.g. an `RwLock` the caller
    /// write-locks between rounds — rounds never overlap with `body` code,
    /// so the lock is uncontended by construction).
    ///
    /// The chunk grid depends only on `(len, chunk_size)`, never on the
    /// worker count, and results always splice in chunk order, so per-chunk
    /// float reductions folded in that order stay bitwise identical across
    /// worker counts.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero. A panic inside `f` on a worker
    /// thread is not recovered; callers must pass panic-free jobs.
    pub fn rounds<T, F, B, R>(&self, len: usize, chunk_size: usize, f: F, body: B) -> R
    where
        T: Send,
        F: Fn(usize, std::ops::Range<usize>) -> T + Sync,
        B: FnOnce(&mut dyn FnMut() -> Vec<T>) -> R,
    {
        assert!(chunk_size > 0, "chunk_size must be positive");
        let n_chunks = len.div_ceil(chunk_size);
        let chunk_range = |i: usize| {
            let lo = i * chunk_size;
            lo..(lo + chunk_size).min(len)
        };

        if self.is_sequential() || n_chunks <= 1 || self.spawn_count(n_chunks) == 1 {
            let mut run = || (0..n_chunks).map(|i| f(i, chunk_range(i))).collect();
            return body(&mut run);
        }

        struct Ctl<T> {
            m: Mutex<RoundState<T>>,
            work: Condvar,
            done: Condvar,
        }
        struct RoundState<T> {
            round: u64,
            next_chunk: usize,
            remaining: usize,
            results: Vec<Option<T>>,
            traces: Vec<Option<pka_obs::CapturedTrace>>,
            stop: bool,
        }

        let ctl = Ctl {
            m: Mutex::new(RoundState {
                round: 0,
                next_chunk: usize::MAX,
                remaining: 0,
                results: Vec::new(),
                traces: Vec::new(),
                stop: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        };
        let workers = self.spawn_count(n_chunks);
        let obs = pka_obs::enabled();
        let tracing = obs && pka_obs::global().tracing();
        if obs {
            pka_obs::counter("executor.round_pools").incr();
        }

        let busy: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let out = std::thread::scope(|scope| {
            for w in 0..workers {
                let ctl = &ctl;
                let f = &f;
                let busy = &busy;
                let worker = std::thread::Builder::new().name(format!("pka-w{w}"));
                worker
                    .spawn_scoped(scope, move || {
                        let mut seen = 0u64;
                        // Busy time accumulates locally and flushes once at pool
                        // shutdown, so the per-chunk hot path never touches a
                        // shared atomic.
                        let mut busy_ns = 0u64;
                        loop {
                            let mut st = ctl.m.lock().expect("pool mutex");
                            loop {
                                if st.stop {
                                    if busy_ns > 0 {
                                        pka_obs::stage("executor.worker_busy").record_ns(busy_ns);
                                        pka_obs::stage(pka_obs::intern(&format!(
                                            "executor.worker_busy.w{w}"
                                        )))
                                        .record_ns(busy_ns);
                                    }
                                    if obs {
                                        busy.lock().expect("busy vec").push(busy_ns);
                                    }
                                    return;
                                }
                                if st.round > seen {
                                    seen = st.round;
                                    break;
                                }
                                st = ctl.work.wait(st).expect("pool mutex");
                            }
                            drop(st);
                            loop {
                                let i = {
                                    let mut st = ctl.m.lock().expect("pool mutex");
                                    if st.next_chunk >= n_chunks {
                                        break;
                                    }
                                    let i = st.next_chunk;
                                    st.next_chunk += 1;
                                    i
                                };
                                let (result, trace) = if obs {
                                    let t0 = std::time::Instant::now();
                                    let (r, trace) = if tracing {
                                        let (r, t) =
                                            pka_obs::capture_trace(|| f(i, chunk_range(i)));
                                        (r, Some(t))
                                    } else {
                                        (f(i, chunk_range(i)), None)
                                    };
                                    busy_ns = busy_ns.saturating_add(
                                        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                                    );
                                    (r, trace)
                                } else {
                                    (f(i, chunk_range(i)), None)
                                };
                                let mut st = ctl.m.lock().expect("pool mutex");
                                st.results[i] = Some(result);
                                if let Some(trace) = trace {
                                    st.traces[i] = Some(trace);
                                }
                                st.remaining -= 1;
                                if st.remaining == 0 {
                                    ctl.done.notify_all();
                                }
                            }
                        }
                    })
                    .expect("spawn executor worker");
            }

            let mut run = || {
                if obs {
                    pka_obs::counter("executor.rounds").incr();
                }
                let mut st = ctl.m.lock().expect("pool mutex");
                st.round += 1;
                st.next_chunk = 0;
                st.remaining = n_chunks;
                // The result/trace slots are drained (not dropped) after
                // every round, so from round 2 on these resizes are pure
                // refills of already-allocated buffers — a long-lived pool
                // (a K-Means fit runs one round per Lloyd iteration)
                // allocates its round state exactly once.
                st.results.clear();
                st.results.resize_with(n_chunks, || None);
                st.traces.clear();
                if tracing {
                    st.traces.resize_with(n_chunks, || None);
                }
                ctl.work.notify_all();
                while st.remaining > 0 {
                    st = ctl.done.wait(st).expect("pool mutex");
                }
                let results: Vec<T> = st
                    .results
                    .drain(..)
                    .map(|slot| slot.expect("every chunk yields exactly one result"))
                    .collect();
                let traces: Vec<Option<pka_obs::CapturedTrace>> = st.traces.drain(..).collect();
                drop(st);
                // Flush worker trace output in chunk order, off the pool
                // mutex, before handing results back to `body`.
                for trace in traces.into_iter().flatten() {
                    pka_obs::emit_captured(trace);
                }
                results
            };
            let out = body(&mut run);
            let mut st = ctl.m.lock().expect("pool mutex");
            st.stop = true;
            ctl.work.notify_all();
            drop(st);
            out
        });
        if obs {
            record_busy_spread(&busy.into_inner().expect("busy vec"));
        }
        out
    }

    /// Fallible [`map`](Executor::map): all-`Ok` results in item order, or
    /// the error of the smallest-indexed failing item.
    ///
    /// The sequential path short-circuits at the first error exactly like a
    /// plain `?` loop; the parallel path evaluates every item but selects
    /// the same error a sequential run would have returned, so callers
    /// observe identical `Result` values either way.
    ///
    /// # Errors
    ///
    /// Returns the first (by item index) error produced by `f`.
    pub fn try_map<T, U, E, F>(&self, items: &[T], f: F) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<U, E> + Sync,
    {
        if self.is_sequential() || items.len() <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect::<Result<Vec<U>, E>>();
        }
        let results = self.map(items, |i, t| f(i, t));
        let mut out = Vec::with_capacity(results.len());
        for result in results {
            match result {
                Ok(value) => out.push(value),
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }
}

/// Publish the per-fan-out busy spread: `executor.busy_max_ns` /
/// `executor.busy_min_ns` gauges plus `executor.busy_ratio_pct`
/// (`min * 100 / max`, so 100 means perfectly balanced workers and small
/// values expose chunk imbalance, e.g. in the bounded K-Means assignment
/// step). Last fan-out wins — gauges are instantaneous by design.
fn record_busy_spread(busy: &[u64]) {
    let (Some(&max), Some(&min)) = (busy.iter().max(), busy.iter().min()) else {
        return;
    };
    let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    pka_obs::gauge("executor.busy_max_ns").set(clamp(max));
    pka_obs::gauge("executor.busy_min_ns").set(clamp(min));
    let ratio = if max == 0 {
        100
    } else {
        clamp(min.saturating_mul(100) / max)
    };
    pka_obs::gauge("executor.busy_ratio_pct").set(ratio);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_resolves_to_available_parallelism() {
        let auto = Executor::new(0);
        assert!(auto.workers() >= 1);
        assert_eq!(Executor::new(3).workers(), 3);
        assert!(Executor::sequential().is_sequential());
        assert_eq!(Executor::default(), Executor::sequential());
    }

    #[test]
    fn map_preserves_item_order() {
        let items: Vec<u64> = (0..257).collect();
        for workers in [1, 2, 4, 8] {
            let exec = Executor::new(workers);
            let out = exec.map(&items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let exec = Executor::new(4);
        assert_eq!(exec.map(&[] as &[u64], |_, &x| x), Vec::<u64>::new());
        assert_eq!(exec.map(&[7u64], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn try_map_returns_first_error_by_index() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 4] {
            let exec = Executor::new(workers);
            let result: Result<Vec<u64>, String> = exec.try_map(&items, |_, &x| {
                if x % 30 == 7 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            });
            // Failing indices are 7, 37, 67, 97; a sequential loop stops at 7.
            assert_eq!(result.unwrap_err(), "bad 7");
        }
    }

    #[test]
    fn rounds_matches_a_sequential_chunk_loop_across_workers_and_rounds() {
        let items: Vec<f64> = (0..1003).map(|i| (i as f64) * 1.0000001 + 0.1).collect();
        // Per-round inputs flow through interior mutability, as the
        // contract requires.
        let scale = std::sync::RwLock::new(1.0f64);
        for workers in [1, 2, 3, 8] {
            let exec = Executor::new(workers);
            let per_round: Vec<Vec<f64>> = exec.rounds(
                items.len(),
                64,
                |_, r| {
                    let s = *scale.read().unwrap();
                    items[r].iter().map(|x| x * s).sum::<f64>()
                },
                |run| {
                    (0..4)
                        .map(|round| {
                            *scale.write().unwrap() = 1.0 + round as f64;
                            run()
                        })
                        .collect()
                },
            );
            for (round, chunk_sums) in per_round.iter().enumerate() {
                let s = 1.0 + round as f64;
                let expected: Vec<f64> = (0..items.len())
                    .step_by(64)
                    .map(|lo| {
                        let r = lo..(lo + 64).min(items.len());
                        items[r].iter().map(|x| x * s).sum()
                    })
                    .collect();
                // Bitwise: same chunk grid, same in-chunk fold order.
                assert_eq!(
                    chunk_sums.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "workers={workers} round={round}"
                );
            }
        }
    }

    #[test]
    fn rounds_handles_empty_and_single_chunk() {
        for workers in [1, 4] {
            let exec = Executor::new(workers);
            let empty: Vec<Vec<usize>> = exec.rounds(0, 8, |i, _| i, |run| vec![run(), run()]);
            assert_eq!(empty, vec![Vec::new(), Vec::new()]);
            let single: Vec<usize> = exec.rounds(5, 8, |_, r| r.len(), |run| run());
            assert_eq!(single, vec![5]);
        }
    }

    #[test]
    fn rounds_with_zero_rounds_shuts_down_cleanly() {
        let exec = Executor::new(4);
        let out: u32 = exec.rounds(100, 8, |i, _| i, |_| 7);
        assert_eq!(out, 7);
    }

    #[test]
    fn rounds_reuses_slots_across_many_rounds_with_owned_results() {
        // Heap-owning results stress the drain/refill of the persistent
        // round buffers: every slot must come back exactly once per round,
        // in chunk order, for hundreds of rounds.
        let round_no = std::sync::RwLock::new(0usize);
        for workers in [2, 4] {
            let exec = Executor::new(workers);
            exec.rounds(
                100,
                16,
                |i, r| {
                    let round = *round_no.read().unwrap();
                    vec![format!("r{round}c{i}"), format!("len{}", r.len())]
                },
                |run| {
                    for round in 0..300 {
                        *round_no.write().unwrap() = round;
                        let out: Vec<Vec<String>> = run();
                        assert_eq!(out.len(), 7);
                        for (i, chunk) in out.iter().enumerate() {
                            assert_eq!(chunk[0], format!("r{round}c{i}"));
                        }
                        assert_eq!(out[6][1], "len4", "last chunk covers 96..100");
                    }
                },
            );
        }
    }

    #[test]
    fn traced_map_emits_worker_lines_in_item_order() {
        // Spans/events emitted inside work items must appear in the trace
        // file in item order, not completion order, for every worker count.
        let registry = pka_obs::global();
        let path = std::env::temp_dir().join("pka_stats_test_exec_trace.jsonl");
        let items: Vec<u64> = (0..64).collect();
        let mut per_workers: Vec<Vec<u64>> = Vec::new();
        for workers in [1usize, 4] {
            registry.trace_to(&path).expect("open sink");
            registry.enable();
            let out = Executor::new(workers).map(&items, |i, &x| {
                pka_obs::trace_event("test.exec_item", serde_json::json!({ "item": i }));
                x
            });
            registry.disable();
            registry.close_trace().expect("close sink");
            assert_eq!(out, items);
            let body = std::fs::read_to_string(&path).expect("read trace");
            per_workers.push(
                body.lines()
                    .filter_map(|l| serde_json::from_str::<serde_json::Value>(l).ok())
                    .filter(|v| v["name"].as_str() == Some("test.exec_item"))
                    .map(|v| v["fields"]["item"].as_u64().unwrap())
                    .collect(),
            );
        }
        std::fs::remove_file(&path).ok();
        let expected: Vec<u64> = (0..64).collect();
        assert_eq!(per_workers[0], expected, "sequential order");
        assert_eq!(per_workers[1], expected, "parallel order");
    }

    #[test]
    fn float_reduction_is_bitwise_identical_across_worker_counts() {
        // Awkward magnitudes make float addition order-sensitive; identical
        // bit patterns across worker counts prove results fold in item
        // order, not completion order.
        let items: Vec<f64> = (0..1000)
            .map(|i| ((i * 2654435761u64 % 1000) as f64 - 500.0) * 1e10f64.powi((i % 7) as i32 - 3))
            .collect();
        let sum_with = |workers: usize| -> u64 {
            let exec = Executor::new(workers);
            exec.map(&items, |_, &x| x * 1.000000001 + 0.125)
                .iter()
                .sum::<f64>()
                .to_bits()
        };
        let sequential = sum_with(1);
        for workers in [2, 3, 8] {
            assert_eq!(sum_with(workers), sequential);
        }
    }
}
