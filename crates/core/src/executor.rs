//! Work-stealing job executor for sweep matrices.
//!
//! [`execute`] runs the deduplicated job graph of
//! [`crate::sweep::run_many_resilient`]. Sweep cells vary more than 2×
//! in cost (see `BENCH_simwall.json`), so a static split would leave
//! workers idle behind one unlucky chunk; stealing lets an idle worker
//! take over the tail of a loaded one.
//!
//! * **Round-robin dispatch.** Items are dealt round-robin across the
//!   workers' deques in submission order. A sweep serves cached cells
//!   without executing them, so the items that cost anything have no
//!   cached wall time to order them by.
//! * **Per-worker deques, owner at the back, thieves at the front.**
//!   Each deque holds its earliest item at the back. The owner pops its
//!   items from the back, in submission order; a thief takes the
//!   victim's latest from the front, nibbling tail work without
//!   disturbing the owner's order.
//! * **Requeue onto the own deque.** A callback returning
//!   [`Verdict::Requeue`] puts its item at the front (the thieves' end)
//!   of the dispatching worker's deque: an idle worker steals the retry
//!   at once, otherwise the owner reaches it after its other items.
//!   Items only ever enter the deque of a running worker, so once every
//!   deque is empty no item can appear again, and a worker that finds
//!   nothing to claim exits. Nothing parks or waits.
//! * **Panics propagate.** A panic escaping the callback ends its worker;
//!   the others drain the remaining items and exit, and [`execute`]
//!   re-raises the first panic payload. Sweep callbacks catch their own
//!   panics (a panicking cell becomes a typed
//!   [`crate::error::RefsimError::Panicked`] result), so only a harness
//!   bug reaches this path.
//!
//! **Determinism argument.** The executor decides only *where and when*
//! an item runs, never *what it computes*: each item's result lands in
//! its own pre-assigned output slot, and the simulator is deterministic
//! per attempt (a retried attempt re-runs from scratch). So results
//! are bit-identical across any thread count — pinned by the
//! thread-matrix proptests in `crates/core/tests/executor.rs`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable overriding [`default_threads`].
pub const THREADS_ENV: &str = "REFSIM_THREADS";

/// The default worker-thread count every sweep surface shares: the
/// `REFSIM_THREADS` environment variable when set to a positive
/// integer, else the host's available parallelism, else 4.
pub fn default_threads() -> usize {
    threads_from(std::env::var(THREADS_ENV).ok().as_deref())
}

/// [`default_threads`] given the value of `REFSIM_THREADS` (`None` when
/// unset).
fn threads_from(var: Option<&str>) -> usize {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        })
}

/// What one dispatch of the callback decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The item is finished (result or terminal error already recorded
    /// by the callback).
    Done,
    /// Run the item again, after the dispatching worker's other items
    /// unless a thief takes it first.
    Requeue,
}

/// Scheduling telemetry for one [`execute`] run (or, merged, for every
/// sweep a figure pipeline drove). Diagnostic only — excluded from
/// results and replay hashes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Worker threads spawned (the widest sweep, once merged).
    pub workers: u64,
    /// Items submitted.
    pub items: u64,
    /// Dispatches served from the worker's own deque.
    pub local_pops: u64,
    /// Dispatches stolen from another worker's deque.
    pub steals: u64,
    /// Items requeued by callback verdict (the sweep's retries).
    pub requeues: u64,
    /// Completed-dispatch wall-time histogram; bucket upper bounds are
    /// 1, 4, 16, 64, 256, 1024, 4096, 16384 ms, then open-ended.
    pub tail_ms: [u64; 9],
}

impl ExecutorStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &ExecutorStats) {
        // Counters sum across sweeps; `workers` is a width, not a count,
        // so the merged value is the widest sweep seen.
        self.workers = self.workers.max(other.workers);
        self.items += other.items;
        self.local_pops += other.local_pops;
        self.steals += other.steals;
        self.requeues += other.requeues;
        for (a, b) in self.tail_ms.iter_mut().zip(&other.tail_ms) {
            *a += b;
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "workers {} | items {} | {} local / {} stolen | requeues {}",
            self.workers, self.items, self.local_pops, self.steals, self.requeues,
        )
    }

    /// Hand-formatted JSON object (the workspace deliberately has no
    /// JSON dependency); `indent` prefixes every inner line so callers
    /// can splice it into a larger document.
    pub fn to_json(&self, indent: &str) -> String {
        let tail = self
            .tail_ms
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n{i}  \"workers\": {},\n{i}  \"items\": {},\n{i}  \"local_pops\": {},\n\
             {i}  \"steals\": {},\n{i}  \"requeues\": {},\n{i}  \"tail_ms\": [{tail}]\n{i}}}",
            self.workers,
            self.items,
            self.local_pops,
            self.steals,
            self.requeues,
            i = indent,
        )
    }
}

/// Deques and counters the workers share.
struct Shared {
    /// Item ids per worker, latest at the front.
    deques: Vec<Mutex<VecDeque<usize>>>,
    local_pops: AtomicU64,
    steals: AtomicU64,
    requeues: AtomicU64,
    tail_ms: [AtomicU64; 9],
}

/// Runs items `0..items` to completion across `threads` work-stealing
/// workers. `run` is invoked once per dispatch with the item's id — the
/// determinism anchor: results keyed by id are independent of
/// scheduling. `run` owns result recording and returns a [`Verdict`].
/// Returns when every item has reported [`Verdict::Done`].
///
/// # Panics
///
/// Re-raises, with its original payload, the first panic that escaped
/// `run`, after every worker has exited.
pub fn execute<F>(items: usize, threads: usize, run: F) -> ExecutorStats
where
    F: Fn(usize) -> Verdict + Sync,
{
    let mut stats = ExecutorStats {
        items: items as u64,
        ..ExecutorStats::default()
    };
    if items == 0 {
        return stats;
    }
    let workers = threads.clamp(1, items);
    stats.workers = workers as u64;

    // Deal the items round-robin, pushing each onto the front of its
    // deque so the owner, popping from the back, runs them in order.
    let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
    for id in 0..items {
        deques[id % workers].push_front(id);
    }
    let shared = Shared {
        deques: deques.into_iter().map(Mutex::new).collect(),
        local_pops: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        requeues: AtomicU64::new(0),
        tail_ms: Default::default(),
    };

    let panic = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (shared, run) = (&shared, &run);
                s.spawn(move || worker_loop(w, shared, run))
            })
            .collect();
        // Join every handle here: a worker the scope joins itself would
        // have its panic replaced by the scope's own generic one.
        handles
            .into_iter()
            .filter_map(|h| h.join().err())
            .reduce(|first, _| first)
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }

    stats.local_pops = shared.local_pops.into_inner();
    stats.steals = shared.steals.into_inner();
    stats.requeues = shared.requeues.into_inner();
    stats.tail_ms = shared.tail_ms.map(AtomicU64::into_inner);
    stats
}

fn worker_loop<F>(w: usize, shared: &Shared, run: &F)
where
    F: Fn(usize) -> Verdict + Sync,
{
    while let Some(id) = next_item(w, shared) {
        let t0 = Instant::now();
        match run(id) {
            Verdict::Done => {
                let ms = t0.elapsed().as_millis() as u64;
                let bucket = [1u64, 4, 16, 64, 256, 1024, 4096, 16384]
                    .iter()
                    .position(|&ub| ms <= ub)
                    .unwrap_or(8);
                shared.tail_ms[bucket].fetch_add(1, Ordering::Relaxed);
            }
            Verdict::Requeue => {
                shared.requeues.fetch_add(1, Ordering::Relaxed);
                shared.deques[w].lock().expect("poisoned").push_front(id);
            }
        }
    }
}

/// Claim priority: own deque (from the back — the earliest remaining),
/// then a steal sweep over the other workers (from the front — the
/// victim's latest).
fn next_item(w: usize, shared: &Shared) -> Option<usize> {
    if let Some(id) = shared.deques[w].lock().expect("poisoned").pop_back() {
        shared.local_pops.fetch_add(1, Ordering::Relaxed);
        return Some(id);
    }
    let n = shared.deques.len();
    for off in 1..n {
        let v = (w + off) % n;
        if let Some(id) = shared.deques[v].lock().expect("poisoned").pop_front() {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            return Some(id);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn threads_env_overrides_detection() {
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 5\n")), 5);
        let detected = threads_from(None);
        assert!(detected >= 1);
        assert_eq!(threads_from(Some("not a number")), detected);
        assert_eq!(threads_from(Some("0")), detected);
    }

    #[test]
    fn idle_workers_steal_from_the_loaded_deque() {
        // Worker 0 runs the one big item first (plus half the small
        // ones); worker 1 drains its own small items and then must steal.
        let stats = execute(10, 2, |id| {
            std::thread::sleep(Duration::from_millis(if id == 0 { 60 } else { 1 }));
            Verdict::Done
        });
        assert_eq!(stats.tail_ms.iter().sum::<u64>(), 10, "all items complete");
        assert!(stats.steals >= 1, "expected steals, got {stats:?}");
    }

    #[test]
    fn requeued_item_is_dispatched_exactly_once_more() {
        let claims = Mutex::new(Vec::new());
        let stats = execute(5, 1, |id| {
            let mut claims = claims.lock().expect("poisoned");
            let first = !claims.contains(&id);
            claims.push(id);
            if id == 0 && first {
                Verdict::Requeue
            } else {
                Verdict::Done
            }
        });
        // Item 0 runs exactly once more, behind the worker's other items.
        assert_eq!(
            claims.into_inner().expect("poisoned"),
            vec![0, 1, 2, 3, 4, 0]
        );
        assert_eq!(stats.requeues, 1);
        assert_eq!(stats.tail_ms.iter().sum::<u64>(), 5, "every item completes");
    }

    #[test]
    fn callback_panic_propagates_with_its_payload() {
        for threads in [1, 2] {
            // On a worker thread, so a hang fails the test instead of
            // stalling the suite.
            let (tx, rx) = mpsc::channel();
            let handle = std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| {
                    execute(8, threads, |id| {
                        if id == 3 {
                            panic!("boom on item 3");
                        }
                        Verdict::Done
                    })
                });
                let _ = tx.send(outcome.map_err(|p| p.downcast_ref::<&str>().copied()));
            });
            let outcome = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("execute must not hang after a callback panic");
            handle.join().expect("the probe thread catches the panic");
            assert_eq!(
                outcome.err(),
                Some(Some("boom on item 3")),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn stats_merge_and_render() {
        let mut a = ExecutorStats {
            workers: 2,
            items: 10,
            steals: 3,
            requeues: 1,
            ..ExecutorStats::default()
        };
        let b = ExecutorStats {
            workers: 4,
            items: 6,
            requeues: 2,
            tail_ms: [1, 0, 0, 0, 0, 0, 0, 0, 1],
            ..ExecutorStats::default()
        };
        a.merge(&b);
        assert_eq!(a.workers, 4, "workers merge as max, not sum");
        assert_eq!(a.items, 16);
        assert_eq!(a.requeues, 3);
        assert_eq!(a.tail_ms[0], 1);
        let json = a.to_json("  ");
        assert!(json.contains("\"steals\": 3"), "{json}");
        assert!(json.contains("\"requeues\": 3"), "{json}");
        assert!(a.summary().contains("requeues 3"), "{}", a.summary());
    }
}
