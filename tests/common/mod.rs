//! Helpers shared by the integration suites that crash a running
//! workload.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Barrier, Mutex};

use cxl0::dlcheck::{Event, History};
use cxl0::model::MachineId;
use cxl0::runtime::{NodeHandle, SimFabric};

/// Drives `threads` workers over fresh state from `build` — the fabric
/// and whatever the workers share: worker `t` runs
/// `work(t, &shared, &node, steps)` on compute machine `t % 2`, one
/// operation per step it takes from `steps`. A dry run counts the
/// primitives the workers issue; the next run crashes the memory node
/// `mem` right before half that many, through the fabric's crash point.
/// The worker that issues that primitive dies mid-operation, `steps`
/// ends for the others, and `mem` is recovered once every worker has
/// returned. Returns the crashed run's shared state. Workers wait on
/// one start barrier before their first operation, and none takes its
/// second step before every worker has finished its first operation (or
/// stopped, or the memory node has crashed), so their traffic overlaps
/// instead of running one thread after another.
///
/// Concurrent traffic varies from run to run (batching, elimination,
/// retries): a run that ends before the crash point fires is repeated
/// over fresh state, the point armed at no more than half the last run's
/// traffic. So is a crashed run whose workers did not overlap: each
/// worker notes the fabric's `total_ops` at its first and last step, and
/// at least two of these spans must intersect. The second-step wait makes
/// every two workers that take a second step intersect, so a run is
/// repeated only when the crash comes before that. Each such repeat is
/// one of at most 100 attempts. A run that issued no primitive at all (a
/// combining front whose operations all eliminated one another, which
/// CPU contention makes common) has nothing a crash point could kill: it
/// is repeated too, but counts as no attempt, up to 1 000 such runs.
pub fn crash_workload<T, W>(
    threads: usize,
    mem: MachineId,
    build: impl Fn() -> (Arc<SimFabric>, T),
    work: W,
) -> T
where
    T: Clone + Send + 'static,
    W: Fn(usize, &T, &NodeHandle, Steps) + Send + Sync + 'static,
{
    let work = Arc::new(work);
    // Returns the run's traffic and whether two workers overlapped.
    let run = |fabric: &Arc<SimFabric>, shared: &T| {
        let before = fabric.stats().total_ops();
        let start = Arc::new(Barrier::new(threads));
        let spans: Vec<_> = (0..threads).map(|_| Arc::new(Mutex::new(None))).collect();
        let past_first = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (work, shared) = (Arc::clone(&work), shared.clone());
                let start = Arc::clone(&start);
                let node = fabric.node(MachineId(t % 2));
                let steps = Steps {
                    fabric: Arc::clone(fabric),
                    mem,
                    next: 0,
                    span: Arc::clone(&spans[t]),
                    past_first: Arc::clone(&past_first),
                    threads,
                };
                std::thread::spawn(move || {
                    start.wait();
                    work(t, &shared, &node, steps)
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let spans: Vec<(u64, u64)> = spans.iter().filter_map(|s| *s.lock().unwrap()).collect();
        let overlapped = spans
            .iter()
            .enumerate()
            .any(|(i, &(a1, b1))| (spans[i + 1..].iter()).any(|&(a2, b2)| a1 <= b2 && a2 <= b1));
        (fabric.stats().total_ops() - before, overlapped)
    };
    // The first run with traffic is the dry run.
    let (mut k, mut attempts, mut idle) = (None, 0, 0);
    while attempts < 100 && idle < 1_000 {
        let (fabric, shared) = build();
        if let Some(k) = k {
            fabric.arm_crash(k, &[mem]);
        }
        let (traffic, overlapped) = run(&fabric, &shared);
        if k.is_some() && fabric.disarm_crash() {
            if overlapped {
                fabric.recover(mem);
                return shared;
            }
            // The workers ran one after another: run it again.
        } else if traffic > 0 {
            k = Some(traffic.div_ceil(2).min(k.unwrap_or(u64::MAX)));
        } else {
            idle += 1;
            continue;
        }
        attempts += 1;
    }
    panic!(
        "no run with overlapping workers reached the crash point \
         ({attempts} attempts, {idle} runs that issued no primitive)"
    );
}

/// A worker's operation indices, `0, 1, 2, …` until the memory node
/// crashes: the crash ends the workload, so the checked history stays
/// the size the dry run had.
pub struct Steps {
    fabric: Arc<SimFabric>,
    mem: MachineId,
    next: u64,
    /// The fabric's `total_ops` at this worker's first and last step.
    span: Arc<Mutex<Option<(u64, u64)>>>,
    /// The run's workers that have finished their first operation or
    /// stopped, out of `threads`.
    past_first: Arc<AtomicUsize>,
    threads: usize,
}

impl Iterator for Steps {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.next == 1 {
            self.past_first.fetch_add(1, SeqCst);
            while self.past_first.load(SeqCst) < self.threads && !self.fabric.is_crashed(self.mem) {
                std::thread::yield_now();
            }
        }
        (!self.fabric.is_crashed(self.mem)).then(|| {
            let at = self.fabric.stats().total_ops();
            let mut span = self.span.lock().unwrap();
            *span = Some((span.map_or(at, |(first, _)| first), at));
            self.next += 1;
            self.next - 1
        })
    }
}

impl Drop for Steps {
    /// A worker that stops before its second step (it died in the crash,
    /// or panicked) must not hold the others at theirs.
    fn drop(&mut self) {
        if self.next < 2 {
            self.past_first.fetch_add(1, SeqCst);
        }
    }
}

/// The operations of `history` invoked without a response.
pub fn pending<Op, Ret>(history: &History<Op, Ret>) -> usize
where
    Op: Clone + fmt::Debug,
    Ret: Clone + fmt::Debug,
{
    let events = history.events();
    let invoked = events
        .iter()
        .filter(|e| matches!(e, Event::Invoke { .. }))
        .count();
    let responded = events
        .iter()
        .filter(|e| matches!(e, Event::Respond { .. }))
        .count();
    invoked - responded
}
