//! Plain vs flat-combined durable queue, head to head — the §5 story
//! that batched persistence turns N per-op persist barriers into one
//! barrier per combined batch.
//!
//! Both fronts run the identical staggered pair workload (odd threads
//! lead with the dequeue so inserts and removes actually overlap) over
//! the same FliT-CXL0 durability strategy. For each front the example
//! prints wall-clock Mops/s, simulated fabric ns/op (the simulator's
//! primary metric), and persist barriers per operation; the combined
//! front additionally reports its batch/elimination/spare-node
//! counters from [`Session::stats_delta`].
//!
//! Run with: `cargo run --release --example combined_throughput`

use std::time::Instant;

use cxl0::api::{Cluster, PersistMode};
use cxl0::model::{MachineId, SystemConfig};
use cxl0::runtime::backend::StatsSnapshot;

const THREADS: usize = 8;
const PAIRS: u64 = 5_000;
// Keep the queue non-empty throughout: queue elimination only pairs
// opposite ops at observed-empty points, so a prefilled queue makes
// the rows measure *batched persistence* (real applied batches, one
// flush cascade + barrier per batch) rather than pure annihilation.
const PREFILL: u64 = 1_024;

/// One measured row: the staggered pair workload over a plain or
/// combined queue front on a fresh cluster. Returns the stats delta
/// for the timed window plus the wall-clock seconds it took.
fn run_front(combined: bool) -> (StatsSnapshot, f64) {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 18))
        .memory_node(MachineId(2))
        .persist(PersistMode::FlitCxl0)
        .build()
        .expect("example cluster configuration is valid");
    let setup = cluster.session(MachineId(0));

    // Session creation, root registration and handle cloning all stay
    // outside the timed region — the row measures queue operations.
    let mut workers: Vec<Box<dyn FnMut() + Send>> = Vec::new();
    if combined {
        let q = cluster.combined(setup.create_queue::<u64>("demo/q").expect("heap fits"));
        for v in 0..PREFILL {
            q.enqueue(&setup, v + 1).unwrap();
        }
        for t in 0..THREADS {
            let session = cluster.session(MachineId(t % 2));
            let q = q.clone();
            workers.push(Box::new(move || {
                for i in 0..PAIRS {
                    if t % 2 == 0 {
                        q.enqueue(&session, i + 1).unwrap();
                        q.dequeue(&session).unwrap();
                    } else {
                        q.dequeue(&session).unwrap();
                        q.enqueue(&session, i + 1).unwrap();
                    }
                }
            }));
        }
    } else {
        let q = setup.create_queue::<u64>("demo/q").expect("heap fits");
        for v in 0..PREFILL {
            q.enqueue(&setup, v + 1).unwrap();
        }
        for t in 0..THREADS {
            let session = cluster.session(MachineId(t % 2));
            let q = q.clone();
            workers.push(Box::new(move || {
                for i in 0..PAIRS {
                    if t % 2 == 0 {
                        q.enqueue(&session, i + 1).unwrap();
                        q.dequeue(&session).unwrap();
                    } else {
                        q.dequeue(&session).unwrap();
                        q.enqueue(&session, i + 1).unwrap();
                    }
                }
            }));
        }
    }

    // A fresh session's delta covers exactly the timed window.
    let meter = cluster.session(MachineId(0));
    let start = Instant::now();
    let handles: Vec<_> = workers.into_iter().map(std::thread::spawn).collect();
    for h in handles {
        h.join().unwrap();
    }
    let secs = start.elapsed().as_secs_f64();
    (meter.stats_delta(), secs)
}

fn main() {
    let ops = 2 * PAIRS * THREADS as u64;
    println!("staggered pair workload: {THREADS} threads x {PAIRS} enq/deq pairs = {ops} ops\n");

    let (plain, plain_secs) = run_front(false);
    let (comb, comb_secs) = run_front(true);

    // "Persist syncs" covers every primitive a strategy may persist
    // with: FliT-CXL0 flushes per store, the batched front flushes per
    // batch and fences once with a barrier.
    let syncs = |d: &StatsSnapshot| d.lflushes + d.rflushes + d.aflushes + d.barriers;
    let row = |name: &str, d: &StatsSnapshot, secs: f64| {
        println!(
            "{name:>8}: {:>6.3} Mops/s wall | {:>6} sim ns/op | {:.3} persist syncs/op",
            ops as f64 / secs / 1e6,
            d.sim_ns / ops,
            syncs(d) as f64 / ops as f64,
        );
    };
    row("plain", &plain, plain_secs);
    row("combined", &comb, comb_secs);

    println!(
        "\ncombined front: {} batches ({:.2} ops/batch), {} eliminated, \
         {} barriers saved, {} spare-node reuses",
        comb.combine_batches,
        comb.combine_ops as f64 / comb.combine_batches.max(1) as f64,
        comb.combine_eliminations,
        comb.combine_barriers_saved,
        comb.combine_spare_reuses,
    );
    println!(
        "persist syncs: {} -> {} ({:.1}x fewer)",
        syncs(&plain),
        syncs(&comb),
        syncs(&plain) as f64 / syncs(&comb).max(1) as f64,
    );

    // Every operation must have gone through the combining front, and
    // batched persistence must never cost syncs relative to plain.
    assert_eq!(comb.combine_ops, ops, "all ops route through the front");
    assert!(
        syncs(&comb) <= syncs(&plain),
        "batched persistence must not add persist syncs ({} > {})",
        syncs(&comb),
        syncs(&plain)
    );
}
