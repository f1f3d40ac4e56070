//! E11 regenerator: the `CXL0_AF` asynchronous-flush extension — batching
//! sweep comparing deferred helping (`flit-async`) against synchronous
//! helping (`flit-cxl0`).
//!
//! An operation reads `k` cells whose FliT counters are positive (in-flight
//! writers), then completes. `flit-cxl0` pays one synchronous `RFlush` per
//! helped read; `flit-async` enqueues `k` `AFlush`es and retires them,
//! overlapped, under one `Barrier` in `completeOp`. The crossover shows
//! where asynchronous flushes start paying off.
//!
//! Run: `cargo run -p cxl0-bench --bin async_report --release`

use std::sync::Arc;

use cxl0_bench::bench_cluster;
use cxl0_model::{Loc, MachineId};
use cxl0_runtime::api::PersistMode;
use cxl0_runtime::{Flit, FlitPolicy, Persistence};

const OPS: usize = 2_000;

fn run(k: usize, strategy: Arc<dyn Persistence>, raise: impl Fn(Loc)) -> (f64, f64, f64) {
    // The cluster supplies fabric + heap; the strategies under test are
    // concrete `Flit`s (the counter table is not on the trait).
    let cluster = bench_cluster(1 << 12, PersistMode::None);
    let cells: Vec<Loc> = (0..k)
        .map(|_| cluster.heap().alloc(1).expect("heap fits"))
        .collect();
    for &c in &cells {
        raise(c);
    }
    let session = cluster.session(MachineId(0));
    for _ in 0..OPS {
        for &c in &cells {
            strategy.shared_load(session.node(), c, true).unwrap();
        }
        strategy.complete_op(session.node()).unwrap();
    }
    let s = session.stats_delta();
    (
        s.sim_ns as f64 / OPS as f64,
        s.flushes() as f64 / OPS as f64,
        s.aflushes as f64 / OPS as f64,
    )
}

fn main() {
    println!("CXL0_AF batching sweep: k helped reads per operation, {OPS} ops\n");
    println!(
        "{:>3} {:>16} {:>16} {:>9} {:>10} {:>10}",
        "k", "sync ns/op", "async ns/op", "speedup", "rflush/op", "aflush/op"
    );
    for k in [1usize, 2, 4, 8, 16, 32] {
        let sync = Arc::new(Flit::new(FlitPolicy::CXL0));
        let (sync_ns, sync_flush, _) = run(k, Arc::clone(&sync) as _, |c| sync.table().enter(c));
        let asy = Arc::new(Flit::new(FlitPolicy::ASYNC));
        let (async_ns, _, async_af) = run(k, Arc::clone(&asy) as _, |c| asy.table().enter(c));
        println!(
            "{:>3} {:>16.1} {:>16.1} {:>8.2}x {:>10.2} {:>10.2}",
            k,
            sync_ns,
            async_ns,
            sync_ns / async_ns,
            sync_flush,
            async_af
        );
    }
    println!("\nnotes:");
    println!("  * sync = flit-cxl0 (Alg. 2): each helped read issues a synchronous RFlush.");
    println!("  * async = flit-async (Alg. 1 on CXL0_AF): helped reads enqueue AFlush requests;");
    println!("    completeOp's Barrier retires them with overlapped write-backs.");
    println!("  * speedup grows with k: one full write-back latency is paid per *operation*,");
    println!("    not per helped line.");
}
