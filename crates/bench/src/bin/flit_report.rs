//! E8 regenerator: the §6.1 performance discussion as a table — the cost
//! of each durability transformation on map and queue workloads, in
//! backend-primitive counts and simulated nanoseconds per operation.
//!
//! Strategies: no durability (baseline), unadapted x86 FliT (unsound!),
//! FliT-CXL0 (Alg. 2), FliT with the owner-LFlush optimisation, and the
//! naive all-MStore transform.
//!
//! A third table is the FliT counter-striping ablation: the same map
//! workload under `FlitPolicy::CXL0` with the counter table shrunk from
//! per-cell (4096 stripes) to a single shared counter, while one stalled
//! writer keeps the counter of an unrelated cell raised — every reader
//! whose cell aliases that stripe pays a spurious helping flush.
//!
//! Run: `cargo run -p cxl0-bench --bin flit_report --release`

use std::sync::Arc;

use cxl0_bench::{
    apply_map_op, bench_smr, run_map_workload, run_queue_workload, standard_map_workload, RunReport,
};
use cxl0_model::{Loc, MachineId};
use cxl0_runtime::api::PersistMode;
use cxl0_runtime::{DurableMap, Flit, FlitPolicy};
use cxl0_workloads::{KeyDist, OpMix, Workload};

/// `n` uniform update-heavy map ops under `FlitPolicy::CXL0` with a
/// `stripes`-counter table and one unrelated counter held raised;
/// returns (flushes/op, sim ns/op).
fn striping_row(stripes: usize, n: usize) -> (f64, f64) {
    let flit = Arc::new(Flit::with_stripes(FlitPolicy::CXL0, stripes));
    let (fabric, smr) = bench_smr(1 << 20, Arc::clone(&flit) as _);
    let node = fabric.node(MachineId(0));
    let map = DurableMap::create(&smr, &node, 4096)
        .expect("a fresh machine cannot be crashed")
        .expect("heap fits the map");
    // The stalled writer: a cell of a compute node, never touched by
    // the map, whose store "never completes".
    flit.table().enter(Loc::new(MachineId(1), 0));
    let mut w = Workload::new(KeyDist::uniform(1024), OpMix::update_heavy(), 13);
    let before = fabric.stats().snapshot();
    for op in w.take_ops(n) {
        apply_map_op(&map, &node, op);
    }
    let d = fabric.stats().snapshot().since(&before);
    (d.flushes() as f64 / n as f64, d.sim_ns as f64 / n as f64)
}

/// One row per mode of the comparison set: primitive counts, simulated
/// and wall nanoseconds per operation.
fn strategy_table(mut run: impl FnMut(PersistMode) -> RunReport) {
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12} {:>12}",
        "strategy",
        "loads/op",
        "stores/op",
        "rmws/op",
        "flush/op",
        "async/op",
        "sim ns/op",
        "wall ns/op"
    );
    for mode in PersistMode::comparison_set() {
        let r = run(mode);
        let per = |x: u64| x as f64 / r.ops as f64;
        println!(
            "{:<16} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>12.1} {:>12.1}",
            r.strategy,
            per(r.stats.loads),
            per(r.stats.lstores + r.stats.rstores + r.stats.mstores),
            per(r.stats.rmws),
            r.flushes_per_op(),
            per(r.stats.aflushes),
            r.sim_ns_per_op,
            r.wall_ns_per_op
        );
    }
}

fn main() {
    const N: usize = 20_000;

    println!(
        "map workload: {} ops, zipfian(1024, 0.99), 50/50 read/insert\n",
        N
    );
    strategy_table(|mode| run_map_workload(mode, &mut standard_map_workload(42), N));

    println!("\nqueue workload: {} enqueue/dequeue pairs\n", N);
    strategy_table(|mode| run_queue_workload(mode, N));

    println!(
        "\nFliT counter striping (flit-cxl0, map, uniform(1024), one stalled writer elsewhere)\n"
    );
    println!("{:>8} {:>10} {:>12}", "stripes", "flush/op", "sim ns/op");
    for stripes in [1usize, 16, 256, 4096] {
        let (flushes, sim_ns) = striping_row(stripes, N);
        println!("{stripes:>8} {flushes:>10.2} {sim_ns:>12.1}");
    }

    println!("\nnotes:");
    println!(
        "  * 'none' is linearizable but NOT durable; 'flit-x86' is UNSOUND under partial crashes"
    );
    println!("    (its LFlush only reaches the owner's cache) — both are lower bounds, not alternatives.");
    println!(
        "  * flit-owner-opt replaces RFlush with LFlush when the writer owns the line (§6.1)."
    );
    println!(
        "  * naive-mstore persists by construction but pays the memory round trip on every store"
    );
    println!("    and loses all cache locality (§6.1: 'expected to yield inferior performance').");
    println!("  * flit-async runs on the CXL0_AF extension (AFlush + Barrier): stores persist");
    println!("    synchronously, helping flushes defer to one overlapped barrier per operation");
    println!("    (see the async_report bin for the batching sweep).");
}
