//! E12 regenerator: buffered durability (§8) — sync-interval sweep.
//!
//! `BufferedEpoch` amortizes persistence: flagged stores are plain local
//! stores, and one ping-pong snapshot `sync` every `k` operations commits
//! them. The sweep shows the throughput/durability-window tradeoff against
//! the strict baselines (`flit-cxl0`, `naive-mstore`): larger intervals
//! approach the no-durability floor, at the price of up to `k-1` completed
//! operations rolled back by a crash. Strategies are selected with
//! [`PersistMode`] — switching durability is cluster configuration, not a
//! type change.
//!
//! Run: `cargo run -p cxl0-bench --bin buffered_report --release`

use cxl0_bench::{apply_map_op, bench_cluster};
use cxl0_model::MachineId;
use cxl0_runtime::api::PersistMode;
use cxl0_workloads::{KeyDist, OpMix, Workload};

const OPS: usize = 20_000;

struct Row {
    label: String,
    sim_ns_per_op: f64,
    flushes_per_op: f64,
    mstores_per_op: f64,
    at_risk: String,
}

fn run(label: &str, mode: PersistMode, at_risk: &str) -> Row {
    let cluster = bench_cluster(1 << 18, mode);
    let map = cluster
        .session(MachineId(0))
        .create_map::<u64, u64>("bench/map", 1024)
        .expect("heap fits the map");
    let session = cluster.session(MachineId(0)); // measurement window
    let mut w = Workload::new(KeyDist::zipfian(512, 0.99), OpMix::update_heavy(), 42);
    for op in w.take_ops(OPS) {
        apply_map_op(&map, &session, op);
    }
    let s = session.stats_delta();
    Row {
        label: label.to_string(),
        sim_ns_per_op: s.sim_ns as f64 / OPS as f64,
        flushes_per_op: s.flushes() as f64 / OPS as f64,
        mstores_per_op: s.mstores as f64 / OPS as f64,
        at_risk: at_risk.to_string(),
    }
}

fn main() {
    println!("buffered durability sweep: {OPS} map ops, zipfian(512, 0.99), 50/50 read/insert\n");
    println!(
        "{:<22} {:>12} {:>10} {:>11} {:>16}",
        "strategy", "sim ns/op", "flush/op", "mstore/op", "ops at risk"
    );

    let mut rows = Vec::new();
    rows.push(run("none (not durable)", PersistMode::None, "all"));
    for interval in [1usize, 4, 16, 64, 256] {
        rows.push(run(
            &format!("buffered (sync={interval})"),
            PersistMode::Buffered {
                capacity: 8192,
                sync_interval: interval,
            },
            &format!("≤ {}", interval.saturating_sub(1)),
        ));
    }
    rows.push(run("flit-cxl0", PersistMode::FlitCxl0, "0"));
    rows.push(run("naive-mstore", PersistMode::NaiveMStore, "0"));

    for r in &rows {
        println!(
            "{:<22} {:>12.1} {:>10.2} {:>11.2} {:>16}",
            r.label, r.sim_ns_per_op, r.flushes_per_op, r.mstores_per_op, r.at_risk
        );
    }

    println!("\nnotes:");
    println!("  * 'ops at risk' = completed operations a crash may roll back (buffered durable");
    println!("    linearizability; the recovery state is always a consistent cut — see");
    println!("    tests/buffered_durability.rs for the checker evidence).");
    println!("  * sync=1 persists every op like FliT but pays log-entry + barrier + commit per");
    println!("    op: strictness without FliT's per-location precision costs ~2x.");
    println!("  * the crossover vs flit-cxl0 sits around sync=16 in this cost model: the redo");
    println!("    log dedups hot cells (zipfian absorption) and its write-backs overlap under");
    println!("    one CXL0_AF barrier instead of paying a full RFlush round trip each.");
    println!("  * large intervals converge toward the 'none' floor: durability amortized to ~0.");
}
