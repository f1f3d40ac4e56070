//! # `cxl0-bench` — experiment harnesses
//!
//! Shared plumbing for the per-table/per-figure regenerator binaries
//! (`src/bin/*`):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig3_litmus` | Figure 3 + test 13 verdict table |
//! | `variants` | §3.5 tests 10–12 verdict triples |
//! | `prop1` | Proposition 1 check report |
//! | `table1` | Table 1 |
//! | `fig5` | Figure 5 |
//! | `refine` | §3.5 refinement claims + witnesses |
//! | `topologies` | §4 capability matrix |
//! | `flit_report` | §6.1 transformation-overhead comparison + FliT counter-striping ablation |
//! | `contention` | link-contention extension sweep |
//! | `explore_perf` | explorer wall-clock medians (litmus suite, state space, Proposition 1) |
//! | `perf_baseline` | the recorded multi-threaded backend baseline (`BENCH_fabric.json`) |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use cxl0_model::{MachineId, SystemConfig};
use cxl0_runtime::alloc::Allocator;
use cxl0_runtime::api::{Cluster, PersistMode};
use cxl0_runtime::{
    AsNode, DurableMap, Persistence, SimFabric, SmrDomain, StatsSnapshot, TraceConfig,
};
use cxl0_workloads::{KeyDist, OpMix, Workload, WorkloadOp};

/// The machine hosting benchmark data structures.
pub const MEM_NODE: MachineId = MachineId(2);

/// Result of one workload run under one strategy.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The strategy name.
    pub strategy: &'static str,
    /// Operations performed.
    pub ops: usize,
    /// Backend primitive counts for the run.
    pub stats: StatsSnapshot,
    /// Simulated nanoseconds per operation.
    pub sim_ns_per_op: f64,
    /// Wall-clock nanoseconds per operation.
    pub wall_ns_per_op: f64,
}

impl RunReport {
    /// Flushes issued per operation.
    pub fn flushes_per_op(&self) -> f64 {
        self.stats.flushes() as f64 / self.ops as f64
    }
}

/// A fresh 2-compute + 1-memory fabric with a crash-consistent
/// [`Allocator`] over the memory node wrapped in an [`SmrDomain`] — the
/// low-level layer, for reports that drive the traversal structures
/// (map, list) under a hand-built [`Persistence`] strategy.
pub fn bench_smr(cells: u32, persist: Arc<dyn Persistence>) -> (Arc<SimFabric>, Arc<SmrDomain>) {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, cells));
    let alloc = Arc::new(Allocator::over_region(fabric.config(), MEM_NODE, persist));
    (fabric, Arc::new(SmrDomain::new(alloc)))
}

/// A fresh 2-compute + 1-memory [`Cluster`] with `cells` shared cells
/// under `mode`. The memory node is [`MEM_NODE`].
pub fn bench_cluster(cells: u32, mode: PersistMode) -> Arc<Cluster> {
    Cluster::builder(SystemConfig::symmetric_nvm(3, cells))
        .memory_node(MEM_NODE)
        .persist(mode)
        .build()
        .expect("benchmark cluster configuration is valid")
}

/// As [`bench_cluster`], but with the runtime tracer armed (no export
/// path) — for the `--latency` sweep, which reads op percentiles and
/// the recovery breakdown straight off the tracer.
pub fn bench_cluster_traced(cells: u32, mode: PersistMode) -> Arc<Cluster> {
    Cluster::builder(SystemConfig::symmetric_nvm(3, cells))
        .memory_node(MEM_NODE)
        .persist(mode)
        .with_tracing(TraceConfig::default())
        .build()
        .expect("benchmark cluster configuration is valid")
}

/// Issues one workload op against `map` (results discarded; a crashed
/// machine is a harness bug and panics).
pub fn apply_map_op(map: &DurableMap<u64, u64>, at: &impl AsNode, op: WorkloadOp) {
    match op {
        WorkloadOp::Read(k) => {
            map.get(at, k).unwrap();
        }
        WorkloadOp::Insert(k, v) => {
            map.insert(at, k, v).unwrap();
        }
        WorkloadOp::Remove(k) => {
            map.remove(at, k).unwrap();
        }
    }
}

/// Runs `n` map operations from `workload` under `mode`, returning a
/// report of primitive counts and per-op costs.
pub fn run_map_workload(mode: PersistMode, workload: &mut Workload, n: usize) -> RunReport {
    let cluster = bench_cluster(1 << 18, mode);
    let setup = cluster.session(MachineId(0));
    let map = setup
        .create_map::<u64, u64>("bench/map", 4096)
        .expect("heap fits the map");
    // A fresh session's entry snapshot starts the measurement window
    // after setup; `stats_delta` at the end is the whole diff dance.
    let session = cluster.session(MachineId(0));
    let start = std::time::Instant::now();
    for op in workload.take_ops(n) {
        apply_map_op(&map, &session, op);
    }
    let wall = start.elapsed().as_nanos() as f64;
    let stats = session.stats_delta();
    RunReport {
        strategy: mode.name(),
        ops: n,
        sim_ns_per_op: stats.sim_ns as f64 / n as f64,
        wall_ns_per_op: wall / n as f64,
        stats,
    }
}

/// Runs `n` enqueue/dequeue pairs under `mode`.
pub fn run_queue_workload(mode: PersistMode, n: usize) -> RunReport {
    let cluster = bench_cluster(1 << 18, mode);
    let setup = cluster.session(MachineId(0));
    let queue = setup
        .create_queue::<u64>("bench/queue")
        .expect("heap fits the queue");
    let session = cluster.session(MachineId(0));
    let start = std::time::Instant::now();
    for i in 0..n as u64 {
        queue.enqueue(&session, i + 1).unwrap();
        queue.dequeue(&session).unwrap();
    }
    let wall = start.elapsed().as_nanos() as f64;
    let stats = session.stats_delta();
    RunReport {
        strategy: mode.name(),
        ops: 2 * n,
        sim_ns_per_op: stats.sim_ns as f64 / (2 * n) as f64,
        wall_ns_per_op: wall / (2 * n) as f64,
        stats,
    }
}

/// A standard YCSB-B-like map workload.
pub fn standard_map_workload(seed: u64) -> Workload {
    Workload::new(KeyDist::zipfian(1024, 0.99), OpMix::update_heavy(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_workload_reports_counts() {
        let mut w = standard_map_workload(7);
        let r = run_map_workload(PersistMode::FlitCxl0, &mut w, 500);
        assert_eq!(r.strategy, "flit-cxl0");
        assert_eq!(r.ops, 500);
        assert!(r.stats.total_ops() > 500);
        assert!(r.sim_ns_per_op > 0.0);
        assert!(r.flushes_per_op() > 0.0);
    }

    #[test]
    fn naive_beats_flit_on_flush_count_but_not_sim_time() {
        let mut w1 = standard_map_workload(9);
        let mut w2 = standard_map_workload(9);
        let flit = run_map_workload(PersistMode::FlitCxl0, &mut w1, 800);
        let naive = run_map_workload(PersistMode::NaiveMStore, &mut w2, 800);
        assert_eq!(naive.stats.flushes(), 0);
        assert!(flit.stats.flushes() > 0);
        // The naive transform pays the remote-memory round trip on every
        // write *and* turns every read of an uncached line into a memory
        // read; simulated time per op must exceed FliT's.
        assert!(
            naive.sim_ns_per_op > flit.sim_ns_per_op * 0.9,
            "naive {} vs flit {}",
            naive.sim_ns_per_op,
            flit.sim_ns_per_op
        );
    }

    #[test]
    fn queue_workload_runs_under_all_strategies() {
        for mode in PersistMode::comparison_set() {
            let r = run_queue_workload(mode, 300);
            assert_eq!(r.ops, 600);
            assert!(r.stats.total_ops() > 0, "{}", r.strategy);
            assert_eq!(r.strategy, mode.name());
        }
    }

    #[test]
    fn flit_async_uses_buffers_not_sync_flushes() {
        let mut w = standard_map_workload(11);
        let r = run_map_workload(PersistMode::FlitAsync, &mut w, 500);
        assert_eq!(r.strategy, "flit-async");
        assert!(r.stats.aflushes > 0, "expected asynchronous flushes");
        assert!(r.stats.barriers > 0, "expected barriers");
        assert_eq!(r.stats.flushes(), 0, "no synchronous flushes expected");
    }
}
