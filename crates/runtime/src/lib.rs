//! # `cxl0-runtime` — an executable CXL0 runtime with the FliT
//! transformation
//!
//! This crate makes the paper's §6 runnable:
//!
//! * [`api`] — **the recommended programming model**: [`Cluster`] /
//!   [`Session`], typed durable structures over the [`Word`] trait, a
//!   [`PersistMode`] switch for the durability strategy, and a durable
//!   **named-root registry** so post-crash code reattaches by name.
//! * [`backend`] — [`SimFabric`], a thread-safe, multi-machine
//!   implementation of the CXL0 semantics with crash injection, eviction
//!   (`τ`) simulation, per-primitive statistics and a simulated-latency
//!   cost model. Each operation is an atomic application of one model
//!   transition; `tests/backend_vs_model.rs` checks the refinement against
//!   `cxl0-model` mechanically.
//! * [`flit`] — the FliT transformation adapted to CXL0 (Algorithm 2):
//!   one [`Flit`] executing a [`FlitPolicy`] per durability mode. The
//!   policy table — [`FlitPolicy::CXL0`], the §6.1 owner-flush
//!   optimisation, the *unadapted* (deliberately unsound) x86 port,
//!   Algorithm 1 on the `CXL0_AF` asynchronous-flush extension, the naive
//!   all-`MStore` transformation and the no-durability baseline — is
//!   plain data; the six wrappers of the [`Persistence`] trait exist
//!   once.
//! * [`buffered`] — [`BufferedEpoch`], the §8 durability relaxation:
//!   flush-free fast path, ping-pong snapshot syncs, rollback recovery;
//!   *buffered* durably linearizable (`cxl0-dlcheck::buffered`).
//! * [`ds`] — durable data structures written once against
//!   [`Persistence`]: register, counter, Treiber stack, Michael–Scott
//!   queue, hash map — allocating and **reclaiming** their nodes through
//!   the crash-consistent allocator.
//! * [`alloc`] — the crash-consistent size-class allocator over the
//!   memory node's durable segment: per-class free lists, durable
//!   allocation intents, generation-tagged (ABA-safe) pointers and a
//!   recovery sweep.
//! * [`smr`] — epoch-based safe memory reclamation between the
//!   allocator and the traversal structures: traversals pin the global
//!   epoch, unlinked blocks retire into volatile per-epoch limbo bags,
//!   and reclamation waits out a grace period instead of quiescence.
//! * [`check`] — the **persistency sanitizer**: an opt-in analysis
//!   beside the fabric, under the [`Persistence`] strategies that detects
//!   durability races, unpersisted reads at recovery and use-after-retire
//!   with thread/op provenance (`docs/SANITIZER.md`).
//! * [`trace`] — the **runtime tracer**: opt-in per-thread op spans with
//!   wall/simulated time and persist amplification, log2 latency
//!   histograms (p50/p99/p999), recovery-phase timing and Chrome
//!   trace-event export (`docs/OBSERVABILITY.md`).
//! * [`heap`] — the raw bump tail the allocator builds on.
//! * [`cost`] — simulated per-primitive latencies (Figure-5 shaped).
//!
//! ## Quick example
//!
//! ```
//! use cxl0_runtime::api::Cluster;
//! use cxl0_model::MachineId;
//!
//! // Two compute nodes + one NVM memory node, FliT-CXL0 durability.
//! let cluster = Cluster::symmetric(2, 1024)?;
//! let session = cluster.session(MachineId(0));
//! let queue = session.create_queue::<u64>("jobs")?;
//! queue.enqueue(&session, 7)?;
//!
//! // The memory node crashes; NVM contents survive, caches do not —
//! // but FliT persisted the enqueue before it returned. Reattach by
//! // name through the durable named-root registry.
//! cluster.crash(cluster.memory_node());
//! cluster.recover(cluster.memory_node());
//! let queue = session.open_queue::<u64>("jobs")?;
//! queue.recover(&session)?;
//! assert_eq!(queue.dequeue(&session)?, Some(7));
//! # Ok::<(), cxl0_runtime::api::ApiError>(())
//! ```
//!
//! The low-level layer (`SimFabric` + `SharedHeap` + a
//! [`Persistence`] strategy, with structures taking a raw
//! [`NodeHandle`]) remains public — see [`backend`] — for tests and
//! experiments that need primitive-level control.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod alloc;
pub mod api;
pub mod backend;
pub mod buffered;
pub mod check;
pub mod cost;
pub mod ds;
pub mod error;
pub mod flit;
pub mod heap;
pub mod smr;
pub mod snapshot;
pub mod trace;

pub use alloc::{AllocStats, Allocator, BlockRef, FreeError};
pub use api::{ApiError, ApiResult, Cluster, ClusterBuilder, PersistMode, Session, Word};
pub use backend::{NodeHandle, SimFabric, Stats, StatsSnapshot};
pub use buffered::BufferedEpoch;
pub use check::{CheckConfig, Checker, Violation, ViolationClass};
pub use ds::{
    Combinable, CombineStats, Combined, CombinedQueue, CombinedStack, DurableCounter, DurableList,
    DurableLog, DurableMap, DurableQueue, DurableRegister, DurableStack, Elimination, SlotState,
};
pub use error::{Crashed, OpResult};
pub use flit::{Flit, FlitPolicy, FlitTable, FlushKind, Persistence};
pub use heap::SharedHeap;
pub use smr::{SmrDomain, SmrGuard, SmrStats};
pub use snapshot::{take_gpf_snapshot, MemorySnapshot};
pub use trace::{
    LatencyHistogram, OpKind, PhaseTiming, RecoveryPhase, TraceConfig, TraceEvent, Tracer,
};

/// Unit tests of the [`FlitPolicy::ASYNC`] row of [`flit`]. The module
/// exists for its path: `flit_async::tests::*` is how the tier-1 floor
/// list names these nine tests.
#[cfg(test)]
mod flit_async {
    mod tests {
        use crate::backend::SimFabric;
        use crate::{Flit, FlitPolicy, NodeHandle, Persistence};
        use cxl0_model::{Loc, MachineId, SystemConfig};

        const M0: MachineId = MachineId(0);
        const MEM: MachineId = MachineId(1);

        fn setup() -> (std::sync::Arc<SimFabric>, NodeHandle, Loc, Flit) {
            let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 8));
            let node = f.node(M0);
            (f, node, Loc::new(MEM, 0), Flit::new(FlitPolicy::ASYNC))
        }

        #[test]
        fn store_is_persistent_before_returning() {
            let (f, node, x, p) = setup();
            p.shared_store(&node, x, 9, true).unwrap();
            // The trailing barrier inside shared_store persisted it already.
            assert_eq!(f.peek_memory(x), 9);
            assert_eq!(f.pending_flushes(M0), 0);
        }

        #[test]
        fn unflagged_store_is_not_persistent() {
            let (f, node, x, p) = setup();
            p.shared_store(&node, x, 9, false).unwrap();
            assert_eq!(f.peek_memory(x), 0);
        }

        #[test]
        fn helping_load_defers_until_complete_op() {
            let (f, node, x, p) = setup();
            // Simulate another thread's in-flight store.
            p.table().enter(x);
            node.lstore(x, 7).unwrap();
            let v = p.shared_load(&node, x, true).unwrap();
            assert_eq!(v, 7);
            // Help was enqueued, not performed:
            assert_eq!(f.pending_flushes(M0), 1);
            assert_eq!(f.peek_memory(x), 0);
            // completeOp retires it.
            p.complete_op(&node).unwrap();
            assert_eq!(f.pending_flushes(M0), 0);
            assert_eq!(f.peek_memory(x), 7);
            p.table().exit(x);
        }

        #[test]
        fn helping_load_skips_quiet_cells() {
            let (f, node, x, p) = setup();
            node.lstore(x, 7).unwrap();
            p.shared_load(&node, x, true).unwrap();
            assert_eq!(f.pending_flushes(M0), 0); // counter at zero: no help
        }

        #[test]
        fn leading_barrier_persists_prior_helps_before_store() {
            let (f, node, x, p) = setup();
            let y = Loc::new(MEM, 1);
            // A helped-but-unretired cell...
            p.table().enter(y);
            node.lstore(y, 5).unwrap();
            p.shared_load(&node, y, true).unwrap();
            assert_eq!(f.peek_memory(y), 0);
            // ... persists before the next shared store linearizes.
            p.shared_store(&node, x, 1, true).unwrap();
            assert_eq!(f.peek_memory(y), 5);
            p.table().exit(y);
        }

        #[test]
        fn cas_and_faa_persist_synchronously() {
            let (f, node, x, p) = setup();
            assert_eq!(p.shared_cas(&node, x, 0, 4, true).unwrap(), Ok(0));
            assert_eq!(f.peek_memory(x), 4);
            assert_eq!(p.shared_faa(&node, x, 3, true).unwrap(), 4);
            assert_eq!(f.peek_memory(x), 7);
        }

        #[test]
        fn private_store_persists_when_flagged() {
            let (f, node, x, p) = setup();
            p.private_store(&node, x, 2, true).unwrap();
            assert_eq!(f.peek_memory(x), 2);
            p.private_store(&node, x, 3, false).unwrap();
            assert_eq!(f.peek_memory(x), 2); // unflagged: cache only
            assert_eq!(p.private_load(&node, x).unwrap(), 3);
        }

        #[test]
        fn helped_reads_are_cheaper_than_sync_flit() {
            // Same scenario under both policies: a hot cell with a
            // permanently raised counter, N helped reads, one completeOp.
            let sim_ns = |policy| {
                let (f, node, x, _) = setup();
                let p = Flit::new(policy);
                p.table().enter(x);
                node.lstore(x, 1).unwrap();
                for _ in 0..64 {
                    p.shared_load(&node, x, true).unwrap();
                }
                p.complete_op(&node).unwrap();
                f.stats().sim_nanos()
            };
            let (asy, sync) = (sim_ns(FlitPolicy::ASYNC), sim_ns(FlitPolicy::CXL0));
            assert!(
                asy < sync / 2,
                "async helping should be at least 2x cheaper: {asy} vs {sync}"
            );
        }

        #[test]
        fn name_is_reported() {
            let (_f, _node, _x, p) = setup();
            assert_eq!(p.name(), "flit-async");
        }
    }
}
