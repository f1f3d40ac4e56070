//! # `cxl0` — a complete reproduction of *"A Programming Model for
//! Disaggregated Memory over CXL"* (ASPLOS 2026)
//!
//! This facade re-exports the whole workspace behind one dependency:
//!
//! | Module | Crate | Paper artefact |
//! |---|---|---|
//! | [`api`] | `cxl0-runtime` | **the programming model**: `Cluster`/`Session`, typed durable handles (`Word`), `PersistMode`, the durable named-root registry |
//! | [`alloc`] | `cxl0-runtime` | the crash-consistent size-class allocator: durable free lists, allocation intents, generation-tagged pointers, recovery sweep |
//! | [`model`] | `cxl0-model` | the CXL0 operational semantics (§3, Fig. 2), variants (§3.5), topologies (§4), `CXL0_AF` async flushes (§3.2 extension) |
//! | [`explore`] | `cxl0-explore` | litmus tests (Fig. 3 + A1–A8), Proposition 1, variant refinement (FDR4 analogue) |
//! | [`protocol`] | `cxl0-protocol` | CXL.cache/CXL.mem transaction engine + Table 1 (§5.1), CXL 3.0 BISnp pool (§4) |
//! | [`fabric`] | `cxl0-fabric` | latency simulation + Figure 5 (§5.2) |
//! | [`runtime`] | `cxl0-runtime` | executable fabric, FliT (Alg. 2) + FliT-async (Alg. 1 on `CXL0_AF`) + buffered epochs (§8), durable data structures, shared log, GPF snapshots (§6) |
//! | [`dlcheck`] | `cxl0-dlcheck` | durable + buffered-durable linearizability checking (§6, §8) |
//! | [`trace`] | `cxl0-runtime` | opt-in observability: op-level spans, latency histograms, recovery-phase telemetry, Chrome trace-event export (`CXL0_TRACE`) |
//! | [`workloads`] | `cxl0-workloads` | benchmark workload generation |
//!
//! ## Quickstart: the programming model
//!
//! ```
//! use cxl0::api::Cluster;
//! use cxl0::model::MachineId;
//!
//! // Two compute nodes + one NVM memory node, FliT-CXL0 durability.
//! let cluster = Cluster::symmetric(2, 4096)?;
//! let session = cluster.session(MachineId(0));
//!
//! let jobs = session.create_queue::<u64>("jobs")?;
//! jobs.enqueue(&session, 7)?;
//!
//! // The memory node crashes and recovers; reattach *by name* through
//! // the durable named-root registry — no header address bookkeeping.
//! cluster.crash(cluster.memory_node());
//! cluster.recover(cluster.memory_node());
//! let jobs = session.open_queue::<u64>("jobs")?;
//! jobs.recover(&session)?;
//! assert_eq!(jobs.dequeue(&session)?, Some(7));
//! # Ok::<(), cxl0::api::ApiError>(())
//! ```
//!
//! ## The formal side
//!
//! ```
//! use cxl0::explore::{paper, litmus::run_suite};
//!
//! // Reproduce the paper's litmus-test verdicts:
//! let report = run_suite(&paper::all_tests());
//! assert!(report.all_pass());
//! ```
//!
//! See `examples/` at the repository root for runnable walkthroughs and
//! the per-table/per-figure regenerators (`litmus_suite`,
//! `protocol_trace`, `proposition1`, `refinement`).
//! The low-level runtime layer (`runtime::backend`, `runtime::heap`,
//! `runtime::flit`) stays public for primitive-level experiments.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use cxl0_dlcheck as dlcheck;
pub use cxl0_explore as explore;
pub use cxl0_fabric as fabric;
pub use cxl0_model as model;
pub use cxl0_protocol as protocol;
pub use cxl0_runtime as runtime;
pub use cxl0_workloads as workloads;

pub use cxl0_runtime::alloc;
pub use cxl0_runtime::api;
pub use cxl0_runtime::ds;
pub use cxl0_runtime::durable_word;
pub use cxl0_runtime::trace;
