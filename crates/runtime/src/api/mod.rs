//! # The `Cluster`/`Session` programming model — the recommended API
//!
//! The paper's point is a *programming model*: applications should write
//! against simple durable primitives, not against fabric plumbing. This
//! module is that layer. Instead of hand-assembling
//! [`SimFabric`](crate::SimFabric) + [`SharedHeap`](crate::SharedHeap) +
//! `Arc<dyn Persistence>` and threading header [`Loc`](cxl0_model::Loc)s
//! through volatile state for recovery, code does:
//!
//! ```
//! use cxl0_runtime::api::{Cluster, PersistMode};
//! use cxl0_model::{MachineId, SystemConfig};
//!
//! // Topology, model variant, cost model and durability strategy in one
//! // builder; swapping strategies is a one-line change.
//! let cluster = Cluster::builder(SystemConfig::symmetric_nvm(3, 4096))
//!     .persist(PersistMode::FlitCxl0)
//!     .build()?;
//!
//! // A session is a per-machine context: handle + heap + persistence.
//! let session = cluster.session(MachineId(0));
//! let jobs = session.create_queue::<u64>("jobs")?;
//! jobs.enqueue(&session, 7)?;
//!
//! // The memory node crashes. Post-crash code reattaches *by name*
//! // through the durable named-root registry — nothing volatile needed.
//! cluster.crash(cluster.memory_node());
//! cluster.recover(cluster.memory_node());
//! let jobs = session.open_queue::<u64>("jobs")?;
//! jobs.recover(&session)?;
//! assert_eq!(jobs.dequeue(&session)?, Some(7));
//! # Ok::<(), cxl0_runtime::api::ApiError>(())
//! ```
//!
//! Four pieces:
//!
//! * [`ClusterBuilder`] → [`Cluster`] — owns topology and a
//!   [`PersistMode`];
//! * [`Session`] — the per-node context every operation takes;
//! * [`Word`] — typed values over the 64-bit cells, with registry-checked
//!   type fingerprints (see [`durable_word!`](crate::durable_word) for
//!   newtypes);
//! * the **named-root registry** ([`registry`]) — a durable directory at
//!   a well-known offset of the memory node's segment, itself written
//!   against the cluster's [`Persistence`](crate::Persistence) strategy.
//!
//! The low-level layer ([`backend`](crate::backend), [`heap`](crate::heap),
//! [`flit`](crate::flit)) stays public for tests and experiments that
//! need primitives; [`Session::node`] is the escape hatch from here to
//! there.

mod cluster;
mod error;
pub mod registry;
mod session;
mod word;

pub use cluster::{Cluster, ClusterBuilder, PersistMode};
pub use error::{ApiError, ApiResult};
pub use registry::{RootInfo, RootKind};
pub use session::Session;
pub use word::{word_type_tag, Word};
