//! Errors of the high-level `Cluster`/`Session` API.

use std::fmt;

use cxl0_model::Loc;

use crate::api::registry::RootKind;
use crate::error::Crashed;

/// Everything that can go wrong at the session layer.
///
/// Low-level data-structure operations fail only with [`Crashed`], except
/// a queue's recovery, which also reports [`ApiError::Corrupt`]; the
/// session layer adds configuration, allocation and naming failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// The issuing machine has crashed (see [`Crashed`]).
    Crashed(Crashed),
    /// The chosen memory node owns no shared locations (or the cluster
    /// has no machine with memory at all).
    NoMemoryNode,
    /// The named-root registry does not fit in the memory node's segment.
    RegistryTooLarge {
        /// Cells the registry needs.
        needed: u32,
        /// Cells the memory node owns.
        available: u32,
    },
    /// The shared heap cannot satisfy the allocation.
    HeapExhausted,
    /// The root name exceeds the registry's name limit.
    NameTooLong {
        /// The offending name.
        name: String,
        /// Maximum name length in bytes.
        max: usize,
    },
    /// Root names must be non-empty.
    NameEmpty,
    /// `create_*` found the name already committed in the registry.
    AlreadyExists(String),
    /// The name is claimed by an in-flight (or crashed) `create_*` that
    /// has not committed; run recovery to seal it, or retry later.
    PendingRoot(String),
    /// `open_*` found no committed root under the name.
    NotFound(String),
    /// The committed root under this name is a different structure kind.
    KindMismatch {
        /// The name looked up.
        name: String,
        /// The kind the caller asked for.
        expected: RootKind,
        /// The kind the registry recorded.
        found: RootKind,
    },
    /// The committed root was created with a different element type
    /// (mismatching [`Word::TAG`](crate::api::Word::TAG) fingerprint).
    TypeMismatch {
        /// The name looked up.
        name: String,
    },
    /// Every registry slot is taken.
    RegistryFull,
    /// [`Cluster::export_trace`](crate::api::Cluster::export_trace) was
    /// called but tracing was never armed (no
    /// [`with_tracing`](crate::api::ClusterBuilder::with_tracing) and no
    /// `CXL0_TRACE`).
    NoTracer,
    /// Writing the trace export file failed (I/O error text attached).
    TraceExport(String),
    /// Recovery found a pointer of the structure at `header` null, which
    /// every sound strategy keeps durable: the crash lost it.
    Corrupt {
        /// The structure's header cell.
        header: Loc,
    },
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Crashed(c) => c.fmt(f),
            ApiError::NoMemoryNode => write!(f, "no machine with shared memory to host the heap"),
            ApiError::RegistryTooLarge { needed, available } => write!(
                f,
                "named-root registry needs {needed} cells but the memory node owns {available}"
            ),
            ApiError::HeapExhausted => write!(f, "shared heap exhausted"),
            ApiError::NameTooLong { name, max } => {
                write!(f, "root name {name:?} exceeds {max} bytes")
            }
            ApiError::NameEmpty => write!(f, "root names must be non-empty"),
            ApiError::AlreadyExists(name) => write!(f, "root {name:?} already exists"),
            ApiError::PendingRoot(name) => write!(
                f,
                "root {name:?} has an uncommitted create in flight (recover to seal it)"
            ),
            ApiError::NotFound(name) => write!(f, "no committed root named {name:?}"),
            ApiError::KindMismatch {
                name,
                expected,
                found,
            } => write!(f, "root {name:?} is a {found}, not a {expected}"),
            ApiError::TypeMismatch { name } => {
                write!(f, "root {name:?} was created with a different element type")
            }
            ApiError::RegistryFull => write!(f, "named-root registry is full"),
            ApiError::NoTracer => write!(
                f,
                "tracing is not armed (use ClusterBuilder::with_tracing or CXL0_TRACE)"
            ),
            ApiError::TraceExport(e) => write!(f, "trace export failed: {e}"),
            ApiError::Corrupt { header } => {
                write!(
                    f,
                    "the structure at {header} lost a durable pointer in a crash"
                )
            }
        }
    }
}

impl std::error::Error for ApiError {}

impl From<Crashed> for ApiError {
    fn from(c: Crashed) -> Self {
        ApiError::Crashed(c)
    }
}

/// Result alias for session-layer operations.
pub type ApiResult<T> = Result<T, ApiError>;
