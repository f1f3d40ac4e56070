//! Durable data structures built from linearizable algorithms via the
//! FliT wrappers (§6): every shared memory access goes through a
//! [`Persistence`](crate::flit::Persistence) strategy, so the same
//! algorithm code can run durably (Alg. 2), naively (all-`MStore`),
//! unsoundly (unadapted x86 FliT) or without durability, for comparison.
//!
//! All structures are non-blocking (CAS-based), as FliT assumes for
//! liveness. The pointer-based structures (queue, stack, list, map)
//! allocate — and **reclaim** — their nodes through the
//! crash-consistent allocator ([`crate::alloc`]), so churn workloads
//! run in bounded memory, but they reclaim on two different
//! disciplines: the queue and stack free unlinked nodes *inline*
//! (every CAS they issue compares a generation-tagged word, the
//! Michael–Scott counted-pointer scheme, so recycling under a racing
//! operation is harmless), while the traversal structures — sorted
//! list and hash map — *retire* unlinked blocks through the cluster's
//! epoch-based reclamation domain ([`crate::smr`]) and get them back
//! only after every concurrently pinned operation has finished.
//! `docs/RECLAMATION.md` develops the argument for the split. The
//! fixed-footprint structures (register, counter, log) still carve
//! their cells straight from the bump heap: they are roots, never
//! reclaimed.
//!
//! Element types are generic over [`Word`](crate::api::Word) (default
//! `u64`), and every operation takes the issuing machine's
//! [`NodeHandle`](crate::backend::NodeHandle): each CXL0 primitive has
//! one issuer. An [`api::Session`](crate::api::Session) dereferences to
//! its handle, so `&session` is passed the same way. Named
//! creation/reattachment lives on the session (`create_queue`/
//! `open_queue` and friends).

pub mod combine;
pub mod counter;
pub mod list;
pub mod log;
pub mod map;
pub mod queue;
pub mod register;
pub mod stack;

pub use combine::{Combinable, CombineStats, Combined, CombinedQueue, CombinedStack, Elimination};
pub use counter::DurableCounter;
pub use list::DurableList;
pub use log::{DurableLog, SlotState};
pub use map::DurableMap;
pub use queue::DurableQueue;
pub use register::DurableRegister;
pub use stack::DurableStack;
