//! The FliT transformation for CXL0 (§6, Algorithm 2): **one**
//! implementation, [`Flit`], and a [`FlitPolicy`] per durability mode.
//!
//! The paper's contribution is a single general transformation; its
//! ancestors and ablations differ only in *which store and which flush*
//! the transformation issues. That choice is plain data, so the strategy
//! table is the code:
//!
//! | Policy | Flagged store | Persist | Reader's help | Counters | Acked persists survive partial crashes? |
//! |---|---|---|---|---|---|
//! | [`CXL0`](FlitPolicy::CXL0) | `LStore` | `RFlush` | `RFlush` | yes | **yes** (Alg. 2, proven in §B) |
//! | [`OWNER_OPT`](FlitPolicy::OWNER_OPT) | `LStore` | `LFlush` if the issuer owns the line, else `RFlush` | same | yes | yes (§6.1 optimisation) |
//! | [`X86`](FlitPolicy::X86) | `LStore` | `LFlush` | `LFlush` | yes | **no** — Alg. 1 ported naively; its flush only reaches the owner's *cache* |
//! | [`ASYNC`](FlitPolicy::ASYNC) | `LStore` | `AFlush` + `Barrier` | bare `AFlush` | yes | yes (Alg. 1 on the `CXL0_AF` extension) |
//! | [`NAIVE_MSTORE`](FlitPolicy::NAIVE_MSTORE) | `MStore` | none needed | none | no | yes, but slower (§6.1) |
//! | [`NONE`](FlitPolicy::NONE) | `LStore` | none | none | no | promises nothing — plain linearizable object |
//! | [`BUFFERED`](FlitPolicy::BUFFERED) | `LStore` | none (epoch syncs) | none | no | yes, as of the last sync ([`BufferedEpoch`](crate::BufferedEpoch)) |
//!
//! The per-cell *FliT counter* signals to readers that a store to the cell
//! may be globally visible but not yet persistent; a reader seeing a
//! positive counter helps by flushing before returning (Alg. 2 lines
//! 41–45). Counters are volatile metadata kept in a striped table
//! ([`FlitTable`]).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use cxl0_model::{Loc, StoreKind};

use crate::backend::NodeHandle;
use crate::error::OpResult;

/// A striped table of FliT counters, hashed by location.
///
/// With `stripes >= number of cells` this behaves like a per-cell counter;
/// smaller tables trade false sharing of counters (spurious helper
/// flushes) for memory.
#[derive(Debug)]
pub struct FlitTable {
    counters: Vec<AtomicU64>,
    mask: usize,
}

impl FlitTable {
    /// Creates a table with `stripes` counters (rounded up to a power of
    /// two).
    ///
    /// # Panics
    ///
    /// Panics if `stripes` is zero.
    pub fn new(stripes: usize) -> Self {
        assert!(stripes > 0, "need at least one stripe");
        let n = stripes.next_power_of_two();
        FlitTable {
            counters: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mask: n - 1,
        }
    }

    fn slot(&self, loc: Loc) -> &AtomicU64 {
        // Fibonacci hashing over (owner, addr).
        let h = (loc.owner.index() as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(u64::from(loc.addr.0).wrapping_mul(0xD1B54A32D192ED03));
        &self.counters[(h >> 32) as usize & self.mask]
    }

    /// Increment the counter for `loc` (a store is in flight).
    pub fn enter(&self, loc: Loc) {
        self.slot(loc).fetch_add(1, Ordering::SeqCst);
    }

    /// Decrement the counter for `loc` (the store has persisted).
    pub fn exit(&self, loc: Loc) {
        self.slot(loc).fetch_sub(1, Ordering::SeqCst);
    }

    /// True if a store to `loc` (or a stripe-mate) may be unpersisted.
    pub fn in_flight(&self, loc: Loc) -> bool {
        self.slot(loc).load(Ordering::SeqCst) > 0
    }

    /// Number of stripes.
    pub fn stripes(&self) -> usize {
        self.counters.len()
    }
}

/// The memory-access interface data structures program against: FliT's
/// `shared_*`/`private_*` wrappers plus RMWs, per Algorithm 2.
///
/// The `pflag` argument mirrors the paper's persistence flag: `false`
/// means the access needs no durability (it is compiled to the bare
/// primitive).
///
/// **Ack discipline.** An implementation must call
/// `NodeHandle::ack_persist` at the exact point a flagged store or
/// *successful* RMW becomes durable (after its flush — for
/// [`FlitPolicy::ASYNC`], after the trailing `Barrier`): the persistency
/// sanitizer ([`crate::check`]) treats the ack as the durability claim it
/// audits, and the tracer ([`crate::trace`]) counts acks into each op
/// span's persist amplification. Paths that make no per-store durability
/// claim (a failed CAS, a policy that never flushes, the buffered
/// relaxation) never ack.
///
/// # Errors
///
/// Every method taking a node fails with `Crashed` exactly when the
/// issuing machine has crashed.
pub trait Persistence: Send + Sync + fmt::Debug {
    /// Short name for reports; equals the configuring
    /// [`PersistMode::name`](crate::api::PersistMode::name).
    fn name(&self) -> &'static str;

    /// `shared_load` (Alg. 2 lines 41–45).
    fn shared_load(&self, node: &NodeHandle, loc: Loc, pflag: bool) -> OpResult<u64>;

    /// `shared_store` (Alg. 2 lines 46–54).
    fn shared_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()>;

    /// `private_load` (Alg. 2 lines 31–33): a bare load.
    fn private_load(&self, node: &NodeHandle, loc: Loc) -> OpResult<u64> {
        node.load(loc)
    }

    /// `private_store` (Alg. 2 lines 34–40).
    fn private_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()>;

    /// Shared CAS: the RMW analogue of `shared_store`; a failed CAS is a
    /// shared load. Returns `Ok(old)` / `Err(actual)` inside the crash
    /// result.
    fn shared_cas(
        &self,
        node: &NodeHandle,
        loc: Loc,
        old: u64,
        new: u64,
        pflag: bool,
    ) -> OpResult<Result<u64, u64>>;

    /// Shared fetch-and-add; returns the previous value.
    fn shared_faa(&self, node: &NodeHandle, loc: Loc, delta: u64, pflag: bool) -> OpResult<u64>;

    /// `completeOp` (Alg. 2 line 55): called at the end of every
    /// high-level operation.
    fn complete_op(&self, node: &NodeHandle) -> OpResult<()>;

    /// True when [`Persistence::batched_store`] defers its persistence
    /// work to the next [`Persistence::flush_batch`] instead of
    /// persisting synchronously; the combining front uses this to
    /// account how many per-operation sync points a batch amortized
    /// away.
    fn defers_batches(&self) -> bool;

    /// A store issued by a *combiner* — a thread that holds a
    /// structure's combining lock and is therefore the structure's sole
    /// mutator for the duration of the batch (see
    /// [`crate::ds::combine`]). Because no concurrent reader can observe
    /// the cell mid-batch, no FliT counter traffic is needed; because
    /// the batch ends with [`Persistence::flush_batch`], the per-store
    /// sync may be deferred.
    fn batched_store(&self, node: &NodeHandle, loc: Loc, v: u64) -> OpResult<()>;

    /// The batch-flush entry point: retires every store the current
    /// combined batch deferred, in one sync. A combiner must call this
    /// after applying a batch via [`Persistence::batched_store`] and
    /// **before** acknowledging any of the batch's operations — the
    /// acknowledgement is what promises durability. A no-op when
    /// `batched_store` is synchronous or owes no durability.
    fn flush_batch(&self, node: &NodeHandle) -> OpResult<()>;
}

/// Which flush instruction a [`FlitPolicy`] issues. One choice fixes four
/// actions of the transformation: the writer's *persist* and the
/// reader's *help* (this flush; for [`FlushKind::Async`] the persist
/// adds a `Barrier`, the help does not), and — `Async` only — the
/// pre-store fence and the `completeOp` barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushKind {
    /// No flush at all.
    None,
    /// `LFlush` always (models x86 `CLFLUSHOPT`, which under CXL0 only
    /// reaches the line owner's cache).
    Local,
    /// `RFlush` always (Alg. 2).
    Remote,
    /// `LFlush` when the issuer owns the line — an owner's `LFlush`
    /// already reaches memory — `RFlush` otherwise (§6.1).
    LocalWhenOwner,
    /// `AFlush` into the issuer's persistency buffer, retired by
    /// `Barrier`s (the `CXL0_AF` extension, §3.2).
    Async,
}

/// What distinguishes one durability mode from another, as plain data:
/// the rows of the [module table](self). [`Flit`] executes a policy;
/// [`PersistMode::policy`](crate::api::PersistMode::policy) names the one
/// each mode runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitPolicy {
    /// Report name; equals the mode's
    /// [`PersistMode::name`](crate::api::PersistMode::name).
    pub name: &'static str,
    /// Strength of flagged stores and RMWs (unflagged ones are always
    /// `Local`).
    pub store: StoreKind,
    /// The flush issued after a flagged store and by a helping reader.
    /// FliT counters are kept exactly when there is one: writers raise
    /// them around the store, flagged readers consult them to decide
    /// whether to help.
    pub flush: FlushKind,
    /// Whether the combiner's batched path owes durability: `LStore` +
    /// `AFlush` per store and one `Barrier` per batch (the `CXL0_AF`
    /// extension, whatever the plain-path flush is) — or, when `false`,
    /// plain cached stores with nothing to retire. Deferring is sound
    /// whenever "acknowledged ⇒ durable" is the promise: no batched op is
    /// acknowledged before the batch barrier, and a crashed combiner's
    /// cache lines *and* persistency buffer vanish wholesale.
    pub batch_durable: bool,
    /// A completed operation is durable before it returns (the strict,
    /// per-operation durability modes).
    pub strict: bool,
    /// Every persist the policy acknowledges survives a partial crash
    /// (vacuously true for a policy that acknowledges nothing). `false`
    /// only for the deliberately unsound [`FlitPolicy::X86`]; the
    /// `CXL0_SANITIZE` environment arming fails fast exactly when this
    /// holds.
    pub sound: bool,
}

impl FlitPolicy {
    /// Algorithm 2: FliT adapted to CXL0 (`LStore`, `RFlush`, counters).
    pub const CXL0: FlitPolicy = FlitPolicy {
        name: "flit-cxl0",
        store: StoreKind::Local,
        flush: FlushKind::Remote,
        batch_durable: true,
        strict: true,
        sound: true,
    };

    /// §6.1's optimisation: `RFlush` replaced by `LFlush` for lines the
    /// writing machine owns.
    pub const OWNER_OPT: FlitPolicy = FlitPolicy {
        name: "flit-owner-opt",
        flush: FlushKind::LocalWhenOwner,
        ..FlitPolicy::CXL0
    };

    /// Algorithm 1 ported *without* adaptation: flushes are local.
    /// **Deliberately unsound** under partial crashes — it demonstrates
    /// why the adaptation is necessary (the §6 motivating example).
    pub const X86: FlitPolicy = FlitPolicy {
        name: "flit-x86",
        flush: FlushKind::Local,
        strict: false,
        sound: false,
        ..FlitPolicy::CXL0
    };

    /// Algorithm 1 (the original, asynchronous-flush FliT) transplanted
    /// onto the `CXL0_AF` extension. Algorithm 2 had to fall back to
    /// synchronous `RFlush`es because CXL lacks asynchronous flushes;
    /// §3.2 sketches how to add them via persistency buffers, and this
    /// policy closes the loop:
    ///
    /// | Algorithm 1 (x86) | `ASYNC` (`CXL0_AF`) |
    /// |---|---|
    /// | `FENCE()` at `shared_store` entry | leading `Barrier` |
    /// | `Store` | `LStore` |
    /// | `Flush` (`CLFLUSHOPT`) | `AFlush` |
    /// | `MFENCE()` after the flush | trailing `Barrier` |
    /// | helping `Flush` in `shared_load` (no fence) | helping `AFlush` (no barrier) |
    /// | `completeOp`: `MFENCE()` | `completeOp`: `Barrier` |
    ///
    /// **Stores persist synchronously** (the trailing barrier inside
    /// `shared_store`), so per-thread persistence remains prefix-ordered
    /// and a crash can never persist a later store of an operation
    /// without an earlier one. Only the *helping* flushes performed by
    /// readers are deferred — they protect another thread's store, whose
    /// own writer still guarantees it; the reader merely must persist it
    /// before *its own* operation completes (P-V condition 3/4), which
    /// the `completeOp` barrier does. The leading barrier makes prior
    /// helps complete before the store becomes visible, so dependencies
    /// persist before it linearizes (condition 4).
    ///
    /// It wins on read-heavy contended workloads: a helping reader pays a
    /// buffer enqueue instead of a synchronous remote flush, and all of
    /// an operation's helps retire, overlapped, under one barrier.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use cxl0_runtime::{SimFabric, DurableQueue, Flit, FlitPolicy, Persistence};
    /// use cxl0_runtime::alloc::Allocator;
    /// use cxl0_model::{SystemConfig, MachineId};
    ///
    /// let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, 1024));
    /// let persist: Arc<dyn Persistence> = Arc::new(Flit::new(FlitPolicy::ASYNC));
    /// let alloc = Arc::new(Allocator::over_region(fabric.config(), MachineId(2), persist));
    /// let node = fabric.node(MachineId(0));
    /// let queue = DurableQueue::create(&alloc, &node)?.unwrap();
    /// queue.enqueue(&node, 7)?;
    ///
    /// fabric.crash(MachineId(2));
    /// fabric.recover(MachineId(2));
    /// queue.recover(&node)?;
    /// assert_eq!(queue.dequeue(&node)?, Some(7));
    /// # Ok::<(), cxl0_runtime::Crashed>(())
    /// ```
    pub const ASYNC: FlitPolicy = FlitPolicy {
        name: "flit-async",
        flush: FlushKind::Async,
        ..FlitPolicy::CXL0
    };

    /// The naive transformation of §6.1: every flagged store is an
    /// `MStore` (correct even without cache coherence, but pays the full
    /// memory round trip on every write). Durable by construction, so it
    /// flushes nothing and acknowledges nothing.
    pub const NAIVE_MSTORE: FlitPolicy = FlitPolicy {
        name: "naive-mstore",
        store: StoreKind::Memory,
        flush: FlushKind::None,
        ..FlitPolicy::CXL0
    };

    /// No durability at all: plain `LStore`s and loads, on the batched
    /// path too. The linearizable-but-not-durable baseline.
    pub const NONE: FlitPolicy = FlitPolicy {
        name: "none",
        store: StoreKind::Local,
        flush: FlushKind::None,
        batch_durable: false,
        strict: false,
        sound: true,
    };

    /// The flagged fast path of the §8 buffered relaxation, as a
    /// descriptor: cached stores, no flush, durability as of the last
    /// epoch sync. [`BufferedEpoch`](crate::BufferedEpoch) implements it
    /// (redo log, syncs, rollback recovery); handing this policy to
    /// [`Flit::new`] would merely be [`FlitPolicy::NONE`] under another
    /// name.
    pub const BUFFERED: FlitPolicy = FlitPolicy {
        name: "buffered",
        ..FlitPolicy::NONE
    };
}

/// The FliT transformation (Algorithm 2), executing one [`FlitPolicy`].
///
/// Every policy runs the same six wrappers; per flagged call the policy
/// picks the store strength and the flush (and with it whether counters
/// are kept).
/// Two behaviours hold for *every* policy:
///
/// - **The counter is lowered on every exit path**, crashed stores
///   included. A store only fails when its issuer has crashed, and the
///   unpersisted line is gone with the issuer's cache — there is nothing
///   left for readers to help.
/// - **`ack_persist` follows successful flagged stores and RMWs only.**
///   A failed CAS acted as a shared load: it helps persist the value it
///   observed (condition 3 of the P-V interface) but claims nothing.
///   Policies that never flush never ack.
#[derive(Debug)]
pub struct Flit {
    table: FlitTable,
    policy: FlitPolicy,
}

impl Flit {
    /// Counter stripes per transformation.
    const STRIPES: usize = 1024;

    /// The transformation under `policy`.
    pub fn new(policy: FlitPolicy) -> Self {
        Flit {
            table: FlitTable::new(Self::STRIPES),
            policy,
        }
    }

    /// The counter table; raising a counter through it stands in for
    /// another thread's in-flight store (tests, reports).
    pub fn table(&self) -> &FlitTable {
        &self.table
    }

    fn is_async(&self) -> bool {
        self.policy.flush == FlushKind::Async
    }

    /// Flushing policies keep counters and have a durability point to ack.
    fn flushes(&self) -> bool {
        self.policy.flush != FlushKind::None
    }

    /// The policy's flush of `loc`, as a helping reader issues it.
    #[inline]
    fn flush(&self, node: &NodeHandle, loc: Loc) -> OpResult<()> {
        match self.policy.flush {
            FlushKind::None => Ok(()),
            FlushKind::Local => node.lflush(loc),
            FlushKind::Remote => node.rflush(loc),
            FlushKind::LocalWhenOwner if node.machine() == loc.owner => node.lflush(loc),
            FlushKind::LocalWhenOwner => node.rflush(loc),
            FlushKind::Async => node.aflush(loc),
        }
    }

    /// The writer's persist of `loc`: the flush, made synchronous by a
    /// trailing barrier when it is asynchronous. With `claim`, this is
    /// the durability point acknowledged to the sanitizer/tracer seam.
    #[inline]
    fn persist(&self, node: &NodeHandle, loc: Loc, claim: bool) -> OpResult<()> {
        self.flush(node, loc)?;
        if self.is_async() {
            node.barrier()?;
        }
        if claim && self.flushes() {
            node.ack_persist(loc);
        }
        Ok(())
    }

    /// The flagged-write skeleton shared by store, CAS and FAA (Alg. 2
    /// lines 46–54): fence, raise the counter, `write` at the policy's
    /// store strength, persist, lower the counter. `installed` tells
    /// whether the write took effect (a failed CAS persists as a help
    /// but claims nothing).
    #[inline]
    fn flagged<T>(
        &self,
        node: &NodeHandle,
        loc: Loc,
        write: impl FnOnce(StoreKind) -> OpResult<T>,
        installed: impl FnOnce(&T) -> bool,
    ) -> OpResult<T> {
        if self.is_async() {
            node.barrier()?;
        }
        if self.flushes() {
            self.table.enter(loc);
        }
        let result = write(self.policy.store).and_then(|r| {
            self.persist(node, loc, installed(&r))?;
            Ok(r)
        });
        if self.flushes() {
            self.table.exit(loc);
        }
        result
    }
}

impl Persistence for Flit {
    fn name(&self) -> &'static str {
        self.policy.name
    }

    fn shared_load(&self, node: &NodeHandle, loc: Loc, pflag: bool) -> OpResult<u64> {
        let val = node.load(loc)?;
        if pflag && self.flushes() && self.table.in_flight(loc) {
            self.flush(node, loc)?;
        }
        Ok(val)
    }

    fn shared_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        if !pflag {
            return node.lstore(loc, v);
        }
        self.flagged(node, loc, |kind| node.store(kind, loc, v), |()| true)
    }

    fn private_store(&self, node: &NodeHandle, loc: Loc, v: u64, pflag: bool) -> OpResult<()> {
        if !pflag {
            return node.lstore(loc, v);
        }
        // No reader can race a private cell: no fence, no counter.
        node.store(self.policy.store, loc, v)?;
        self.persist(node, loc, true)
    }

    fn shared_cas(
        &self,
        node: &NodeHandle,
        loc: Loc,
        old: u64,
        new: u64,
        pflag: bool,
    ) -> OpResult<Result<u64, u64>> {
        if !pflag {
            return node.cas(StoreKind::Local, loc, old, new);
        }
        self.flagged(
            node,
            loc,
            |kind| node.cas(kind, loc, old, new),
            Result::is_ok,
        )
    }

    fn shared_faa(&self, node: &NodeHandle, loc: Loc, delta: u64, pflag: bool) -> OpResult<u64> {
        if !pflag {
            return node.faa(StoreKind::Local, loc, delta);
        }
        self.flagged(node, loc, |kind| node.faa(kind, loc, delta), |_| true)
    }

    fn complete_op(&self, node: &NodeHandle) -> OpResult<()> {
        // Alg. 1 line 29: retire this operation's helping `AFlush`es
        // before it returns. Synchronous flushes leave nothing pending.
        if self.is_async() {
            node.barrier()?;
        }
        Ok(())
    }

    fn defers_batches(&self) -> bool {
        self.policy.batch_durable
    }

    fn batched_store(&self, node: &NodeHandle, loc: Loc, v: u64) -> OpResult<()> {
        node.lstore(loc, v)?;
        if self.policy.batch_durable {
            node.aflush(loc)?;
        }
        Ok(())
    }

    fn flush_batch(&self, node: &NodeHandle) -> OpResult<()> {
        if self.policy.batch_durable {
            node.barrier()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimFabric;
    use cxl0_model::{MachineId, SystemConfig};

    const M0: MachineId = MachineId(0);
    const MEM: MachineId = MachineId(1);

    fn setup() -> (std::sync::Arc<SimFabric>, NodeHandle, Loc) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 8));
        let node = f.node(M0);
        (f, node, Loc::new(MEM, 0))
    }

    #[test]
    fn flit_cxl0_store_is_immediately_persistent() {
        let (f, node, x) = setup();
        let p = Flit::new(FlitPolicy::CXL0);
        p.shared_store(&node, x, 9, true).unwrap();
        assert_eq!(f.peek_memory(x), 9);
    }

    #[test]
    fn flit_cxl0_unflagged_store_is_not_persistent() {
        let (f, node, x) = setup();
        let p = Flit::new(FlitPolicy::CXL0);
        p.shared_store(&node, x, 9, false).unwrap();
        assert_eq!(f.peek_memory(x), 0);
    }

    #[test]
    fn flit_x86_store_is_not_persistent_for_remote_lines() {
        let (f, node, x) = setup();
        let p = Flit::new(FlitPolicy::X86);
        p.shared_store(&node, x, 9, true).unwrap();
        // LFlush only moved the line to the owner's cache — memory stale.
        assert_eq!(f.peek_memory(x), 0);
        assert!(f.is_cached(x));
    }

    #[test]
    fn owner_opt_persists_owned_lines_via_lflush() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 8));
        let node = f.node(MEM); // issuer owns the line
        let x = Loc::new(MEM, 0);
        let p = Flit::new(FlitPolicy::OWNER_OPT);
        p.shared_store(&node, x, 5, true).unwrap();
        assert_eq!(f.peek_memory(x), 5);
        // And it used an LFlush, not an RFlush:
        let s = f.stats().snapshot();
        assert_eq!(s.lflushes, 1);
        assert_eq!(s.rflushes, 0);
    }

    #[test]
    fn naive_mstore_persists_without_flushes() {
        let (f, node, x) = setup();
        let p = Flit::new(FlitPolicy::NAIVE_MSTORE);
        p.shared_store(&node, x, 3, true).unwrap();
        assert_eq!(f.peek_memory(x), 3);
        assert_eq!(f.stats().snapshot().flushes(), 0);
        assert_eq!(f.stats().snapshot().mstores, 1);
    }

    #[test]
    fn reader_helps_when_counter_positive() {
        let (f, node, x) = setup();
        let p = Flit::new(FlitPolicy::CXL0);
        // Simulate an in-flight store: counter raised, value unflushed.
        p.table().enter(x);
        node.lstore(x, 7).unwrap();
        let v = p.shared_load(&node, x, true).unwrap();
        assert_eq!(v, 7);
        // The reader flushed on our behalf.
        assert_eq!(f.peek_memory(x), 7);
        p.table().exit(x);
        // Counter back at zero: subsequent loads don't flush.
        let before = f.stats().snapshot().rflushes;
        p.shared_load(&node, x, true).unwrap();
        assert_eq!(f.stats().snapshot().rflushes, before);
    }

    #[test]
    fn shared_cas_persists_installed_value() {
        let (f, node, x) = setup();
        let p = Flit::new(FlitPolicy::CXL0);
        assert_eq!(p.shared_cas(&node, x, 0, 4, true).unwrap(), Ok(0));
        assert_eq!(f.peek_memory(x), 4);
        assert_eq!(p.shared_cas(&node, x, 0, 5, true).unwrap(), Err(4));
    }

    #[test]
    fn shared_faa_persists_and_returns_previous() {
        let (f, node, x) = setup();
        let p = Flit::new(FlitPolicy::CXL0);
        assert_eq!(p.shared_faa(&node, x, 2, true).unwrap(), 0);
        assert_eq!(p.shared_faa(&node, x, 2, true).unwrap(), 2);
        assert_eq!(f.peek_memory(x), 4);
    }

    #[test]
    fn flit_table_striping_aliases() {
        let t = FlitTable::new(1);
        assert_eq!(t.stripes(), 1);
        let a = Loc::new(MachineId(0), 0);
        let b = Loc::new(MachineId(1), 7);
        t.enter(a);
        // With a single stripe, b aliases a:
        assert!(t.in_flight(b));
        t.exit(a);
        assert!(!t.in_flight(b));
    }

    #[test]
    fn complete_op_is_a_no_op_for_cxl0_flit() {
        let (f, node, _x) = setup();
        let p = Flit::new(FlitPolicy::CXL0);
        assert!(p.complete_op(&node).is_ok());
        assert_eq!(f.stats().snapshot().total_ops(), 0);
    }

    #[test]
    fn strategies_report_names() {
        let names = [
            (FlitPolicy::CXL0, "flit-cxl0"),
            (FlitPolicy::OWNER_OPT, "flit-owner-opt"),
            (FlitPolicy::X86, "flit-x86"),
            (FlitPolicy::ASYNC, "flit-async"),
            (FlitPolicy::NAIVE_MSTORE, "naive-mstore"),
            (FlitPolicy::NONE, "none"),
        ];
        for (policy, name) in names {
            assert_eq!(Flit::new(policy).name(), name);
        }
    }

    #[test]
    fn acks_follow_successful_flagged_writes_only() {
        use crate::trace::{OpKind, TraceConfig, Tracer};
        // Persist acks of one span: store + CAS hit + CAS miss + FAA +
        // private store, all flagged, then the same five unflagged.
        let acks = |policy| {
            let (f, node, x) = setup();
            let tracer = std::sync::Arc::new(Tracer::new(TraceConfig::default()));
            f.install_tracer(std::sync::Arc::clone(&tracer));
            let p = Flit::new(policy);
            let span = node.trace_span(OpKind::Get);
            for pflag in [true, false] {
                p.shared_store(&node, x, 1, pflag).unwrap();
                assert!(p.shared_cas(&node, x, 1, 2, pflag).unwrap().is_ok());
                assert!(p.shared_cas(&node, x, 1, 3, pflag).unwrap().is_err());
                p.shared_faa(&node, x, 1, pflag).unwrap();
                p.private_store(&node, x, 5, pflag).unwrap();
            }
            drop(span);
            tracer.events()[0].persist_acks
        };
        // The failed CAS flushes (a help) but claims nothing: 4, not 5.
        for policy in [
            FlitPolicy::CXL0,
            FlitPolicy::OWNER_OPT,
            FlitPolicy::X86,
            FlitPolicy::ASYNC,
        ] {
            assert_eq!(acks(policy), 4, "{}", policy.name);
        }
        // Policies that never flush never ack.
        assert_eq!(acks(FlitPolicy::NAIVE_MSTORE), 0);
        assert_eq!(acks(FlitPolicy::NONE), 0);
    }

    #[test]
    fn counter_is_lowered_when_the_issuer_crashes_mid_store() {
        // Every policy, crashed stores included: a failed flagged write
        // must not leave its counter raised.
        for policy in [FlitPolicy::CXL0, FlitPolicy::ASYNC] {
            let (f, node, x) = setup();
            let p = Flit::new(policy);
            f.crash(M0);
            assert!(p.shared_store(&node, x, 1, true).is_err());
            assert!(p.shared_cas(&node, x, 0, 1, true).is_err());
            assert!(p.shared_faa(&node, x, 1, true).is_err());
            assert!(!p.table().in_flight(x), "{}", policy.name);
        }
    }
}
