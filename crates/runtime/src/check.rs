//! # Persistency sanitizer: durability checking beside the fabric
//!
//! An always-compiled, opt-in analysis that follows every store, flush,
//! barrier and crash the [`SimFabric`] executes and
//! reports violations of the discipline §6's durable-linearizability
//! transformation relies on. Where the example-based crash tests can
//! only catch a missing flush if a particular interleaving happens to
//! hit it, the sanitizer turns "this suite passed" into "no durability
//! race occurred on any executed path".
//!
//! ## Per-cell state
//!
//! Per **cell** the checker follows the persist state machine the FliT
//! strategies step through:
//!
//! ```text
//! clean ──store──▶ dirty ──aflush──▶ flush-pending ──barrier/τ──▶ persisted
//!   ▲                │                                               │
//!   └──── flush (LFlush-by-owner / RFlush / MStore) ─────────────────┘
//! ```
//!
//! It reads that state from the fabric's own cell — *dirty* while some
//! cache holds a value its owner's memory does not (`holders ≠ ∅ ∧
//! cache ≠ mem`) — and keeps only its conclusions in arrays of its own,
//! allocated when it is installed and indexed by the cell's slab index:
//! a flag byte per cell (dirty when its last hook settled, at risk,
//! lost) and, beside it, the value an acknowledgement put *at risk* and
//! the value a crash *lost*. An unarmed fabric carries no marks at all.
//! Per block it
//! keeps a *durable-reachability* bit — seeded from the named-root
//! registry, propagated through persisted pointer words — and the SMR
//! lifecycle (live → retired → reclaimed).
//!
//! ## Violation classes
//!
//! * [`ViolationClass::DurabilityRace`] — a block becomes durably
//!   reachable (a link persist publishes it, or a root names it) while
//!   one of its cells is still dirty: a crash at that instant loses
//!   payload that recovery can reach.
//! * [`ViolationClass::UnpersistedReadAtRecovery`] — a persistence
//!   strategy *acknowledged* an operation whose store never physically
//!   reached the owner's memory, the crash destroyed the only cached
//!   copy, and recovery then read the stale cell. This is exactly the §6
//!   unsoundness of the unadapted x86 FliT
//!   ([`FlitPolicy::X86`](crate::FlitPolicy::X86)): a local flush by a non-owner only
//!   moves the line to the owner's cache. Sound modes never trip it.
//! * [`ViolationClass::UseAfterRetire`] — a thread touches a block after
//!   [`SmrGuard::retire`](crate::smr::SmrGuard::retire) without being
//!   pinned in a protecting epoch, or touches a *reclaimed* block while
//!   pinned (the epoch domain's grace guarantee was violated — e.g. the
//!   block was freed inline instead of retired).
//!
//! ## Using it
//!
//! Enable per cluster with
//! [`ClusterBuilder::with_checker`](crate::api::ClusterBuilder::with_checker),
//! or globally with `CXL0_SANITIZE=1` in the environment (as CI's
//! `sanitize` job does), which additionally panics on the first violation
//! in sound persist modes. Violation counts surface in
//! [`StatsSnapshot`](crate::StatsSnapshot); full reports via
//! [`Checker::violations`]. See `docs/SANITIZER.md` for the recipe.
//!
//! ## Precision notes
//!
//! Every per-cell hook runs under that cell's writer lock and reads and
//! marks the cell through it, so per-cell event order is exact. Pins are
//! read from the SMR domain's own epoch slot at each access, so the
//! checker judges by the pin the domain acts on, and a recovery that
//! clears the slots unpins the dead threads for both. The
//! checker's one lock covers block lifecycles only; hooks on cells
//! outside the allocator region never take it, and it is never held
//! while waiting on a cell: a publication reads the block's other cells
//! with single atomic loads (lock order: cell → checker). A barrier
//! lands each persist under its line's lock and judges publications
//! after the whole batch, so drain order within a batch cannot fabricate
//! a race. Pointer words are recognized by their exact encoding *and*
//! block generation; generations are seeded nonzero per block (see
//! [`crate::alloc`]), so small application scalars can never
//! masquerade as published pointers. A dirty *hint* in a reachable
//! block — the queue's tail, swung at `RStore` strength and never
//! flushed — is no race: nothing is published through it, since every
//! block it can name is already reachable from the durable head.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::{Mutex, RwLock};

use cxl0_model::{Loc, MachineId};

use crate::alloc::layout::{decode_addr, decode_gen};
use crate::backend::{CellGuard, LocCell, SimFabric};
use crate::smr::SmrDomain;

/// Which checks are armed and how violations are delivered.
///
/// Unpersisted reads at recovery and use-after-retire are always
/// checked: the first is driven purely by strategy acknowledgements, so
/// strategies that promise nothing trip nothing, and the second by the
/// SMR domain's pins.
///
/// [`ClusterBuilder::build`](crate::api::ClusterBuilder::build) derives
/// the right configuration from the cluster's
/// [`PersistMode`](crate::api::PersistMode); construct one directly only
/// to override that (e.g. to record violations a test expects).
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Detect durability races (publication of a dirty block). Arm only
    /// under strict per-operation persistence: buffered modes legally
    /// persist whole epochs out of publication order.
    pub durability_races: bool,
    /// Panic on the first violation instead of only recording it. What
    /// `CXL0_SANITIZE=1` sets for sound modes so suites fail loudly.
    pub fail_fast: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            durability_races: true,
            fail_fast: false,
        }
    }
}

/// The three violation classes the sanitizer reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationClass {
    /// A block became durably reachable while one of its cells was dirty.
    DurabilityRace,
    /// Recovery read a cell whose acknowledged persist never completed.
    UnpersistedReadAtRecovery,
    /// A block was accessed after retirement outside a protecting epoch.
    UseAfterRetire,
}

impl ViolationClass {
    fn name(self) -> &'static str {
        match self {
            ViolationClass::DurabilityRace => "durability-race",
            ViolationClass::UnpersistedReadAtRecovery => "unpersisted-read-at-recovery",
            ViolationClass::UseAfterRetire => "use-after-retire",
        }
    }
}

impl fmt::Display for ViolationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded violation, with thread/op provenance where known.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violation class.
    pub class: ViolationClass,
    /// The cell the violation was detected at.
    pub loc: Loc,
    /// The machine whose operation tripped the check (`None` for fabric
    /// background activity such as the τ drain).
    pub machine: Option<MachineId>,
    /// The issuing thread's rail slot (`None` for background activity).
    pub thread_slot: Option<usize>,
    /// Human-readable description of what happened.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at {}", self.class, self.loc)?;
        match (self.machine, self.thread_slot) {
            (Some(m), Some(t)) => write!(f, " by {m} (thread slot {t})")?,
            (Some(m), None) => write!(f, " by {m}")?,
            _ => write!(f, " by fabric background activity")?,
        }
        write!(f, ": {}", self.detail)
    }
}

/// The checker's conclusions about one cell: a view into the two
/// arrays of [`Attached`] at the cell's slab index. Written only under
/// the cell's writer lock; other cells' hooks read `flags` with one
/// atomic load.
#[derive(Clone, Copy)]
struct CellMarks<'a> {
    /// [`DIRTY`] (dirty when the last hook settled), [`AT_RISK`], [`LOST`].
    flags: &'a AtomicU8,
    /// `[at_risk, lost]`. Under [`AT_RISK`]: the value an
    /// acknowledgement promised durable before it physically completed.
    /// Under [`LOST`]: an acknowledged value a crash destroyed the only
    /// copy of; the next read of the cell reports it.
    values: &'a [AtomicU64; 2],
}

const DIRTY: u8 = 1;
const AT_RISK: u8 = 2;
const LOST: u8 = 4;

impl CellMarks<'_> {
    fn flags(self) -> u8 {
        self.flags.load(Ordering::Acquire)
    }

    fn set_flags(self, new: u8) {
        self.flags.store(new, Ordering::Release);
    }

    fn at_risk(self) -> Option<u64> {
        (self.flags() & AT_RISK != 0).then(|| self.values[0].load(Ordering::Relaxed))
    }

    fn set_at_risk(self, v: u64) {
        self.values[0].store(v, Ordering::Relaxed);
    }

    fn lost(self) -> Option<u64> {
        (self.flags() & LOST != 0).then(|| self.values[1].load(Ordering::Relaxed))
    }

    fn set_lost(self, v: u64) {
        self.values[1].store(v, Ordering::Relaxed);
    }
}

/// Whether the locked cell is dirty: a cache holds a value its owner's
/// memory does not.
fn dirty(st: &CellGuard<'_>) -> bool {
    let c = st.get();
    c.holders != 0 && c.cache != c.mem
}

/// SMR lifecycle of an allocator block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BlockState {
    Live,
    Retired,
    Freed,
}

/// Shadow of one allocator block, keyed by its payload base address.
#[derive(Debug, Clone, Copy)]
struct BlockShadow {
    cells: u32,
    gen: u64,
    state: BlockState,
    /// Durably reachable from a named root (sticky until freed).
    reach: bool,
    retire_epoch: u64,
}

/// Blocks by payload base address (single allocator region).
type Blocks = BTreeMap<u32, BlockShadow>;

/// Cap on retained full violation reports (counters keep exact totals).
const MAX_REPORTS: usize = 64;

/// The persistency checker. See the [module docs](self).
///
/// Created by
/// [`ClusterBuilder::with_checker`](crate::api::ClusterBuilder::with_checker)
/// (or `CXL0_SANITIZE=1`) and installed on the fabric, through which
/// the allocator, the SMR domain and the root registry reach it. All
/// hook methods are crate-internal; the public surface is configuration
/// and reporting.
pub struct Checker {
    cfg: CheckConfig,
    /// The fabric the checker is installed on and the marks of its
    /// cells, set together by [`SimFabric::install_checker`].
    attached: OnceLock<Attached>,
    /// The SMR domain whose epoch slots say which threads are pinned.
    /// Without one, every access counts as unpinned.
    smr: OnceLock<Arc<SmrDomain>>,
    /// The machine hosting the allocator region, learned at first alloc.
    region: OnceLock<MachineId>,
    /// Block lifecycles, behind the checker's one lock. It is never held
    /// across a primitive or while waiting on a cell.
    blocks: RwLock<Blocks>,
    races: AtomicU64,
    unpersisted: AtomicU64,
    uar: AtomicU64,
    reports: Mutex<Vec<Violation>>,
}

/// What a checker learns when it is installed.
struct Attached {
    /// The fabric whose cells [`Checker::fingerprint`] reads and whose
    /// tracer, when one is installed, receives every report as an
    /// instant event.
    fabric: Weak<SimFabric>,
    /// Per cell of the fabric's slab, at its slab index
    /// ([`SimFabric::slot`]): the flags of its [`CellMarks`]. One byte
    /// each, so the array every hook reads stays dense in the host cache.
    flags: Box<[AtomicU8]>,
    /// The values of each cell's [`CellMarks`], read only under the
    /// flag that names them.
    values: Box<[[AtomicU64; 2]]>,
}

impl fmt::Debug for Checker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Checker")
            .field("cfg", &self.cfg)
            .field("durability_races", &self.durability_races())
            .field("unpersisted_reads", &self.unpersisted_reads())
            .field("use_after_retire", &self.use_after_retire())
            .finish_non_exhaustive()
    }
}

impl Checker {
    /// Creates a checker with the given configuration.
    pub fn new(cfg: CheckConfig) -> Self {
        Checker {
            cfg,
            attached: OnceLock::new(),
            smr: OnceLock::new(),
            region: OnceLock::new(),
            blocks: RwLock::new(BTreeMap::new()),
            races: AtomicU64::new(0),
            unpersisted: AtomicU64::new(0),
            uar: AtomicU64::new(0),
            reports: Mutex::new(Vec::new()),
        }
    }

    /// Records the fabric the checker was installed on (by
    /// [`SimFabric::install_checker`]) and allocates the marks of its
    /// `cells` cells.
    ///
    /// # Panics
    ///
    /// Panics if the checker is already installed on a fabric.
    pub(crate) fn attach(&self, fabric: Weak<SimFabric>, cells: usize) {
        let attached = Attached {
            fabric,
            flags: (0..cells).map(|_| AtomicU8::new(0)).collect(),
            values: (0..cells).map(|_| Default::default()).collect(),
        };
        assert!(
            self.attached.set(attached).is_ok(),
            "a checker serves one fabric"
        );
    }

    /// The marks of the cell at slab index `slot`. Hooks run only on the
    /// fabric the checker is installed on, so the marks exist.
    fn marks(&self, slot: usize) -> CellMarks<'_> {
        let attached = self.attached.get().expect("hooks run once installed");
        CellMarks {
            flags: &attached.flags[slot],
            values: &attached.values[slot],
        }
    }

    /// The installed fabric, while it lives.
    fn fabric(&self) -> Option<Arc<SimFabric>> {
        self.attached.get().and_then(|a| a.fabric.upgrade())
    }

    /// How many cells carry marks: the installed fabric's slab, or 0.
    #[cfg(test)]
    pub(crate) fn marked_cells(&self) -> usize {
        self.attached.get().map_or(0, |a| a.flags.len())
    }

    /// Judges use-after-retire by the pins of `smr`, the one domain the
    /// allocator's traversal structures retire through. First link wins.
    pub(crate) fn attach_smr(&self, smr: Arc<SmrDomain>) {
        let _ = self.smr.set(smr);
    }

    /// The active configuration.
    pub fn config(&self) -> CheckConfig {
        self.cfg
    }

    /// Number of durability races detected.
    pub fn durability_races(&self) -> u64 {
        self.races.load(Ordering::Relaxed)
    }

    /// Number of unpersisted-read-at-recovery violations detected.
    pub fn unpersisted_reads(&self) -> u64 {
        self.unpersisted.load(Ordering::Relaxed)
    }

    /// Number of use-after-retire violations detected.
    pub fn use_after_retire(&self) -> u64 {
        self.uar.load(Ordering::Relaxed)
    }

    /// Total violations across all classes.
    pub fn total_violations(&self) -> u64 {
        self.durability_races() + self.unpersisted_reads() + self.use_after_retire()
    }

    /// The recorded violation reports (the first `MAX_REPORTS` of them;
    /// counters keep exact totals beyond that).
    pub fn violations(&self) -> Vec<Violation> {
        self.reports.lock().clone()
    }

    /// A deterministic digest of the persist-relevant state: per cell
    /// not in its initial state, `(mem, dirty, at-risk, lost)`, and per
    /// block lifecycle + reachability. Two execution points with equal
    /// fingerprints are indistinguishable to a crash, which is what the
    /// crash-point enumerator deduplicates on.
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        // Cells first, with no checker lock held: a seqlock read may wait.
        if let Some(fabric) = self.fabric() {
            fabric.each_cell(|slot, loc, cell| {
                let c = cell.read();
                let marks = self.marks(slot);
                let state = (
                    c.mem.0,
                    c.holders != 0 && c.cache != c.mem,
                    marks.at_risk(),
                    marks.lost(),
                );
                if state != (0, false, None, None) {
                    (loc.owner.index(), loc.addr.0, state).hash(&mut h);
                }
            });
        }
        for (base, b) in self.blocks.read().iter() {
            (base, b.gen, b.state, b.reach).hash(&mut h);
        }
        h.finish()
    }

    fn report(
        &self,
        class: ViolationClass,
        loc: Loc,
        who: Option<(MachineId, usize)>,
        detail: String,
    ) {
        match class {
            ViolationClass::DurabilityRace => &self.races,
            ViolationClass::UnpersistedReadAtRecovery => &self.unpersisted,
            ViolationClass::UseAfterRetire => &self.uar,
        }
        .fetch_add(1, Ordering::Relaxed);
        let v = Violation {
            class,
            loc,
            machine: who.map(|(m, _)| m),
            thread_slot: who.map(|(_, t)| t),
            detail,
        };
        let mut reports = self.reports.lock();
        if reports.len() < MAX_REPORTS {
            reports.push(v.clone());
        }
        drop(reports);
        if let Some(fabric) = self.fabric() {
            if let Some(tr) = fabric.tracer() {
                tr.violation(class.name(), loc, who, &v.detail);
            }
        }
        if self.cfg.fail_fast {
            panic!("persistency sanitizer: {v}");
        }
    }

    // ---- fabric hooks ---------------------------------------------------

    /// An application read of `cell` at `loc` (slab index `slot`). A
    /// read of a cell whose acknowledged value a crash lost reports it,
    /// once.
    pub(crate) fn on_load(&self, who: (MachineId, usize), loc: Loc, slot: usize, cell: &LocCell) {
        self.check_retire(who, loc, "load");
        let marks = self.marks(slot);
        if marks.flags() & LOST == 0 {
            return;
        }
        let st = cell.lock();
        let Some(v) = marks.lost() else { return };
        marks.set_flags(marks.flags() & !LOST);
        let mem = st.get().mem;
        drop(st);
        self.report(
            ViolationClass::UnpersistedReadAtRecovery,
            loc,
            Some(who),
            format!(
                "read of a cell whose acknowledged persist (value {v}) was lost in a \
                 crash; memory still holds {mem}"
            ),
        );
    }

    /// A mutation of the locked cell `st` at `loc` (slab index `slot`)
    /// settled, replacing memory word `old_mem`. Called for stores, RMWs,
    /// flush drains and τ moves alike; `who` is `None` for fabric
    /// background activity.
    pub(crate) fn on_mutate(
        &self,
        fabric: &SimFabric,
        who: Option<(MachineId, usize)>,
        loc: Loc,
        slot: usize,
        old_mem: u64,
        st: &CellGuard<'_>,
    ) {
        if let Some(w) = who {
            self.check_retire(w, loc, "store");
        }
        if self.settle(slot, st, old_mem) {
            self.publish(fabric, who, &[(loc, st.get().mem.0)]);
        }
    }

    /// Updates the marks of the locked cell `st` (slab index `slot`)
    /// after a mutation that replaced memory word `old_mem`, and says
    /// whether its memory changed. Any settled mutation supersedes a
    /// crash-lost value; a clean cell has nothing at risk.
    pub(crate) fn settle(&self, slot: usize, st: &CellGuard<'_>, old_mem: u64) -> bool {
        let marks = self.marks(slot);
        let at_risk = marks.flags() & AT_RISK;
        marks.set_flags(if dirty(st) { DIRTY | at_risk } else { 0 });
        st.get().mem.0 != old_mem
    }

    /// Memory words of the allocator region settled to new values (one
    /// store, or a whole barrier batch): judge the publications they
    /// make, once every persist of the batch has landed.
    pub(crate) fn publish(
        &self,
        fabric: &SimFabric,
        who: Option<(MachineId, usize)>,
        changed: &[(Loc, u64)],
    ) {
        let region = self.region.get();
        if !self.cfg.durability_races || changed.iter().all(|(l, _)| Some(&l.owner) != region) {
            return;
        }
        let mut g = self.blocks.write();
        for &(loc, word) in changed {
            // A current-generation pointer to a live unreached block,
            // settled into a durably-reachable block, publishes it.
            let in_reach = Some(&loc.owner) == region
                && g.range(..=loc.addr.0)
                    .next_back()
                    .is_some_and(|(&base, b)| loc.addr.0 < base + b.cells && b.reach);
            if let Some(base) = Self::pointee(&g, word).filter(|_| in_reach) {
                self.publish_block(fabric, &mut g, who, loc, base);
            }
        }
    }

    /// A persistence strategy acknowledged an operation on `cell` (slab
    /// index `slot`) as durable. If the cell is still dirty, the promised
    /// value is recorded *at risk*: a crash that destroys the cached copy
    /// before it drains turns it into a lost value.
    pub(crate) fn on_ack(&self, slot: usize, cell: &LocCell) {
        let st = &cell.lock();
        let marks = self.marks(slot);
        let risk = if dirty(st) {
            marks.set_at_risk(st.get().cache.0);
            AT_RISK
        } else {
            0
        };
        marks.set_flags(marks.flags() & !AT_RISK | risk);
    }

    /// A crash just happened (called with the fabric halted, for every
    /// cell with its slab index `slot`): settle the cell's dirty mark
    /// against what the crash left and resolve an at-risk value. An
    /// uncached cell with no marks has nothing to settle.
    pub(crate) fn on_crash(&self, slot: usize, cell: &LocCell) {
        let marks = self.marks(slot);
        if marks.flags() == 0 && cell.read().holders == 0 {
            return;
        }
        let st = &cell.lock();
        let mut now = marks.flags() & (AT_RISK | LOST) | if dirty(st) { DIRTY } else { 0 };
        if let Some(v) = marks.at_risk() {
            let c = st.get();
            if c.mem.0 == v {
                // Persisted after all (e.g. a τ drain beat the crash).
                now &= !AT_RISK;
            } else if c.holders != 0 && c.cache.0 == v {
                // A surviving cache still holds it; it may yet drain.
            } else {
                marks.set_lost(v);
                now = now & !AT_RISK | LOST;
            }
        }
        marks.set_flags(now);
    }

    // ---- allocator / registry hooks -------------------------------------

    /// A block was handed out: (re)register its span and generation.
    pub(crate) fn on_alloc(&self, loc: Loc, cells: u32, gen: u64) {
        self.region.get_or_init(|| loc.owner);
        self.blocks.write().insert(
            loc.addr.0,
            BlockShadow {
                cells,
                gen,
                state: BlockState::Live,
                reach: false,
                retire_epoch: 0,
            },
        );
    }

    /// A block returned to its free list (directly or via SMR reclaim).
    pub(crate) fn on_free(&self, loc: Loc) {
        let mut g = self.blocks.write();
        if let Some(b) = g.get_mut(&loc.addr.0) {
            b.state = BlockState::Freed;
            b.reach = false;
        }
    }

    /// A block entered the SMR limbo list at `epoch`.
    pub(crate) fn on_retire(&self, loc: Loc, epoch: u64) {
        let mut g = self.blocks.write();
        if let Some(b) = g.get_mut(&loc.addr.0) {
            if b.state == BlockState::Live {
                b.state = BlockState::Retired;
                b.retire_epoch = epoch;
            }
        }
    }

    /// A named root was committed or looked up: the block holding
    /// `header` is durably reachable, as is everything its persisted
    /// payload points to.
    pub(crate) fn add_root(&self, fabric: &SimFabric, header: Loc) {
        let mut g = self.blocks.write();
        if g.contains_key(&header.addr.0) {
            self.publish_block(fabric, &mut g, None, header, header.addr.0);
        }
    }

    // ---- internals ------------------------------------------------------

    /// Use-after-retire rules for an application access to `loc`.
    ///
    /// Header cells are exempt (the allocator's free-list links live
    /// there); so are unpinned accesses to freed blocks (the
    /// counted-pointer structures read freed cells and discard the value
    /// under a generation-checked CAS — see [`crate::alloc`]). What must
    /// never happen: touching a *retired* block without a pin old enough
    /// to protect it, or touching a *freed* block while pinned — the
    /// epoch domain's grace guarantee says a pinned thread can still
    /// hold references only to blocks whose reclamation is deferred.
    fn check_retire(&self, who: (MachineId, usize), loc: Loc, what: &str) {
        if self.region.get() != Some(&loc.owner) {
            return;
        }
        let g = self.blocks.read();
        let Some((&base, b)) = g.range(..=loc.addr.0).next_back() else {
            return;
        };
        if loc.addr.0 >= base + b.cells {
            return;
        }
        let pinned = self.smr.get().and_then(|smr| smr.pinned_epoch(who.1));
        let retired = b.retire_epoch;
        let why = match (b.state, pinned) {
            (BlockState::Retired, None) => {
                format!("retired at epoch {retired} by a thread holding no epoch pin")
            }
            (BlockState::Retired, Some(epoch)) if epoch > retired + 1 => {
                format!("retired at epoch {retired} by a thread pinned too late (epoch {epoch})")
            }
            (BlockState::Freed, Some(epoch)) => format!(
                "reclaimed, by a thread pinned at epoch {epoch} — the block was reclaimed \
                 before its grace period"
            ),
            _ => return,
        };
        let detail = format!("{what} of block @{base} (gen {}) {why}", b.gen);
        drop(g);
        self.report(ViolationClass::UseAfterRetire, loc, Some(who), detail);
    }

    /// The payload base `word` points to, iff `word` is exactly a
    /// current-generation pointer to a live block. Generations are
    /// seeded nonzero per block, so application scalars (whose bits
    /// 34..54 are zero for any value < 2³⁴) never alias. Bits 62/63
    /// (null tag, deletion mark) disqualify a word: a marked link never
    /// publishes anything its unmarked predecessor didn't.
    fn pointee(g: &Blocks, word: u64) -> Option<u32> {
        if word >> 62 != 0 {
            return None;
        }
        let base = decode_addr(word)?;
        let b = g.get(&base)?;
        (b.state == BlockState::Live && !b.reach && b.gen == decode_gen(word)).then_some(base)
    }

    /// Marks the block at `base` durably reachable, reports any dirty
    /// cell in it (the durability race), and chases persisted pointer
    /// words in its payload. Reads each cell of the region (`source`'s
    /// machine) with single atomic loads: it never waits on a cell.
    fn publish_block(
        &self,
        fabric: &SimFabric,
        g: &mut Blocks,
        who: Option<(MachineId, usize)>,
        source: Loc,
        base: u32,
    ) {
        let mut work = vec![base];
        while let Some(base) = work.pop() {
            let Some(b) = g.get_mut(&base) else {
                continue;
            };
            if b.reach || b.state == BlockState::Freed {
                continue;
            }
            b.reach = true;
            let (cells, gen) = (b.cells, b.gen);
            for a in base..base + cells {
                let loc = Loc::new(source.owner, a);
                let word = fabric.mem_now(loc);
                if self.cfg.durability_races && self.marks(fabric.slot(loc)).flags() & DIRTY != 0 {
                    self.report(
                        ViolationClass::DurabilityRace,
                        loc,
                        who,
                        format!(
                            "block @{base} (gen {gen}) became durably reachable via {source} \
                             while this cell is dirty (memory {word}): a crash here loses \
                             acknowledged payload that recovery can reach"
                        ),
                    );
                }
                if let Some(next) = Self::pointee(g, word) {
                    work.push(next);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::layout::ptr_word;
    use crate::alloc::Allocator;
    use crate::backend::{NodeHandle, SimFabric};
    use crate::flit::{Flit, FlitPolicy};
    use crate::smr::SmrDomain;
    use cxl0_model::SystemConfig;

    /// The memory node: owner of every cell the tests touch.
    const M: MachineId = MachineId(1);

    fn loc(a: u32) -> Loc {
        Loc::new(M, a)
    }

    /// A two-machine NVM fabric with a checker installed, and a handle
    /// on the compute machine 0.
    fn armed(cfg: CheckConfig) -> (Arc<SimFabric>, Arc<Checker>, NodeHandle) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 64));
        let ck = Arc::new(Checker::new(cfg));
        f.install_checker(Arc::clone(&ck));
        let node = f.node(MachineId(0));
        (f, ck, node)
    }

    fn checked() -> (Arc<SimFabric>, Arc<Checker>, NodeHandle) {
        armed(CheckConfig::default())
    }

    /// [`checked`] over a larger memory node, plus an allocator and the
    /// SMR domain whose pins the checker judges accesses by.
    fn with_smr() -> (
        Arc<SimFabric>,
        Arc<Checker>,
        Arc<Allocator>,
        Arc<SmrDomain>,
        NodeHandle,
    ) {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(2, 4096));
        let ck = Arc::new(Checker::new(CheckConfig::default()));
        f.install_checker(Arc::clone(&ck));
        let persist = Arc::new(Flit::new(FlitPolicy::CXL0));
        let alloc = Arc::new(Allocator::over_region(f.config(), M, persist));
        let smr = Arc::new(SmrDomain::new(Arc::clone(&alloc)));
        ck.attach_smr(Arc::clone(&smr));
        let node = f.node(MachineId(0));
        (f, ck, alloc, smr, node)
    }

    /// A publication of a fully-persisted block is silent; the same
    /// publication with one dirty cell is a durability race.
    #[test]
    fn publication_of_dirty_block_is_a_race() {
        let (_f, ck, node) = checked();
        // Root block (header) @10, 2 cells; node block @20, 2 cells.
        node.check_alloc(loc(10), 2, 5);
        node.check_alloc(loc(20), 2, 7);
        // Node payload: value persisted, link persisted.
        node.mstore(loc(20), 42).unwrap();
        node.mstore(loc(21), 9).unwrap();
        // Root registered: reach seeds from the header block.
        node.check_add_root(loc(10));
        assert_eq!(ck.durability_races(), 0);
        // Link in the root block persists a pointer to the node: clean.
        node.mstore(loc(10), ptr_word(20, 7)).unwrap();
        assert_eq!(ck.durability_races(), 0);

        // Now a second node whose value never persisted...
        let (_f, ck, node) = checked();
        node.check_alloc(loc(10), 2, 5);
        node.check_alloc(loc(20), 2, 7);
        // Dirty value: held in a cache, memory stale.
        node.lstore(loc(20), 42).unwrap();
        node.check_add_root(loc(10));
        node.mstore(loc(10), ptr_word(20, 7)).unwrap();
        assert_eq!(ck.durability_races(), 1);
        let v = &ck.violations()[0];
        assert_eq!(v.class, ViolationClass::DurabilityRace);
        assert_eq!(v.loc, loc(20), "blamed at the dirty cell");
    }

    /// Scalars whose generation bits are zero never alias a pointer
    /// (generations are seeded nonzero), and stale-generation pointers
    /// do not publish.
    #[test]
    fn scalars_and_stale_pointers_do_not_publish() {
        let (_f, ck, node) = checked();
        node.check_alloc(loc(10), 1, 3);
        node.check_alloc(loc(20), 2, 7);
        node.lstore(loc(20), 1).unwrap(); // dirty
        node.check_add_root(loc(10));
        // A scalar that happens to decode to address 20 but carries gen 0.
        node.mstore(loc(10), 21).unwrap();
        assert_eq!(ck.durability_races(), 0);
        // A stale-generation pointer to the same block.
        node.mstore(loc(10), ptr_word(20, 6)).unwrap();
        assert_eq!(ck.durability_races(), 0);
    }

    /// An acknowledged-but-unpersisted value whose only cached copy dies
    /// in the crash fires on the next read; a drained value does not.
    #[test]
    fn lost_ack_fires_on_recovery_read() {
        let (f, ck, node) = checked();
        // A non-owner's local flush settles the store into the owner's
        // cache only (the FlitX86 shape), and the strategy acks it.
        node.lstore(loc(5), 7).unwrap();
        node.lflush(loc(5)).unwrap();
        node.ack_persist(loc(5));
        // Crash the owner; its memory is NVM (not zeroed).
        f.crash(M);
        f.recover(M);
        assert_eq!(node.load(loc(5)).unwrap(), 0);
        assert_eq!(ck.unpersisted_reads(), 1);
        // Fires once per lost value.
        node.load(loc(5)).unwrap();
        assert_eq!(ck.unpersisted_reads(), 1);

        let (f, ck, node) = checked();
        node.lstore(loc(5), 7).unwrap();
        // Drain before the ack: clean, nothing at risk.
        node.rflush(loc(5)).unwrap();
        node.ack_persist(loc(5));
        f.crash(M);
        f.recover(M);
        assert_eq!(node.load(loc(5)).unwrap(), 7);
        assert_eq!(ck.unpersisted_reads(), 0);
    }

    /// Marks sit at the cell's slab index, past the extents of the
    /// machines before its owner: a lost ack on a cell of machine 2 is
    /// reported on that cell's recovery read and on no other cell — not
    /// at the same address of machines 0 and 1, nor beside it.
    #[test]
    fn lost_ack_is_reported_at_its_cell_on_any_machine() {
        let f = SimFabric::new(SystemConfig::symmetric_nvm(3, 8));
        let ck = Arc::new(Checker::new(CheckConfig::default()));
        f.install_checker(Arc::clone(&ck));
        let node = f.node(MachineId(0));
        let lost = Loc::new(MachineId(2), 5);
        node.lstore(lost, 7).unwrap();
        node.lflush(lost).unwrap();
        node.ack_persist(lost);
        f.crash(MachineId(2));
        f.recover(MachineId(2));
        for l in f.config().all_locations().filter(|&l| l != lost) {
            node.load(l).unwrap();
        }
        assert_eq!(ck.total_violations(), 0, "{:?}", ck.violations());
        assert_eq!(node.load(lost).unwrap(), 0);
        assert_eq!(ck.unpersisted_reads(), 1);
        assert_eq!(ck.violations()[0].loc, lost);
    }

    /// Retired blocks may only be touched under a protecting pin; freed
    /// blocks never by a pinned thread.
    #[test]
    fn retire_lifecycle_rules() {
        let (_f, ck, _alloc, smr, node) = with_smr();
        node.check_alloc(loc(30), 2, 4);
        node.check_retire(loc(30), smr.epoch());
        // Unpinned access to a retired block: violation.
        node.load(loc(31)).unwrap();
        assert_eq!(ck.use_after_retire(), 1);
        // Access under a protecting pin (epoch ≤ retire + 1): fine.
        let guard = smr.pin();
        node.load(loc(31)).unwrap();
        assert_eq!(ck.use_after_retire(), 1);
        drop(guard);
        // Freed block touched by a pinned thread: the seeded inline-free
        // bug's signature.
        node.check_free(loc(30));
        let guard = smr.pin();
        node.load(loc(30)).unwrap();
        assert_eq!(ck.use_after_retire(), 2);
        drop(guard);
        // Unpinned read of a freed cell is the counted-pointer
        // structures' legal pattern.
        node.load(loc(30)).unwrap();
        assert_eq!(ck.use_after_retire(), 2);
    }

    /// A thread that dies pinned holds no pin once the domain recovers:
    /// its slot's next read of the block recovery freed is an unpinned
    /// read, the counted-pointer structures' legal pattern.
    #[test]
    fn recovery_unpins_a_dead_thread() {
        let (f, ck, alloc, smr, node) = with_smr();
        let b = alloc.alloc(&node, 2).unwrap().unwrap();
        let guard = smr.pin();
        guard.retire(&node, b.loc).unwrap();
        // The thread dies mid-operation: its guard never drops.
        std::mem::forget(guard);
        f.crash(MachineId(0));
        f.recover(MachineId(0));
        assert_eq!(smr.recover(&node).unwrap(), 1, "limbo is swept");
        node.load(b.loc).unwrap();
        assert_eq!(ck.total_violations(), 0, "{:?}", ck.violations());
    }

    /// Barrier batches apply persists before publication checks, so a
    /// link and its payload draining in the same barrier are race-free
    /// regardless of drain order.
    #[test]
    fn barrier_batch_orders_persists_before_publications() {
        let (_f, ck, node) = checked();
        node.check_alloc(loc(10), 1, 3);
        node.check_alloc(loc(20), 2, 7);
        node.check_add_root(loc(10));
        // Cache writes: value and the root's link, all pending.
        node.lstore(loc(20), 42).unwrap();
        node.mstore(loc(21), 9).unwrap();
        node.lstore(loc(10), ptr_word(20, 7)).unwrap();
        node.aflush(loc(20)).unwrap();
        node.aflush(loc(10)).unwrap();
        // One barrier retires both — the link's shard drains first.
        assert_eq!(node.barrier().unwrap(), 2);
        assert_eq!(ck.durability_races(), 0);
    }

    #[test]
    fn fingerprint_distinguishes_persist_states() {
        let (_f, ck, node) = checked();
        let f0 = ck.fingerprint();
        node.lstore(loc(5), 7).unwrap();
        let f1 = ck.fingerprint();
        assert_ne!(f0, f1);
        node.rflush(loc(5)).unwrap();
        let f2 = ck.fingerprint();
        assert_ne!(f1, f2);
    }

    #[test]
    #[should_panic(expected = "persistency sanitizer")]
    fn fail_fast_panics() {
        let (_f, _ck, node) = armed(CheckConfig {
            fail_fast: true,
            ..CheckConfig::default()
        });
        node.check_alloc(loc(30), 1, 4);
        node.check_retire(loc(30), 1);
        let _ = node.load(loc(30));
    }
}
