//! # Persistency sanitizer: shadow-state durability checking
//!
//! An always-compiled, opt-in analysis that mirrors every store, flush,
//! barrier and crash the [`SimFabric`](crate::SimFabric) executes and
//! reports violations of the discipline §6's durable-linearizability
//! transformation relies on. Where the example-based crash tests can
//! only catch a missing flush if a particular interleaving happens to
//! hit it, the sanitizer turns "this suite passed" into "no durability
//! race occurred on any executed path".
//!
//! ## Shadow state
//!
//! Per **cell** the checker tracks the persist state machine the FliT
//! strategies step through:
//!
//! ```text
//! clean ──store──▶ dirty ──aflush──▶ flush-pending ──barrier/τ──▶ persisted
//!   ▲                │                                               │
//!   └──── flush (LFlush-by-owner / RFlush / MStore) ─────────────────┘
//! ```
//!
//! concretely as a mirror of `(holders, cache, mem)` — a cell is *dirty*
//! while some cache holds a value its owner's memory does not (`holders ≠
//! ∅ ∧ cache ≠ mem`); `aflush` leaves it dirty-but-pending until a
//! barrier or the fabric's background drain (τ) retires it. On top of the
//! mirror sit a *durable-reachability* bit per block — seeded from the
//! named-root registry and propagated through every persisted pointer
//! word — and the SMR lifecycle (live → retired → reclaimed) per
//! allocator block.
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
//! The checker holds one mutex and is called with the affected cell's
//! seqlock held (lock order: cell → checker; the checker never touches
//! cells), so per-cell event order is exact. Barrier retirement is
//! reported as one batch and applied persists-first, so intra-barrier
//! drain order cannot fabricate a race. One narrow race remains — a
//! store racing a barrier batch can be mirrored before the batch lands —
//! and it can only mark a cell *clean* early: false negatives at worst,
//! never false positives. Pointer words are recognized by their exact
//! encoding *and* block generation; generations are seeded nonzero per
//! block (see [`crate::alloc`]), so small application scalars can never
//! masquerade as published pointers.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use cxl0_model::{Loc, MachineId};

use crate::alloc::layout::{decode_addr, decode_gen};
use crate::backend::RAIL_SLOTS;

/// Which checks are armed and how violations are delivered.
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
    /// Detect reads of cells whose acknowledged persist was lost in a
    /// crash. Driven purely by strategy acknowledgements, so it is safe
    /// to arm everywhere: strategies that promise nothing trip nothing.
    pub unpersisted_reads: bool,
    /// Detect accesses to retired/reclaimed blocks outside a protecting
    /// epoch pin.
    pub use_after_retire: bool,
    /// Panic on the first violation instead of only recording it. What
    /// `CXL0_SANITIZE=1` sets for sound modes so suites fail loudly.
    pub fail_fast: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            durability_races: true,
            unpersisted_reads: true,
            use_after_retire: true,
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

impl fmt::Display for ViolationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationClass::DurabilityRace => write!(f, "durability-race"),
            ViolationClass::UnpersistedReadAtRecovery => {
                write!(f, "unpersisted-read-at-recovery")
            }
            ViolationClass::UseAfterRetire => write!(f, "use-after-retire"),
        }
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

/// Mirror of one cell: the fabric's `(holders, cache, mem)` plus the
/// persist bookkeeping layered on top.
#[derive(Debug, Clone, Copy, Default)]
struct CellShadow {
    holders: u64,
    cache: u64,
    mem: u64,
    /// An acknowledged persist that had not physically completed when
    /// acknowledged: the value the strategy promised durable.
    at_risk: Option<u64>,
    /// A crash destroyed the only copy of an acknowledged value; the
    /// next read of this cell is an unpersisted-read-at-recovery.
    lost: Option<u64>,
}

impl CellShadow {
    fn dirty(&self) -> bool {
        self.holders != 0 && self.cache != self.mem
    }
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

#[derive(Debug, Clone, Copy, Default)]
struct PinShadow {
    depth: u32,
    epoch: u64,
}

/// Mutex-protected shadow of the whole fabric.
#[derive(Debug, Default)]
struct Shadow {
    cells: HashMap<Loc, CellShadow>,
    /// Blocks by payload base address (single allocator region).
    blocks: BTreeMap<u32, BlockShadow>,
    /// The machine hosting the allocator region, learned at first alloc.
    region: Option<MachineId>,
    pins: Vec<PinShadow>,
}

/// Cap on retained full violation reports (counters keep exact totals).
const MAX_REPORTS: usize = 64;

/// The shadow-state persistency checker. See the [module docs](self).
///
/// Created by
/// [`ClusterBuilder::with_checker`](crate::api::ClusterBuilder::with_checker)
/// (or `CXL0_SANITIZE=1`) and shared by the fabric, the allocator, the
/// SMR domain and the root registry. All hook methods are crate-internal;
/// the public surface is configuration and reporting.
pub struct Checker {
    cfg: CheckConfig,
    shadow: Mutex<Shadow>,
    races: AtomicU64,
    unpersisted: AtomicU64,
    uar: AtomicU64,
    reports: Mutex<Vec<Violation>>,
    /// The runtime tracer, when one is co-installed: every report also
    /// lands in the trace as an instant event with provenance.
    trace: OnceLock<Arc<crate::trace::Tracer>>,
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
            shadow: Mutex::new(Shadow {
                pins: vec![PinShadow::default(); RAIL_SLOTS + 1],
                ..Shadow::default()
            }),
            races: AtomicU64::new(0),
            unpersisted: AtomicU64::new(0),
            uar: AtomicU64::new(0),
            reports: Mutex::new(Vec::new()),
            trace: OnceLock::new(),
        }
    }

    /// Mirrors every future violation into `tracer` as an instant trace
    /// event with machine/thread provenance. At most one sink; later
    /// calls are ignored. The cluster layer wires this automatically
    /// when both a checker and a tracer are installed.
    pub fn install_trace_sink(&self, tracer: Arc<crate::trace::Tracer>) {
        let _ = self.trace.set(tracer);
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

    /// A deterministic digest of the persist-relevant shadow state:
    /// per-cell `(mem, dirty, at-risk, lost)` and per-block lifecycle +
    /// reachability. Two execution points with equal fingerprints are
    /// indistinguishable to a crash, which is what the crash-point
    /// enumerator deduplicates on.
    pub fn fingerprint(&self) -> u64 {
        let g = self.shadow.lock();
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let mut cells: Vec<_> = g
            .cells
            .iter()
            .map(|(l, c)| {
                (
                    l.owner.index(),
                    l.addr.0,
                    c.mem,
                    c.dirty(),
                    c.at_risk,
                    c.lost,
                )
            })
            .collect();
        cells.sort_unstable();
        cells.hash(&mut h);
        for (base, b) in &g.blocks {
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
        if let Some(tr) = self.trace.get() {
            let name = match class {
                ViolationClass::DurabilityRace => "durability-race",
                ViolationClass::UnpersistedReadAtRecovery => "unpersisted-read-at-recovery",
                ViolationClass::UseAfterRetire => "use-after-retire",
            };
            tr.violation(name, loc, who, &v.detail);
        }
        if self.cfg.fail_fast {
            panic!("persistency sanitizer: {v}");
        }
    }

    // ---- fabric hooks ---------------------------------------------------

    /// An application read of `loc` (no state transfer mirrored: loads
    /// never change a cell's persist state, and the gateless fast path
    /// must not write the mirror out of order).
    pub(crate) fn on_load(&self, who: (MachineId, usize), loc: Loc) {
        let mut g = self.shadow.lock();
        self.check_retire(&g, Some(who), loc, "load");
        if let Some(cell) = g.cells.get_mut(&loc) {
            if let Some(v) = cell.lost.take() {
                if self.cfg.unpersisted_reads {
                    let mem = cell.mem;
                    drop(g);
                    self.report(
                        ViolationClass::UnpersistedReadAtRecovery,
                        loc,
                        Some(who),
                        format!(
                            "read of a cell whose acknowledged persist (value {v}) was lost \
                             in a crash; memory still holds {mem}"
                        ),
                    );
                }
            }
        }
    }

    /// A mutation of `loc` settled: mirror the post-state. Called with
    /// the cell's seqlock held for stores, RMWs, flush drains and τ
    /// moves alike; `who` is `None` for fabric background activity.
    pub(crate) fn on_mutate(
        &self,
        who: Option<(MachineId, usize)>,
        loc: Loc,
        holders: u64,
        cache: u64,
        mem: u64,
    ) {
        let mut g = self.shadow.lock();
        if let Some(w) = who {
            self.check_retire(&g, Some(w), loc, "store");
        }
        let cell = g.cells.entry(loc).or_default();
        let mem_changed = mem != cell.mem;
        cell.holders = holders;
        cell.cache = cache;
        cell.mem = mem;
        // Any settled mutation supersedes a crash-lost ghost value.
        cell.lost = None;
        if !cell.dirty() {
            cell.at_risk = None;
        }
        if mem_changed {
            self.publish_word(&mut g, who, loc, mem);
        }
    }

    /// A barrier retired a batch of pending flushes. Persists are
    /// mirrored first and publications evaluated against the post-batch
    /// state, so the drain order *within* one barrier can never be
    /// observed as a race.
    pub(crate) fn on_barrier(
        &self,
        who: Option<(MachineId, usize)>,
        items: &[(Loc, u64, u64, u64)],
    ) {
        let mut g = self.shadow.lock();
        let mut changed = Vec::new();
        for &(loc, holders, cache, mem) in items {
            let cell = g.cells.entry(loc).or_default();
            if mem != cell.mem {
                changed.push((loc, mem));
            }
            cell.holders = holders;
            cell.cache = cache;
            cell.mem = mem;
            cell.lost = None;
            if !cell.dirty() {
                cell.at_risk = None;
            }
        }
        for (loc, mem) in changed {
            self.publish_word(&mut g, who, loc, mem);
        }
    }

    /// A persistence strategy acknowledged an operation on `loc` as
    /// durable. If the mirror shows the cell still dirty, the promised
    /// value is recorded *at risk*: a crash that destroys the cached
    /// copy before it drains turns it into a lost value.
    pub(crate) fn on_ack(&self, _machine: MachineId, loc: Loc) {
        if !self.cfg.unpersisted_reads {
            return;
        }
        let mut g = self.shadow.lock();
        let cell = g.cells.entry(loc).or_default();
        cell.at_risk = if cell.dirty() { Some(cell.cache) } else { None };
    }

    /// Machines crashed (stop-the-world, called with the fabric halted):
    /// mirror the holder wipe/memory zeroing and resolve at-risk cells.
    ///
    /// `crashed` is the bitmask of crashed machines, `zeroed` the subset
    /// whose (volatile) shared memory was zeroed, `psn_wipe` true when
    /// the PSN variant clears *all* holders of crashed owners' cells.
    pub(crate) fn on_crash(&self, crashed: u64, zeroed: u64, psn_wipe: bool) {
        let mut g = self.shadow.lock();
        for (loc, cell) in g.cells.iter_mut() {
            let owner_bit = 1u64 << loc.owner.index();
            cell.holders &= !crashed;
            if zeroed & owner_bit != 0 {
                cell.mem = 0;
            }
            if psn_wipe && crashed & owner_bit != 0 {
                cell.holders = 0;
            }
            if let Some(v) = cell.at_risk {
                if cell.mem == v {
                    // Persisted after all (e.g. a τ drain beat the crash).
                    cell.at_risk = None;
                } else if cell.holders != 0 && cell.cache == v {
                    // A surviving cache still holds it; it may yet drain.
                } else {
                    cell.at_risk = None;
                    cell.lost = Some(v);
                }
            }
        }
    }

    // ---- allocator / registry hooks -------------------------------------

    /// A block was handed out: (re)register its span and generation.
    pub(crate) fn on_alloc(&self, loc: Loc, cells: u32, gen: u64) {
        let mut g = self.shadow.lock();
        g.region.get_or_insert(loc.owner);
        g.blocks.insert(
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
        let mut g = self.shadow.lock();
        if let Some(b) = g.blocks.get_mut(&loc.addr.0) {
            b.state = BlockState::Freed;
            b.reach = false;
        }
    }

    /// A block entered the SMR limbo list at `epoch`.
    pub(crate) fn on_retire(&self, loc: Loc, epoch: u64) {
        let mut g = self.shadow.lock();
        if let Some(b) = g.blocks.get_mut(&loc.addr.0) {
            if b.state == BlockState::Live {
                b.state = BlockState::Retired;
                b.retire_epoch = epoch;
            }
        }
    }

    /// A named root was committed or looked up: the block holding
    /// `header` is durably reachable, as is everything its persisted
    /// payload points to.
    pub(crate) fn add_root(&self, header: Loc) {
        let mut g = self.shadow.lock();
        if g.blocks.contains_key(&header.addr.0) {
            self.publish_block(&mut g, None, header, header.addr.0);
        }
    }

    // ---- SMR hooks ------------------------------------------------------

    /// Thread in rail `slot` pinned the epoch domain at `epoch` (the
    /// epoch recorded in the slot word — for the shared overflow slot,
    /// the first joiner's).
    pub(crate) fn on_pin(&self, slot: usize, epoch: u64) {
        let mut g = self.shadow.lock();
        let p = &mut g.pins[slot.min(RAIL_SLOTS)];
        if p.depth == 0 {
            p.epoch = epoch;
        }
        p.depth += 1;
    }

    /// Thread in rail `slot` released its pin.
    pub(crate) fn on_unpin(&self, slot: usize) {
        let mut g = self.shadow.lock();
        let p = &mut g.pins[slot.min(RAIL_SLOTS)];
        p.depth = p.depth.saturating_sub(1);
    }

    /// The SMR domain recovered after a crash: every pin died with its
    /// thread.
    pub(crate) fn on_smr_recover(&self) {
        let mut g = self.shadow.lock();
        for p in g.pins.iter_mut() {
            *p = PinShadow::default();
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
    fn check_retire(&self, g: &Shadow, who: Option<(MachineId, usize)>, loc: Loc, what: &str) {
        if !self.cfg.use_after_retire {
            return;
        }
        let Some(w) = who else { return };
        if g.region != Some(loc.owner) {
            return;
        }
        let Some((&base, b)) = g.blocks.range(..=loc.addr.0).next_back() else {
            return;
        };
        if loc.addr.0 < base || loc.addr.0 >= base + b.cells {
            return;
        }
        let pin = g.pins[w.1.min(RAIL_SLOTS)];
        match b.state {
            BlockState::Live => {}
            BlockState::Retired => {
                if pin.depth == 0 || pin.epoch > b.retire_epoch + 1 {
                    self.report(
                        ViolationClass::UseAfterRetire,
                        loc,
                        who,
                        format!(
                            "{what} of block @{base} (gen {}) retired at epoch {} by a \
                             thread {}",
                            b.gen,
                            b.retire_epoch,
                            if pin.depth == 0 {
                                "holding no epoch pin".to_string()
                            } else {
                                format!("pinned too late (epoch {})", pin.epoch)
                            }
                        ),
                    );
                }
            }
            BlockState::Freed => {
                if pin.depth > 0 {
                    self.report(
                        ViolationClass::UseAfterRetire,
                        loc,
                        who,
                        format!(
                            "{what} of reclaimed block @{base} (gen {}) by a thread pinned \
                             at epoch {} — the block was reclaimed before its grace period",
                            b.gen, pin.epoch
                        ),
                    );
                }
            }
        }
    }

    /// `loc`'s memory value settled to `word`: if `loc` sits in a
    /// durably-reachable block and `word` is a current-generation pointer
    /// to a live unreached block, that block just got published.
    fn publish_word(&self, g: &mut Shadow, who: Option<(MachineId, usize)>, loc: Loc, word: u64) {
        if !self.cfg.durability_races || g.region != Some(loc.owner) {
            return;
        }
        let in_reach = g
            .blocks
            .range(..=loc.addr.0)
            .next_back()
            .is_some_and(|(&base, b)| loc.addr.0 >= base && loc.addr.0 < base + b.cells && b.reach);
        if !in_reach {
            return;
        }
        if let Some(base) = Self::pointee(g, word) {
            self.publish_block(g, who, loc, base);
        }
    }

    /// The payload base `word` points to, iff `word` is exactly a
    /// current-generation pointer to a live block. Generations are
    /// seeded nonzero per block, so application scalars (whose bits
    /// 34..54 are zero for any value < 2³⁴) never alias. Bits 62/63
    /// (null tag, deletion mark) disqualify a word: a marked link never
    /// publishes anything its unmarked predecessor didn't.
    fn pointee(g: &Shadow, word: u64) -> Option<u32> {
        if word >> 62 != 0 {
            return None;
        }
        let base = decode_addr(word)?;
        let b = g.blocks.get(&base)?;
        (b.state == BlockState::Live && !b.reach && b.gen == decode_gen(word)).then_some(base)
    }

    /// Marks the block at `base` durably reachable, reports any dirty
    /// cell in it (the durability race), and chases persisted pointer
    /// words in its payload.
    fn publish_block(
        &self,
        g: &mut Shadow,
        who: Option<(MachineId, usize)>,
        source: Loc,
        base: u32,
    ) {
        let Some(region) = g.region else { return };
        let mut work = vec![base];
        while let Some(base) = work.pop() {
            let Some(b) = g.blocks.get_mut(&base) else {
                continue;
            };
            if b.reach || b.state == BlockState::Freed {
                continue;
            }
            b.reach = true;
            let (cells, gen) = (b.cells, b.gen);
            for a in base..base + cells {
                let loc = Loc::new(region, a);
                let Some(cell) = g.cells.get(&loc) else {
                    continue;
                };
                if self.cfg.durability_races && cell.dirty() {
                    self.report(
                        ViolationClass::DurabilityRace,
                        loc,
                        who,
                        format!(
                            "block @{base} (gen {gen}) became durably reachable via {source} \
                             while this cell is dirty (cache {} vs memory {}): a crash here \
                             loses acknowledged payload that recovery can reach",
                            cell.cache, cell.mem
                        ),
                    );
                }
                let word = cell.mem;
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

    const M: MachineId = MachineId(1);

    fn loc(a: u32) -> Loc {
        Loc::new(M, a)
    }

    fn checker() -> Checker {
        Checker::new(CheckConfig::default())
    }

    /// A publication of a fully-persisted block is silent; the same
    /// publication with one dirty cell is a durability race.
    #[test]
    fn publication_of_dirty_block_is_a_race() {
        let ck = checker();
        // Root block (header) @10, 2 cells; node block @20, 2 cells.
        ck.on_alloc(loc(10), 2, 5);
        ck.on_alloc(loc(20), 2, 7);
        // Node payload: value persisted, link persisted.
        ck.on_mutate(Some((M, 0)), loc(20), 0, 42, 42);
        ck.on_mutate(Some((M, 0)), loc(21), 0, 9, 9);
        // Root registered: reach seeds from the header block.
        ck.add_root(loc(10));
        assert_eq!(ck.durability_races(), 0);
        // Link in the root block persists a pointer to the node: clean.
        let p = crate::alloc::layout::ptr_word(20, 7);
        ck.on_mutate(Some((M, 0)), loc(10), 0, p, p);
        assert_eq!(ck.durability_races(), 0);

        // Now a second node whose value never persisted...
        let ck = checker();
        ck.on_alloc(loc(10), 2, 5);
        ck.on_alloc(loc(20), 2, 7);
        // Dirty value: held in a cache, memory stale.
        ck.on_mutate(Some((M, 0)), loc(20), 1 << 1, 42, 0);
        ck.add_root(loc(10));
        let p = crate::alloc::layout::ptr_word(20, 7);
        ck.on_mutate(Some((M, 0)), loc(10), 0, p, p);
        assert_eq!(ck.durability_races(), 1);
        assert_eq!(ck.violations()[0].class, ViolationClass::DurabilityRace);
    }

    /// Scalars whose generation bits are zero never alias a pointer
    /// (generations are seeded nonzero), and stale-generation pointers
    /// do not publish.
    #[test]
    fn scalars_and_stale_pointers_do_not_publish() {
        let ck = checker();
        ck.on_alloc(loc(10), 1, 3);
        ck.on_alloc(loc(20), 2, 7);
        ck.on_mutate(Some((M, 0)), loc(20), 1 << 1, 1, 0); // dirty
        ck.add_root(loc(10));
        // A scalar that happens to decode to address 20 but carries gen 0.
        ck.on_mutate(Some((M, 0)), loc(10), 0, 21, 21);
        assert_eq!(ck.durability_races(), 0);
        // A stale-generation pointer to the same block.
        let stale = crate::alloc::layout::ptr_word(20, 6);
        ck.on_mutate(Some((M, 0)), loc(10), 0, stale, stale);
        assert_eq!(ck.durability_races(), 0);
    }

    /// An acknowledged-but-unpersisted value whose only cached copy dies
    /// in the crash fires on the next read; a drained value does not.
    #[test]
    fn lost_ack_fires_on_recovery_read() {
        let ck = checker();
        // Store settles into machine 1's cache only (the FlitX86 shape).
        ck.on_mutate(Some((M, 0)), loc(5), 1 << 1, 7, 0);
        ck.on_ack(M, loc(5));
        // Crash machine 1; its memory is NVM (not zeroed).
        ck.on_crash(1 << 1, 0, false);
        ck.on_load((MachineId(0), 0), loc(5));
        assert_eq!(ck.unpersisted_reads(), 1);
        // Fires once per lost value.
        ck.on_load((MachineId(0), 0), loc(5));
        assert_eq!(ck.unpersisted_reads(), 1);

        let ck = checker();
        ck.on_mutate(Some((M, 0)), loc(5), 1 << 1, 7, 0);
        // Drain before the ack: clean, nothing at risk.
        ck.on_mutate(None, loc(5), 1 << 1, 7, 7);
        ck.on_ack(M, loc(5));
        ck.on_crash(1 << 1, 0, false);
        ck.on_load((MachineId(0), 0), loc(5));
        assert_eq!(ck.unpersisted_reads(), 0);
    }

    /// Retired blocks may only be touched under a protecting pin; freed
    /// blocks never by a pinned thread.
    #[test]
    fn retire_lifecycle_rules() {
        let ck = checker();
        ck.on_alloc(loc(30), 2, 4);
        ck.on_retire(loc(30), 10);
        // Unpinned access to a retired block: violation.
        ck.on_load((M, 3), loc(31));
        assert_eq!(ck.use_after_retire(), 1);
        // Access under a protecting pin (epoch ≤ retire + 1): fine.
        ck.on_pin(4, 10);
        ck.on_load((M, 4), loc(31));
        assert_eq!(ck.use_after_retire(), 1);
        ck.on_unpin(4);
        // Freed block touched by a pinned thread: the seeded inline-free
        // bug's signature.
        ck.on_free(loc(30));
        ck.on_pin(5, 12);
        ck.on_load((M, 5), loc(30));
        assert_eq!(ck.use_after_retire(), 2);
        // Unpinned read of a freed cell is the counted-pointer
        // structures' legal pattern.
        ck.on_load((M, 6), loc(30));
        assert_eq!(ck.use_after_retire(), 2);
    }

    /// Barrier batches apply persists before publication checks, so a
    /// link and its payload draining in the same barrier are race-free
    /// regardless of drain order.
    #[test]
    fn barrier_batch_orders_persists_before_publications() {
        let ck = checker();
        ck.on_alloc(loc(10), 1, 3);
        ck.on_alloc(loc(20), 2, 7);
        ck.add_root(loc(10));
        // Cache writes: value and the root's link, all pending.
        ck.on_mutate(Some((M, 0)), loc(20), 1 << 1, 42, 0);
        ck.on_mutate(Some((M, 0)), loc(21), 1 << 1, 9, 9);
        let p = crate::alloc::layout::ptr_word(20, 7);
        ck.on_mutate(Some((M, 0)), loc(10), 1 << 1, p, 0);
        // One barrier retires both — link first in the batch.
        ck.on_barrier(Some((M, 0)), &[(loc(10), 0, p, p), (loc(20), 0, 42, 42)]);
        assert_eq!(ck.durability_races(), 0);
    }

    #[test]
    fn fingerprint_distinguishes_persist_states() {
        let ck = checker();
        let f0 = ck.fingerprint();
        ck.on_mutate(Some((M, 0)), loc(5), 1 << 1, 7, 0);
        let f1 = ck.fingerprint();
        assert_ne!(f0, f1);
        ck.on_mutate(None, loc(5), 1 << 1, 7, 7);
        let f2 = ck.fingerprint();
        assert_ne!(f1, f2);
    }

    #[test]
    #[should_panic(expected = "persistency sanitizer")]
    fn fail_fast_panics() {
        let ck = Checker::new(CheckConfig {
            fail_fast: true,
            ..CheckConfig::default()
        });
        ck.on_alloc(loc(30), 1, 4);
        ck.on_retire(loc(30), 1);
        ck.on_load((M, 0), loc(30));
    }
}
