//! One location's CXL0 state and the per-location rules of Figure 2, the
//! RMWs of §3.3, the variants of §3.5 and the `CXL0_AF` extension of §3.2:
//! the one copy of them. By the global cache invariant every rule but `GPF`
//! and `Barrier` acts on one location's `(holders, cached value, memory
//! value)`, plus, under `CXL0_AF`, the mask of machines with a flush request
//! pending there: machine `i`'s persistency buffer `P_i` is bit `i` of every
//! cell's mask. A [`State`](crate::State) is one [`Cell`] per location, and
//! [`Semantics`](crate::Semantics) replaces the label's cell by what
//! [`step`] returns; `cxl0-runtime`'s fabric stores the first three words
//! per location and computes every primitive with [`force`].

use crate::ids::{MachineId, Val};
use crate::label::{FlushKind, StoreKind};
use crate::variant::ModelVariant;

/// One location's state.
///
/// ```
/// use cxl0_model::cell::{step, Cell, CellLabel};
/// use cxl0_model::{MachineId, ModelVariant, StoreKind, Val};
///
/// let (m0, m1, base) = (MachineId(0), MachineId(1), ModelVariant::Base);
/// let lstore = CellLabel::Store(StoreKind::Local, Val(7));
/// let (c, _) = step(Cell::default(), m0, m1, lstore, base)?;
/// // A load by the owner copies the value into its cache (LOAD-from-C):
/// let (c, seen) = step(c, m1, m1, CellLabel::Load, base)?;
/// assert_eq!((c.holders, seen), (0b11, Some(Val(7))));
/// # Ok::<(), cxl0_model::cell::Blocked>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cell {
    /// Bit `i` is set iff `C_i(x) ≠ ⊥` (so at most 64 machines).
    pub holders: u64,
    /// The value every holder caches. While `holders` is 0 no rule reads
    /// it: the fabric leaves it stale, a [`State`](crate::State) zeroes it.
    pub cache: Val,
    /// The owner's memory value `M_k(x)`.
    pub mem: Val,
    /// Bit `i` is set iff `x ∈ P_i`: machine `i` has an `AFlush` request
    /// for the location pending (`CXL0_AF`; base CXL0 never sets it).
    pub pending: u64,
}

impl Cell {
    /// The value a load observes: the cached one if any cache holds one.
    #[inline(always)]
    pub fn visible(self) -> Val {
        if self.holders != 0 {
            self.cache
        } else {
            self.mem
        }
    }
}

/// A label projected onto one location: what [`step`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellLabel {
    /// `Load`.
    Load,
    /// `LStore` / `RStore` / `MStore` of the value.
    Store(StoreKind, Val),
    /// `LFlush` / `RFlush`: pure blocking preconditions.
    Flush(FlushKind),
    /// An RMW `(kind, old, new)`: if the load observes `old`, the store of
    /// `new`; otherwise (a failed CAS) no change.
    Rmw(StoreKind, Val, Val),
    /// `CRASH` of the machines in the bitmask; `true` if the owner's
    /// memory is volatile.
    Crash(u64, bool),
    /// `Propagate-C-C`: the issuer's copy moves to the owner's cache.
    CacheToCache,
    /// `Propagate-C-M`: the owner's copy moves to its memory.
    CacheToMemory,
    /// `AFlush` (`CXL0_AF`): the issuer's request enters its persistency
    /// buffer. Never blocks.
    AFlush,
    /// The silent retirement of the issuer's pending request, enabled once
    /// no cache holds the line: an `RFlush`'s post-condition (`CXL0_AF`).
    Retire,
}

/// A blocking precondition does not hold (yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocked {
    /// Which precondition.
    pub reason: &'static str,
}

fn blocked<T>(reason: &'static str) -> Result<T, Blocked> {
    Err(Blocked { reason })
}

/// Applies `label`, issued by `issuer`, to the cell of a location owned by
/// `owner`. Returns the new cell and, for a `Load` or an RMW, the value
/// observed.
///
/// # Errors
///
/// [`Blocked`]: an `LFlush` while the issuer holds the line, an `RFlush`
/// while any cache does, an LWB load while only other caches do, or a
/// silent step that is not enabled (a `Retire` without the issuer's
/// request, or while any cache holds the line).
#[inline(always)]
pub fn step(
    c: Cell,
    issuer: MachineId,
    owner: MachineId,
    label: CellLabel,
    variant: ModelVariant,
) -> Result<(Cell, Option<Val>), Blocked> {
    let (i, k, h) = (1u64 << issuer.index(), 1u64 << owner.index(), c.holders);
    let cell = |holders, cache, mem| Cell {
        holders,
        cache,
        mem,
        pending: c.pending,
    };
    // LSTORE: C'_i = C_i[x↦v], ∀j≠i. C'_j = ⊥; RSTORE: the same at the
    // owner k; MSTORE: M'_k = M_k[x↦v], ∀j. C'_j = ⊥.
    let store = |kind, v| match kind {
        StoreKind::Local => cell(i, v, c.mem),
        StoreKind::Remote => cell(k, v, c.mem),
        StoreKind::Memory => cell(0, c.cache, v),
    };
    Ok(match label {
        CellLabel::Load => match variant {
            // LOAD-from-C copies the value into the issuer's cache (the
            // copy a later LFlush by the issuer waits for).
            ModelVariant::Base | ModelVariant::Psn if h != 0 => {
                (cell(h | i, c.cache, c.mem), Some(c.cache))
            }
            // LOAD-from-C(LWB) serves only the issuer's own copy.
            ModelVariant::Lwb if h & i != 0 => (c, Some(c.cache)),
            ModelVariant::Lwb if h != 0 => {
                return blocked("LWB load must wait until no other cache holds the line")
            }
            // LOAD-from-M.
            _ => (c, Some(c.mem)),
        },
        CellLabel::Store(kind, v) => (store(kind, v), None),
        CellLabel::Flush(FlushKind::Local) if h & i != 0 => {
            return blocked("LFlush requires C_i(x) = ⊥")
        }
        CellLabel::Flush(FlushKind::Remote) if h != 0 => {
            return blocked("RFlush requires ∀j. C_j(x) = ⊥")
        }
        CellLabel::Flush(_) => (c, None),
        // The six RMW rules: the load and the store with no interference.
        CellLabel::Rmw(kind, old, new) if c.visible() == old => (store(kind, new), Some(old)),
        CellLabel::Rmw(..) => (c, Some(c.visible())),
        // CRASH drops the crashed machines' copies and pending requests,
        // CRASH(PSN) every copy of a crashed owner's line; a crashed
        // owner's volatile memory is 0.
        CellLabel::Crash(machines, volatile) => {
            let own = machines & k != 0;
            let psn = own && variant == ModelVariant::Psn;
            let mem = if own && volatile { Val::ZERO } else { c.mem };
            let post = cell(if psn { 0 } else { h & !machines }, c.cache, mem);
            let pending = c.pending & !machines;
            (Cell { pending, ..post }, None)
        }
        CellLabel::CacheToCache if i == k => return blocked("Propagate-C-C requires i ≠ k"),
        CellLabel::CacheToCache if h & i == 0 => {
            return blocked("Propagate-C-C requires C_i(x) ≠ ⊥")
        }
        CellLabel::CacheToCache => (to_owner(c, i, k), None),
        CellLabel::CacheToMemory if h & k == 0 => {
            return blocked("Propagate-C-M requires C_k(x) ≠ ⊥")
        }
        CellLabel::CacheToMemory => (to_memory(c), None),
        CellLabel::AFlush => {
            let pending = c.pending | i;
            (Cell { pending, ..c }, None)
        }
        CellLabel::Retire if c.pending & i == 0 => {
            return blocked("Retire requires a pending request")
        }
        CellLabel::Retire if h != 0 => {
            return blocked("Retire requires the line to have drained (∀j. C_j(x) = ⊥)")
        }
        CellLabel::Retire => {
            let pending = c.pending & !i;
            (Cell { pending, ..c }, None)
        }
    })
}

/// [`step`] after the silent steps that unblock it: a non-owner issuer's
/// copy moves to the owner's cache, and if that is not enough the line
/// drains to memory (the lowest holder's copy to the owner's cache if the
/// owner holds none, then to memory). This is the `τ*` prefix a blocking
/// primitive of the executable fabric takes: an `LFlush` moves only the
/// issuer's copy, an `RFlush` or an LWB load drains the line.
///
/// # Panics
///
/// Panics on a `Retire` without the issuer's request, which no silent
/// step unblocks.
#[inline(always)]
pub fn force(
    mut c: Cell,
    issuer: MachineId,
    owner: MachineId,
    label: CellLabel,
    variant: ModelVariant,
) -> (Cell, Option<Val>) {
    if let Ok(done) = step(c, issuer, owner, label, variant) {
        return done;
    }
    // Only a held line blocks, and each move below is enabled.
    let (i, k) = (1u64 << issuer.index(), 1u64 << owner.index());
    if c.holders & i != 0 && i != k {
        c = to_owner(c, i, k);
        if let Ok(done) = step(c, issuer, owner, label, variant) {
            return done;
        }
    }
    if c.holders & k == 0 {
        c = to_owner(c, c.holders & c.holders.wrapping_neg(), k);
    }
    match step(to_memory(c), issuer, owner, label, variant) {
        Ok(done) => done,
        Err(_) => panic!("no silent step unblocks a Retire without a request"),
    }
}

/// `Propagate-C-C`: holder `from`'s copy (a bit) moves to the owner's.
#[inline(always)]
fn to_owner(c: Cell, from: u64, owner: u64) -> Cell {
    let holders = (c.holders & !from) | owner;
    Cell { holders, ..c }
}

/// `Propagate-C-M`: the owner's copy moves to its memory.
#[inline(always)]
fn to_memory(c: Cell) -> Cell {
    let (holders, mem) = (0, c.cache);
    Cell { holders, mem, ..c }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M0: MachineId = MachineId(0);
    const M1: MachineId = MachineId(1);
    const M2: MachineId = MachineId(2);

    fn cell(holders: u64, cache: u64, mem: u64) -> Cell {
        Cell {
            holders,
            cache: Val(cache),
            mem: Val(mem),
            pending: 0,
        }
    }

    #[test]
    fn stores_keep_the_stale_words_they_do_not_write() {
        let c = cell(0b110, 5, 9);
        let b = ModelVariant::Base;
        let st = |kind| step(c, M0, M1, CellLabel::Store(kind, Val(1)), b).unwrap();
        assert_eq!(st(StoreKind::Local), (cell(0b001, 1, 9), None));
        assert_eq!(st(StoreKind::Remote), (cell(0b010, 1, 9), None));
        assert_eq!(st(StoreKind::Memory), (cell(0, 5, 1), None));
    }

    #[test]
    fn a_failed_rmw_is_a_load_that_changes_nothing() {
        let c = cell(0b100, 3, 0);
        let cas = CellLabel::Rmw(StoreKind::Memory, Val(2), Val(4));
        assert_eq!(
            step(c, M0, M1, cas, ModelVariant::Base),
            Ok((c, Some(Val(3))))
        );
        let cas = CellLabel::Rmw(StoreKind::Memory, Val(3), Val(4));
        assert_eq!(
            step(c, M0, M1, cas, ModelVariant::Base),
            Ok((cell(0, 3, 4), Some(Val(3))))
        );
    }

    #[test]
    fn crash_drops_copies_poisons_under_psn_and_zeroes_volatile_memory() {
        let c = cell(0b011, 5, 9);
        let crash = |machines, volatile, v| {
            step(c, M2, M0, CellLabel::Crash(machines, volatile), v)
                .unwrap()
                .0
        };
        assert_eq!(crash(0b010, true, ModelVariant::Base), cell(0b001, 5, 9));
        assert_eq!(crash(0b001, false, ModelVariant::Base), cell(0b010, 5, 9));
        assert_eq!(crash(0b001, true, ModelVariant::Base), cell(0b010, 5, 0));
        assert_eq!(crash(0b001, false, ModelVariant::Psn), cell(0, 5, 9));
        assert_eq!(crash(0b010, false, ModelVariant::Psn), cell(0b001, 5, 9));
    }

    #[test]
    fn force_moves_only_what_the_blocked_rule_waits_for() {
        let b = ModelVariant::Base;
        let lflush = CellLabel::Flush(FlushKind::Local);
        let rflush = CellLabel::Flush(FlushKind::Remote);
        // A non-owner's LFlush moves its copy to the owner's cache.
        assert_eq!(
            force(cell(0b101, 7, 0), M0, M1, lflush, b).0,
            cell(0b110, 7, 0)
        );
        // The owner's LFlush drains to memory.
        assert_eq!(force(cell(0b011, 7, 0), M1, M1, lflush, b).0, cell(0, 7, 7));
        // RFlush and an LWB load by a non-holder drain to memory.
        assert_eq!(force(cell(0b101, 7, 0), M0, M1, rflush, b).0, cell(0, 7, 7));
        let lwb = force(
            cell(0b100, 7, 0),
            M0,
            M1,
            CellLabel::Load,
            ModelVariant::Lwb,
        );
        assert_eq!(lwb, (cell(0, 7, 7), Some(Val(7))));
        // ... also the owner's, which a copy moved to its cache would serve.
        let lwb = force(
            cell(0b001, 7, 0),
            M1,
            M1,
            CellLabel::Load,
            ModelVariant::Lwb,
        );
        assert_eq!(lwb, (cell(0, 7, 7), Some(Val(7))));
        // An unblocked step is not forced.
        assert_eq!(
            force(cell(0b100, 7, 0), M0, M1, lflush, b).0,
            cell(0b100, 7, 0)
        );
    }
}
