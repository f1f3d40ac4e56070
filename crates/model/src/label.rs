//! Transition labels of the CXL0 labeled transition system (§3.3).
//!
//! Visible labels are the actions emitted by machines — the six store/flush
//! primitives, loads, GPF, and RMWs — plus crash events, and the two
//! primitives of the `CXL0_AF` extension (`AFlush`, `Barrier`; see
//! [`Semantics`](crate::Semantics)). Silent `τ` steps (nondeterministic
//! propagation, and the retirement of `AFlush` requests) are represented
//! separately by [`SilentStep`], because explorers treat them differently
//! (they may be interleaved freely between visible labels).

use std::fmt;

use crate::ids::{Loc, MachineId, Val};

/// The three store strengths of CXL0 (§3.2).
///
/// * `Local` — `LStore`: complete once in the issuer's cache.
/// * `Remote` — `RStore`: complete once in the owner's cache (or memory).
/// * `Memory` — `MStore`: complete only once in the owner's physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StoreKind {
    /// `LStore`: store to the issuer's local cache.
    Local,
    /// `RStore`: store to the location owner's cache.
    Remote,
    /// `MStore`: store directly to the owner's physical memory.
    Memory,
}

impl StoreKind {
    /// All three kinds, in increasing strength order (Prop. 1 items 1 & 3).
    pub const ALL: [StoreKind; 3] = [StoreKind::Local, StoreKind::Remote, StoreKind::Memory];
}

impl fmt::Display for StoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreKind::Local => write!(f, "L"),
            StoreKind::Remote => write!(f, "R"),
            StoreKind::Memory => write!(f, "M"),
        }
    }
}

/// The two flush strengths of CXL0 (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlushKind {
    /// `LFlush`: write back the issuer's cached copy to the next level.
    Local,
    /// `RFlush`: write back to the owner's physical memory, from wherever
    /// the line currently resides.
    Remote,
}

impl FlushKind {
    /// Both kinds, weaker first (Prop. 1 item 4).
    pub const ALL: [FlushKind; 2] = [FlushKind::Local, FlushKind::Remote];
}

impl fmt::Display for FlushKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlushKind::Local => write!(f, "L"),
            FlushKind::Remote => write!(f, "R"),
        }
    }
}

/// A visible transition label of the CXL0 LTS.
///
/// The last two variants are the asynchronous flushes of `CXL0_AF`
/// (§3.2); a trace without them is a plain CXL0 trace and never sets a
/// persistency buffer.
///
/// # Examples
///
/// ```
/// use cxl0_model::{Label, Loc, MachineId, StoreKind, Val};
/// let x = Loc::new(MachineId(1), 0);
/// let l = Label::store(StoreKind::Memory, MachineId(0), x, Val(1));
/// assert_eq!(l.to_string(), "MStore_m0(x[m1:a0], 1)");
/// assert_eq!(l.issuer(), Some(MachineId(0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// `LStore_i(x,v)` / `RStore_i(x,v)` / `MStore_i(x,v)`.
    Store {
        /// The store strength.
        kind: StoreKind,
        /// The issuing machine `i`.
        by: MachineId,
        /// The target location `x`.
        loc: Loc,
        /// The stored value `v`.
        val: Val,
    },
    /// `Load_i(x,v)`: machine `i` observes value `v` at `x`.
    Load {
        /// The issuing machine `i`.
        by: MachineId,
        /// The loaded location `x`.
        loc: Loc,
        /// The observed value `v`.
        val: Val,
    },
    /// `LFlush_i(x)` / `RFlush_i(x)`.
    Flush {
        /// The flush strength.
        kind: FlushKind,
        /// The issuing machine `i`.
        by: MachineId,
        /// The flushed location `x`.
        loc: Loc,
    },
    /// `GPF_i`: Global Persistent Flush issued by machine `i` (§9.8 of the
    /// CXL spec): drains *all* caches to their backing memories.
    Gpf {
        /// The issuing machine `i`.
        by: MachineId,
    },
    /// `K-RMW_i(x, old, new)`: an atomic read-modify-write that observed
    /// `old` and installed `new` with store strength `K` (§3.3). A failed
    /// CAS is equivalent to a plain [`Label::Load`] and is not represented
    /// here.
    Rmw {
        /// The strength of the embedded store.
        kind: StoreKind,
        /// The issuing machine `i`.
        by: MachineId,
        /// The target location `x`.
        loc: Loc,
        /// The value read by the load half.
        old: Val,
        /// The value installed by the store half.
        new: Val,
    },
    /// `E_i`: spontaneous crash of machine `i`.
    Crash {
        /// The crashing machine `i`.
        machine: MachineId,
    },
    /// `AFlush_i(x)` (`CXL0_AF`): enqueue an asynchronous flush request
    /// for `x` into machine `i`'s persistency buffer. Never blocks.
    ///
    /// ```
    /// use cxl0_model::{Label, Loc, MachineId};
    /// let x = Loc::new(MachineId(1), 0);
    /// assert_eq!(Label::aflush(MachineId(0), x).to_string(), "AFlush_m0(x[m1:a0])");
    /// assert_eq!(Label::barrier(MachineId(0)).to_string(), "Barrier_m0");
    /// assert_eq!(Label::barrier(MachineId(0)).primitive(), None);
    /// ```
    AFlush {
        /// The issuing machine `i`.
        by: MachineId,
        /// The location to be flushed.
        loc: Loc,
    },
    /// `Barrier_i` (`CXL0_AF`): the `SFENCE` analogue. Enabled only once
    /// every request in machine `i`'s persistency buffer has retired.
    Barrier {
        /// The issuing machine `i`.
        by: MachineId,
    },
}

impl Label {
    /// Convenience constructor for store labels.
    pub fn store(kind: StoreKind, by: MachineId, loc: Loc, val: Val) -> Self {
        Label::Store { kind, by, loc, val }
    }

    /// Convenience constructor for `LStore_i(x,v)`.
    pub fn lstore(by: MachineId, loc: Loc, val: Val) -> Self {
        Label::store(StoreKind::Local, by, loc, val)
    }

    /// Convenience constructor for `RStore_i(x,v)`.
    pub fn rstore(by: MachineId, loc: Loc, val: Val) -> Self {
        Label::store(StoreKind::Remote, by, loc, val)
    }

    /// Convenience constructor for `MStore_i(x,v)`.
    pub fn mstore(by: MachineId, loc: Loc, val: Val) -> Self {
        Label::store(StoreKind::Memory, by, loc, val)
    }

    /// Convenience constructor for `Load_i(x,v)`.
    pub fn load(by: MachineId, loc: Loc, val: Val) -> Self {
        Label::Load { by, loc, val }
    }

    /// Convenience constructor for `LFlush_i(x)`.
    pub fn lflush(by: MachineId, loc: Loc) -> Self {
        Label::Flush {
            kind: FlushKind::Local,
            by,
            loc,
        }
    }

    /// Convenience constructor for `RFlush_i(x)`.
    pub fn rflush(by: MachineId, loc: Loc) -> Self {
        Label::Flush {
            kind: FlushKind::Remote,
            by,
            loc,
        }
    }

    /// Convenience constructor for `GPF_i`.
    pub fn gpf(by: MachineId) -> Self {
        Label::Gpf { by }
    }

    /// Convenience constructor for RMW labels.
    pub fn rmw(kind: StoreKind, by: MachineId, loc: Loc, old: Val, new: Val) -> Self {
        Label::Rmw {
            kind,
            by,
            loc,
            old,
            new,
        }
    }

    /// Convenience constructor for `E_i`.
    pub fn crash(machine: MachineId) -> Self {
        Label::Crash { machine }
    }

    /// Convenience constructor for `AFlush_i(x)`.
    pub fn aflush(by: MachineId, loc: Loc) -> Self {
        Label::AFlush { by, loc }
    }

    /// Convenience constructor for `Barrier_i`.
    pub fn barrier(by: MachineId) -> Self {
        Label::Barrier { by }
    }

    /// The machine that emitted this label, or `None` for crashes (which
    /// are environment events, not emitted actions).
    pub fn issuer(&self) -> Option<MachineId> {
        match *self {
            Label::Store { by, .. }
            | Label::Load { by, .. }
            | Label::Flush { by, .. }
            | Label::Gpf { by }
            | Label::Rmw { by, .. }
            | Label::AFlush { by, .. }
            | Label::Barrier { by } => Some(by),
            Label::Crash { .. } => None,
        }
    }

    /// The location this label touches, if it is location-specific.
    pub fn loc(&self) -> Option<Loc> {
        match *self {
            Label::Store { loc, .. }
            | Label::Load { loc, .. }
            | Label::Flush { loc, .. }
            | Label::Rmw { loc, .. }
            | Label::AFlush { loc, .. } => Some(loc),
            Label::Gpf { .. } | Label::Crash { .. } | Label::Barrier { .. } => None,
        }
    }

    /// Which primitive class this label belongs to (for topology checks);
    /// `None` for `AFlush` and `Barrier`, which no topology of §4
    /// restricts.
    pub fn primitive(&self) -> Option<Primitive> {
        Some(match *self {
            Label::Store { kind, .. } => match kind {
                StoreKind::Local => Primitive::LStore,
                StoreKind::Remote => Primitive::RStore,
                StoreKind::Memory => Primitive::MStore,
            },
            Label::Load { .. } => Primitive::Load,
            Label::Flush {
                kind: FlushKind::Local,
                ..
            } => Primitive::LFlush,
            Label::Flush {
                kind: FlushKind::Remote,
                ..
            } => Primitive::RFlush,
            Label::Gpf { .. } => Primitive::Gpf,
            Label::Rmw { kind, .. } => match kind {
                StoreKind::Local => Primitive::LRmw,
                StoreKind::Remote => Primitive::RRmw,
                StoreKind::Memory => Primitive::MRmw,
            },
            Label::Crash { .. } => Primitive::Crash,
            Label::AFlush { .. } | Label::Barrier { .. } => return None,
        })
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Label::Store { kind, by, loc, val } => {
                write!(f, "{kind}Store_{by}({loc}, {val})")
            }
            Label::Load { by, loc, val } => write!(f, "Load_{by}({loc}, {val})"),
            Label::Flush { kind, by, loc } => write!(f, "{kind}Flush_{by}({loc})"),
            Label::Gpf { by } => write!(f, "GPF_{by}"),
            Label::Rmw {
                kind,
                by,
                loc,
                old,
                new,
            } => write!(f, "{kind}-RMW_{by}({loc}, {old}, {new})"),
            Label::Crash { machine } => write!(f, "E_{machine}"),
            Label::AFlush { by, loc } => write!(f, "AFlush_{by}({loc})"),
            Label::Barrier { by } => write!(f, "Barrier_{by}"),
        }
    }
}

/// The primitive classes of CXL0, used for topology capability checks (§4)
/// and for the Table-1 / Figure-5 experiment axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Primitive {
    /// The single load primitive.
    Load,
    /// Local store.
    LStore,
    /// Remote store.
    RStore,
    /// Memory store.
    MStore,
    /// Local flush.
    LFlush,
    /// Remote flush.
    RFlush,
    /// Global persistent flush.
    Gpf,
    /// RMW with local-store strength.
    LRmw,
    /// RMW with remote-store strength.
    RRmw,
    /// RMW with memory-store strength.
    MRmw,
    /// Machine crash (an environment event; always "available").
    Crash,
}

impl Primitive {
    /// All machine-issued primitives (excludes [`Primitive::Crash`]).
    pub const ISSUED: [Primitive; 10] = [
        Primitive::Load,
        Primitive::LStore,
        Primitive::RStore,
        Primitive::MStore,
        Primitive::LFlush,
        Primitive::RFlush,
        Primitive::Gpf,
        Primitive::LRmw,
        Primitive::RRmw,
        Primitive::MRmw,
    ];
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Primitive::Load => "Load",
            Primitive::LStore => "LStore",
            Primitive::RStore => "RStore",
            Primitive::MStore => "MStore",
            Primitive::LFlush => "LFlush",
            Primitive::RFlush => "RFlush",
            Primitive::Gpf => "GPF",
            Primitive::LRmw => "L-RMW",
            Primitive::RRmw => "R-RMW",
            Primitive::MRmw => "M-RMW",
            Primitive::Crash => "Crash",
        };
        f.write_str(s)
    }
}

/// A silent (`τ`) step: propagation (§3.3, *Propagation steps*), or under
/// `CXL0_AF` the retirement of a pending flush request.
///
/// Propagation models the nondeterministic cache-eviction behavior of the
/// system: values drift "horizontally" toward the owner's cache and
/// "vertically" from the owner's cache into the owner's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SilentStep {
    /// `Propagate-C-C`: move the value of `loc` from machine `from`'s cache
    /// to the owner's cache (requires `from ≠ loc.owner`).
    CacheToCache {
        /// The non-owner machine whose cache currently holds the value.
        from: MachineId,
        /// The location being propagated.
        loc: Loc,
    },
    /// `Propagate-C-M`: write the value of `loc` back from the owner's
    /// cache into the owner's memory, invalidating every cache.
    CacheToMemory {
        /// The location being written back.
        loc: Loc,
    },
    /// Retire machine `by`'s pending `AFlush` request for `loc` (`CXL0_AF`).
    /// Enabled only once no cache holds `loc`: the line has drained to
    /// the owner's memory, the post-condition of a synchronous `RFlush`.
    Retire {
        /// The machine whose buffer holds the request.
        by: MachineId,
        /// The flushed location.
        loc: Loc,
    },
}

impl SilentStep {
    /// The location moved by this step.
    pub fn loc(&self) -> Loc {
        match *self {
            SilentStep::CacheToCache { loc, .. }
            | SilentStep::CacheToMemory { loc }
            | SilentStep::Retire { loc, .. } => loc,
        }
    }
}

impl fmt::Display for SilentStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SilentStep::CacheToCache { from, loc } => {
                write!(f, "τ[C-C {from}→{} {loc}]", loc.owner)
            }
            SilentStep::CacheToMemory { loc } => write!(f, "τ[C-M {loc}]"),
            SilentStep::Retire { by, loc } => write!(f, "τ[retire {by} {loc}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x1() -> Loc {
        Loc::new(MachineId(1), 0)
    }

    #[test]
    fn display_forms_match_paper_notation() {
        assert_eq!(
            Label::lstore(MachineId(0), x1(), Val(1)).to_string(),
            "LStore_m0(x[m1:a0], 1)"
        );
        assert_eq!(
            Label::load(MachineId(2), x1(), Val(0)).to_string(),
            "Load_m2(x[m1:a0], 0)"
        );
        assert_eq!(
            Label::rflush(MachineId(0), x1()).to_string(),
            "RFlush_m0(x[m1:a0])"
        );
        assert_eq!(Label::gpf(MachineId(0)).to_string(), "GPF_m0");
        assert_eq!(Label::crash(MachineId(1)).to_string(), "E_m1");
        assert_eq!(
            Label::rmw(StoreKind::Local, MachineId(0), x1(), Val(0), Val(1)).to_string(),
            "L-RMW_m0(x[m1:a0], 0, 1)"
        );
    }

    #[test]
    fn issuer_and_loc_accessors() {
        let l = Label::mstore(MachineId(0), x1(), Val(3));
        assert_eq!(l.issuer(), Some(MachineId(0)));
        assert_eq!(l.loc(), Some(x1()));
        assert_eq!(Label::crash(MachineId(1)).issuer(), None);
        assert_eq!(Label::gpf(MachineId(0)).loc(), None);
    }

    #[test]
    fn primitive_classification() {
        assert_eq!(
            Label::rstore(MachineId(0), x1(), Val(1)).primitive(),
            Some(Primitive::RStore)
        );
        assert_eq!(
            Label::lflush(MachineId(0), x1()).primitive(),
            Some(Primitive::LFlush)
        );
        assert_eq!(
            Label::rmw(StoreKind::Memory, MachineId(0), x1(), Val(0), Val(1)).primitive(),
            Some(Primitive::MRmw)
        );
        assert_eq!(
            Label::crash(MachineId(0)).primitive(),
            Some(Primitive::Crash)
        );
        assert_eq!(Label::aflush(MachineId(0), x1()).primitive(), None);
    }

    #[test]
    fn silent_step_display() {
        let s = SilentStep::CacheToCache {
            from: MachineId(0),
            loc: x1(),
        };
        assert_eq!(s.to_string(), "τ[C-C m0→m1 x[m1:a0]]");
        assert_eq!(s.loc(), x1());
        let v = SilentStep::CacheToMemory { loc: x1() };
        assert_eq!(v.to_string(), "τ[C-M x[m1:a0]]");
    }

    #[test]
    fn issued_primitives_exclude_crash() {
        assert!(!Primitive::ISSUED.contains(&Primitive::Crash));
        assert_eq!(Primitive::ISSUED.len(), 10);
    }
}
