//! The operational semantics of CXL0 (Figure 2 of the paper), plus the RMW
//! rules of §3.3 and the variant rules of §3.5, over whole states. The
//! per-location rules live in [`cell`]; this module projects each label
//! onto the cells it touches and adds `GPF`, the topology restrictions
//! and the enumeration of silent steps.
//!
//! [`Semantics::apply`] implements the *visible* transition relation
//! `γ —α→ γ′` for a single label `α` with **no** interleaved silent steps;
//! [`Semantics::silent_steps`] enumerates the enabled `τ` propagation
//! steps. The `cxl0-explore` crate builds the full `γ ⟹ γ′` relation
//! (labels interleaved with `τ*`) on top of these.
//!
//! Blocking rules (`LFlush`, `RFlush`, `GPF`) are modeled exactly as in the
//! paper: the step is only enabled once its precondition holds, and the
//! precondition is established by the nondeterministic propagation steps —
//! the same technique used for `MFENCE` in operational x86-TSO models.
//!
//! # `CXL0_AF`: asynchronous flushes (§3.2, *Limitations of CXL*)
//!
//! CXL only specifies *synchronous* flushes, unlike x86
//! (`CLFLUSHOPT`/`CLWB` with `SFENCE`) and ARM (`DC.CVAP` with `DSB.SY`);
//! the paper notes asynchronous ones can be added "using an additional
//! layer of partially ordered persistency buffers", along the lines of
//! Khyzha & Lahav and Raad et al. The same semantics implements that
//! extension with two more labels:
//!
//! * each machine `i` has a **persistency buffer** `P_i ⊆ Loc` of pending
//!   flush requests: bit `i` of every [`Cell`](crate::cell::Cell)'s
//!   `pending` mask ([`State::pending`]);
//! * [`Label::AFlush`] enqueues a request into the issuer's buffer and
//!   never blocks;
//! * a request *retires* through the silent step [`SilentStep::Retire`]
//!   once its line has fully drained to the owner's memory — the
//!   post-condition of a synchronous `RFlush`;
//! * [`Label::Barrier`] (the `SFENCE` analogue) is enabled only once the
//!   issuer's buffer is empty;
//! * a crash **discards** its failure domain's buffers: un-retired requests
//!   are lost with the machine, which makes `AFlush` alone strictly weaker
//!   than `RFlush`.
//!
//! `AFlush`, retirement and the crash are per-location rules of
//! [`cell::step`]; only `Barrier`, like `GPF`, reads every location. Neither
//! new label is a [`Primitive`](crate::Primitive), so no topology restricts
//! them. A trace without them never sets a pending bit: base CXL0 is the
//! fragment without `AFlush` and `Barrier`.
//!
//! Buffers are *sets* rather than sequences: a request retires when its
//! line has drained, so two pending requests for the same line are
//! indistinguishable, and requests for different lines retire
//! independently. The "partially ordered" structure the paper alludes to
//! degenerates to per-line unordered requests under CXL0's single-location
//! flushes. `cxl0-explore`'s `paper_async` suite checks the headline
//! properties exhaustively: `AFlush_i(x); Barrier_i` has exactly the
//! outcomes of `RFlush_i(x)`, `AFlush_i(x)` alone guarantees nothing
//! (litmus A1/A4), a barrier waits only for the issuer's buffer (A6), and
//! `n` stores, `n` `AFlush`es and one `Barrier` persist all `n` lines (A5).

use std::fmt;

use crate::cell::{self, Blocked, CellLabel};
use crate::config::{MemoryKind, SystemConfig};
use crate::ids::{Loc, MachineId, Val};
use crate::label::{Label, SilentStep};
use crate::state::State;
use crate::topology::Topology;
use crate::variant::ModelVariant;

/// Why a label could not be applied in a given state.
///
/// `Blocked` and `ValueMismatch` are *normal* outcomes during exploration
/// (the interleaving simply cannot produce the requested observation);
/// `UnknownLocation`, `UnknownMachine` and `NotAllowed` indicate an
/// ill-formed program for the configuration/topology at hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// A blocking precondition does not (yet) hold — e.g. `LFlush_i(x)`
    /// requires `C_i(x) = ⊥`.
    Blocked {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// A `Load` or `Rmw` label specifies a value different from the unique
    /// value visible in this state.
    ValueMismatch {
        /// The value the label claims to observe.
        expected: Val,
        /// The value actually visible in the state.
        actual: Val,
    },
    /// The label refers to a location outside the configuration.
    UnknownLocation {
        /// The offending location.
        loc: Loc,
    },
    /// The label refers to a machine outside the configuration.
    UnknownMachine {
        /// The offending machine.
        machine: MachineId,
    },
    /// The topology in force does not grant the issuer this primitive (§4).
    NotAllowed {
        /// Name of the topology that rejected the label.
        topology: &'static str,
    },
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::Blocked { reason } => write!(f, "step blocked: {reason}"),
            StepError::ValueMismatch { expected, actual } => {
                write!(f, "load observes {actual}, label expects {expected}")
            }
            StepError::UnknownLocation { loc } => write!(f, "unknown location {loc}"),
            StepError::UnknownMachine { machine } => write!(f, "unknown machine {machine}"),
            StepError::NotAllowed { topology } => {
                write!(f, "primitive not available under topology {topology}")
            }
        }
    }
}

impl std::error::Error for StepError {}

impl From<Blocked> for StepError {
    fn from(b: Blocked) -> Self {
        StepError::Blocked { reason: b.reason }
    }
}

/// Result alias for single-step application.
pub type StepResult = Result<State, StepError>;

/// The CXL0 transition system for a fixed configuration, variant and
/// (optional) topology restriction.
///
/// # Examples
///
/// ```
/// use cxl0_model::{Semantics, SystemConfig, Label, Loc, MachineId, Val};
///
/// let cfg = SystemConfig::symmetric_nvm(2, 1);
/// let sem = Semantics::new(cfg);
/// let x = Loc::new(MachineId(1), 0);
/// let st = sem.initial_state();
///
/// // MStore goes straight to the owner's memory:
/// let st = sem.apply(&st, &Label::mstore(MachineId(0), x, Val(1)))?;
/// assert_eq!(st.memory(x), Val(1));
///
/// // ... so a crash of the owner does not lose it (memory is NVM):
/// let st = sem.apply(&st, &Label::crash(MachineId(1)))?;
/// let st = sem.apply(&st, &Label::load(MachineId(0), x, Val(1)))?;
/// assert_eq!(st.memory(x), Val(1));
/// # Ok::<(), cxl0_model::StepError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Semantics {
    cfg: SystemConfig,
    variant: ModelVariant,
    topology: Option<Topology>,
}

impl Semantics {
    /// Base-variant semantics with no topology restriction.
    pub fn new(cfg: SystemConfig) -> Self {
        Self::with_variant(cfg, ModelVariant::Base)
    }

    /// Semantics under the given model variant.
    pub fn with_variant(cfg: SystemConfig, variant: ModelVariant) -> Self {
        Semantics {
            cfg,
            variant,
            topology: None,
        }
    }

    /// Restricts the available primitives to those granted by `topology`.
    ///
    /// # Panics
    ///
    /// Panics if the topology was built for a different machine count.
    pub fn restricted(mut self, topology: Topology) -> Self {
        assert_eq!(
            topology.num_machines(),
            self.cfg.num_machines(),
            "topology machine count must match the configuration"
        );
        self.topology = Some(topology);
        self
    }

    /// The configuration this semantics operates over.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The variant in force.
    pub fn variant(&self) -> ModelVariant {
        self.variant
    }

    /// The topology restriction, if any.
    pub fn topology(&self) -> Option<&Topology> {
        self.topology.as_ref()
    }

    /// The initial state for this configuration.
    pub fn initial_state(&self) -> State {
        State::initial(&self.cfg)
    }

    fn check_loc(&self, loc: Loc) -> Result<(), StepError> {
        self.cfg
            .contains_loc(loc)
            .then_some(())
            .ok_or(StepError::UnknownLocation { loc })
    }

    fn check_machine(&self, machine: MachineId) -> Result<(), StepError> {
        (machine.index() < self.cfg.num_machines())
            .then_some(())
            .ok_or(StepError::UnknownMachine { machine })
    }

    fn check_topology(&self, label: &Label) -> Result<(), StepError> {
        if let (Some(topo), Some(by), Some(p)) = (&self.topology, label.issuer(), label.primitive())
        {
            if !topo.allows(by, p) {
                return Err(StepError::NotAllowed {
                    topology: topo.name(),
                });
            }
        }
        Ok(())
    }

    /// Applies one visible label to `state` (no implicit `τ` steps): by
    /// [`cell::step`] on the label's location, except `GPF`, `Barrier` and
    /// `CRASH` (whose cell rule [`cell::force`] applies to every location,
    /// discarding the failure domain's `AFlush` requests too).
    ///
    /// # Errors
    ///
    /// See [`StepError`]; `Blocked` / `ValueMismatch` mean "not enabled
    /// here", which explorers treat as a dead branch rather than a fault.
    ///
    /// # Examples
    ///
    /// `CXL0_AF` batching: two stores, two `AFlush`es, one `Barrier`. The
    /// barrier blocks until both requests have retired, after which both lines
    /// are persistent:
    ///
    /// ```
    /// use cxl0_model::{Label, Loc, MachineId, Semantics, SystemConfig, Val};
    ///
    /// let sem = Semantics::new(SystemConfig::symmetric_nvm(2, 2));
    /// let m0 = MachineId(0);
    /// let (x, y) = (Loc::new(MachineId(1), 0), Loc::new(MachineId(1), 1));
    ///
    /// let mut st = sem.initial_state();
    /// for (loc, v) in [(x, 1), (y, 2)] {
    ///     st = sem.apply(&st, &Label::lstore(m0, loc, Val(v)))?;
    ///     st = sem.apply(&st, &Label::aflush(m0, loc))?;
    /// }
    /// assert_eq!(st.pending(m0).collect::<Vec<_>>(), [x, y]);
    /// assert!(sem.apply(&st, &Label::barrier(m0)).is_err());
    /// // Drain everything (the explorer does this nondeterministically).
    /// while let Some(step) = sem.silent_steps(&st).first() {
    ///     st = sem.apply_silent(&st, step)?;
    /// }
    /// let st = sem.apply(&st, &Label::barrier(m0))?;
    /// assert_eq!((st.memory(x), st.memory(y)), (Val(1), Val(2)));
    /// # Ok::<(), cxl0_model::StepError>(())
    /// ```
    pub fn apply(&self, state: &State, label: &Label) -> StepResult {
        self.check_topology(label)?;
        let (by, loc, op, expected) = match *label {
            Label::Store { kind, by, loc, val } => (by, loc, CellLabel::Store(kind, val), None),
            Label::Load { by, loc, val } => (by, loc, CellLabel::Load, Some(val)),
            Label::Flush { kind, by, loc } => (by, loc, CellLabel::Flush(kind), None),
            Label::Rmw {
                kind,
                by,
                loc,
                old,
                new,
            } => (by, loc, CellLabel::Rmw(kind, old, new), Some(old)),
            Label::AFlush { by, loc } => (by, loc, CellLabel::AFlush, None),
            Label::Gpf { by } => return self.apply_fence(state, by, false),
            Label::Barrier { by } => return self.apply_fence(state, by, true),
            Label::Crash { machine } => return self.apply_crash(state, machine),
        };
        self.check_machine(by)?;
        self.check_loc(loc)?;
        let (post, seen) = cell::step(state.cell(loc), by, loc.owner, op, self.variant)?;
        if let (Some(expected), Some(actual)) = (expected, seen) {
            if expected != actual {
                return Err(StepError::ValueMismatch { expected, actual });
            }
        }
        let mut next = state.clone();
        next.set_cell(loc, post);
        Ok(next)
    }

    /// The two rules that read every location and change none:
    /// GLOBAL-PERSISTENT-FLUSH (Fig. 2) blocks until all caches are empty,
    /// `Barrier_by` (`CXL0_AF`) until `by`'s persistency buffer is.
    fn apply_fence(&self, state: &State, by: MachineId, barrier: bool) -> StepResult {
        self.check_machine(by)?;
        let (clear, reason) = if barrier {
            let reason = "Barrier requires the issuer's persistency buffer to be empty";
            (state.pending(by).next().is_none(), reason)
        } else {
            (state.all_caches_empty(), "GPF requires ∀j,x. C_j(x) = ⊥")
        };
        clear.then_some(()).ok_or(StepError::Blocked { reason })?;
        Ok(state.clone())
    }

    /// CRASH (Fig. 2) or CRASH(PSN) (§3.5) of every machine in the
    /// failure domain of `machine` (usually just `machine` itself),
    /// applied to every location's cell.
    fn apply_crash(&self, state: &State, machine: MachineId) -> StepResult {
        self.check_machine(machine)?;
        let machines = (self.cfg.failure_domain(machine).iter()).fold(0, |b, m| b | 1 << m.index());
        let mut next = state.clone();
        for loc in self.cfg.all_locations() {
            let volatile = self.cfg.machine(loc.owner).memory == MemoryKind::Volatile;
            let crash = CellLabel::Crash(machines, volatile);
            let (post, _) = cell::force(next.cell(loc), loc.owner, loc.owner, crash, self.variant);
            next.set_cell(loc, post);
        }
        Ok(next)
    }

    /// Enumerates the silent steps enabled in `state`: Propagate-C-C and
    /// Propagate-C-M of Fig. 2, respecting a topology's `Propagate-C-C`
    /// exclusion if one is installed, and the retirements of `CXL0_AF`
    /// requests (none in a base state).
    pub fn silent_steps(&self, state: &State) -> Vec<SilentStep> {
        let mut out = Vec::new();
        let cc_allowed = self.topology.as_ref().is_none_or(Topology::allows_prop_cc);
        for (loc, c) in state.cells() {
            for m in (0..state.num_machines()).map(MachineId) {
                let bit = 1 << m.index();
                if c.holders & bit != 0 && m == loc.owner {
                    // Propagate-C-M: owner's cache → owner's memory.
                    out.push(SilentStep::CacheToMemory { loc });
                } else if c.holders & bit != 0 && cc_allowed {
                    // Propagate-C-C: non-owner's cache → owner's cache.
                    out.push(SilentStep::CacheToCache { from: m, loc });
                }
                let retire = || cell::step(c, m, loc.owner, CellLabel::Retire, self.variant);
                if c.pending & bit != 0 && retire().is_ok() {
                    out.push(SilentStep::Retire { by: m, loc });
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Applies one silent step.
    ///
    /// # Errors
    ///
    /// Returns `Blocked` if the step is not enabled in `state`.
    pub fn apply_silent(&self, state: &State, step: &SilentStep) -> StepResult {
        let (from, loc, op) = match *step {
            SilentStep::CacheToCache { from, loc } => (from, loc, CellLabel::CacheToCache),
            SilentStep::CacheToMemory { loc } => (loc.owner, loc, CellLabel::CacheToMemory),
            SilentStep::Retire { by, loc } => (by, loc, CellLabel::Retire),
        };
        let (post, _) = cell::step(state.cell(loc), from, loc.owner, op, self.variant)?;
        let mut next = state.clone();
        next.set_cell(loc, post);
        Ok(next)
    }

    /// The unique value a load of `loc` would observe in `state`
    /// (cached value if any, else the owner's memory).
    ///
    /// Under the LWB variant a load may additionally be *blocked*; this
    /// accessor reports the would-be value regardless.
    pub fn load_value(&self, state: &State, loc: Loc) -> Val {
        state.visible_value(loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::StoreKind;

    fn sem2() -> Semantics {
        Semantics::new(SystemConfig::symmetric_nvm(2, 1))
    }

    fn x(owner: usize) -> Loc {
        Loc::new(MachineId(owner), 0)
    }

    const M0: MachineId = MachineId(0);
    const M1: MachineId = MachineId(1);

    #[test]
    fn lstore_writes_issuer_cache_and_invalidates_others() {
        let sem = sem2();
        let st = sem.initial_state();
        // Preload the other cache so we can observe invalidation.
        let st = sem.apply(&st, &Label::lstore(M1, x(1), Val(9))).unwrap();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        assert_eq!(st.cache(M0, x(1)), Some(Val(1)));
        assert_eq!(st.cache(M1, x(1)), None);
        assert_eq!(st.memory(x(1)), Val::ZERO);
    }

    #[test]
    fn rstore_writes_owner_cache() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::rstore(M0, x(1), Val(1))).unwrap();
        assert_eq!(st.cache(M1, x(1)), Some(Val(1)));
        assert_eq!(st.cache(M0, x(1)), None);
        assert_eq!(st.memory(x(1)), Val::ZERO);
    }

    #[test]
    fn rstore_by_owner_equals_lstore_by_owner() {
        let sem = sem2();
        let st = sem.initial_state();
        let a = sem.apply(&st, &Label::rstore(M1, x(1), Val(1))).unwrap();
        let b = sem.apply(&st, &Label::lstore(M1, x(1), Val(1))).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn mstore_writes_memory_and_invalidates_all() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(5))).unwrap();
        let st = sem.apply(&st, &Label::mstore(M0, x(1), Val(7))).unwrap();
        assert!(st.no_cache_holds(x(1)));
        assert_eq!(st.memory(x(1)), Val(7));
    }

    #[test]
    fn load_from_cache_copies_into_issuer_cache() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(3))).unwrap();
        let st = sem.apply(&st, &Label::load(M1, x(1), Val(3))).unwrap();
        assert_eq!(st.cache(M1, x(1)), Some(Val(3)));
        assert_eq!(st.cache(M0, x(1)), Some(Val(3)));
    }

    #[test]
    fn load_from_memory_leaves_state_unchanged() {
        let sem = sem2();
        let st = sem.initial_state();
        let next = sem.apply(&st, &Label::load(M0, x(1), Val(0))).unwrap();
        assert_eq!(next, st);
    }

    #[test]
    fn load_value_mismatch_is_reported() {
        let sem = sem2();
        let st = sem.initial_state();
        let err = sem.apply(&st, &Label::load(M0, x(1), Val(1))).unwrap_err();
        assert_eq!(
            err,
            StepError::ValueMismatch {
                expected: Val(1),
                actual: Val(0)
            }
        );
    }

    #[test]
    fn lflush_blocks_until_local_line_drained() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        let err = sem.apply(&st, &Label::lflush(M0, x(1))).unwrap_err();
        assert!(matches!(err, StepError::Blocked { .. }));
        // Drain by propagation, then the flush is a no-op step.
        let steps = sem.silent_steps(&st);
        assert_eq!(steps.len(), 1);
        let st = sem.apply_silent(&st, &steps[0]).unwrap();
        assert!(sem.apply(&st, &Label::lflush(M0, x(1))).is_ok());
        // The value moved to the owner's cache.
        assert_eq!(st.cache(M1, x(1)), Some(Val(1)));
    }

    #[test]
    fn rflush_blocks_until_no_cache_holds() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        assert!(matches!(
            sem.apply(&st, &Label::rflush(M0, x(1))),
            Err(StepError::Blocked { .. })
        ));
        // Two propagation steps drain to memory.
        let st = sem
            .apply_silent(
                &st,
                &SilentStep::CacheToCache {
                    from: M0,
                    loc: x(1),
                },
            )
            .unwrap();
        assert!(matches!(
            sem.apply(&st, &Label::rflush(M0, x(1))),
            Err(StepError::Blocked { .. })
        ));
        let st = sem
            .apply_silent(&st, &SilentStep::CacheToMemory { loc: x(1) })
            .unwrap();
        assert!(sem.apply(&st, &Label::rflush(M0, x(1))).is_ok());
        assert_eq!(st.memory(x(1)), Val(1));
    }

    #[test]
    fn gpf_requires_globally_empty_caches() {
        let sem = sem2();
        let st = sem.initial_state();
        assert!(sem.apply(&st, &Label::gpf(M0)).is_ok());
        let st = sem.apply(&st, &Label::lstore(M0, x(0), Val(1))).unwrap();
        assert!(matches!(
            sem.apply(&st, &Label::gpf(M0)),
            Err(StepError::Blocked { .. })
        ));
    }

    #[test]
    fn crash_clears_cache_and_keeps_nvm() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::mstore(M0, x(0), Val(4))).unwrap();
        let st = sem.apply(&st, &Label::lstore(M0, x(0), Val(5))).unwrap();
        let st = sem.apply(&st, &Label::crash(M0)).unwrap();
        assert!(st.all_caches_empty());
        assert_eq!(st.memory(x(0)), Val(4)); // NVM survives
    }

    #[test]
    fn crash_zeroes_volatile_memory() {
        let cfg = SystemConfig::symmetric_volatile(2, 1);
        let sem = Semantics::new(cfg);
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::mstore(M0, x(0), Val(4))).unwrap();
        let st = sem.apply(&st, &Label::crash(M0)).unwrap();
        assert_eq!(st.memory(x(0)), Val::ZERO);
    }

    #[test]
    fn psn_crash_poisons_remote_copies_of_owned_lines() {
        let cfg = SystemConfig::symmetric_nvm(2, 1);
        let sem = Semantics::with_variant(cfg, ModelVariant::Psn);
        let st = sem.initial_state();
        // m1 caches a line owned by m0 (via RStore from m1... use lstore by m1).
        let st = sem.apply(&st, &Label::lstore(M1, x(0), Val(1))).unwrap();
        let st = sem.apply(&st, &Label::crash(M0)).unwrap();
        // Under PSN, m1's copy of m0's line is gone.
        assert_eq!(st.cache(M1, x(0)), None);
        // Under Base it would have survived:
        let base = sem2();
        let st2 = base.initial_state();
        let st2 = base.apply(&st2, &Label::lstore(M1, x(0), Val(1))).unwrap();
        let st2 = base.apply(&st2, &Label::crash(M0)).unwrap();
        assert_eq!(st2.cache(M1, x(0)), Some(Val(1)));
    }

    #[test]
    fn lwb_load_blocks_on_foreign_cache_hit() {
        let cfg = SystemConfig::symmetric_nvm(2, 1);
        let sem = Semantics::with_variant(cfg, ModelVariant::Lwb);
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        // m1 loading x(1): m0's cache holds it → blocked under LWB.
        assert!(matches!(
            sem.apply(&st, &Label::load(M1, x(1), Val(1))),
            Err(StepError::Blocked { .. })
        ));
        // m0 loading its own cached copy is fine and leaves state unchanged.
        let same = sem.apply(&st, &Label::load(M0, x(1), Val(1))).unwrap();
        assert_eq!(same, st);
    }

    #[test]
    fn rmw_success_and_mismatch() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem
            .apply(&st, &Label::rmw(StoreKind::Local, M0, x(1), Val(0), Val(1)))
            .unwrap();
        assert_eq!(st.cache(M0, x(1)), Some(Val(1)));
        let err = sem
            .apply(
                &st,
                &Label::rmw(StoreKind::Memory, M1, x(1), Val(0), Val(2)),
            )
            .unwrap_err();
        assert!(matches!(err, StepError::ValueMismatch { .. }));
        let st = sem
            .apply(
                &st,
                &Label::rmw(StoreKind::Memory, M1, x(1), Val(1), Val(2)),
            )
            .unwrap();
        assert_eq!(st.memory(x(1)), Val(2));
        assert!(st.no_cache_holds(x(1)));
    }

    #[test]
    fn silent_steps_enumeration() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        let st = sem.apply(&st, &Label::lstore(M0, x(0), Val(2))).unwrap();
        let steps = sem.silent_steps(&st);
        // x(1) in m0's cache (non-owner → C-C), x(0) in m0's cache (owner → C-M).
        assert_eq!(steps.len(), 2);
        assert!(steps.contains(&SilentStep::CacheToCache {
            from: M0,
            loc: x(1)
        }));
        assert!(steps.contains(&SilentStep::CacheToMemory { loc: x(0) }));
    }

    #[test]
    fn propagation_preserves_invariant() {
        let sem = sem2();
        let mut st = sem.initial_state();
        st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        st = sem.apply(&st, &Label::load(M1, x(1), Val(1))).unwrap();
        // Both caches hold x(1) = 1 now.
        assert_eq!(st.holders(x(1)).len(), 2);
        let st2 = sem
            .apply_silent(
                &st,
                &SilentStep::CacheToCache {
                    from: M0,
                    loc: x(1),
                },
            )
            .unwrap();
        assert_eq!(st2.holders(x(1)), vec![M1]);
        let st3 = sem
            .apply_silent(&st2, &SilentStep::CacheToMemory { loc: x(1) })
            .unwrap();
        assert!(st3.no_cache_holds(x(1)));
        assert_eq!(st3.memory(x(1)), Val(1));
    }

    #[test]
    fn unknown_location_and_machine_rejected() {
        let sem = sem2();
        let st = sem.initial_state();
        assert!(matches!(
            sem.apply(&st, &Label::load(M0, Loc::new(MachineId(7), 0), Val(0))),
            Err(StepError::UnknownLocation { .. })
        ));
        assert!(matches!(
            sem.apply(&st, &Label::load(MachineId(7), x(0), Val(0))),
            Err(StepError::UnknownMachine { .. })
        ));
    }

    #[test]
    fn crash_group_crashes_together() {
        use crate::config::MachineConfig;
        let mut a = MachineConfig::non_volatile(1);
        a.crash_group = vec![MachineId(1)];
        let mut b = MachineConfig::volatile(1);
        b.crash_group = vec![MachineId(0)];
        let cfg = SystemConfig::new(vec![a, b]);
        let sem = Semantics::new(cfg);
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::mstore(M0, x(1), Val(3))).unwrap();
        let st = sem.apply(&st, &Label::lstore(M1, x(0), Val(2))).unwrap();
        let st = sem.apply(&st, &Label::crash(M0)).unwrap();
        // Both machines lost their caches; m1's volatile memory reset.
        assert!(st.all_caches_empty());
        assert_eq!(st.memory(x(1)), Val::ZERO);
    }
}
