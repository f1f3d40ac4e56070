//! `CXL0_AF` — the asynchronous-flush extension of CXL0 (§3.2, *Limitations
//! of CXL*).
//!
//! The paper observes that the CXL specification only defines *synchronous*
//! flushes, unlike x86 (`CLFLUSHOPT`/`CLWB` + `SFENCE`) and ARM (`DC.CVAP` +
//! `DSB.SY`), and notes that asynchronous flushes can be added to CXL0
//! "using an additional layer of partially ordered persistency buffers"
//! along the lines of Khyzha & Lahav and Raad et al. This module implements
//! exactly that extension:
//!
//! * each machine `i` gains a **persistency buffer** `P_i ⊆ Loc` of pending
//!   flush requests, held per location: `P_i` is bit `i` of every
//!   [`Cell`](crate::cell::Cell)'s `pending` mask, so a `CXL0_AF` state is a
//!   plain [`State`];
//! * a new non-blocking primitive [`AsyncLabel::AFlush`] enqueues a request
//!   into the issuer's buffer and returns immediately;
//! * a pending request *retires* through a new silent step
//!   ([`SilentStep::Retire`]) once the line has fully drained to the
//!   owner's memory — the same post-condition as a synchronous `RFlush`;
//! * a new blocking primitive [`AsyncLabel::Barrier`] (the `SFENCE`
//!   analogue) is enabled only once the issuer's buffer is empty;
//! * a machine crash **discards** that machine's buffer: un-retired flush
//!   requests are lost with the machine, which is what makes `AFlush`
//!   strictly weaker than `RFlush` on its own.
//!
//! `AFlush`, retirement and the crash are per-location rules of
//! [`cell::step`]; only `Barrier`, like `GPF`, reads every location.
//!
//! Buffers are *sets* rather than sequences: a request retires when its
//! line has drained, so two pending requests for the same line are
//! indistinguishable, and requests for different lines retire
//! independently. The "partially ordered" structure the paper alludes to
//! degenerates to per-line unordered requests under CXL0's single-location
//! flushes.
//!
//! The headline properties, checked exhaustively by
//! `cxl0-explore`'s generic `Explorer` and the `paper_async` litmus suite:
//!
//! * `AFlush_i(x); Barrier_i` has exactly the outcomes of `RFlush_i(x)`;
//! * `AFlush_i(x)` alone guarantees nothing (litmus A1/A4);
//! * a barrier only waits for the *issuer's* buffer (litmus A6);
//! * `n` stores + `n` `AFlush`es + one `Barrier` persist all `n` lines —
//!   the batching pattern that motivates asynchronous flushes (litmus A5).
//!
//! # Examples
//!
//! ```
//! use cxl0_model::asyncflush::{AsyncLabel, AsyncSemantics};
//! use cxl0_model::{Label, Loc, MachineId, SystemConfig, Val};
//!
//! let sem = AsyncSemantics::new(SystemConfig::symmetric_nvm(2, 1));
//! let x = Loc::new(MachineId(1), 0);
//! let st = sem.initial_state();
//!
//! // AFlush is non-blocking even while the line is still cached:
//! let st = sem.apply(&st, &Label::lstore(MachineId(0), x, Val(1)).into())?;
//! let st = sem.apply(&st, &AsyncLabel::aflush(MachineId(0), x))?;
//! assert_eq!(st.pending(MachineId(0)).collect::<Vec<_>>(), [x]);
//!
//! // ... but the barrier blocks until the request has retired:
//! assert!(sem.apply(&st, &AsyncLabel::barrier(MachineId(0))).is_err());
//! # Ok::<(), cxl0_model::StepError>(())
//! ```

use std::fmt;

use crate::cell::{self, CellLabel};
use crate::config::SystemConfig;
use crate::ids::{Loc, MachineId, Val};
use crate::label::{Label, SilentStep};
use crate::semantics::{Semantics, StepError, StepResult};
use crate::state::State;
use crate::variant::ModelVariant;

/// A visible label of the `CXL0_AF` extension: either a base CXL0 label or
/// one of the two new asynchronous-flush primitives.
///
/// # Examples
///
/// ```
/// use cxl0_model::asyncflush::AsyncLabel;
/// use cxl0_model::{Label, Loc, MachineId, Val};
///
/// let x = Loc::new(MachineId(1), 0);
/// assert_eq!(AsyncLabel::aflush(MachineId(0), x).to_string(), "AFlush_m0(x[m1:a0])");
/// assert_eq!(AsyncLabel::barrier(MachineId(0)).to_string(), "Barrier_m0");
/// let base: AsyncLabel = Label::load(MachineId(0), x, Val(0)).into();
/// assert_eq!(base.to_string(), "Load_m0(x[m1:a0], 0)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AsyncLabel {
    /// Any base CXL0 label (stores, loads, synchronous flushes, GPF, RMWs,
    /// crashes), with its Figure-2 semantics.
    Base(Label),
    /// `AFlush_i(x)`: enqueue an asynchronous flush request for `x` into
    /// machine `i`'s persistency buffer. Never blocks.
    AFlush {
        /// The issuing machine `i`.
        by: MachineId,
        /// The location to be flushed.
        loc: Loc,
    },
    /// `Barrier_i`: the `SFENCE` analogue. Enabled only once every request
    /// in machine `i`'s persistency buffer has retired.
    Barrier {
        /// The issuing machine `i`.
        by: MachineId,
    },
}

impl AsyncLabel {
    /// Convenience constructor for `AFlush_i(x)`.
    pub fn aflush(by: MachineId, loc: Loc) -> Self {
        AsyncLabel::AFlush { by, loc }
    }

    /// Convenience constructor for `Barrier_i`.
    pub fn barrier(by: MachineId) -> Self {
        AsyncLabel::Barrier { by }
    }

    /// The machine that emitted this label, or `None` for crash events.
    pub fn issuer(&self) -> Option<MachineId> {
        match *self {
            AsyncLabel::Base(l) => l.issuer(),
            AsyncLabel::AFlush { by, .. } | AsyncLabel::Barrier { by } => Some(by),
        }
    }

    /// The location this label touches, if it is location-specific.
    pub fn loc(&self) -> Option<Loc> {
        match *self {
            AsyncLabel::Base(l) => l.loc(),
            AsyncLabel::AFlush { loc, .. } => Some(loc),
            AsyncLabel::Barrier { .. } => None,
        }
    }

    /// The wrapped base label, if this is not one of the new primitives.
    pub fn as_base(&self) -> Option<&Label> {
        match self {
            AsyncLabel::Base(l) => Some(l),
            _ => None,
        }
    }
}

impl From<Label> for AsyncLabel {
    fn from(l: Label) -> Self {
        AsyncLabel::Base(l)
    }
}

impl fmt::Display for AsyncLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            AsyncLabel::Base(l) => l.fmt(f),
            AsyncLabel::AFlush { by, loc } => write!(f, "AFlush_{by}({loc})"),
            AsyncLabel::Barrier { by } => write!(f, "Barrier_{by}"),
        }
    }
}

/// The `CXL0_AF` transition system: the base semantics (any
/// [`ModelVariant`]) extended with persistency buffers, `AFlush` and
/// `Barrier`.
///
/// # Examples
///
/// Batching: two stores, two `AFlush`es, one `Barrier` — both lines are
/// persistent once the barrier completes:
///
/// ```
/// use cxl0_model::asyncflush::{AsyncLabel, AsyncSemantics};
/// use cxl0_model::{Label, Loc, MachineId, SystemConfig, Val};
///
/// let sem = AsyncSemantics::new(SystemConfig::symmetric_nvm(2, 2));
/// let (m0, m1) = (MachineId(0), MachineId(1));
/// let x = Loc::new(m1, 0);
/// let y = Loc::new(m1, 1);
///
/// let mut st = sem.initial_state();
/// for (loc, v) in [(x, 1), (y, 2)] {
///     st = sem.apply(&st, &Label::lstore(m0, loc, Val(v)).into())?;
///     st = sem.apply(&st, &AsyncLabel::aflush(m0, loc))?;
/// }
/// // Drain everything (the explorer does this nondeterministically).
/// loop {
///     let steps = sem.silent_steps(&st);
///     match steps.first() {
///         Some(s) => st = sem.apply_silent(&st, s)?,
///         None => break,
///     }
/// }
/// let st = sem.apply(&st, &AsyncLabel::barrier(m0))?;
/// assert_eq!(st.memory(x), Val(1));
/// assert_eq!(st.memory(y), Val(2));
/// # Ok::<(), cxl0_model::StepError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AsyncSemantics {
    base: Semantics,
}

impl AsyncSemantics {
    /// Base-variant `CXL0_AF` semantics.
    pub fn new(cfg: SystemConfig) -> Self {
        AsyncSemantics {
            base: Semantics::new(cfg),
        }
    }

    /// `CXL0_AF` on top of the given base variant (PSN / LWB).
    pub fn with_variant(cfg: SystemConfig, variant: ModelVariant) -> Self {
        AsyncSemantics {
            base: Semantics::with_variant(cfg, variant),
        }
    }

    /// Wraps an existing base semantics (keeping its variant and topology
    /// restriction).
    pub fn from_base(base: Semantics) -> Self {
        AsyncSemantics { base }
    }

    /// The underlying base semantics.
    pub fn base(&self) -> &Semantics {
        &self.base
    }

    /// The configuration this semantics operates over.
    pub fn config(&self) -> &SystemConfig {
        self.base.config()
    }

    /// The initial state: base initial state with empty buffers.
    pub fn initial_state(&self) -> State {
        self.base.initial_state()
    }

    /// Applies one visible label: a base label by [`Semantics::apply`]
    /// (whose crash also discards the failure domain's requests), `AFlush`
    /// by [`cell::step`] on its location.
    ///
    /// # Errors
    ///
    /// As for [`Semantics::apply`]; additionally, `Barrier_i` returns
    /// [`StepError::Blocked`] while machine `i`'s buffer is non-empty.
    pub fn apply(&self, state: &State, label: &AsyncLabel) -> Result<State, StepError> {
        match *label {
            AsyncLabel::Base(ref l) => self.base.apply(state, l),
            AsyncLabel::AFlush { by, loc } => {
                self.base.check_machine(by)?;
                self.base.check_loc(loc)?;
                let aflush = CellLabel::AFlush;
                let (post, _) =
                    cell::step(state.cell(loc), by, loc.owner, aflush, self.base.variant())?;
                let mut next = state.clone();
                next.set_cell(loc, post);
                Ok(next)
            }
            AsyncLabel::Barrier { by } => {
                self.base.check_machine(by)?;
                match state.pending(by).next() {
                    None => Ok(state.clone()),
                    Some(_) => Err(StepError::Blocked {
                        reason: "Barrier requires the issuer's persistency buffer to be empty",
                    }),
                }
            }
        }
    }

    /// The enabled silent steps: base propagation plus retirable pending
    /// requests ([`Semantics::silent_steps`]).
    pub fn silent_steps(&self, state: &State) -> Vec<SilentStep> {
        self.base.silent_steps(state)
    }

    /// Applies one silent step ([`Semantics::apply_silent`]).
    ///
    /// # Errors
    ///
    /// Returns `Blocked` if the step is not enabled in `state`.
    pub fn apply_silent(&self, state: &State, step: &SilentStep) -> StepResult {
        self.base.apply_silent(state, step)
    }

    /// The unique value a load of `loc` would observe in `state`.
    pub fn load_value(&self, state: &State, loc: Loc) -> Val {
        self.base.load_value(state, loc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M0: MachineId = MachineId(0);
    const M1: MachineId = MachineId(1);

    fn sem2() -> AsyncSemantics {
        AsyncSemantics::new(SystemConfig::symmetric_nvm(2, 2))
    }

    fn x(owner: usize) -> Loc {
        Loc::new(MachineId(owner), 0)
    }

    /// `P_m` of `st`.
    fn buffer(st: &State, m: MachineId) -> Vec<Loc> {
        st.pending(m).collect()
    }

    /// True if no machine has a pending request.
    fn no_requests(st: &State) -> bool {
        (0..st.num_machines()).all(|m| st.pending(MachineId(m)).next().is_none())
    }

    /// Fully drains all propagation and retirement, deterministically.
    fn drain(sem: &AsyncSemantics, mut st: State) -> State {
        loop {
            let steps = sem.silent_steps(&st);
            match steps.first() {
                Some(s) => st = sem.apply_silent(&st, s).unwrap(),
                None => return st,
            }
        }
    }

    #[test]
    fn aflush_is_nonblocking_and_enqueues() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem
            .apply(&st, &Label::lstore(M0, x(1), Val(1)).into())
            .unwrap();
        let st = sem.apply(&st, &AsyncLabel::aflush(M0, x(1))).unwrap();
        assert!(buffer(&st, M0) == [x(1)]);
        assert_eq!(buffer(&st, M0).len(), 1);
        assert!(buffer(&st, M1).is_empty());
    }

    #[test]
    fn aflush_on_uncached_line_retires_immediately() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &AsyncLabel::aflush(M0, x(1))).unwrap();
        let steps = sem.silent_steps(&st);
        assert_eq!(steps, vec![SilentStep::Retire { by: M0, loc: x(1) }]);
        let st = sem.apply_silent(&st, &steps[0]).unwrap();
        assert!(no_requests(&st));
    }

    #[test]
    fn barrier_blocks_until_retired() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem
            .apply(&st, &Label::lstore(M0, x(1), Val(1)).into())
            .unwrap();
        let st = sem.apply(&st, &AsyncLabel::aflush(M0, x(1))).unwrap();
        assert!(matches!(
            sem.apply(&st, &AsyncLabel::barrier(M0)),
            Err(StepError::Blocked { .. })
        ));
        let st = drain(&sem, st);
        let st = sem.apply(&st, &AsyncLabel::barrier(M0)).unwrap();
        // The drained value is persistent.
        assert_eq!(st.memory(x(1)), Val(1));
    }

    #[test]
    fn barrier_only_waits_for_own_buffer() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem
            .apply(&st, &Label::lstore(M0, x(1), Val(1)).into())
            .unwrap();
        let st = sem.apply(&st, &AsyncLabel::aflush(M0, x(1))).unwrap();
        // m1's barrier does not care about m0's pending request.
        assert!(sem.apply(&st, &AsyncLabel::barrier(M1)).is_ok());
    }

    #[test]
    fn retire_requires_drained_line() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem
            .apply(&st, &Label::lstore(M0, x(1), Val(1)).into())
            .unwrap();
        let st = sem.apply(&st, &AsyncLabel::aflush(M0, x(1))).unwrap();
        let err = sem
            .apply_silent(&st, &SilentStep::Retire { by: M0, loc: x(1) })
            .unwrap_err();
        assert!(matches!(err, StepError::Blocked { .. }));
        // Not listed among enabled steps either.
        assert!(sem
            .silent_steps(&st)
            .iter()
            .all(|s| !matches!(s, SilentStep::Retire { .. })));
    }

    #[test]
    fn retire_without_pending_request_is_blocked() {
        let sem = sem2();
        let st = sem.initial_state();
        let err = sem
            .apply_silent(&st, &SilentStep::Retire { by: M0, loc: x(1) })
            .unwrap_err();
        assert!(matches!(err, StepError::Blocked { .. }));
    }

    #[test]
    fn crash_discards_the_crashed_machines_buffer() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem
            .apply(&st, &Label::lstore(M0, x(1), Val(1)).into())
            .unwrap();
        let st = sem.apply(&st, &AsyncLabel::aflush(M0, x(1))).unwrap();
        let st = sem.apply(&st, &Label::crash(M0).into()).unwrap();
        assert!(buffer(&st, M0).is_empty());
        // The barrier now succeeds vacuously — and proves nothing, because
        // the request died with the machine.
        assert!(sem.apply(&st, &AsyncLabel::barrier(M0)).is_ok());
    }

    #[test]
    fn crash_of_other_machine_keeps_buffer() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem
            .apply(&st, &Label::lstore(M0, x(1), Val(1)).into())
            .unwrap();
        let st = sem.apply(&st, &AsyncLabel::aflush(M0, x(1))).unwrap();
        let st = sem.apply(&st, &Label::crash(M1).into()).unwrap();
        assert!(buffer(&st, M0) == [x(1)]);
    }

    #[test]
    fn batching_persists_all_lines_before_barrier() {
        let sem = sem2();
        let y = Loc::new(M1, 1);
        let mut st = sem.initial_state();
        for (loc, v) in [(x(1), 1), (y, 2)] {
            st = sem
                .apply(&st, &Label::lstore(M0, loc, Val(v)).into())
                .unwrap();
            st = sem.apply(&st, &AsyncLabel::aflush(M0, loc)).unwrap();
        }
        let st = drain(&sem, st);
        let st = sem.apply(&st, &AsyncLabel::barrier(M0)).unwrap();
        assert_eq!(st.memory(x(1)), Val(1));
        assert_eq!(st.memory(y), Val(2));
    }

    #[test]
    fn later_store_value_is_what_persists() {
        // AFlush(x) then another LStore(x): the retirement persists the
        // *latest* drained value, as a real write-back would.
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem
            .apply(&st, &Label::lstore(M0, x(1), Val(1)).into())
            .unwrap();
        let st = sem.apply(&st, &AsyncLabel::aflush(M0, x(1))).unwrap();
        let st = sem
            .apply(&st, &Label::lstore(M0, x(1), Val(2)).into())
            .unwrap();
        let st = drain(&sem, st);
        let st = sem.apply(&st, &AsyncLabel::barrier(M0)).unwrap();
        assert_eq!(st.memory(x(1)), Val(2));
    }

    #[test]
    fn unknown_machine_and_location_rejected() {
        let sem = sem2();
        let st = sem.initial_state();
        assert!(matches!(
            sem.apply(&st, &AsyncLabel::aflush(MachineId(9), x(1))),
            Err(StepError::UnknownMachine { .. })
        ));
        assert!(matches!(
            sem.apply(&st, &AsyncLabel::aflush(M0, Loc::new(MachineId(9), 0))),
            Err(StepError::UnknownLocation { .. })
        ));
        assert!(matches!(
            sem.apply(&st, &AsyncLabel::barrier(MachineId(9))),
            Err(StepError::UnknownMachine { .. })
        ));
    }

    #[test]
    fn base_labels_behave_as_in_base_semantics() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem
            .apply(&st, &Label::mstore(M0, x(1), Val(7)).into())
            .unwrap();
        assert_eq!(st.memory(x(1)), Val(7));
        assert!(st.no_cache_holds(x(1)));
        assert!(no_requests(&st));
    }

    #[test]
    fn variant_carries_through() {
        let sem =
            AsyncSemantics::with_variant(SystemConfig::symmetric_nvm(2, 1), ModelVariant::Psn);
        assert_eq!(sem.base().variant(), ModelVariant::Psn);
        let st = sem.initial_state();
        let st = sem
            .apply(&st, &Label::lstore(M1, x(0), Val(1)).into())
            .unwrap();
        let st = sem.apply(&st, &Label::crash(M0).into()).unwrap();
        // PSN: m1's copy of m0's line is poisoned away.
        assert_eq!(st.cache(M1, x(0)), None);
    }

    #[test]
    fn display_includes_buffers() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &AsyncLabel::aflush(M0, x(1))).unwrap();
        let s = st.to_string();
        assert!(s.contains("P_m0"), "{s}");
        assert!(s.contains("x[m1:a0]"), "{s}");
    }

    #[test]
    fn silent_step_display() {
        let step = SilentStep::Retire { by: M0, loc: x(1) };
        assert_eq!(step.to_string(), "τ[retire m0 x[m1:a0]]");
    }

    /// Every assignment of pending masks (three machines) and cached lines
    /// to three cells: a crash of a machine set clears exactly its bits
    /// in every cell, `Retire_i(x)` is enabled iff bit `i` is set at `x`
    /// and no cache holds `x`, and `Barrier_i` is blocked iff some cell
    /// holds bit `i`.
    #[test]
    fn masks_follow_crashes_retirements_and_barriers() {
        use crate::cell::Cell;
        use crate::config::MachineConfig;
        let mut grouped = MachineConfig::non_volatile(1);
        grouped.crash_group = vec![M1];
        let cfg = SystemConfig::new(vec![
            grouped,
            MachineConfig::volatile(1),
            MachineConfig::non_volatile(1),
        ]);
        let sem = AsyncSemantics::new(cfg.clone());
        let locs: Vec<Loc> = cfg.all_locations().collect();
        for (masks, cached) in (0..512u64).flat_map(|m| (0..8u64).map(move |c| (m, c))) {
            let mut st = sem.initial_state();
            for (k, &loc) in locs.iter().enumerate() {
                let cell = Cell {
                    holders: (cached >> k & 1) << k,
                    cache: Val(1),
                    mem: Val(0),
                    pending: masks >> (3 * k) & 7,
                };
                st.set_cell(loc, cell);
            }
            for victims in 0..8u64 {
                for &loc in &locs {
                    let c = st.cell(loc);
                    let crash = CellLabel::Crash(victims, false);
                    let (post, _) = cell::step(c, loc.owner, loc.owner, crash, ModelVariant::Base)
                        .expect("a crash never blocks");
                    assert_eq!(post.pending, c.pending & !victims, "{victims:#b} at {loc}");
                }
            }
            for m in cfg.machines() {
                let domain = (cfg.failure_domain(m).iter()).fold(0, |b, d| b | 1 << d.index());
                let crashed = sem.apply(&st, &Label::crash(m).into()).unwrap();
                for &loc in &locs {
                    let (before, after) = (st.cell(loc).pending, crashed.cell(loc).pending);
                    assert_eq!(after, before & !domain, "crash of {m} at {loc}");
                }
                let bit = 1 << m.index();
                let held = locs.iter().any(|&l| st.cell(l).pending & bit != 0);
                let barrier = sem.apply(&st, &AsyncLabel::barrier(m));
                assert_eq!(barrier.is_err(), held, "Barrier_{m} in\n{st}");
                for &loc in &locs {
                    let c = st.cell(loc);
                    let enabled = c.pending & bit != 0 && c.holders == 0;
                    let retire = SilentStep::Retire { by: m, loc };
                    assert_eq!(sem.apply_silent(&st, &retire).is_ok(), enabled);
                    assert_eq!(sem.silent_steps(&st).contains(&retire), enabled);
                }
            }
        }
    }

    #[test]
    fn states_are_ord_and_hashable() {
        use std::collections::BTreeSet;
        let sem = sem2();
        let a = sem.initial_state();
        let b = sem.apply(&a, &AsyncLabel::aflush(M0, x(1))).unwrap();
        let mut set = BTreeSet::new();
        set.insert(a.clone());
        set.insert(b);
        set.insert(a);
        assert_eq!(set.len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    //! Properties of the extension: buffers only hold valid locations,
    //! and a retire step is enabled whenever its line has drained.

    use proptest::prelude::*;

    use super::*;
    use crate::label::StoreKind;

    fn arb_label(machines: usize, locs_per: u32) -> impl Strategy<Value = AsyncLabel> {
        let m = 0..machines;
        let owner = 0..machines;
        let a = 0..locs_per;
        let v = 0..3u64;
        (m, owner, a, v, 0..10u8).prop_map(|(m, owner, a, v, which)| {
            let by = MachineId(m);
            let loc = Loc::new(MachineId(owner), a);
            match which {
                0 => Label::lstore(by, loc, Val(v)).into(),
                1 => Label::rstore(by, loc, Val(v)).into(),
                2 => Label::mstore(by, loc, Val(v)).into(),
                3 => Label::load(by, loc, Val(v)).into(),
                4 => Label::lflush(by, loc).into(),
                5 => Label::rflush(by, loc).into(),
                6 => Label::crash(by).into(),
                7 => Label::rmw(StoreKind::Local, by, loc, Val(v), Val(v + 1)).into(),
                8 => AsyncLabel::aflush(by, loc),
                _ => AsyncLabel::barrier(by),
            }
        })
    }

    proptest! {
        #[test]
        fn invariants_preserved_under_random_async_sequences(
            labels in proptest::collection::vec(arb_label(3, 2), 0..40),
            taus in proptest::collection::vec(0usize..4, 0..40),
        ) {
            let cfg = SystemConfig::new(vec![
                crate::config::MachineConfig::non_volatile(2),
                crate::config::MachineConfig::volatile(2),
                crate::config::MachineConfig::compute_only(),
            ]);
            let sem = AsyncSemantics::new(cfg.clone());
            let mut st = sem.initial_state();
            let mut tau_iter = taus.into_iter().cycle();
            for label in labels {
                if label.loc().is_some_and(|l| !cfg.contains_loc(l)) {
                    continue;
                }
                // Fix up observation labels so the step is enabled.
                let fixed = match label {
                    AsyncLabel::Base(Label::Load { by, loc, .. }) => {
                        Label::load(by, loc, sem.load_value(&st, loc)).into()
                    }
                    AsyncLabel::Base(Label::Rmw { kind, by, loc, new, .. }) => {
                        Label::rmw(kind, by, loc, sem.load_value(&st, loc), new).into()
                    }
                    other => other,
                };
                if let Ok(next) = sem.apply(&st, &fixed) {
                    st = next;
                }
                // Buffers only hold valid locations.
                for m in cfg.machines() {
                    for loc in st.pending(m) {
                        prop_assert!(cfg.contains_loc(loc));
                    }
                }
                // Interleave a random enabled silent step.
                let steps = sem.silent_steps(&st);
                if !steps.is_empty() {
                    let k = tau_iter.next().unwrap_or(0) % steps.len();
                    st = sem.apply_silent(&st, &steps[k]).unwrap();
                }
            }
        }

        #[test]
        fn retire_enabled_iff_pending_and_drained(
            labels in proptest::collection::vec(arb_label(2, 2), 0..25),
        ) {
            let cfg = SystemConfig::symmetric_nvm(2, 2);
            let sem = AsyncSemantics::new(cfg.clone());
            let mut st = sem.initial_state();
            for label in labels {
                let fixed = match label {
                    AsyncLabel::Base(Label::Load { by, loc, .. }) => {
                        Label::load(by, loc, sem.load_value(&st, loc)).into()
                    }
                    AsyncLabel::Base(Label::Rmw { kind, by, loc, new, .. }) => {
                        Label::rmw(kind, by, loc, sem.load_value(&st, loc), new).into()
                    }
                    other => other,
                };
                if let Ok(next) = sem.apply(&st, &fixed) {
                    st = next;
                }
                let enabled: std::collections::BTreeSet<_> = sem
                    .silent_steps(&st)
                    .into_iter()
                    .filter(|s| matches!(s, SilentStep::Retire { .. }))
                    .collect();
                for m in cfg.machines() {
                    for loc in st.pending(m) {
                        let step = SilentStep::Retire { by: m, loc };
                        let should = st.no_cache_holds(loc);
                        prop_assert_eq!(enabled.contains(&step), should);
                        prop_assert_eq!(sem.apply_silent(&st, &step).is_ok(), should);
                    }
                }
            }
        }
    }
}
