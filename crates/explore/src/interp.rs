//! The nondeterministic interpreter: lifts the per-label semantics of
//! `cxl0-model` to the paper's `γ ⟹ γ′` relation, in which visible labels
//! may be interleaved with arbitrary silent `τ` steps.
//!
//! Because the semantics is deterministic per visible label, the set of
//! states reachable after a trace is computed by alternating *τ-closure*
//! (saturating under the silent steps) and *label application*. These
//! state sets are exactly the subsets used by a determinized view of the
//! LTS, which the refinement checker builds products of.
//!
//! # Examples
//!
//! Under `CXL0_AF`, an un-barriered `AFlush` may lose the store to the
//! owner's crash (litmus A4); a `Barrier` forbids that, exactly like
//! `RFlush` (litmus A3 vs. paper test 5):
//!
//! ```
//! use cxl0_explore::Explorer;
//! use cxl0_model::{Label, Loc, MachineId, Semantics, SystemConfig, Val};
//!
//! let sem = Semantics::new(SystemConfig::symmetric_nvm(2, 1));
//! let (m1, m2) = (MachineId(0), MachineId(1));
//! let x = Loc::new(m2, 0);
//! let mut trace = vec![Label::lstore(m1, x, Val(1)), Label::aflush(m1, x)];
//! let lost = [Label::crash(m2), Label::load(m1, x, Val(0))];
//! assert!(Explorer::new(&sem).is_allowed(trace.iter().chain(&lost)));
//! trace.push(Label::barrier(m1));
//! assert!(!Explorer::new(&sem).is_allowed(trace.iter().chain(&lost)));
//! ```

use std::collections::BTreeSet;

use cxl0_model::{Label, Semantics, State};

/// A canonical set of states (τ-closures are represented this way so that
/// they can be hashed and compared during product exploration).
pub type StateSet = BTreeSet<State>;

/// Interprets traces under a fixed [`Semantics`].
///
/// # Examples
///
/// ```
/// use cxl0_explore::Explorer;
/// use cxl0_model::{Semantics, SystemConfig, Label, Loc, MachineId, Val, Trace};
///
/// let sem = Semantics::new(SystemConfig::symmetric_nvm(1, 1));
/// let exp = Explorer::new(&sem);
/// let x = Loc::new(MachineId(0), 0);
///
/// // Litmus test 1: an RStore may be lost on crash.
/// let t = Trace::from_labels([
///     Label::rstore(MachineId(0), x, Val(1)),
///     Label::crash(MachineId(0)),
///     Label::load(MachineId(0), x, Val(0)),
/// ]);
/// assert!(exp.is_allowed(&t));
///
/// // Litmus test 2: an MStore cannot be lost.
/// let t = Trace::from_labels([
///     Label::mstore(MachineId(0), x, Val(1)),
///     Label::crash(MachineId(0)),
///     Label::load(MachineId(0), x, Val(0)),
/// ]);
/// assert!(!exp.is_allowed(&t));
/// ```
#[derive(Debug, Clone)]
pub struct Explorer<'a> {
    sem: &'a Semantics,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer over the given semantics.
    pub fn new(sem: &'a Semantics) -> Self {
        Explorer { sem }
    }

    /// The underlying semantics.
    pub fn semantics(&self) -> &'a Semantics {
        self.sem
    }

    /// The τ-closed singleton of the initial state.
    pub fn initial_set(&self) -> StateSet {
        self.tau_closure(&StateSet::from([self.sem.initial_state()]))
    }

    /// All states reachable from `set` by zero or more silent steps (a
    /// fixpoint; always terminates because propagation strictly moves
    /// values toward memory, retirement strictly shrinks buffers, and the
    /// state space is finite).
    pub fn tau_closure(&self, set: &StateSet) -> StateSet {
        let mut closed = set.clone();
        let mut frontier: Vec<State> = set.iter().cloned().collect();
        while let Some(st) = frontier.pop() {
            for step in self.sem.silent_steps(&st) {
                let next = self
                    .sem
                    .apply_silent(&st, &step)
                    .expect("enumerated silent step must be enabled");
                if closed.insert(next.clone()) {
                    frontier.push(next);
                }
            }
        }
        closed
    }

    /// Applies one visible label to every state in `set` (states where the
    /// label is blocked or mismatching simply drop out), without silent
    /// steps.
    pub fn apply_label(&self, set: &StateSet, label: &Label) -> StateSet {
        set.iter()
            .filter_map(|st| self.sem.apply(st, label).ok())
            .collect()
    }

    /// The `⟹` step for one label: τ-closure, then the label, then
    /// τ-closure again. Input need not be τ-closed.
    pub fn after_label(&self, set: &StateSet, label: &Label) -> StateSet {
        let closed = self.tau_closure(set);
        let stepped = self.apply_label(&closed, label);
        self.tau_closure(&stepped)
    }

    /// The `⟹` relation for a whole label sequence starting from `set`.
    pub fn after_trace<'t>(
        &self,
        set: &StateSet,
        trace: impl IntoIterator<Item = &'t Label>,
    ) -> StateSet {
        let mut cur = self.tau_closure(set);
        for label in trace {
            if cur.is_empty() {
                break;
            }
            cur = self.after_label(&cur, label);
        }
        cur
    }

    /// The states reachable from the initial state via `trace` (with τ
    /// steps interleaved freely).
    pub fn run_trace<'t>(&self, trace: impl IntoIterator<Item = &'t Label>) -> StateSet {
        self.after_trace(&self.initial_set(), trace)
    }

    /// Whether `trace` is executable from the initial state — i.e. whether
    /// the behavior it describes is *allowed* by the model.
    pub fn is_allowed<'t>(&self, trace: impl IntoIterator<Item = &'t Label>) -> bool {
        !self.run_trace(trace).is_empty()
    }

    /// Whether two label sequences lead to exactly the same τ-closed state
    /// sets from `set` — the workhorse for Proposition-1 style equivalence
    /// checks.
    pub fn same_outcomes<'t>(
        &self,
        set: &StateSet,
        a: impl IntoIterator<Item = &'t Label>,
        b: impl IntoIterator<Item = &'t Label>,
    ) -> bool {
        self.after_trace(set, a) == self.after_trace(set, b)
    }

    /// Whether every outcome of `a` is an outcome of `b` from `set`
    /// (`S(a) ⊆ S(b)` in the Prop.-1 reading of "`b` can simulate `a`").
    pub fn simulates<'t>(
        &self,
        set: &StateSet,
        a: impl IntoIterator<Item = &'t Label>,
        b: impl IntoIterator<Item = &'t Label>,
    ) -> bool {
        self.after_trace(set, a)
            .is_subset(&self.after_trace(set, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::reachable_states;
    use cxl0_model::{Loc, MachineId, SystemConfig, Trace, Val};

    const M0: MachineId = MachineId(0);
    const M1: MachineId = MachineId(1);

    fn sem2() -> Semantics {
        Semantics::new(SystemConfig::symmetric_nvm(2, 1))
    }

    fn x(o: usize) -> Loc {
        Loc::new(MachineId(o), 0)
    }

    #[test]
    fn tau_closure_saturates_both_propagation_kinds() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        let st = sem
            .apply(&sem.initial_state(), &Label::lstore(M0, x(1), Val(1)))
            .unwrap();
        let mut set = StateSet::new();
        set.insert(st);
        let closed = exp.tau_closure(&set);
        // States: {C0=1}, {C1=1} (after C-C), {M=1} (after C-M).
        assert_eq!(closed.len(), 3);
        assert!(closed.iter().any(|s| s.memory(x(1)) == Val(1)));
    }

    #[test]
    fn after_label_filters_blocked_branches() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        let set = exp.initial_set();
        let set = exp.after_label(&set, &Label::lstore(M0, x(1), Val(1)));
        // RFlush only proceeds on the branch where propagation completed.
        let flushed = exp.after_label(&set, &Label::rflush(M0, x(1)));
        assert!(!flushed.is_empty());
        for st in &flushed {
            assert_eq!(st.memory(x(1)), Val(1));
            assert!(st.no_cache_holds(x(1)));
        }
    }

    #[test]
    fn run_trace_empty_trace_is_initial_closure() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        let set = exp.run_trace(&Trace::new());
        assert_eq!(set.len(), 1); // initial state has nothing to propagate
    }

    #[test]
    fn load_observation_disambiguates() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        // After a crash of the owner, a load of x(1) must see 0 even though
        // it saw 1 before the crash.
        let t = Trace::from_labels([
            Label::lstore(M0, x(1), Val(1)),
            Label::load(M1, x(1), Val(1)),
            Label::crash(M0),
        ]);
        let set = exp.run_trace(&t);
        assert!(!set.is_empty());
        // Both observations remain possible depending on propagation:
        let sees1 = exp.after_label(&set, &Label::load(M1, x(1), Val(1)));
        let sees0 = exp.after_label(&set, &Label::load(M1, x(1), Val(0)));
        assert!(!sees1.is_empty());
        // 0 requires m1's copy to have drained and been wiped — m1 never
        // crashed and the owner is m1 itself, so its copy persists in cache
        // or memory; 0 must be impossible here.
        assert!(sees0.is_empty());
    }

    #[test]
    fn simulates_and_same_outcomes_agree_on_owner_stores() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        let set = exp.initial_set();
        let ls = Trace::from_labels([Label::lstore(M1, x(1), Val(1))]);
        let rs = Trace::from_labels([Label::rstore(M1, x(1), Val(1))]);
        assert!(exp.same_outcomes(&set, &ls, &rs));
        assert!(exp.simulates(&set, &ls, &rs));
        assert!(exp.simulates(&set, &rs, &ls));
    }

    // The `CXL0_AF` labels through the same explorer.

    #[test]
    fn tau_closure_includes_retirement() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        let st = sem
            .apply(&sem.initial_state(), &Label::aflush(M0, x(1)))
            .unwrap();
        let closed = exp.tau_closure(&StateSet::from([st]));
        // Pending and retired variants of the same base state.
        assert_eq!(closed.len(), 2);
        assert!(closed.iter().any(|st| st.pending(M0).next().is_none()));
    }

    #[test]
    fn barrier_filters_unretired_branches() {
        let sem = sem2();
        let exp = Explorer::new(&sem);
        let trace = [
            Label::lstore(M0, x(1), Val(1)),
            Label::aflush(M0, x(1)),
            Label::barrier(M0),
        ];
        let set = exp.run_trace(&trace);
        assert!(!set.is_empty());
        for st in &set {
            // Every surviving branch has drained and persisted the store.
            assert!(st.pending(M0).next().is_none());
            assert_eq!(st.memory(x(1)), Val(1));
        }
    }

    #[test]
    fn aflush_barrier_equals_rflush_from_reachable_states() {
        // The headline equivalence: from every reachable state with an
        // empty issuer buffer, AFlush;Barrier has exactly RFlush's
        // outcomes. (With a non-empty buffer it is strictly stronger —
        // covered by the inclusion check below.)
        let sem = sem2();
        let exp = Explorer::new(&sem);
        let alphabet = vec![
            Label::lstore(M0, x(1), Val(1)),
            Label::lstore(M1, x(1), Val(2)),
            Label::crash(M1),
            Label::aflush(M0, x(0)),
        ];
        let reachable = reachable_states(&sem, &alphabet);
        assert!(reachable.len() > 3);
        let via_async = [Label::aflush(M0, x(1)), Label::barrier(M0)];
        let via_sync = [Label::rflush(M0, x(1))];
        for st in &reachable {
            let set = StateSet::from([st.clone()]);
            if st.pending(M0).next().is_none() {
                assert!(
                    exp.same_outcomes(&set, &via_async, &via_sync),
                    "outcome mismatch from {st}"
                );
            } else {
                assert!(
                    exp.simulates(&set, &via_async, &via_sync),
                    "AFlush;Barrier must refine RFlush from {st}"
                );
            }
        }
    }

    #[test]
    fn empty_trace_allowed() {
        let sem = sem2();
        assert!(Explorer::new(&sem).is_allowed(&[]));
    }
}
