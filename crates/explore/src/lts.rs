//! The labelled transition system the rest of the crate is generic over,
//! implemented by the base CXL0 [`Semantics`] and by its `CXL0_AF`
//! asynchronous-flush extension [`AsyncSemantics`].

use std::fmt::{Debug, Display};
use std::hash::Hash;

use cxl0_model::asyncflush::{AsyncLabel, AsyncSemantics, AsyncSilentStep, AsyncState};
use cxl0_model::{
    Label, ModelVariant, Semantics, SilentStep, State, StepError, SystemConfig, Trace,
};

/// A semantics given step by step: visible labels and silent `τ` steps
/// over a state type.
///
/// # Examples
///
/// One [`Explorer`](crate::Explorer) runs both semantics. Under
/// `CXL0_AF`, an un-barriered `AFlush` may lose the store to the owner's
/// crash (litmus A4); a `Barrier` forbids that, exactly like `RFlush`
/// (litmus A3 vs. paper test 5):
///
/// ```
/// use cxl0_explore::Explorer;
/// use cxl0_model::asyncflush::{AsyncLabel, AsyncSemantics};
/// use cxl0_model::{Label, Loc, MachineId, SystemConfig, Val};
///
/// let sem = AsyncSemantics::new(SystemConfig::symmetric_nvm(2, 1));
/// let (m1, m2) = (MachineId(0), MachineId(1));
/// let x = Loc::new(m2, 0);
/// let mut trace = vec![Label::lstore(m1, x, Val(1)).into(), AsyncLabel::aflush(m1, x)];
/// let lost = [Label::crash(m2).into(), Label::load(m1, x, Val(0)).into()];
/// assert!(Explorer::new(&sem).is_allowed(trace.iter().chain(&lost)));
/// trace.push(AsyncLabel::barrier(m1));
/// assert!(!Explorer::new(&sem).is_allowed(trace.iter().chain(&lost)));
/// ```
pub trait Lts {
    /// A global state.
    type State: Clone + Ord + Hash + Debug + Display;
    /// A visible transition label.
    type Label: Copy + Debug + Display + 'static;
    /// A silent step: propagation, and under `CXL0_AF` retirement.
    type Silent: Copy + Debug + Display;
    /// A sequence of visible labels, as a litmus test stores it.
    type Trace: Clone + Debug;

    /// The semantics over `cfg` under `variant`.
    fn with_variant(cfg: SystemConfig, variant: ModelVariant) -> Self;
    /// The initial state.
    fn initial_state(&self) -> Self::State;
    /// Applies one visible label; `Err` if it is blocked or mismatching.
    fn apply(&self, st: &Self::State, label: &Self::Label) -> Result<Self::State, StepError>;
    /// The silent steps enabled in `st`.
    fn silent_steps(&self, st: &Self::State) -> Vec<Self::Silent>;
    /// Applies one enabled silent step.
    fn apply_silent(&self, st: &Self::State, s: &Self::Silent) -> Result<Self::State, StepError>;
    /// The labels of `trace`, in order.
    fn labels(trace: &Self::Trace) -> &[Self::Label];
}

impl Lts for Semantics {
    type State = State;
    type Label = Label;
    type Silent = SilentStep;
    type Trace = Trace;

    fn with_variant(cfg: SystemConfig, variant: ModelVariant) -> Self {
        Semantics::with_variant(cfg, variant)
    }
    fn initial_state(&self) -> State {
        Semantics::initial_state(self)
    }
    fn apply(&self, st: &State, label: &Label) -> Result<State, StepError> {
        Semantics::apply(self, st, label)
    }
    fn silent_steps(&self, st: &State) -> Vec<SilentStep> {
        Semantics::silent_steps(self, st)
    }
    fn apply_silent(&self, st: &State, s: &SilentStep) -> Result<State, StepError> {
        Semantics::apply_silent(self, st, s)
    }
    fn labels(trace: &Trace) -> &[Label] {
        trace.labels()
    }
}

impl Lts for AsyncSemantics {
    type State = AsyncState;
    type Label = AsyncLabel;
    type Silent = AsyncSilentStep;
    type Trace = Vec<AsyncLabel>;

    fn with_variant(cfg: SystemConfig, variant: ModelVariant) -> Self {
        AsyncSemantics::with_variant(cfg, variant)
    }
    fn initial_state(&self) -> AsyncState {
        AsyncSemantics::initial_state(self)
    }
    fn apply(&self, st: &AsyncState, label: &AsyncLabel) -> Result<AsyncState, StepError> {
        AsyncSemantics::apply(self, st, label)
    }
    fn silent_steps(&self, st: &AsyncState) -> Vec<AsyncSilentStep> {
        AsyncSemantics::silent_steps(self, st)
    }
    fn apply_silent(&self, st: &AsyncState, s: &AsyncSilentStep) -> Result<AsyncState, StepError> {
        AsyncSemantics::apply_silent(self, st, s)
    }
    fn labels(trace: &Vec<AsyncLabel>) -> &[AsyncLabel] {
        trace
    }
}
