//! # `cxl0-model` — the CXL0 programming model as an executable semantics
//!
//! This crate implements the formal core of *"A Programming Model for
//! Disaggregated Memory over CXL"* (ASPLOS 2026): the **CXL0** labeled
//! transition system of §3, including
//!
//! * system states `γ = (C, M)` — per-machine abstract caches and memories
//!   ([`State`]),
//! * the visible transition labels — `Load`, `LStore`/`RStore`/`MStore`,
//!   `LFlush`/`RFlush`, `GPF`, six RMW flavours, per-machine crashes, and
//!   the `AFlush`/`Barrier` pair of the `CXL0_AF` extension ([`Label`]),
//! * the silent propagation steps `Propagate-C-C` / `Propagate-C-M`, and
//!   the retirement of `CXL0_AF` flush requests ([`SilentStep`]),
//! * the per-location rules of Figure 2, which the executable fabric
//!   shares ([`cell::step`]), lifted to whole states ([`Semantics`]),
//! * the model variants `CXL0_PSN` and `CXL0_LWB` of §3.5
//!   ([`ModelVariant`]), and
//! * the system-model topologies of §4 with their primitive restrictions
//!   ([`Topology`]).
//!
//! The semantics is deliberately *small-step and deterministic per label*:
//! all nondeterminism lives in the choice of silent steps and crash points,
//! which is what the companion crate `cxl0-explore` enumerates.
//!
//! ## Quick example
//!
//! Litmus test 1 of the paper — an `RStore` may be lost on crash:
//!
//! ```
//! use cxl0_model::{Semantics, SystemConfig, Label, Loc, MachineId, Val};
//!
//! let cfg = SystemConfig::symmetric_nvm(1, 1);
//! let sem = Semantics::new(cfg);
//! let x = Loc::new(MachineId(0), 0);
//!
//! let st = sem.initial_state();
//! let st = sem.apply(&st, &Label::rstore(MachineId(0), x, Val(1)))?;
//! let st = sem.apply(&st, &Label::crash(MachineId(0)))?;
//! // The store never reached persistent memory, so 0 is observable:
//! let st = sem.apply(&st, &Label::load(MachineId(0), x, Val(0)))?;
//! assert_eq!(st.memory(x), Val::ZERO);
//! # Ok::<(), cxl0_model::StepError>(())
//! ```
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`ids`] | §3.1 | `MachineId`, `Addr`, `Loc`, `Val` |
//! | [`config`] | §3.1 | machines, memory kinds, failure domains |
//! | [`label`] | §3.3 | visible labels (with `CXL0_AF`'s `AFlush`, `Barrier`), primitives, silent steps |
//! | [`state`] | §3.3 | `γ = (C, M)` as one cell per location (the global cache invariant) |
//! | [`cell`] | Fig. 2, §3.2–3.5 | one location's `(holders, cache, memory, pending)` and the per-location rules |
//! | [`semantics`] | Fig. 2, §3.2–3.3 | the rules over whole states, `GPF` and `Barrier`, silent-step enumeration; `CXL0_AF` |
//! | [`variant`] | §3.5 | `CXL0`, `CXL0_PSN`, `CXL0_LWB` |
//! | [`topology`] | §4 | primitive availability per configuration |
//! | [`trace`] | §3.4 | label sequences & litmus notation |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod config;
pub mod ids;
pub mod label;
pub mod semantics;
pub mod state;
pub mod topology;
pub mod trace;
pub mod variant;

pub use config::{MachineConfig, MemoryKind, SystemConfig};
pub use ids::{Addr, Loc, MachineId, Val};
pub use label::{FlushKind, Label, Primitive, SilentStep, StoreKind};
pub use semantics::{Semantics, StepError, StepResult};
pub use state::State;
pub use topology::{Capabilities, Topology};
pub use trace::Trace;
pub use variant::ModelVariant;

mod asyncflush;

#[cfg(test)]
mod invariant_proptests {
    //! Properties of every state reachable by visible and silent steps:
    //! it is canonical, and the caches that hold a location agree.

    use proptest::prelude::*;

    use crate::*;

    const VALS: [u64; 3] = [0, 1, 2];

    fn arb_label(machines: usize, locs_per: u32) -> impl Strategy<Value = Label> {
        let m = 0..machines;
        let owner = 0..machines;
        let a = 0..locs_per;
        let v = proptest::sample::select(VALS.to_vec());
        let v2 = proptest::sample::select(VALS.to_vec());
        (m, owner, a, v, v2, 0..8u8).prop_map(|(m, owner, a, v, v2, which)| {
            let by = MachineId(m);
            let loc = Loc::new(MachineId(owner), a);
            match which {
                0 => Label::lstore(by, loc, Val(v)),
                1 => Label::rstore(by, loc, Val(v)),
                2 => Label::mstore(by, loc, Val(v)),
                3 => Label::load(by, loc, Val(v)),
                4 => Label::lflush(by, loc),
                5 => Label::rflush(by, loc),
                6 => Label::crash(by),
                _ => Label::rmw(StoreKind::Local, by, loc, Val(v), Val(v2)),
            }
        })
    }

    /// A cell no cache holds caches 0, no base CXL0 label or silent step
    /// sets a pending bit (only `AFlush` does), and `st` equals the state
    /// rebuilt cell by cell from its `cache` and `memory` views.
    fn assert_canonical(sem: &Semantics, st: &State) -> Result<(), TestCaseError> {
        let mut rebuilt = sem.initial_state();
        for loc in sem.config().all_locations() {
            let c = st.cell(loc);
            prop_assert!(
                c.holders != 0 || c.cache == Val::ZERO,
                "{} caches {}",
                loc,
                c.cache
            );
            prop_assert_eq!(c.pending, 0, "base CXL0 set a pending bit at {}", loc);
            let mut view = cell::Cell {
                mem: st.memory(loc),
                ..cell::Cell::default()
            };
            for m in sem.config().machines() {
                if let Some(v) = st.cache(m, loc) {
                    view.holders |= 1 << m.index();
                    view.cache = v;
                }
            }
            rebuilt.set_cell(loc, view);
        }
        prop_assert_eq!(&rebuilt, st);
        Ok(())
    }

    proptest! {
        #[test]
        fn states_stay_canonical_under_random_sequences(
            labels in proptest::collection::vec(arb_label(3, 2), 0..40),
            taus in proptest::collection::vec(0usize..4, 0..40),
            variant in proptest::sample::select(ModelVariant::ALL.to_vec()),
        ) {
            let cfg = SystemConfig::new(vec![
                MachineConfig::non_volatile(2),
                MachineConfig::volatile(2),
                MachineConfig::compute_only(),
            ]);
            let sem = Semantics::with_variant(cfg, variant);
            let mut st = sem.initial_state();
            let mut tau_iter = taus.into_iter().cycle();
            for label in labels {
                if label.loc().is_some_and(|l| !sem.config().contains_loc(l)) {
                    continue;
                }
                // Fix up load/rmw observed values so the step is enabled.
                let fixed = match label {
                    Label::Load { by, loc, .. } =>
                        Label::load(by, loc, sem.load_value(&st, loc)),
                    Label::Rmw { kind, by, loc, new, .. } =>
                        Label::rmw(kind, by, loc, sem.load_value(&st, loc), new),
                    other => other,
                };
                if let Ok(next) = sem.apply(&st, &fixed) {
                    st = next;
                    assert_canonical(&sem, &st)?;
                }
                // Interleave a random enabled silent step.
                let steps = sem.silent_steps(&st);
                if !steps.is_empty() {
                    let k = tau_iter.next().unwrap_or(0) % steps.len();
                    st = sem.apply_silent(&st, &steps[k]).unwrap();
                    assert_canonical(&sem, &st)?;
                }
            }
        }

        #[test]
        fn visible_value_is_unique_per_state(
            labels in proptest::collection::vec(arb_label(2, 1), 0..25),
        ) {
            let cfg = SystemConfig::symmetric_nvm(2, 1);
            let sem = Semantics::new(cfg.clone());
            let mut st = sem.initial_state();
            for label in labels {
                let fixed = match label {
                    Label::Load { by, loc, .. } =>
                        Label::load(by, loc, sem.load_value(&st, loc)),
                    Label::Rmw { kind, by, loc, new, .. } =>
                        Label::rmw(kind, by, loc, sem.load_value(&st, loc), new),
                    other => other,
                };
                if let Ok(next) = sem.apply(&st, &fixed) {
                    st = next;
                }
                for loc in cfg.all_locations() {
                    // All caches that hold the location agree with visible_value.
                    for m in st.holders(loc) {
                        prop_assert_eq!(st.cache(m, loc).unwrap(), st.visible_value(loc));
                    }
                }
            }
        }
    }
}
