//! The `CXL0_AF` rules (§3.2) at work: an example here, and unit tests and
//! properties of `AFlush`, `Barrier`, the retirement of pending requests
//! and their discard on a crash, all over plain
//! [`Semantics`](crate::Semantics). The rules themselves are documented
//! in [`semantics`](crate::semantics). The module adds no items: the
//! labels are [`Label::AFlush`](crate::Label::AFlush) and
//! [`Label::Barrier`](crate::Label::Barrier).
//!
//! # Examples
//!
//! `AFlush` is non-blocking even while the line is still cached, but the
//! barrier blocks until the request has retired:
//!
//! ```
//! use cxl0_model::{Label, Loc, MachineId, Semantics, SystemConfig, Val};
//!
//! let sem = Semantics::new(SystemConfig::symmetric_nvm(2, 1));
//! let (m0, x) = (MachineId(0), Loc::new(MachineId(1), 0));
//! let st = sem.apply(&sem.initial_state(), &Label::lstore(m0, x, Val(1)))?;
//! let st = sem.apply(&st, &Label::aflush(m0, x))?;
//! assert_eq!(st.pending(m0).collect::<Vec<_>>(), [x]);
//! assert!(sem.apply(&st, &Label::barrier(m0)).is_err());
//! # Ok::<(), cxl0_model::StepError>(())
//! ```

#[cfg(test)]
mod tests {
    use crate::cell::{self, CellLabel};
    use crate::{Label, Loc, MachineId, ModelVariant, Semantics, SilentStep, State};
    use crate::{StepError, SystemConfig, Val};

    const M0: MachineId = MachineId(0);
    const M1: MachineId = MachineId(1);

    fn sem2() -> Semantics {
        Semantics::new(SystemConfig::symmetric_nvm(2, 2))
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
    fn drain(sem: &Semantics, mut st: State) -> State {
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
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        let st = sem.apply(&st, &Label::aflush(M0, x(1))).unwrap();
        assert!(buffer(&st, M0) == [x(1)]);
        assert_eq!(buffer(&st, M0).len(), 1);
        assert!(buffer(&st, M1).is_empty());
    }

    #[test]
    fn aflush_on_uncached_line_retires_immediately() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::aflush(M0, x(1))).unwrap();
        let steps = sem.silent_steps(&st);
        assert_eq!(steps, vec![SilentStep::Retire { by: M0, loc: x(1) }]);
        let st = sem.apply_silent(&st, &steps[0]).unwrap();
        assert!(no_requests(&st));
    }

    #[test]
    fn barrier_blocks_until_retired() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        let st = sem.apply(&st, &Label::aflush(M0, x(1))).unwrap();
        assert!(matches!(
            sem.apply(&st, &Label::barrier(M0)),
            Err(StepError::Blocked { .. })
        ));
        let st = drain(&sem, st);
        let st = sem.apply(&st, &Label::barrier(M0)).unwrap();
        // The drained value is persistent.
        assert_eq!(st.memory(x(1)), Val(1));
    }

    #[test]
    fn barrier_only_waits_for_own_buffer() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        let st = sem.apply(&st, &Label::aflush(M0, x(1))).unwrap();
        // m1's barrier does not care about m0's pending request.
        assert!(sem.apply(&st, &Label::barrier(M1)).is_ok());
    }

    #[test]
    fn retire_requires_drained_line() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        let st = sem.apply(&st, &Label::aflush(M0, x(1))).unwrap();
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
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        let st = sem.apply(&st, &Label::aflush(M0, x(1))).unwrap();
        let st = sem.apply(&st, &Label::crash(M0)).unwrap();
        assert!(buffer(&st, M0).is_empty());
        // The barrier now succeeds vacuously — and proves nothing, because
        // the request died with the machine.
        assert!(sem.apply(&st, &Label::barrier(M0)).is_ok());
    }

    #[test]
    fn crash_of_other_machine_keeps_buffer() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        let st = sem.apply(&st, &Label::aflush(M0, x(1))).unwrap();
        let st = sem.apply(&st, &Label::crash(M1)).unwrap();
        assert!(buffer(&st, M0) == [x(1)]);
    }

    #[test]
    fn batching_persists_all_lines_before_barrier() {
        let sem = sem2();
        let y = Loc::new(M1, 1);
        let mut st = sem.initial_state();
        for (loc, v) in [(x(1), 1), (y, 2)] {
            st = sem.apply(&st, &Label::lstore(M0, loc, Val(v))).unwrap();
            st = sem.apply(&st, &Label::aflush(M0, loc)).unwrap();
        }
        let st = drain(&sem, st);
        let st = sem.apply(&st, &Label::barrier(M0)).unwrap();
        assert_eq!(st.memory(x(1)), Val(1));
        assert_eq!(st.memory(y), Val(2));
    }

    #[test]
    fn later_store_value_is_what_persists() {
        // AFlush(x) then another LStore(x): the retirement persists the
        // *latest* drained value, as a real write-back would.
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(1))).unwrap();
        let st = sem.apply(&st, &Label::aflush(M0, x(1))).unwrap();
        let st = sem.apply(&st, &Label::lstore(M0, x(1), Val(2))).unwrap();
        let st = drain(&sem, st);
        let st = sem.apply(&st, &Label::barrier(M0)).unwrap();
        assert_eq!(st.memory(x(1)), Val(2));
    }

    #[test]
    fn unknown_machine_and_location_rejected() {
        let sem = sem2();
        let st = sem.initial_state();
        assert!(matches!(
            sem.apply(&st, &Label::aflush(MachineId(9), x(1))),
            Err(StepError::UnknownMachine { .. })
        ));
        assert!(matches!(
            sem.apply(&st, &Label::aflush(M0, Loc::new(MachineId(9), 0))),
            Err(StepError::UnknownLocation { .. })
        ));
        assert!(matches!(
            sem.apply(&st, &Label::barrier(MachineId(9))),
            Err(StepError::UnknownMachine { .. })
        ));
    }

    #[test]
    fn base_labels_behave_as_in_base_semantics() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::mstore(M0, x(1), Val(7))).unwrap();
        assert_eq!(st.memory(x(1)), Val(7));
        assert!(st.no_cache_holds(x(1)));
        assert!(no_requests(&st));
    }

    #[test]
    fn variant_carries_through() {
        let sem = Semantics::with_variant(SystemConfig::symmetric_nvm(2, 1), ModelVariant::Psn);
        assert_eq!(sem.variant(), ModelVariant::Psn);
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::lstore(M1, x(0), Val(1))).unwrap();
        let st = sem.apply(&st, &Label::crash(M0)).unwrap();
        // PSN: m1's copy of m0's line is poisoned away.
        assert_eq!(st.cache(M1, x(0)), None);
    }

    #[test]
    fn display_includes_buffers() {
        let sem = sem2();
        let st = sem.initial_state();
        let st = sem.apply(&st, &Label::aflush(M0, x(1))).unwrap();
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
        let sem = Semantics::new(cfg.clone());
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
                let crashed = sem.apply(&st, &Label::crash(m)).unwrap();
                for &loc in &locs {
                    let (before, after) = (st.cell(loc).pending, crashed.cell(loc).pending);
                    assert_eq!(after, before & !domain, "crash of {m} at {loc}");
                }
                let bit = 1 << m.index();
                let held = locs.iter().any(|&l| st.cell(l).pending & bit != 0);
                let barrier = sem.apply(&st, &Label::barrier(m));
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
        let b = sem.apply(&a, &Label::aflush(M0, x(1))).unwrap();
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

    use crate::label::StoreKind;
    use crate::{Label, Loc, MachineId, Semantics, SilentStep, SystemConfig, Val};

    fn arb_label(machines: usize, locs_per: u32) -> impl Strategy<Value = Label> {
        let m = 0..machines;
        let owner = 0..machines;
        let a = 0..locs_per;
        let v = 0..3u64;
        (m, owner, a, v, 0..10u8).prop_map(|(m, owner, a, v, which)| {
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
                7 => Label::rmw(StoreKind::Local, by, loc, Val(v), Val(v + 1)),
                8 => Label::aflush(by, loc),
                _ => Label::barrier(by),
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
            let sem = Semantics::new(cfg.clone());
            let mut st = sem.initial_state();
            let mut tau_iter = taus.into_iter().cycle();
            for label in labels {
                if label.loc().is_some_and(|l| !cfg.contains_loc(l)) {
                    continue;
                }
                // Fix up observation labels so the step is enabled.
                let fixed = match label {
                    Label::Load { by, loc, .. } => {
                        Label::load(by, loc, sem.load_value(&st, loc))
                    }
                    Label::Rmw { kind, by, loc, new, .. } => {
                        Label::rmw(kind, by, loc, sem.load_value(&st, loc), new)
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
            let sem = Semantics::new(cfg.clone());
            let mut st = sem.initial_state();
            for label in labels {
                let fixed = match label {
                    Label::Load { by, loc, .. } => {
                        Label::load(by, loc, sem.load_value(&st, loc))
                    }
                    Label::Rmw { kind, by, loc, new, .. } => {
                        Label::rmw(kind, by, loc, sem.load_value(&st, loc), new)
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
