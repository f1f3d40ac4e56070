//! Refinement of the executable runtime against the `CXL0_AF` extension:
//! every behavior `SimFabric` produces with `aflush`/`barrier` in the mix
//! must be a behavior of the asynchronous-flush semantics
//! (`cxl0_model::asyncflush`), labels interleaved with `τ*` — where `τ`
//! now includes persistency-buffer retirement.
//!
//! The backend implements `barrier` by *forcing* the write-backs its
//! blocking rule waits for: each pending line drains as an `RFlush` by
//! its owner through `cxl0_model::cell::force`, the per-location rules
//! the model's `Semantics` applies too. The explorer's τ-closure before
//! each label shows the resulting state is one the blocking rule
//! admits. The runtime's concurrent step oracle
//! (`threaded_steps_replay_through_the_model_rules`) checks each
//! `AFlush`, retirement and crash discard against the cells' pending
//! masks; this suite checks whole sequential histories, observed values
//! included, against the model's states, whose masks
//! (`State::pending`) must admit the backend's buffers.

use cxl0::explore::{Explorer, StateSet};
use cxl0::model::asyncflush::{AsyncLabel, AsyncSemantics};
use cxl0::model::{Label, Loc, MachineConfig, MachineId, StoreKind, SystemConfig, Val};
use cxl0::runtime::SimFabric;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Load(usize, usize),
    Store(StoreKind, usize, usize, u64),
    AFlush(usize, usize),
    Barrier(usize),
    RFlush(usize, usize),
    Crash(usize),
    Recover(usize),
    Propagate(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let m = 0..2usize;
    let l = 0..2usize;
    let v = 1..3u64;
    let kind = prop_oneof![
        Just(StoreKind::Local),
        Just(StoreKind::Remote),
        Just(StoreKind::Memory)
    ];
    prop_oneof![
        (m.clone(), l.clone()).prop_map(|(m, l)| Op::Load(m, l)),
        (kind, m.clone(), l.clone(), v).prop_map(|(k, m, l, v)| Op::Store(k, m, l, v)),
        (m.clone(), l.clone()).prop_map(|(m, l)| Op::AFlush(m, l)),
        m.clone().prop_map(Op::Barrier),
        (m.clone(), l.clone()).prop_map(|(m, l)| Op::RFlush(m, l)),
        m.clone().prop_map(Op::Crash),
        m.clone().prop_map(Op::Recover),
        any::<u64>().prop_map(Op::Propagate),
    ]
}

fn config() -> SystemConfig {
    SystemConfig::new(vec![
        MachineConfig::non_volatile(2),
        MachineConfig::volatile(2),
    ])
}

fn loc(owner: usize, addr: usize) -> Loc {
    Loc::new(MachineId(owner), addr as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn backend_with_async_flushes_refines_cxl0_af(
        ops in proptest::collection::vec(arb_op(), 0..35),
    ) {
        let cfg = config();
        let fabric = SimFabric::with_variant(cfg.clone(), cxl0::model::ModelVariant::Base);
        let sem = AsyncSemantics::new(cfg);
        let exp = Explorer::new(&sem);
        let mut states: StateSet = exp.initial_set();
        let nodes: Vec<_> = (0..2).map(|m| fabric.node(MachineId(m))).collect();

        for op in ops {
            match op {
                Op::Load(m, l) => {
                    let Ok(v) = nodes[m].load(loc(l % 2, l)) else { continue };
                    states = exp.after_label(
                        &states,
                        &Label::load(MachineId(m), loc(l % 2, l), Val(v)).into(),
                    );
                }
                Op::Store(kind, m, l, v) => {
                    let target = loc((m + l) % 2, l);
                    if nodes[m].store(kind, target, v).is_err() {
                        continue;
                    }
                    states = exp.after_label(
                        &states,
                        &Label::store(kind, MachineId(m), target, Val(v)).into(),
                    );
                }
                Op::AFlush(m, l) => {
                    let target = loc(l % 2, l);
                    if nodes[m].aflush(target).is_err() {
                        continue;
                    }
                    states = exp.after_label(&states, &AsyncLabel::aflush(MachineId(m), target));
                }
                Op::Barrier(m) => {
                    if nodes[m].barrier().is_err() {
                        continue;
                    }
                    states = exp.after_label(&states, &AsyncLabel::barrier(MachineId(m)));
                }
                Op::RFlush(m, l) => {
                    let target = loc(l % 2, l);
                    if nodes[m].rflush(target).is_err() {
                        continue;
                    }
                    states =
                        exp.after_label(&states, &Label::rflush(MachineId(m), target).into());
                }
                Op::Crash(m) => {
                    if fabric.is_crashed(MachineId(m)) {
                        continue;
                    }
                    fabric.crash(MachineId(m));
                    states = exp.after_label(&states, &Label::crash(MachineId(m)).into());
                }
                Op::Recover(m) => fabric.recover(MachineId(m)),
                Op::Propagate(seed) => fabric.propagate_randomly(seed, 3),
            }
            prop_assert!(
                !states.is_empty(),
                "backend produced a behavior CXL0_AF forbids"
            );
        }

        // The backend's pending-buffer sizes must be admitted by some
        // model state (the model may hold more pending entries — the
        // backend retires eagerly at barriers, never more lazily).
        let buffers_match = states.iter().any(|st| {
            (0..2).all(|m| st.pending(MachineId(m)).count() >= fabric.pending_flushes(MachineId(m)))
        });
        prop_assert!(buffers_match, "no model state admits the backend's buffers");
    }
}

/// The motivating end-to-end scenario, deterministic: batching under one
/// barrier behaves identically in model and backend.
#[test]
fn deterministic_batching_scenario_matches_model() {
    let cfg = SystemConfig::symmetric_nvm(2, 2);
    let fabric = SimFabric::with_variant(cfg.clone(), cxl0::model::ModelVariant::Base);
    let n0 = fabric.node(MachineId(0));
    let x = Loc::new(MachineId(1), 0);
    let y = Loc::new(MachineId(1), 1);

    n0.lstore(x, 1).unwrap();
    n0.lstore(y, 2).unwrap();
    n0.aflush(x).unwrap();
    n0.aflush(y).unwrap();
    assert_eq!(fabric.pending_flushes(MachineId(0)), 2);
    assert_eq!(n0.barrier().unwrap(), 2);
    fabric.crash(MachineId(1));
    fabric.recover(MachineId(1));
    assert_eq!(n0.load(x).unwrap(), 1);
    assert_eq!(n0.load(y).unwrap(), 2);

    let sem = AsyncSemantics::new(cfg);
    let exp = Explorer::new(&sem);
    let trace: Vec<AsyncLabel> = vec![
        Label::lstore(MachineId(0), x, Val(1)).into(),
        Label::lstore(MachineId(0), y, Val(2)).into(),
        AsyncLabel::aflush(MachineId(0), x),
        AsyncLabel::aflush(MachineId(0), y),
        AsyncLabel::barrier(MachineId(0)),
        Label::crash(MachineId(1)).into(),
        Label::load(MachineId(0), x, Val(1)).into(),
        Label::load(MachineId(0), y, Val(2)).into(),
    ];
    assert!(exp.is_allowed(&trace));

    // And the lossy observation is forbidden after the barrier:
    let mut lossy = trace;
    lossy[6] = Label::load(MachineId(0), x, Val(0)).into();
    assert!(!exp.is_allowed(&lossy));
}
