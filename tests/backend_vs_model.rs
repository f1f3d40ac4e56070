//! Refinement of the executable runtime against the formal model: every
//! behavior the `SimFabric` backend produces, `aflush`/`barrier` included,
//! must be a behavior of the CXL0 semantics with its `CXL0_AF` labels
//! (labels interleaved with `τ*`, where `τ` includes the retirement of
//! pending `AFlush` requests).
//!
//! The fabric and `Semantics` share their per-location rules: both apply
//! `cxl0_model::cell::step` (the fabric through `cell::force`, which takes
//! the `τ*` prefix a blocked flush or LWB load waits for). So each step
//! the fabric takes is a model step by construction, and the concurrent
//! oracle in `crates/runtime/src/backend.rs`
//! (`threaded_steps_replay_through_the_model_rules`) checks the paths
//! that do not compute their result under the cell's lock — the
//! unlocked fast paths — on threaded runs. This suite checks what that
//! oracle cannot: that the whole-state lifting holds end to end.
//!
//! The backend implements `barrier` by *forcing* the write-backs its
//! blocking rule waits for: each pending line drains as an `RFlush` by its
//! owner through `cell::force`. The explorer's τ-closure before each label
//! shows the resulting state is one the blocking rule admits. The
//! concurrent oracle checks each `AFlush`, retirement and crash discard
//! against the cells' pending masks; this suite checks whole sequential
//! histories against the model's states, whose masks (`State::pending`)
//! must admit the backend's buffers.
//!
//! Method: drive both with the same single-threaded operation sequence
//! (including flushes, asynchronous flushes and barriers, random
//! propagation and crashes); after each backend operation, apply the
//! corresponding label to the τ-closed model state set. The set must never
//! become empty, and every loaded value must be admitted by the model.

use std::sync::Arc;

use cxl0::explore::{Explorer, StateSet};
use cxl0::model::{
    Label, Loc, MachineConfig, MachineId, ModelVariant, Semantics, StoreKind, SystemConfig, Val,
};
use cxl0::runtime::SimFabric;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Load(usize, usize),
    Store(StoreKind, usize, usize, u64),
    LFlush(usize, usize),
    RFlush(usize, usize),
    Faa(StoreKind, usize, usize, u64),
    AFlush(usize, usize),
    Barrier(usize),
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
        (kind.clone(), m.clone(), l.clone(), v.clone())
            .prop_map(|(k, m, l, v)| Op::Store(k, m, l, v)),
        (m.clone(), l.clone()).prop_map(|(m, l)| Op::LFlush(m, l)),
        (m.clone(), l.clone()).prop_map(|(m, l)| Op::RFlush(m, l)),
        (kind, m.clone(), l.clone(), v).prop_map(|(k, m, l, v)| Op::Faa(k, m, l, v)),
        (m.clone(), l.clone()).prop_map(|(m, l)| Op::AFlush(m, l)),
        m.clone().prop_map(Op::Barrier),
        m.clone().prop_map(Op::Crash),
        m.clone().prop_map(Op::Recover),
        any::<u64>().prop_map(Op::Propagate),
    ]
}

/// [`arb_op`] biased toward the `CXL0_AF` primitives, so that persistency
/// buffers fill, drain and meet crashes more often. The vendored
/// `prop_oneof!` is unweighted; the repeated arm sets the bias.
fn arb_async_heavy_op() -> impl Strategy<Value = Op> {
    let m = 0..2usize;
    prop_oneof![
        arb_op(),
        arb_op(),
        (m.clone(), 0..2usize).prop_map(|(m, l)| Op::AFlush(m, l)),
        m.prop_map(Op::Barrier),
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

fn run_against_model(variant: ModelVariant, ops: Vec<Op>) {
    let cfg = config();
    let fabric = SimFabric::with_variant(cfg.clone(), variant);
    let sem = Semantics::with_variant(cfg, variant);
    let exp = Explorer::new(&sem);
    let mut states: StateSet = exp.initial_set();
    let nodes: Vec<_> = (0..2).map(|m| fabric.node(MachineId(m))).collect();

    for op in ops {
        match op {
            Op::Load(m, l) => {
                let Ok(v) = nodes[m].load(loc(l % 2, l)) else {
                    continue;
                };
                states =
                    exp.after_label(&states, &Label::load(MachineId(m), loc(l % 2, l), Val(v)));
            }
            Op::Store(kind, m, l, v) => {
                let target = loc((m + l) % 2, l);
                if nodes[m].store(kind, target, v).is_err() {
                    continue;
                }
                states =
                    exp.after_label(&states, &Label::store(kind, MachineId(m), target, Val(v)));
            }
            Op::LFlush(m, l) => {
                let target = loc(l % 2, l);
                if nodes[m].lflush(target).is_err() {
                    continue;
                }
                states = exp.after_label(&states, &Label::lflush(MachineId(m), target));
            }
            Op::RFlush(m, l) => {
                let target = loc(l % 2, l);
                if nodes[m].rflush(target).is_err() {
                    continue;
                }
                states = exp.after_label(&states, &Label::rflush(MachineId(m), target));
            }
            Op::Faa(kind, m, l, d) => {
                let target = loc(l % 2, l);
                let Ok(old) = nodes[m].faa(kind, target, d) else {
                    continue;
                };
                states = exp.after_label(
                    &states,
                    &Label::rmw(
                        kind,
                        MachineId(m),
                        target,
                        Val(old),
                        Val(old.wrapping_add(d)),
                    ),
                );
            }
            Op::AFlush(m, l) => {
                let target = loc(l % 2, l);
                if nodes[m].aflush(target).is_err() {
                    continue;
                }
                states = exp.after_label(&states, &Label::aflush(MachineId(m), target));
            }
            Op::Barrier(m) => {
                if nodes[m].barrier().is_err() {
                    continue;
                }
                states = exp.after_label(&states, &Label::barrier(MachineId(m)));
            }
            Op::Crash(m) => {
                if fabric.is_crashed(MachineId(m)) {
                    continue;
                }
                fabric.crash(MachineId(m));
                states = exp.after_label(&states, &Label::crash(MachineId(m)));
            }
            Op::Recover(m) => fabric.recover(MachineId(m)),
            Op::Propagate(seed) => {
                // Backend τ steps need no model label: the model set is
                // already τ-closed, so the backend state stays inside it.
                fabric.propagate_randomly(seed, 3);
            }
        }
        assert!(
            !states.is_empty(),
            "backend produced a behavior the model forbids (variant {variant})"
        );
    }

    // Final check: the backend's persistent image must be a memory
    // component of some admitted model state.
    let image_matches = states.iter().any(|st| {
        fabric
            .config()
            .all_locations()
            .all(|x| st.memory(x).raw() == fabric.peek_memory(x) || fabric.is_cached(x))
    });
    assert!(
        image_matches,
        "no model state matches the backend's memory image"
    );

    // The backend's pending-buffer sizes must be admitted by some model
    // state (the model may hold more pending entries: the backend retires
    // eagerly at barriers, never more lazily).
    let buffers_match = states.iter().any(|st| {
        (0..2).all(|m| st.pending(MachineId(m)).count() >= fabric.pending_flushes(MachineId(m)))
    });
    assert!(buffers_match, "no model state admits the backend's buffers");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn base_backend_refines_base_model(ops in proptest::collection::vec(arb_op(), 0..40)) {
        run_against_model(ModelVariant::Base, ops);
    }

    #[test]
    fn psn_backend_refines_psn_model(ops in proptest::collection::vec(arb_op(), 0..40)) {
        run_against_model(ModelVariant::Psn, ops);
    }

    #[test]
    fn lwb_backend_refines_lwb_model(ops in proptest::collection::vec(arb_op(), 0..40)) {
        run_against_model(ModelVariant::Lwb, ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn backend_with_async_flushes_refines_cxl0_af(
        ops in proptest::collection::vec(arb_async_heavy_op(), 0..35),
    ) {
        run_against_model(ModelVariant::Base, ops);
    }
}

/// A deterministic end-to-end scenario crossing all layers, checked
/// value-by-value.
#[test]
fn deterministic_scenario_matches_model() {
    let cfg = config();
    let fabric = SimFabric::with_variant(cfg.clone(), ModelVariant::Base);
    let n0 = fabric.node(MachineId(0));
    let n1 = fabric.node(MachineId(1));
    let x = Loc::new(MachineId(0), 0);
    let y = Loc::new(MachineId(1), 0);

    n0.lstore(y, 1).unwrap();
    assert_eq!(n1.load(y).unwrap(), 1);
    n1.rflush(y).unwrap();
    n0.mstore(x, 2).unwrap();
    fabric.crash(MachineId(1));
    fabric.recover(MachineId(1));
    // y was volatile... no: machine 1's memory is volatile in config(),
    // so even the flushed y is zeroed by its owner's crash.
    assert_eq!(n0.load(y).unwrap(), 0);
    // x is NVM on machine 0 and unaffected by machine 1's crash.
    assert_eq!(n0.load(x).unwrap(), 2);

    // The same trace is admitted by the model:
    let sem = Semantics::new(cfg);
    let exp = Explorer::new(&sem);
    let trace = cxl0::model::Trace::from_labels([
        Label::lstore(MachineId(0), y, Val(1)),
        Label::load(MachineId(1), y, Val(1)),
        Label::rflush(MachineId(1), y),
        Label::mstore(MachineId(0), x, Val(2)),
        Label::crash(MachineId(1)),
        Label::load(MachineId(0), y, Val(0)),
        Label::load(MachineId(0), x, Val(2)),
    ]);
    assert!(exp.is_allowed(&trace));
}

/// The motivating `CXL0_AF` scenario, deterministic: batching under one
/// barrier behaves identically in model and backend.
#[test]
fn deterministic_batching_scenario_matches_model() {
    let cfg = SystemConfig::symmetric_nvm(2, 2);
    let fabric = SimFabric::with_variant(cfg.clone(), ModelVariant::Base);
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

    let sem = Semantics::new(cfg);
    let exp = Explorer::new(&sem);
    let trace = [
        Label::lstore(MachineId(0), x, Val(1)),
        Label::lstore(MachineId(0), y, Val(2)),
        Label::aflush(MachineId(0), x),
        Label::aflush(MachineId(0), y),
        Label::barrier(MachineId(0)),
        Label::crash(MachineId(1)),
        Label::load(MachineId(0), x, Val(1)),
        Label::load(MachineId(0), y, Val(2)),
    ];
    assert!(exp.is_allowed(&trace));

    // And the lossy observation is forbidden after the barrier:
    let mut lossy = trace;
    lossy[6] = Label::load(MachineId(0), x, Val(0));
    assert!(!exp.is_allowed(&lossy));
}

#[derive(Debug)]
struct Dummy;

#[test]
fn arc_requirements_hold() {
    // NodeHandle and SimFabric must be Send + Sync for the harness.
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimFabric>();
    assert_send_sync::<cxl0::runtime::NodeHandle>();
    assert_send_sync::<Arc<SimFabric>>();
    let _ = Dummy;
}
