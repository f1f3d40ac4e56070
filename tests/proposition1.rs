//! E3: Proposition 1 — the eight simulation/strength relations between
//! primitive sequences, checked over the whole reachable state space of
//! four small configurations (the paper proves these in Rocq; we recheck
//! them mechanically). Each space is checked to be the product of its
//! per-location spaces, and each item on those (see `cxl0_explore::simulate`);
//! every test asserts the exact size of its space.
//! `cargo run --release --example proposition1` prints the per-item report.

use cxl0::explore::{check_proposition1, Prop1Item};
use cxl0::model::{MachineConfig, Semantics, SystemConfig, Val};

/// Checks every item on `cfg`, whose space has `states` states, and returns
/// the instantiations each item covers.
fn check(cfg: SystemConfig, states: usize) -> Vec<(Prop1Item, usize)> {
    let report = check_proposition1(&Semantics::new(cfg), &[Val(0), Val(1)])
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.states, states);
    report.items
}

#[test]
fn all_items_two_machines_nvm() {
    let results = check(SystemConfig::symmetric_nvm(2, 1), 196);
    assert_eq!(results.len(), 8);
    for (item, checked) in results {
        assert!(checked > 100, "{item}: only {checked} instantiations");
    }
}

#[test]
fn all_items_mixed_volatility() {
    let cfg = SystemConfig::new(vec![
        MachineConfig::non_volatile(1),
        MachineConfig::volatile(1),
    ]);
    check(cfg, 196);
}

#[test]
fn all_items_three_machines_with_compute_only_node() {
    let cfg = SystemConfig::new(vec![
        MachineConfig::non_volatile(1),
        MachineConfig::volatile(1),
        MachineConfig::compute_only(),
    ]);
    check(cfg, 900);
}

#[test]
fn all_items_two_locations_per_machine() {
    // Four locations of 14 cells each: 14⁴ states.
    check(SystemConfig::symmetric_nvm(2, 2), 38_416);
}

/// Item 2 is stated one-way in the paper but is in fact an equivalence
/// (item 1 provides the converse); check the equality explicitly.
#[test]
fn owner_stores_are_fully_equivalent() {
    use cxl0::explore::{AlphabetBuilder, Explorer, StateSet};
    use cxl0::model::{Label, Loc, Trace};

    let cfg = SystemConfig::symmetric_nvm(2, 1);
    let sem = Semantics::new(cfg.clone());
    let exp = Explorer::new(&sem);
    let alphabet = AlphabetBuilder::new(&cfg).build();
    let states = cxl0::explore::reachable_states(&sem, &alphabet);
    for st in states {
        let mut set = StateSet::new();
        set.insert(st);
        for m in cfg.machines() {
            let x = Loc::new(m, 0); // m owns x
            let ls = Trace::from_labels([Label::lstore(m, x, Val(1))]);
            let rs = Trace::from_labels([Label::rstore(m, x, Val(1))]);
            assert!(exp.same_outcomes(&set, &ls, &rs));
        }
    }
}

/// The converse directions of the strength items must *fail* — i.e. the
/// hierarchy is strict. A checker that accepted everything would be
/// useless; verify it can falsify.
#[test]
fn strength_hierarchy_is_strict() {
    use cxl0::explore::{Explorer, StateSet};
    use cxl0::model::{Label, Loc, MachineId, Trace};

    let sem = Semantics::new(SystemConfig::symmetric_nvm(2, 1));
    let exp = Explorer::new(&sem);
    let set: StateSet = exp.initial_set();
    let i = MachineId(0);
    let x = Loc::new(MachineId(1), 0);
    let lstore = Trace::from_labels([Label::lstore(i, x, Val(1))]);
    let rstore = Trace::from_labels([Label::rstore(i, x, Val(1))]);
    let mstore = Trace::from_labels([Label::mstore(i, x, Val(1))]);
    // LStore ⊄ RStore and RStore ⊄ MStore (strictness):
    assert!(!exp.simulates(&set, &lstore, &rstore));
    assert!(!exp.simulates(&set, &rstore, &mstore));
    // while the stated directions hold:
    assert!(exp.simulates(&set, &rstore, &lstore));
    assert!(exp.simulates(&set, &mstore, &rstore));
}

#[test]
fn item_display_lists_all_eight() {
    let shown: Vec<String> = Prop1Item::ALL.iter().map(|i| i.to_string()).collect();
    for (k, s) in shown.iter().enumerate() {
        assert!(s.starts_with(&format!("Prop1({})", k + 1)), "{s}");
    }
}
