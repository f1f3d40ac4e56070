//! Mechanical checking of Proposition 1: the eight simulation/strength
//! relations between CXL0 primitive sequences that the paper proves in
//! Rocq, checked over every reachable state of small finite configurations
//! (the `⟹` relation — label steps interleaved with `τ*` — is computed by
//! the [`Explorer`]).
//!
//! Each item has the form "if `γ ⟹_{seq_a} γ′` then `γ ⟹_{seq_b} γ′`",
//! i.e. set inclusion `S_γ(seq_a) ⊆ S_γ(seq_b)` for all reachable `γ`.
//!
//! # One location at a time
//!
//! [`check_all`] first checks that the whole reachable space is the
//! product of its locations' projections (see the `product` module). Each
//! item is a sequence on one location `x`, so its outcome sets are `x`'s
//! projected ones times the other cells' `τ*`-closures, and it holds on
//! the whole space iff it holds on each projection. Items are checked
//! there, and counted as a check of every state would count them:
//! `Σ_x inst(x) · Π_{y≠x} |R(y)|`, with `R(y)` the space of `y`'s
//! projection.

use std::fmt;

use cxl0_model::{Label, Loc, MachineId, Semantics, State, Trace, Val};

use crate::interp::{Explorer, StateSet};
use crate::product::check_product;

/// The eight items of Proposition 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Prop1Item {
    /// (1) `RStore` is stronger than `LStore`.
    RStoreStrongerThanLStore,
    /// (2) `RStore` and `LStore` by the owner are equivalent.
    OwnerStoresEquivalent,
    /// (3) `MStore` is stronger than `RStore`.
    MStoreStrongerThanRStore,
    /// (4) `RFlush` is stronger than `LFlush`.
    RFlushStrongerThanLFlush,
    /// (5) `LFlush` after `RStore` by a non-owner is redundant.
    LFlushAfterRStoreRedundant,
    /// (6) `RFlush` after `MStore` is redundant.
    RFlushAfterMStoreRedundant,
    /// (7) `RStore` by a non-owner is simulated by `LStore + LFlush`.
    RStoreSimulatedByLStoreLFlush,
    /// (8) `MStore` is simulated by `LStore + RFlush`.
    MStoreSimulatedByLStoreRFlush,
}

impl Prop1Item {
    /// All eight items in paper order.
    pub const ALL: [Prop1Item; 8] = [
        Prop1Item::RStoreStrongerThanLStore,
        Prop1Item::OwnerStoresEquivalent,
        Prop1Item::MStoreStrongerThanRStore,
        Prop1Item::RFlushStrongerThanLFlush,
        Prop1Item::LFlushAfterRStoreRedundant,
        Prop1Item::RFlushAfterMStoreRedundant,
        Prop1Item::RStoreSimulatedByLStoreLFlush,
        Prop1Item::MStoreSimulatedByLStoreRFlush,
    ];

    /// The paper's one-line statement.
    pub fn statement(self) -> &'static str {
        match self {
            Prop1Item::RStoreStrongerThanLStore => {
                "if γ =RStore_i(x,v)⇒ γ' then γ =LStore_i(x,v)⇒ γ'"
            }
            Prop1Item::OwnerStoresEquivalent => {
                "if γ =LStore_k(x,v)⇒ γ' then γ =RStore_k(x,v)⇒ γ'  (k owns x)"
            }
            Prop1Item::MStoreStrongerThanRStore => {
                "if γ =MStore_i(x,v)⇒ γ' then γ =RStore_i(x,v)⇒ γ'"
            }
            Prop1Item::RFlushStrongerThanLFlush => "if γ =RFlush_i(x)⇒ γ' then γ =LFlush_i(x)⇒ γ'",
            Prop1Item::LFlushAfterRStoreRedundant => {
                "if γ =RStore_j(x,v)⇒ γ' then γ =RStore_j(x,v)·LFlush_j(x)⇒ γ'  (j ≠ owner)"
            }
            Prop1Item::RFlushAfterMStoreRedundant => {
                "if γ =MStore_i(x,v)⇒ γ' then γ =MStore_i(x,v)·RFlush_i(x)⇒ γ'"
            }
            Prop1Item::RStoreSimulatedByLStoreLFlush => {
                "if γ =LStore_j(x,v)·LFlush_j(x)⇒ γ' then γ =RStore_j(x,v)⇒ γ'  (j ≠ owner)"
            }
            Prop1Item::MStoreSimulatedByLStoreRFlush => {
                "if γ =LStore_i(x,v)·RFlush_i(x)⇒ γ' then γ =MStore_i(x,v)⇒ γ'"
            }
        }
    }

    /// The `(antecedent, consequent)` label sequences instantiated at
    /// issuer `i`, location `x`, value `v`, or `None` if the side
    /// condition (`j ≠ owner` / `k = owner`) excludes this instantiation.
    pub fn sequences(self, i: MachineId, x: Loc, v: Val) -> Option<(Trace, Trace)> {
        let owner = x.owner;
        fn t(labels: &[Label]) -> Trace {
            Trace::from_labels(labels.iter().copied())
        }
        match self {
            Prop1Item::RStoreStrongerThanLStore => {
                Some((t(&[Label::rstore(i, x, v)]), t(&[Label::lstore(i, x, v)])))
            }
            Prop1Item::OwnerStoresEquivalent => {
                (i == owner).then(|| (t(&[Label::lstore(i, x, v)]), t(&[Label::rstore(i, x, v)])))
            }
            Prop1Item::MStoreStrongerThanRStore => {
                Some((t(&[Label::mstore(i, x, v)]), t(&[Label::rstore(i, x, v)])))
            }
            Prop1Item::RFlushStrongerThanLFlush => {
                Some((t(&[Label::rflush(i, x)]), t(&[Label::lflush(i, x)])))
            }
            Prop1Item::LFlushAfterRStoreRedundant => (i != owner).then(|| {
                (
                    t(&[Label::rstore(i, x, v)]),
                    t(&[Label::rstore(i, x, v), Label::lflush(i, x)]),
                )
            }),
            Prop1Item::RFlushAfterMStoreRedundant => Some((
                t(&[Label::mstore(i, x, v)]),
                t(&[Label::mstore(i, x, v), Label::rflush(i, x)]),
            )),
            Prop1Item::RStoreSimulatedByLStoreLFlush => (i != owner).then(|| {
                (
                    t(&[Label::lstore(i, x, v), Label::lflush(i, x)]),
                    t(&[Label::rstore(i, x, v)]),
                )
            }),
            Prop1Item::MStoreSimulatedByLStoreRFlush => Some((
                t(&[Label::lstore(i, x, v), Label::rflush(i, x)]),
                t(&[Label::mstore(i, x, v)]),
            )),
        }
    }
}

impl fmt::Display for Prop1Item {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = Prop1Item::ALL.iter().position(|i| i == self).unwrap() + 1;
        write!(f, "Prop1({n}): {}", self.statement())
    }
}

/// A found violation of a Proposition-1 item (should never occur — used
/// for diagnostics if the semantics regresses).
#[derive(Debug, Clone)]
pub struct CounterExample {
    /// The violated item.
    pub item: Prop1Item,
    /// The reachable starting state.
    pub state: State,
    /// The antecedent sequence.
    pub antecedent: Trace,
    /// The consequent sequence.
    pub consequent: Trace,
    /// A state reachable via the antecedent but not the consequent.
    pub witness: State,
}

impl fmt::Display for CounterExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\nfrom state:\n{}\nvia [{}] reaches:\n{}\nwhich [{}] cannot reach",
            self.item, self.state, self.antecedent, self.witness, self.consequent
        )
    }
}

/// Checks one item of Proposition 1 against every state in `states`, for
/// every (issuer, location) pair and every value in `values`.
///
/// # Errors
///
/// Returns the first counterexample found.
pub fn check_item(
    sem: &Semantics,
    states: &[State],
    values: &[Val],
    item: Prop1Item,
) -> Result<usize, Box<CounterExample>> {
    let exp = Explorer::new(sem);
    let cfg = sem.config();
    let mut checked = 0usize;
    for st in states {
        let mut start = StateSet::new();
        start.insert(st.clone());
        for i in cfg.machines() {
            for x in cfg.all_locations() {
                for &v in values {
                    let Some((ante, cons)) = item.sequences(i, x, v) else {
                        continue;
                    };
                    let sa = exp.after_trace(&start, &ante);
                    let sb = exp.after_trace(&start, &cons);
                    if let Some(witness) = sa.iter().find(|s| !sb.contains(*s)) {
                        return Err(Box::new(CounterExample {
                            item,
                            state: st.clone(),
                            antecedent: ante,
                            consequent: cons,
                            witness: witness.clone(),
                        }));
                    }
                    checked += 1;
                }
            }
        }
    }
    Ok(checked)
}

/// What [`check_all`] checked on one configuration.
#[derive(Debug, Clone)]
pub struct Prop1Report {
    /// The number of reachable states.
    pub states: usize,
    /// Per item, the instantiations covered: the count [`check_item`] over
    /// every reachable state would return.
    pub items: Vec<(Prop1Item, usize)>,
}

/// Checks all eight items over the whole reachable space of `sem` (driven
/// by the full alphabet over `values`) one location at a time, as the
/// module doc describes.
///
/// # Errors
///
/// A message naming the state and the step if the space is not the
/// product of its locations' projections, else the first counterexample
/// found (a state of an owner's projection).
pub fn check_all(sem: &Semantics, values: &[Val]) -> Result<Prop1Report, String> {
    let (proj, states) = check_product(sem, values)?;
    let mut covered = [0; Prop1Item::ALL.len()];
    for (owner, (p, reached)) in &proj {
        let reached: Vec<State> = reached.values().cloned().collect();
        // inst(x) · Π_{y≠x} |R(y)|, for each of the owner's locations x.
        let lift = sem.config().machine(*owner).locations as usize * (states / reached.len());
        for (n, item) in covered.iter_mut().zip(Prop1Item::ALL) {
            *n += lift * check_item(p, &reached, values, item).map_err(|ce| ce.to_string())?;
        }
    }
    let items = Prop1Item::ALL.into_iter().zip(covered).collect();
    Ok(Prop1Report { states, items })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{reachable_states, AlphabetBuilder};
    use cxl0_model::{MachineConfig, SystemConfig};

    /// The per-location check agrees with `check_item` run on every
    /// reachable state of the whole configuration: the same verdict (every
    /// item holds) and the same instantiation counts.
    fn agrees_with_brute_force(cfg: SystemConfig) {
        let sem = Semantics::new(cfg);
        let values = [Val(0), Val(1)];
        let report = check_all(&sem, &values).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.states, 196);
        let alphabet = AlphabetBuilder::new(sem.config()).build();
        let states = reachable_states(&sem, &alphabet);
        assert_eq!(states.len(), report.states);
        assert_eq!(report.items.len(), 8);
        for (item, n) in report.items {
            assert!(n > 0, "{item} checked zero instantiations");
            let brute =
                check_item(&sem, &states, &values, item).unwrap_or_else(|ce| panic!("{ce}"));
            assert_eq!(brute, n, "{item}");
        }
    }

    #[test]
    fn all_items_hold_on_two_machine_nvm() {
        agrees_with_brute_force(SystemConfig::symmetric_nvm(2, 1));
    }

    #[test]
    fn all_items_hold_with_volatile_memory() {
        agrees_with_brute_force(SystemConfig::new(vec![
            MachineConfig::non_volatile(1),
            MachineConfig::volatile(1),
        ]));
    }

    /// The alphabets Proposition 1 is checked over (the configurations of
    /// `tests/proposition1.rs`) are base CXL0: no `AFlush`, no `Barrier`,
    /// so every state they reach has empty persistency buffers.
    #[test]
    fn proposition1_alphabets_hold_no_cxl0_af_labels() {
        let (nvm, vol) = (MachineConfig::non_volatile(1), MachineConfig::volatile(1));
        let configs = [
            SystemConfig::symmetric_nvm(2, 1),
            SystemConfig::new(vec![nvm.clone(), vol.clone()]),
            SystemConfig::new(vec![nvm, vol, MachineConfig::compute_only()]),
            SystemConfig::symmetric_nvm(2, 2),
        ];
        for cfg in &configs {
            let alphabet = AlphabetBuilder::new(cfg).build();
            assert!(!alphabet.is_empty());
            for label in &alphabet {
                let af = matches!(label, Label::AFlush { .. } | Label::Barrier { .. });
                assert!(!af, "{label} in the alphabet of {cfg:?}");
            }
        }
    }

    #[test]
    fn side_conditions_skip_instantiations() {
        let x = Loc::new(MachineId(0), 0);
        // Item 7 requires j ≠ owner.
        assert!(Prop1Item::RStoreSimulatedByLStoreLFlush
            .sequences(MachineId(0), x, Val(1))
            .is_none());
        assert!(Prop1Item::RStoreSimulatedByLStoreLFlush
            .sequences(MachineId(1), x, Val(1))
            .is_some());
        // Item 2 requires k = owner.
        assert!(Prop1Item::OwnerStoresEquivalent
            .sequences(MachineId(1), x, Val(1))
            .is_none());
    }

    #[test]
    fn statements_mention_their_primitives() {
        assert!(Prop1Item::MStoreSimulatedByLStoreRFlush
            .statement()
            .contains("RFlush"));
        assert!(Prop1Item::RStoreStrongerThanLStore
            .to_string()
            .starts_with("Prop1(1)"));
    }

    #[test]
    fn a_false_claim_is_caught() {
        // Sanity-check the checker itself: "LStore is stronger than
        // MStore" is false; swap antecedent/consequent of item 8 by
        // checking MStore ⊆ LStore·RFlush... that one is TRUE (item 8 is
        // an equivalence in effect). Instead check LStore ⊆ MStore which
        // must fail: an LStore outcome where the value is only in the
        // issuer's cache is not an MStore outcome.
        let sem = Semantics::new(SystemConfig::symmetric_nvm(2, 1));
        let exp = Explorer::new(&sem);
        let set = exp.initial_set();
        let x = Loc::new(MachineId(1), 0);
        let ls = Trace::from_labels([Label::lstore(MachineId(0), x, Val(1))]);
        let ms = Trace::from_labels([Label::mstore(MachineId(0), x, Val(1))]);
        assert!(!exp.simulates(&set, &ls, &ms));
        // While the converse (item 3 + 1 composed) holds:
        assert!(exp.simulates(&set, &ms, &ls));
    }
}
