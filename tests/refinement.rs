//! E10: the §3.5 refinement claims, decided completely — at every depth,
//! over every label of the configuration — one location at a time by
//! `check_refinement` (our FDR4 substitute):
//!
//! 1. every trace of `CXL0_PSN` and of `CXL0_LWB` is a trace of `CXL0`, on
//!    each of the four Proposition 1 configurations;
//! 2. the converse fails, with the paper's tests 10–12 as witnesses;
//! 3. `CXL0_PSN` and `CXL0_LWB` are incomparable.
//!
//! Every counterexample is re-checked by the interpreter on the whole
//! configuration.

use cxl0::explore::{check_refinement, Explorer, Refinement};
use cxl0::model::{MachineConfig, ModelVariant, Semantics, SystemConfig, Val};

const VALUES: [Val; 2] = [Val(0), Val(1)];

/// The Proposition 1 configurations with one location per machine; the
/// second is §3.5's (machine 1 NVMM, machine 2 volatile).
fn small_configs() -> [SystemConfig; 3] {
    let (nvm, vol) = (MachineConfig::non_volatile(1), MachineConfig::volatile(1));
    [
        SystemConfig::symmetric_nvm(2, 1),
        SystemConfig::new(vec![nvm.clone(), vol.clone()]),
        SystemConfig::new(vec![nvm, vol, MachineConfig::compute_only()]),
    ]
}

fn check(cfg: &SystemConfig, a: ModelVariant, b: ModelVariant) -> Refinement {
    let sem = |v| Semantics::with_variant(cfg.clone(), v);
    check_refinement(&sem(a), &sem(b), &VALUES).unwrap_or_else(|e| panic!("{a} ⊑ {b}: {e}"))
}

fn assert_refines_base(cfg: &SystemConfig, v: ModelVariant) {
    let r = check(cfg, v, ModelVariant::Base);
    assert!(
        r.holds(),
        "{v} ⋢ CXL0 on {cfg:?}, witness: {:?}",
        r.counterexample().map(ToString::to_string)
    );
}

/// `a ⋢ b` on `cfg`, with a witness that the interpreter allows under `a`
/// and forbids under `b` on the whole configuration.
fn assert_verified_counterexample(cfg: &SystemConfig, a: ModelVariant, b: ModelVariant) {
    let r = check(cfg, a, b);
    let witness = (r.counterexample()).unwrap_or_else(|| panic!("{a} ⊑ {b} on {cfg:?}"));
    let allowed = |v| Explorer::new(&Semantics::with_variant(cfg.clone(), v)).is_allowed(witness);
    assert!(allowed(a), "{witness} is not an {a} trace");
    assert!(!allowed(b), "{witness} is a {b} trace");
}

/// Both claims on the one-location-per-machine configurations. The name
/// predates the complete check: no depth bound is left.
#[test]
fn variants_refine_base_to_depth_5() {
    for cfg in &small_configs() {
        for v in [ModelVariant::Psn, ModelVariant::Lwb] {
            assert_refines_base(cfg, v);
        }
    }
}

#[test]
fn psn_refines_base_with_two_locations_per_machine() {
    assert_refines_base(&SystemConfig::symmetric_nvm(2, 2), ModelVariant::Psn);
}

#[test]
fn lwb_refines_base_with_two_locations_per_machine() {
    assert_refines_base(&SystemConfig::symmetric_nvm(2, 2), ModelVariant::Lwb);
}

#[test]
fn base_refines_neither_variant() {
    for cfg in &small_configs() {
        for v in [ModelVariant::Psn, ModelVariant::Lwb] {
            assert_verified_counterexample(cfg, ModelVariant::Base, v);
        }
    }
}

#[test]
fn psn_and_lwb_incomparable_with_verified_witnesses() {
    let (psn, lwb) = (ModelVariant::Psn, ModelVariant::Lwb);
    for cfg in &small_configs() {
        assert_verified_counterexample(cfg, psn, lwb);
        assert_verified_counterexample(cfg, lwb, psn);
    }
}

/// The paper's distinguishing tests are found by (and consistent with)
/// the automated search: each test 10–12 trace is a base trace, and is
/// rejected by exactly the variants the paper marks ✗.
#[test]
fn paper_tests_are_refinement_witnesses() {
    use cxl0::explore::paper;
    let tests = paper::variant_tests();
    for t in &tests {
        let base = Semantics::new(t.config.clone());
        assert!(
            Explorer::new(&base).is_allowed(&t.trace),
            "{} must be a base trace",
            t.name
        );
        for (variant, verdict) in &t.expected {
            let sem = Semantics::with_variant(t.config.clone(), *variant);
            let allowed = Explorer::new(&sem).is_allowed(&t.trace);
            assert_eq!(
                allowed,
                *verdict == cxl0::explore::Verdict::Allowed,
                "{} under {variant}",
                t.name
            );
        }
    }
}

/// Refinement is reflexive: on identical models the product of the two
/// subset constructions reaches its fixpoint with no counterexample — a
/// soundness check of the construction.
#[test]
fn reflexivity_reaches_fixpoint() {
    for cfg in &small_configs() {
        for v in ModelVariant::ALL {
            assert_eq!(check(cfg, v, v), Refinement::Holds, "{v} on {cfg:?}");
        }
    }
}
