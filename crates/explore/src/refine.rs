//! Trace-refinement checking between model variants, complete at every
//! depth — our replacement for the paper's FDR4/CSP analysis (§3.5).
//!
//! `impl ⊑ spec` (trace refinement) holds iff every visible trace of
//! `impl` is a trace of `spec`. Because CXL0's visible labels are
//! deterministic per state (loads carry their observed value), the
//! determinized view of each model is a subset construction over τ-closed
//! state sets; we explore the *product* of the two determinizations to a
//! fixpoint and report the first (shortest) trace executable in `impl`
//! but not in `spec`.
//!
//! # One location at a time
//!
//! The determinization of a whole configuration grows with the product
//! of its locations' state spaces, so [`check_refinement`] never builds
//! it. It first checks that both semantics are the synchronous product of
//! their per-location projections (the `product` module), synchronised on
//! the labels that name no location: crashes and `GPF`. Trace refinement
//! is preserved by that composition (Roscoe, *The Theory and Practice of
//! Concurrency*, 1997): if every projection of `impl` refines the same
//! projection of `spec`, then `impl ⊑ spec`. Conversely, a trace that one
//! projection of `impl` has and `spec`'s lacks is a trace of the whole
//! `impl` — the other cells stay drained in their initial state, where a
//! crash and `GPF` are always enabled — and its projection rules it out
//! of the whole `spec`. So the per-projection fixpoints, each over that
//! projection's full alphabet, decide the whole configuration, and every
//! counterexample names the owner's first location, which the whole
//! configuration has.
//!
//! The paper's claims, which the tests below and `tests/refinement.rs`
//! verify mechanically:
//!
//! * `CXL0_PSN ⊑ CXL0` and `CXL0_LWB ⊑ CXL0` (every variant trace is a
//!   base trace);
//! * `CXL0 ⋢ CXL0_PSN` and `CXL0 ⋢ CXL0_LWB` (with tests 10–12 as
//!   distinguishing traces);
//! * `CXL0_PSN` and `CXL0_LWB` are incomparable.

use std::collections::{HashSet, VecDeque};

use cxl0_model::{Label, Semantics, Trace, Val};

use crate::interp::{Explorer, StateSet};
use crate::product::check_product;
use crate::space::AlphabetBuilder;

/// The outcome of a refinement check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refinement {
    /// Every `impl` trace, of any length, is a `spec` trace.
    Holds,
    /// A trace executable in `impl` but not in `spec`.
    CounterExample(Trace),
}

impl Refinement {
    /// True if `impl ⊑ spec`.
    pub fn holds(&self) -> bool {
        matches!(self, Refinement::Holds)
    }

    /// The distinguishing trace, if any.
    pub fn counterexample(&self) -> Option<&Trace> {
        match self {
            Refinement::CounterExample(t) => Some(t),
            Refinement::Holds => None,
        }
    }
}

/// Decides `impl_sem ⊑ spec_sem` over every label of the configuration
/// with values drawn from `values`, one location at a time (see the
/// module doc).
///
/// # Errors
///
/// A message if the two semantics have different configurations or
/// topologies, or if either is not the product of its projections.
pub fn check_refinement(
    impl_sem: &Semantics,
    spec_sem: &Semantics,
    values: &[Val],
) -> Result<Refinement, String> {
    if impl_sem.config() != spec_sem.config() || impl_sem.topology() != spec_sem.topology() {
        return Err("the two semantics have different configurations".into());
    }
    let product = |sem: &Semantics| {
        (check_product(sem, values).map(|(proj, _)| proj))
            .map_err(|e| format!("{}: {e}", sem.variant()))
    };
    let (impl_proj, spec_proj) = (product(impl_sem)?, product(spec_sem)?);
    for (owner, (p, _)) in &impl_proj {
        let alphabet = AlphabetBuilder::new(p.config())
            .values(values.iter().copied())
            .build();
        let r = fixpoint(p, &spec_proj[owner].0, &alphabet);
        if !r.holds() {
            return Ok(r);
        }
    }
    Ok(Refinement::Holds)
}

/// `impl_sem ⊑ spec_sem` over traces of `alphabet`: the product of the
/// two subset constructions, breadth-first to its fixpoint.
fn fixpoint(impl_sem: &Semantics, spec_sem: &Semantics, alphabet: &[Label]) -> Refinement {
    let impl_exp = Explorer::new(impl_sem);
    let spec_exp = Explorer::new(spec_sem);
    let start = (impl_exp.initial_set(), spec_exp.initial_set());
    let mut visited: HashSet<(StateSet, StateSet)> = HashSet::from([start.clone()]);
    let mut queue = VecDeque::from([(Trace::new(), start.0, start.1)]);
    while let Some((trace, si, ss)) = queue.pop_front() {
        for label in alphabet {
            let ni = impl_exp.after_label(&si, label);
            if ni.is_empty() {
                continue; // not an impl trace; nothing to check
            }
            let ns = spec_exp.after_label(&ss, label);
            if ns.is_empty() {
                return Refinement::CounterExample(trace.then(*label));
            }
            if visited.insert((ni.clone(), ns.clone())) {
                queue.push_back((trace.clone().then(*label), ni, ns));
            }
        }
    }
    Refinement::Holds
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl0_model::{MachineConfig, ModelVariant, Primitive, SystemConfig};

    const VALUES: [Val; 2] = [Val(0), Val(1)];

    /// Machine 0: NVMM; machine 1: volatile — the §3.5 configuration.
    fn cfg() -> SystemConfig {
        SystemConfig::new(vec![
            MachineConfig::non_volatile(1),
            MachineConfig::volatile(1),
        ])
    }

    fn check(a: &Semantics, b: &Semantics) -> Refinement {
        check_refinement(a, b, &VALUES).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn variants_refine_base() {
        let cfg = cfg();
        let base = Semantics::new(cfg.clone());
        for v in [ModelVariant::Psn, ModelVariant::Lwb] {
            let var = Semantics::with_variant(cfg.clone(), v);
            let r = check(&var, &base);
            assert!(r.holds(), "{v} ⋢ CXL0: {:?}", r.counterexample());
        }
    }

    #[test]
    fn base_does_not_refine_variants() {
        let cfg = cfg();
        let base = Semantics::new(cfg.clone());
        for v in [ModelVariant::Psn, ModelVariant::Lwb] {
            let var = Semantics::with_variant(cfg.clone(), v);
            assert!(!check(&base, &var).holds(), "CXL0 unexpectedly refines {v}");
        }
    }

    #[test]
    fn psn_and_lwb_are_incomparable() {
        let cfg = cfg();
        let psn = Semantics::with_variant(cfg.clone(), ModelVariant::Psn);
        let lwb = Semantics::with_variant(cfg.clone(), ModelVariant::Lwb);
        let p_not_l = check(&psn, &lwb);
        assert!(!p_not_l.holds(), "expected a PSN trace that LWB forbids");
        let l_not_p = check(&lwb, &psn);
        assert!(!l_not_p.holds(), "expected an LWB trace that PSN forbids");
    }

    #[test]
    fn model_refines_itself_to_fixpoint() {
        let base = Semantics::new(cfg());
        assert_eq!(check(&base, &base), Refinement::Holds);
    }

    #[test]
    fn configurations_that_differ_are_an_error() {
        let base = Semantics::new(cfg());
        let other = Semantics::new(SystemConfig::symmetric_nvm(2, 1));
        assert!(check_refinement(&base, &other, &VALUES).is_err());
    }

    /// The lift's evidence: the fixpoint engine run on the whole §3.5
    /// configuration (no projections), over `RStore`, `Load` and crashes,
    /// decides the §3.5 claims and their converses as `check_refinement`
    /// does one location at a time over every label. Between `PSN` and
    /// `LWB` the small alphabet may miss a distinguishing trace, but any
    /// trace it finds is one the full check must find too.
    #[test]
    fn whole_configuration_fixpoint_agrees_with_the_lift() {
        let cfg = cfg();
        let alphabet = AlphabetBuilder::new(&cfg)
            .values(VALUES)
            .primitives([Primitive::RStore, Primitive::Load, Primitive::Crash])
            .build();
        let sem = |v| Semantics::with_variant(cfg.clone(), v);
        for a in ModelVariant::ALL {
            for b in ModelVariant::ALL {
                let whole = fixpoint(&sem(a), &sem(b), &alphabet);
                let lifted = check(&sem(a), &sem(b));
                let claim = (a == ModelVariant::Base) != (b == ModelVariant::Base);
                assert!(
                    whole.holds() == lifted.holds() || (!claim && whole.holds()),
                    "{a} ⊑ {b}: whole {whole:?}, lifted {lifted:?}"
                );
            }
        }
    }
}
