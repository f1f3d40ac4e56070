//! The paper's litmus tests, as executable [`Litmus`] values:
//!
//! * Figure 3, tests 1–9 — behaviors of the base model;
//! * §3.5, tests 10–12 — triples separating `CXL0` / `CXL0_LWB` /
//!   `CXL0_PSN`;
//! * §6's motivating example — test 13 (`assert(r1 == r2)` can fail when a
//!   *remote* machine crashes).
//!
//! Naming follows the paper: machine *1* is `MachineId(0)`, machine *2*
//! is `MachineId(1)`, and so on; `xᵢ` denotes the location owned by
//! machine *i*. Test 8's `RStore₂(y₁, x₂)` shorthand (read `x₂`, then
//! `RStore` the read value to `y₁`) is expanded into an explicit
//! `Load₂(x₂, v)` followed by `RStore₂(y₁, v)`.

use cxl0_model::{Label, Loc, MachineConfig, MachineId, ModelVariant, SystemConfig, Trace, Val};

use crate::litmus::{Litmus, Verdict};

pub(crate) const M1: MachineId = MachineId(0);
pub(crate) const M2: MachineId = MachineId(1);

/// `xᵢ`: the first location owned by the paper's machine `i` (1-based).
pub(crate) fn x(i: usize) -> Loc {
    Loc::new(MachineId(i - 1), 0)
}

pub(crate) fn base(v: Verdict) -> Vec<(ModelVariant, Verdict)> {
    vec![(ModelVariant::Base, v)]
}

/// Figure 3, tests 1–9 (all memory non-volatile).
pub fn figure3_tests() -> Vec<Litmus> {
    let one = SystemConfig::symmetric_nvm(1, 1);
    let two = SystemConfig::symmetric_nvm(2, 1);
    let three = SystemConfig::symmetric_nvm(3, 1);
    vec![
        Litmus {
            name: "test-01".into(),
            description: "RStore may be lost on crash (no persistence guarantee)".into(),
            config: one.clone(),
            trace: Trace::from_labels([
                Label::rstore(M1, x(1), Val(1)),
                Label::crash(M1),
                Label::load(M1, x(1), Val(0)),
            ]),
            expected: base(Verdict::Allowed),
        },
        Litmus {
            name: "test-02".into(),
            description: "MStore persists before returning".into(),
            config: one.clone(),
            trace: Trace::from_labels([
                Label::mstore(M1, x(1), Val(1)),
                Label::crash(M1),
                Label::load(M1, x(1), Val(0)),
            ]),
            expected: base(Verdict::Forbidden),
        },
        Litmus {
            name: "test-03".into(),
            description: "LStore + LFlush to local NVM persists".into(),
            config: one,
            trace: Trace::from_labels([
                Label::lstore(M1, x(1), Val(1)),
                Label::lflush(M1, x(1)),
                Label::crash(M1),
                Label::load(M1, x(1), Val(0)),
            ]),
            expected: base(Verdict::Forbidden),
        },
        Litmus {
            name: "test-04".into(),
            description: "LFlush to a remote line only reaches the owner's cache".into(),
            config: two.clone(),
            trace: Trace::from_labels([
                Label::lstore(M1, x(2), Val(1)),
                Label::lflush(M1, x(2)),
                Label::crash(M2),
                Label::load(M1, x(2), Val(0)),
            ]),
            expected: base(Verdict::Allowed),
        },
        Litmus {
            name: "test-05".into(),
            description: "RFlush forces propagation to remote persistent memory".into(),
            config: two.clone(),
            trace: Trace::from_labels([
                Label::lstore(M1, x(2), Val(1)),
                Label::rflush(M1, x(2)),
                Label::crash(M2),
                Label::load(M1, x(2), Val(0)),
            ]),
            expected: base(Verdict::Forbidden),
        },
        Litmus {
            name: "test-06".into(),
            description: "loads copy into the reader's cache, protecting against writer crash"
                .into(),
            config: three.clone(),
            trace: Trace::from_labels([
                Label::lstore(M1, x(3), Val(1)),
                Label::load(M2, x(3), Val(1)),
                Label::crash(M1),
                Label::load(M2, x(3), Val(0)),
            ]),
            expected: base(Verdict::Forbidden),
        },
        Litmus {
            name: "test-07".into(),
            description: "the reader's flush pushes the value to the owner before both crash"
                .into(),
            config: three,
            trace: Trace::from_labels([
                Label::lstore(M1, x(3), Val(1)),
                Label::load(M2, x(3), Val(1)),
                Label::lflush(M2, x(3)),
                Label::crash(M1),
                Label::crash(M2),
                Label::load(M2, x(3), Val(0)),
            ]),
            expected: base(Verdict::Forbidden),
        },
        Litmus {
            name: "test-08".into(),
            description: "a value observed by another operation may still be lost (RStore)".into(),
            config: two.clone(),
            trace: Trace::from_labels([
                Label::rstore(M1, x(2), Val(1)),
                // RStore₂(y₁, x₂) shorthand, expanded:
                Label::load(M2, x(2), Val(1)),
                Label::rstore(M2, x(1), Val(1)),
                Label::crash(M2),
                Label::load(M1, x(1), Val(1)),
                Label::load(M1, x(2), Val(0)),
            ]),
            expected: base(Verdict::Allowed),
        },
        Litmus {
            name: "test-09".into(),
            description: "MStore for the first write rules out the inconsistent recovery".into(),
            config: two,
            trace: Trace::from_labels([
                Label::mstore(M1, x(2), Val(1)),
                Label::load(M2, x(2), Val(1)),
                Label::rstore(M2, x(1), Val(1)),
                Label::crash(M2),
                Label::load(M1, x(1), Val(1)),
                Label::load(M1, x(2), Val(0)),
            ]),
            expected: base(Verdict::Forbidden),
        },
    ]
}

/// §3.5, tests 10–12: machine 1 has NVMM, machine 2 volatile memory.
/// Verdict triples are reported as (CXL0, CXL0_LWB, CXL0_PSN).
pub fn variant_tests() -> Vec<Litmus> {
    let cfg = SystemConfig::new(vec![
        MachineConfig::non_volatile(1),
        MachineConfig::volatile(1),
    ]);
    let triple = |b, l, p| {
        vec![
            (ModelVariant::Base, b),
            (ModelVariant::Lwb, l),
            (ModelVariant::Psn, p),
        ]
    };
    vec![
        Litmus {
            name: "test-10".into(),
            description: "remote update observed then lost: LWB forbids, PSN allows".into(),
            config: cfg.clone(),
            trace: Trace::from_labels([
                Label::rstore(M2, x(1), Val(1)),
                Label::load(M2, x(1), Val(1)),
                Label::crash(M1),
                Label::load(M2, x(1), Val(0)),
            ]),
            expected: triple(Verdict::Allowed, Verdict::Forbidden, Verdict::Allowed),
        },
        Litmus {
            name: "test-11".into(),
            description: "owner's LStore observed remotely then lost: LWB forbids".into(),
            config: cfg.clone(),
            trace: Trace::from_labels([
                Label::lstore(M1, x(1), Val(1)),
                Label::load(M2, x(1), Val(1)),
                Label::crash(M1),
                Label::load(M1, x(1), Val(0)),
            ]),
            expected: triple(Verdict::Allowed, Verdict::Forbidden, Verdict::Allowed),
        },
        Litmus {
            name: "test-12".into(),
            description: "inconsistency across consecutive crashes: PSN forbids".into(),
            config: cfg,
            trace: Trace::from_labels([
                Label::lstore(M2, x(1), Val(1)),
                Label::crash(M1),
                Label::load(M1, x(1), Val(1)),
                Label::crash(M1),
                Label::load(M2, x(1), Val(0)),
            ]),
            expected: triple(Verdict::Allowed, Verdict::Allowed, Verdict::Forbidden),
        },
    ]
}

/// §6's motivating example (test 13): on machine 1, `x=1; r1=x; r2=x;`
/// with `x ∈ Loc_M2` — the `assert(r1 == r2)` can fail if machine 2
/// crashes between the two reads, because the plain store is an `LStore`
/// whose propagated-but-unpersisted value is lost with machine 2.
pub fn motivating_example() -> Litmus {
    Litmus {
        name: "test-13".into(),
        description: "remote crash makes two consecutive local reads disagree".into(),
        config: SystemConfig::symmetric_nvm(2, 1),
        trace: Trace::from_labels([
            Label::lstore(M1, x(2), Val(1)),
            Label::load(M1, x(2), Val(1)),
            Label::crash(M2),
            Label::load(M1, x(2), Val(0)),
        ]),
        expected: base(Verdict::Allowed),
    }
}

/// All paper litmus tests: Figure 3, the variant triples, and test 13.
pub fn all_tests() -> Vec<Litmus> {
    let mut tests = figure3_tests();
    tests.extend(variant_tests());
    tests.push(motivating_example());
    tests
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::run_suite;

    #[test]
    fn figure3_all_match_paper() {
        let report = run_suite(&figure3_tests());
        assert!(report.all_pass(), "mismatches:\n{report}");
        assert_eq!(report.outcomes.len(), 9);
    }

    #[test]
    fn variant_triples_match_paper() {
        let report = run_suite(&variant_tests());
        assert!(report.all_pass(), "mismatches:\n{report}");
        assert_eq!(report.outcomes.len(), 9); // 3 tests × 3 variants
    }

    #[test]
    fn motivating_example_is_allowed() {
        assert!(motivating_example().passes());
    }

    #[test]
    fn suite_has_thirteen_tests() {
        assert_eq!(all_tests().len(), 13);
    }

    #[test]
    fn test_names_are_unique() {
        let tests = all_tests();
        let mut names: Vec<_> = tests.iter().map(|t| t.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), tests.len());
    }
}
