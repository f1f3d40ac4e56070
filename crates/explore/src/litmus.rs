//! Litmus tests: named traces with expected allowed/forbidden verdicts per
//! model variant, and a runner that checks them against the semantics.
//!
//! This is the executable form of the paper's Figure 3 (tests 1–9), the
//! §3.5 variant-comparison tests (10–12), and the §6 motivating example
//! (test 13), and of the `CXL0_AF` suite `A1`–`A8` in
//! [`crate::paper_async`].

use std::fmt;

use cxl0_model::{ModelVariant, Semantics, SystemConfig, Trace};

use crate::interp::Explorer;

/// Whether a behavior is allowed (✔) or forbidden (✗) by a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The trace is executable: the model allows the behavior.
    Allowed,
    /// No execution produces the trace: the behavior is forbidden.
    Forbidden,
}

impl Verdict {
    /// `✔` or `✗`, as printed in the paper.
    pub fn symbol(self) -> &'static str {
        match self {
            Verdict::Allowed => "✔",
            Verdict::Forbidden => "✗",
        }
    }

    /// Creates a verdict from an executability flag.
    pub fn from_allowed(allowed: bool) -> Self {
        if allowed {
            Verdict::Allowed
        } else {
            Verdict::Forbidden
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A litmus test: a trace over a configuration, with expected verdicts for
/// one or more model variants.
#[derive(Debug, Clone)]
pub struct Litmus {
    /// Short name, e.g. `"test-01"`.
    pub name: String,
    /// Human-readable description of what the test demonstrates.
    pub description: String,
    /// The system configuration the trace runs over.
    pub config: SystemConfig,
    /// The trace of visible labels (in execution order, as in Fig. 3).
    pub trace: Trace,
    /// Expected verdicts, per variant. Only variants listed here are
    /// asserted by [`Litmus::check`].
    pub expected: Vec<(ModelVariant, Verdict)>,
}

impl Litmus {
    /// The expected verdict under `variant`, if the paper states one.
    pub fn expected_for(&self, variant: ModelVariant) -> Option<Verdict> {
        self.expected
            .iter()
            .find(|(v, _)| *v == variant)
            .map(|(_, verdict)| *verdict)
    }

    /// Runs the test under `variant` and returns the observed verdict.
    pub fn run(&self, variant: ModelVariant) -> Verdict {
        let sem = Semantics::with_variant(self.config.clone(), variant);
        Verdict::from_allowed(Explorer::new(&sem).is_allowed(&self.trace))
    }

    /// Runs the test under every variant with a stated expectation.
    pub fn check(&self) -> Vec<LitmusOutcome> {
        self.expected
            .iter()
            .map(|&(variant, expected)| {
                let observed = self.run(variant);
                LitmusOutcome {
                    name: self.name.clone(),
                    variant,
                    expected,
                    observed,
                }
            })
            .collect()
    }

    /// True if every stated expectation matches the model.
    pub fn passes(&self) -> bool {
        self.check().iter().all(LitmusOutcome::pass)
    }
}

/// The outcome of running one litmus test under one variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LitmusOutcome {
    /// The test's name.
    pub name: String,
    /// The variant it ran under.
    pub variant: ModelVariant,
    /// The verdict the paper states.
    pub expected: Verdict,
    /// The verdict the implementation computed.
    pub observed: Verdict,
}

impl LitmusOutcome {
    /// Whether observed matches expected.
    pub fn pass(&self) -> bool {
        self.expected == self.observed
    }
}

impl fmt::Display for LitmusOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:<9} expected {} observed {} [{}]",
            self.name,
            self.variant.to_string(),
            self.expected,
            self.observed,
            if self.pass() { "PASS" } else { "FAIL" }
        )
    }
}

/// Runs a whole suite and formats a Figure-3-style report.
pub fn run_suite(tests: &[Litmus]) -> SuiteReport {
    let mut outcomes = Vec::new();
    for t in tests {
        outcomes.extend(t.check());
    }
    SuiteReport { outcomes }
}

/// Aggregated results of a litmus suite run.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// All individual outcomes.
    pub outcomes: Vec<LitmusOutcome>,
}

impl SuiteReport {
    /// Number of matching outcomes.
    pub fn passed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.pass()).count()
    }

    /// Number of mismatching outcomes.
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.passed()
    }

    /// True if every outcome matches the paper.
    pub fn all_pass(&self) -> bool {
        self.failed() == 0
    }
}

impl fmt::Display for SuiteReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for o in &self.outcomes {
            writeln!(f, "{o}")?;
        }
        write!(
            f,
            "{} passed, {} failed, {} total",
            self.passed(),
            self.failed(),
            self.outcomes.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl0_model::{Label, Loc, MachineId, Val};

    fn simple_litmus(expect: Verdict) -> Litmus {
        let x = Loc::new(MachineId(0), 0);
        Litmus {
            name: "demo".into(),
            description: "RStore lost on crash".into(),
            config: SystemConfig::symmetric_nvm(1, 1),
            trace: Trace::from_labels([
                Label::rstore(MachineId(0), x, Val(1)),
                Label::crash(MachineId(0)),
                Label::load(MachineId(0), x, Val(0)),
            ]),
            expected: vec![(ModelVariant::Base, expect)],
        }
    }

    #[test]
    fn verdict_symbols() {
        assert_eq!(Verdict::Allowed.symbol(), "✔");
        assert_eq!(Verdict::Forbidden.symbol(), "✗");
        assert_eq!(Verdict::from_allowed(true), Verdict::Allowed);
    }

    #[test]
    fn passing_litmus_reports_pass() {
        let l = simple_litmus(Verdict::Allowed);
        assert!(l.passes());
        let outcomes = l.check();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].pass());
        assert!(outcomes[0].to_string().contains("PASS"));
    }

    #[test]
    fn failing_litmus_reports_fail() {
        let l = simple_litmus(Verdict::Forbidden);
        assert!(!l.passes());
        assert!(l.check()[0].to_string().contains("FAIL"));
    }

    #[test]
    fn suite_report_counts() {
        let suite = vec![
            simple_litmus(Verdict::Allowed),
            simple_litmus(Verdict::Forbidden),
        ];
        let report = run_suite(&suite);
        assert_eq!(report.passed(), 1);
        assert_eq!(report.failed(), 1);
        assert!(!report.all_pass());
        assert!(report.to_string().contains("1 passed, 1 failed"));
    }

    #[test]
    fn expected_for_lookup() {
        let l = simple_litmus(Verdict::Allowed);
        assert_eq!(l.expected_for(ModelVariant::Base), Some(Verdict::Allowed));
        assert_eq!(l.expected_for(ModelVariant::Psn), None);
    }
}
