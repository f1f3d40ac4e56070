//! Traces: finite sequences of visible labels, with pretty-printing in the
//! paper's litmus-test notation and small construction helpers.
//!
//! **Naming note.** A [`Trace`] here is a *model-level execution*: the
//! sequence of visible labels (loads, stores, flushes, crashes) a CXL0
//! program emits, the object the operational semantics and litmus tests
//! reason about. It is unrelated to `cxl0_runtime::trace`, the runtime's
//! opt-in *observability* layer (op-latency spans, histograms, recovery
//! telemetry, Chrome trace-event export). When a label sequence is
//! meant, it is this type; when profiling output is meant, it is the
//! runtime tracer.

use std::fmt;

use crate::label::Label;

/// A finite sequence of visible labels, e.g. a litmus test body.
///
/// # Examples
///
/// ```
/// use cxl0_model::{Trace, Label, Loc, MachineId, Val};
/// let x = Loc::new(MachineId(0), 0);
/// let t = Trace::from_labels([
///     Label::rstore(MachineId(0), x, Val(1)),
///     Label::crash(MachineId(0)),
///     Label::load(MachineId(0), x, Val(0)),
/// ]);
/// assert_eq!(t.len(), 3);
/// assert!(t.to_string().contains("E_m0"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Trace {
    labels: Vec<Label>,
}

impl Trace {
    /// The empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Builds a trace from any label iterator.
    pub fn from_labels<I: IntoIterator<Item = Label>>(labels: I) -> Self {
        Trace {
            labels: labels.into_iter().collect(),
        }
    }

    /// Appends a label (builder style).
    pub fn then(mut self, label: Label) -> Self {
        self.labels.push(label);
        self
    }

    /// Appends a label in place.
    pub fn push(&mut self, label: Label) {
        self.labels.push(label);
    }

    /// The labels in order.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Number of labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the trace contains no labels.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Iterator over the labels.
    pub fn iter(&self) -> std::slice::Iter<'_, Label> {
        self.labels.iter()
    }

    /// Concatenation of two traces.
    pub fn concat(&self, other: &Trace) -> Trace {
        let mut labels = self.labels.clone();
        labels.extend_from_slice(&other.labels);
        Trace { labels }
    }

    /// The trace without its crash events (used by durable-linearizability
    /// style arguments and by visible-trace comparisons).
    pub fn without_crashes(&self) -> Trace {
        Trace {
            labels: self
                .labels
                .iter()
                .filter(|l| !matches!(l, Label::Crash { .. }))
                .copied()
                .collect(),
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{l}")?;
        }
        Ok(())
    }
}

impl FromIterator<Label> for Trace {
    fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> Self {
        Trace::from_labels(iter)
    }
}

impl Extend<Label> for Trace {
    fn extend<I: IntoIterator<Item = Label>>(&mut self, iter: I) {
        self.labels.extend(iter);
    }
}

impl IntoIterator for Trace {
    type Item = Label;
    type IntoIter = std::vec::IntoIter<Label>;
    fn into_iter(self) -> Self::IntoIter {
        self.labels.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Label;
    type IntoIter = std::slice::Iter<'a, Label>;
    fn into_iter(self) -> Self::IntoIter {
        self.labels.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Loc, MachineId, Val};

    fn x() -> Loc {
        Loc::new(MachineId(1), 0)
    }

    #[test]
    fn builder_and_accessors() {
        let t = Trace::new()
            .then(Label::lstore(MachineId(0), x(), Val(1)))
            .then(Label::lflush(MachineId(0), x()));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.labels()[1], Label::lflush(MachineId(0), x()));
    }

    #[test]
    fn display_joins_with_semicolons() {
        let t = Trace::from_labels([
            Label::mstore(MachineId(0), x(), Val(1)),
            Label::crash(MachineId(1)),
        ]);
        assert_eq!(t.to_string(), "MStore_m0(x[m1:a0], 1); E_m1");
    }

    #[test]
    fn without_crashes_strips_only_crashes() {
        let t = Trace::from_labels([
            Label::lstore(MachineId(0), x(), Val(1)),
            Label::crash(MachineId(1)),
            Label::load(MachineId(0), x(), Val(1)),
        ]);
        let s = t.without_crashes();
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|l| !matches!(l, Label::Crash { .. })));
    }

    #[test]
    fn concat_and_collect() {
        let a = Trace::from_labels([Label::gpf(MachineId(0))]);
        let b: Trace = [Label::crash(MachineId(0))].into_iter().collect();
        let c = a.concat(&b);
        assert_eq!(c.len(), 2);
        let labels: Vec<_> = (&c).into_iter().copied().collect();
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn extend_appends() {
        let mut t = Trace::new();
        t.extend([Label::gpf(MachineId(0)), Label::crash(MachineId(0))]);
        assert_eq!(t.len(), 2);
    }
}
