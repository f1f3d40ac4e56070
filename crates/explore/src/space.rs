//! Bounded explicit-state exploration: enumerate every state reachable
//! under a finite label alphabet, producing a graph that the Proposition-1
//! checker, the refinement checker and the DOT exporter all consume.

use std::collections::{BTreeSet, HashMap};

use cxl0_model::{Label, Primitive, Semantics, SilentStep, State, StoreKind, SystemConfig, Val};

use crate::lts::Lts;

/// Builds the finite label alphabet used to drive exploration and
/// refinement: every instantiation of the selected primitives over the
/// configuration's machines, locations and a small value domain.
///
/// # Examples
///
/// ```
/// use cxl0_explore::AlphabetBuilder;
/// use cxl0_model::{SystemConfig, Primitive, Val};
///
/// let cfg = SystemConfig::symmetric_nvm(2, 1);
/// let alphabet = AlphabetBuilder::new(&cfg)
///     .values([Val(0), Val(1)])
///     .primitives([Primitive::LStore, Primitive::Load, Primitive::Crash])
///     .build();
/// // 2 machines × 2 locs × 2 vals stores + same for loads + 2 crashes:
/// assert_eq!(alphabet.len(), 2 * 2 * 2 + 2 * 2 * 2 + 2);
/// ```
#[derive(Debug, Clone)]
pub struct AlphabetBuilder {
    cfg: SystemConfig,
    values: Vec<Val>,
    primitives: Vec<Primitive>,
}

impl AlphabetBuilder {
    /// Starts a builder over `cfg` with values `{0, 1}` and every
    /// primitive enabled.
    pub fn new(cfg: &SystemConfig) -> Self {
        AlphabetBuilder {
            cfg: cfg.clone(),
            values: vec![Val(0), Val(1)],
            primitives: Primitive::ISSUED
                .iter()
                .copied()
                .chain([Primitive::Crash])
                .collect(),
        }
    }

    /// Replaces the value domain.
    pub fn values<I: IntoIterator<Item = Val>>(mut self, vals: I) -> Self {
        self.values = vals.into_iter().collect();
        self
    }

    /// Replaces the primitive selection.
    pub fn primitives<I: IntoIterator<Item = Primitive>>(mut self, prims: I) -> Self {
        self.primitives = prims.into_iter().collect();
        self
    }

    /// Generates the alphabet, ordered by primitive, then machine,
    /// location and value(s).
    pub fn build(&self) -> Vec<Label> {
        let locs: Vec<_> = self.cfg.all_locations().collect();
        let vals = &self.values;
        let mut out = Vec::new();
        for &p in &self.primitives {
            let kind = match p {
                Primitive::LStore | Primitive::LRmw => StoreKind::Local,
                Primitive::RStore | Primitive::RRmw => StoreKind::Remote,
                _ => StoreKind::Memory,
            };
            for m in self.cfg.machines() {
                match p {
                    Primitive::Gpf => out.push(Label::gpf(m)),
                    Primitive::Crash => out.push(Label::crash(m)),
                    Primitive::LFlush => out.extend(locs.iter().map(|&l| Label::lflush(m, l))),
                    Primitive::RFlush => out.extend(locs.iter().map(|&l| Label::rflush(m, l))),
                    Primitive::Load => {
                        for &l in &locs {
                            out.extend(vals.iter().map(|&v| Label::load(m, l, v)));
                        }
                    }
                    Primitive::LStore | Primitive::RStore | Primitive::MStore => {
                        for &l in &locs {
                            out.extend(vals.iter().map(|&v| Label::store(kind, m, l, v)));
                        }
                    }
                    Primitive::LRmw | Primitive::RRmw | Primitive::MRmw => {
                        for &l in &locs {
                            for &old in vals {
                                out.extend(
                                    vals.iter().map(|&new| Label::rmw(kind, m, l, old, new)),
                                );
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// An edge of the explored transition graph.
#[derive(Debug, Clone)]
pub enum Edge<L: Lts = Semantics> {
    /// A visible transition.
    Visible(L::Label),
    /// A silent step.
    Silent(SilentStep),
}

/// The graph of all states reachable from the initial state under a label
/// alphabet (plus silent steps), up to optional limits.
#[derive(Debug, Clone)]
pub struct ReachableGraph<L: Lts = Semantics> {
    /// Deduplicated states; index 0 is the initial state.
    pub states: Vec<State>,
    /// Edges as `(from_index, edge, to_index)`.
    pub edges: Vec<(usize, Edge<L>, usize)>,
    /// True if exploration stopped because a limit was hit.
    pub truncated: bool,
}

impl<L: Lts> ReachableGraph<L> {
    /// Number of distinct states discovered.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of edges discovered.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }
}

/// Explores the reachable state space breadth-first.
///
/// `max_states` bounds the number of distinct states (the graph is marked
/// [`ReachableGraph::truncated`] if the bound is hit).
pub fn explore<L: Lts>(sem: &L, alphabet: &[L::Label], max_states: usize) -> ReachableGraph<L> {
    let init = sem.initial_state();
    let mut index = HashMap::from([(init.clone(), 0)]);
    let mut graph = ReachableGraph::<L> {
        states: vec![init],
        edges: Vec::new(),
        truncated: false,
    };
    // States are numbered in discovery order, so visiting them by index is
    // the breadth-first order.
    let mut i = 0;
    while i < graph.states.len() {
        let st = graph.states[i].clone();
        let silent = sem.silent_steps(&st).into_iter().map(|step| {
            let next = sem
                .apply_silent(&st, &step)
                .expect("enumerated silent step must be enabled");
            (Edge::Silent(step), next)
        });
        let visible = alphabet
            .iter()
            .filter_map(|label| Some((Edge::Visible(*label), sem.apply(&st, label).ok()?)));
        for (edge, next) in silent.chain(visible) {
            let j = match index.get(&next) {
                Some(&j) => j,
                None if graph.states.len() >= max_states => {
                    graph.truncated = true;
                    continue;
                }
                None => {
                    index.insert(next.clone(), graph.states.len());
                    graph.states.push(next);
                    graph.states.len() - 1
                }
            };
            graph.edges.push((i, edge, j));
        }
        i += 1;
    }
    graph
}

/// Convenience: the deduplicated set of reachable states.
pub fn reachable_states<L: Lts>(sem: &L, alphabet: &[L::Label], max_states: usize) -> Vec<State> {
    explore(sem, alphabet, max_states).states
}

/// The set of visible traces of length ≤ `depth`, as label sequences.
/// Exponential; only usable for tiny alphabets — intended for
/// cross-checking the refinement checker.
pub fn bounded_traces(sem: &Semantics, alphabet: &[Label], depth: usize) -> BTreeSet<Vec<Label>> {
    use crate::interp::{Explorer, StateSet};
    let exp = Explorer::new(sem);
    let mut out = BTreeSet::new();
    let mut frontier: Vec<(Vec<Label>, StateSet)> = vec![(Vec::new(), exp.initial_set())];
    out.insert(Vec::new());
    for _ in 0..depth {
        let mut next_frontier = Vec::new();
        for (trace, set) in &frontier {
            for label in alphabet {
                let next = exp.after_label(set, label);
                if !next.is_empty() {
                    let mut t = trace.clone();
                    t.push(*label);
                    if out.insert(t.clone()) {
                        next_frontier.push((t, next));
                    }
                }
            }
        }
        frontier = next_frontier;
        if frontier.is_empty() {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alphabet_counts_for_full_default() {
        let cfg = SystemConfig::symmetric_nvm(2, 1);
        let alphabet = AlphabetBuilder::new(&cfg).build();
        // loads 2*2*2=8, stores 3*8=24, flushes 2*2*2=8, gpf 2, rmw 3*2*2*4=48, crash 2.
        assert_eq!(alphabet.len(), 8 + 24 + 8 + 2 + 48 + 2);
    }

    #[test]
    fn exploration_small_system_is_exhaustive() {
        let cfg = SystemConfig::symmetric_nvm(1, 1);
        let sem = Semantics::new(cfg.clone());
        let alphabet = AlphabetBuilder::new(&cfg)
            .primitives([
                Primitive::LStore,
                Primitive::MStore,
                Primitive::Load,
                Primitive::Crash,
            ])
            .build();
        let graph = explore(&sem, &alphabet, 10_000);
        assert!(!graph.truncated);
        // 1 machine, 1 loc, vals {0,1}: cache ∈ {⊥,0,1} × mem ∈ {0,1} = 6 states,
        // all reachable.
        assert_eq!(graph.num_states(), 6);
        assert!(graph.num_edges() > 0);
    }

    #[test]
    fn truncation_is_flagged() {
        let cfg = SystemConfig::symmetric_nvm(2, 2);
        let sem = Semantics::new(cfg.clone());
        let alphabet = AlphabetBuilder::new(&cfg).build();
        let graph = explore(&sem, &alphabet, 5);
        assert!(graph.truncated);
        assert_eq!(graph.num_states(), 5);
    }

    #[test]
    fn bounded_traces_contains_empty_and_grows() {
        let cfg = SystemConfig::symmetric_nvm(1, 1);
        let sem = Semantics::new(cfg.clone());
        let alphabet = AlphabetBuilder::new(&cfg)
            .primitives([Primitive::MStore, Primitive::Load])
            .values([Val(1)])
            .build();
        let t0 = bounded_traces(&sem, &alphabet, 0);
        assert_eq!(t0.len(), 1);
        let t2 = bounded_traces(&sem, &alphabet, 2);
        assert!(t2.len() > 1);
        // A Load(x,1) alone is not executable (initial value is 0):
        let load1 = vec![alphabet
            .iter()
            .copied()
            .find(|l| matches!(l, Label::Load { .. }))
            .unwrap()];
        assert!(!t2.contains(&load1));
    }
}
