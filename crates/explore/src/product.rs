//! One location at a time: the check that a configuration's reachable
//! space is the synchronous product of its per-location projections,
//! which [`simulate`](crate::simulate) and [`refine`](crate::refine) both
//! rest on.
//!
//! A state is one [`Cell`] per location. Every label or silent step that
//! names a location acts on that location's cell alone, a crash on every
//! cell by the same rule, and `GPF` (like `Barrier`) is a conjunction: it
//! waits for *all* caches to drain, so it is enabled exactly when every
//! cell allows it, and then changes no cell. So the reachable space is the
//! product of its locations' *projections* (the same machines, memory kinds
//! and crash groups, with only that location), synchronised on the labels
//! that name no location, and steps on different locations are
//! independent: the argument of partial-order reduction (Godefroid, LNCS
//! 1032, 1996). [`check_product`] checks this over the whole space: every
//! step moves every cell as the cell's projection does, and the number of
//! states is the product of the projections' sizes (so each location
//! reaches every cell of its projection, in every combination with the
//! others). The locations of one owner share a projection.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use cxl0_model::cell::Cell;
use cxl0_model::{
    Label, Loc, MachineConfig, MachineId, Semantics, SilentStep, State, SystemConfig, Val,
};

use crate::space::{reachable_states, AlphabetBuilder};

/// A step of the whole space or of a projection.
#[derive(Debug, Clone, Copy)]
enum Edge {
    /// A visible transition.
    Visible(Label),
    /// A silent step.
    Silent(SilentStep),
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edge::Visible(label) => label.fmt(f),
            Edge::Silent(step) => step.fmt(f),
        }
    }
}

/// Each owner's projection and its reachable states (see [`project`]).
pub(crate) type Projections = BTreeMap<MachineId, (Semantics, BTreeMap<Cell, State>)>;

/// `sem` projected to one location of `owner`'s: the same machines, memory
/// kinds, crash groups, variant and topology, with `owner` owning only
/// `Loc::new(owner, 0)`. Returned with its reachable states, keyed by their
/// one cell.
fn project(
    sem: &Semantics,
    owner: MachineId,
    values: &[Val],
) -> (Semantics, BTreeMap<Cell, State>) {
    let cfg = sem.config();
    let machines = cfg.machines().map(|m| MachineConfig {
        locations: u32::from(m == owner),
        ..cfg.machine(m).clone()
    });
    let mut p = Semantics::with_variant(SystemConfig::new(machines.collect()), sem.variant());
    if let Some(topology) = sem.topology() {
        p = p.restricted(topology.clone());
    }
    let alphabet = AlphabetBuilder::new(p.config())
        .values(values.iter().copied())
        .build();
    let states = reachable_states(&p, &alphabet).into_iter();
    let states = states.map(|st| (st.cell(Loc::new(owner, 0)), st)).collect();
    (p, states)
}

/// `edge`'s successor of `st`, if `edge` is enabled there.
fn fire(sem: &Semantics, st: &State, edge: Edge) -> Option<State> {
    match edge {
        Edge::Visible(label) => sem.apply(st, &label).ok(),
        Edge::Silent(step) => (sem.silent_steps(st).contains(&step))
            .then(|| sem.apply_silent(st, &step).ok())
            .flatten(),
    }
}

/// `edge` at location `to` if it names a location (`None` if it names one
/// other than `from`), else `edge` itself: a crash, `GPF` or `Barrier`.
fn at(mut edge: Edge, from: Loc, to: Loc) -> Option<Edge> {
    use Label::{AFlush, Flush, Load, Rmw, Store};
    use SilentStep::{CacheToCache, CacheToMemory, Retire};
    if let Edge::Visible(
        Store { loc, .. }
        | Load { loc, .. }
        | Flush { loc, .. }
        | Rmw { loc, .. }
        | AFlush { loc, .. },
    )
    | Edge::Silent(CacheToCache { loc, .. } | CacheToMemory { loc } | Retire { loc, .. }) =
        &mut edge
    {
        if *loc != from {
            return None;
        }
        *loc = to;
    }
    Some(edge)
}

/// Explores the whole reachable space of `sem` under the full alphabet
/// over `values` and checks that it is the product of its locations'
/// projections (see the module doc). Returns each owner's projection and
/// the number of reachable states.
///
/// # Errors
///
/// A message naming the state and the step where the whole space and the
/// projections part, or the state count if it is not the product of the
/// projections' sizes.
pub(crate) fn check_product(
    sem: &Semantics,
    values: &[Val],
) -> Result<(Projections, usize), String> {
    let cfg = sem.config();
    let locs: Vec<Loc> = cfg.all_locations().collect();
    let owners = cfg.machines().filter(|&k| cfg.machine(k).locations > 0);
    let proj: Projections = owners.map(|k| (k, project(sem, k, values))).collect();
    let alphabet = AlphabetBuilder::new(cfg)
        .values(values.iter().copied())
        .build();
    let mut seen = HashSet::from([sem.initial_state()]);
    let mut frontier = vec![sem.initial_state()];
    while let Some(st) = frontier.pop() {
        // Each location with its projection's state of the same cell (every
        // cell of `st` passed the check below).
        let views: Vec<_> = (locs.iter())
            .map(|&y| (y, &proj[&y.owner].0, &proj[&y.owner].1[&st.cell(y)]))
            .collect();
        let mut edges: Vec<Edge> = alphabet.iter().map(|&label| Edge::Visible(label)).collect();
        for &(y, p, view) in &views {
            let steps = p.silent_steps(view).into_iter();
            edges.extend(steps.filter_map(|s| at(Edge::Silent(s), Loc::new(y.owner, 0), y)));
        }
        // With each of these checked below, this makes them the product's.
        let (silent, n) = (edges.len() - alphabet.len(), sem.silent_steps(&st).len());
        if n != silent {
            return Err(format!(
                "{n} silent steps from\n{st}\nwhere the projections have {silent}"
            ));
        }
        for edge in edges {
            // Each cell moves as in its projection, or stays if the edge
            // names another location.
            let expected: Option<Vec<Cell>> = (views.iter())
                .map(|&(y, p, view)| {
                    let x = Loc::new(y.owner, 0);
                    match at(edge, y, x) {
                        Some(edge) => fire(p, view, edge).map(|next| next.cell(x)),
                        None => Some(st.cell(y)),
                    }
                })
                .collect();
            let next = fire(sem, &st, edge);
            let actual = (next.as_ref()).map(|n| locs.iter().map(|&y| n.cell(y)).collect());
            if actual != expected {
                let why = format!("leaves cells {actual:?}, the projections {expected:?}");
                return Err(format!("{edge} from\n{st}\n{why}"));
            }
            frontier.extend(next.filter(|n| seen.insert(n.clone())));
        }
    }
    // Every cell reached is one of its projection's, so the count is the
    // product only if each location reaches all of them, in every combination.
    let product = proj
        .iter()
        .map(|(k, p)| p.1.len().pow(cfg.machine(*k).locations));
    match (seen.len(), product.product()) {
        (n, product) if n == product => Ok((proj, n)),
        (n, product) => Err(format!(
            "{n} states, not the product {product} of the projections' sizes"
        )),
    }
}
