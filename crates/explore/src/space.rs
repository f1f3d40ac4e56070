//! Explicit-state exploration: the finite label alphabets that drive the
//! analyses, and every state reachable under one.

use std::collections::HashSet;

use cxl0_model::{Label, Primitive, Semantics, State, StoreKind, SystemConfig, Val};

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

/// Every state reachable from the initial state under `alphabet` and the
/// silent steps, each once, in `State`'s order.
pub fn reachable_states(sem: &Semantics, alphabet: &[Label]) -> Vec<State> {
    let mut seen = HashSet::from([sem.initial_state()]);
    let mut frontier = vec![sem.initial_state()];
    while let Some(st) = frontier.pop() {
        let silent = sem.silent_steps(&st).into_iter().map(|step| {
            sem.apply_silent(&st, &step)
                .expect("enumerated silent step must be enabled")
        });
        let visible = alphabet
            .iter()
            .filter_map(|label| sem.apply(&st, label).ok());
        for next in silent.chain(visible) {
            if !seen.contains(&next) {
                seen.insert(next.clone());
                frontier.push(next);
            }
        }
    }
    let mut states: Vec<State> = seen.into_iter().collect();
    states.sort_unstable();
    states
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
        let states = reachable_states(&sem, &alphabet);
        // 1 machine, 1 loc, vals {0,1}: cache ∈ {⊥,0,1} × mem ∈ {0,1} = 6 states,
        // all reachable.
        assert_eq!(states.len(), 6);
        assert!(states.contains(&sem.initial_state()));
    }
}
