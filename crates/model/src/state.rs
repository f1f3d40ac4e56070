//! CXL0 system states `γ = (C, M)` (§3.3).
//!
//! `C` maps each machine to its abstract *cache* `C_i : Loc → Val ⊎ {⊥}`
//! and `M` maps each machine to its *memory* `M_i : Loc_i → Val`. These are
//! abstract propagation layers, not literal hardware caches: they record
//! how far the latest value of each address has travelled toward physical
//! memory.
//!
//! The representation uses `BTreeMap`s for caches (absent key = `⊥`) so
//! that states are canonical, hashable and orderable — which the explorer
//! crate relies on for state-space deduplication.

use std::collections::BTreeMap;
use std::fmt;

use crate::cell::Cell;
use crate::config::SystemConfig;
use crate::ids::{Loc, MachineId, Val};

/// One machine's abstract cache `C_i`. Absent entries are `⊥` (invalid).
pub type Cache = BTreeMap<Loc, Val>;

/// A CXL0 system state `γ = (C, M)`.
///
/// # Examples
///
/// ```
/// use cxl0_model::{State, SystemConfig, Loc, MachineId, Val};
/// let cfg = SystemConfig::symmetric_nvm(2, 1);
/// let st = State::initial(&cfg);
/// let x = Loc::new(MachineId(0), 0);
/// assert_eq!(st.cache(MachineId(0), x), None);       // empty caches
/// assert_eq!(st.memory(x), Val::ZERO);               // zeroed memories
/// assert_eq!(st.visible_value(x), Val::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct State {
    /// Per-machine caches, indexed by machine id.
    caches: Vec<Cache>,
    /// Per-machine memories: `mems[i][a]` is `M_i(Loc{i,a})`.
    mems: Vec<Vec<Val>>,
}

impl State {
    /// The initial state: all caches empty (`C_i = λx.⊥`) and all memories
    /// zero-initialized (`M_i = λx.0`).
    pub fn initial(cfg: &SystemConfig) -> Self {
        let n = cfg.num_machines();
        State {
            caches: vec![Cache::new(); n],
            mems: (0..n)
                .map(|i| vec![Val::ZERO; cfg.machine(MachineId(i)).locations as usize])
                .collect(),
        }
    }

    /// Number of machines in this state.
    pub fn num_machines(&self) -> usize {
        self.caches.len()
    }

    /// `C_i(x)`: the cached value of `loc` at machine `m`, or `None` for `⊥`.
    pub fn cache(&self, m: MachineId, loc: Loc) -> Option<Val> {
        self.caches[m.index()].get(&loc).copied()
    }

    /// The full cache map of machine `m`.
    pub fn cache_of(&self, m: MachineId) -> &Cache {
        &self.caches[m.index()]
    }

    /// `M_k(x)`: the memory value of `loc` at its owner.
    ///
    /// # Panics
    ///
    /// Panics if `loc` does not exist in this state.
    pub fn memory(&self, loc: Loc) -> Val {
        self.mems[loc.owner.index()][loc.addr.index()]
    }

    /// The unique value currently *visible* to a load of `loc`: the cached
    /// value if any cache holds one (they all agree, by the global
    /// invariant), otherwise the owner's memory value.
    pub fn visible_value(&self, loc: Loc) -> Val {
        self.cell(loc).visible()
    }

    /// The machines whose caches currently hold `loc`.
    pub fn holders(&self, loc: Loc) -> Vec<MachineId> {
        self.caches
            .iter()
            .enumerate()
            .filter(|(_, c)| c.contains_key(&loc))
            .map(|(i, _)| MachineId(i))
            .collect()
    }

    /// True if no cache holds `loc` (`∀j. C_j(x) = ⊥`).
    pub fn no_cache_holds(&self, loc: Loc) -> bool {
        self.caches.iter().all(|c| !c.contains_key(&loc))
    }

    /// True if every cache is completely empty (the GPF precondition).
    pub fn all_caches_empty(&self) -> bool {
        self.caches.iter().all(|c| c.is_empty())
    }

    /// The cell of `loc`: its holders, their value and the owner's memory
    /// (what [`step`](crate::cell::step) applies a label to). With no
    /// holder the cached value reads 0.
    pub fn cell(&self, loc: Loc) -> Cell {
        let mut cell = Cell {
            mem: self.memory(loc),
            ..Cell::default()
        };
        for (i, c) in self.caches.iter().enumerate() {
            if let Some(&v) = c.get(&loc) {
                cell.holders |= 1 << i;
                cell.cache = v;
            }
        }
        cell
    }

    /// Replaces `loc`'s cell `pre` by `post`, touching only the cache
    /// entries that change.
    pub(crate) fn set_cell(&mut self, loc: Loc, pre: Cell, post: Cell) {
        let same = post.cache == pre.cache;
        for (i, c) in self.caches.iter_mut().enumerate() {
            let (was, is) = (pre.holders & (1 << i) != 0, post.holders & (1 << i) != 0);
            if is && !(was && same) {
                c.insert(loc, post.cache);
            } else if was && !is {
                c.remove(&loc);
            }
        }
        self.mems[loc.owner.index()][loc.addr.index()] = post.mem;
    }

    /// Checks the global cache-coherence invariant of §3.3:
    ///
    /// ```text
    /// ∀ i, j, x.  C_i(x) ≠ ⊥ ∧ C_j(x) ≠ ⊥  ⟹  C_i(x) = C_j(x)
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first violating location with the two disagreeing
    /// machine/value pairs.
    pub fn check_invariant(&self) -> Result<(), InvariantViolation> {
        let mut seen: BTreeMap<Loc, (MachineId, Val)> = BTreeMap::new();
        for (i, c) in self.caches.iter().enumerate() {
            for (&loc, &v) in c {
                match seen.get(&loc) {
                    Some(&(first, fv)) if fv != v => {
                        return Err(InvariantViolation {
                            loc,
                            first,
                            first_val: fv,
                            second: MachineId(i),
                            second_val: v,
                        });
                    }
                    Some(_) => {}
                    None => {
                        seen.insert(loc, (MachineId(i), v));
                    }
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "state {{")?;
        for (i, c) in self.caches.iter().enumerate() {
            write!(f, "  C_m{i} = {{")?;
            for (k, (loc, v)) in c.iter().enumerate() {
                if k > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{loc}↦{v}")?;
            }
            writeln!(f, "}}")?;
        }
        for (i, m) in self.mems.iter().enumerate() {
            write!(f, "  M_m{i} = [")?;
            for (k, v) in m.iter().enumerate() {
                if k > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "}}")
    }
}

/// Violation of the global cache invariant: two caches hold different valid
/// values for the same location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The offending location.
    pub loc: Loc,
    /// First machine holding a valid value.
    pub first: MachineId,
    /// That machine's value.
    pub first_val: Val,
    /// Second machine holding a different valid value.
    pub second: MachineId,
    /// That machine's value.
    pub second_val: Val,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache invariant violated at {}: {}↦{} but {}↦{}",
            self.loc, self.first, self.first_val, self.second, self.second_val
        )
    }
}

impl std::error::Error for InvariantViolation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{step, CellLabel};
    use crate::ModelVariant;

    fn cfg() -> SystemConfig {
        SystemConfig::symmetric_nvm(2, 2)
    }

    /// Sets `C_m(loc) = v` alone: the invariant is the caller's business.
    fn set_cache(st: &mut State, m: MachineId, loc: Loc, v: Val) {
        st.caches[m.index()].insert(loc, v);
    }

    fn set_memory(st: &mut State, loc: Loc, v: Val) {
        st.mems[loc.owner.index()][loc.addr.index()] = v;
    }

    #[test]
    fn initial_state_is_empty_and_zeroed() {
        let cfg = cfg();
        let st = State::initial(&cfg);
        assert_eq!(st.num_machines(), 2);
        assert!(st.all_caches_empty());
        for loc in cfg.all_locations() {
            assert_eq!(st.memory(loc), Val::ZERO);
            assert!(st.no_cache_holds(loc));
            assert_eq!(st.visible_value(loc), Val::ZERO);
        }
        assert!(st.check_invariant().is_ok());
    }

    #[test]
    fn visible_value_prefers_cache() {
        let cfg = cfg();
        let mut st = State::initial(&cfg);
        let x = Loc::new(MachineId(0), 0);
        set_memory(&mut st, x, Val(5));
        assert_eq!(st.visible_value(x), Val(5));
        set_cache(&mut st, MachineId(1), x, Val(7));
        assert_eq!(st.visible_value(x), Val(7));
        assert_eq!(st.holders(x), vec![MachineId(1)]);
    }

    #[test]
    fn invariant_detects_disagreement() {
        let cfg = cfg();
        let mut st = State::initial(&cfg);
        let x = Loc::new(MachineId(0), 0);
        set_cache(&mut st, MachineId(0), x, Val(1));
        set_cache(&mut st, MachineId(1), x, Val(1));
        assert!(st.check_invariant().is_ok());
        set_cache(&mut st, MachineId(1), x, Val(2));
        let err = st.check_invariant().unwrap_err();
        assert_eq!(err.loc, x);
        assert_eq!(err.first_val, Val(1));
        assert_eq!(err.second_val, Val(2));
        assert!(err.to_string().contains("cache invariant violated"));
    }

    #[test]
    fn a_cell_round_trips_through_the_state() {
        let cfg = cfg();
        let mut st = State::initial(&cfg);
        let (x, y) = (Loc::new(MachineId(0), 0), Loc::new(MachineId(1), 1));
        set_cache(&mut st, MachineId(0), y, Val(2));
        let c = Cell {
            holders: 0b11,
            cache: Val(1),
            mem: Val(4),
        };
        st.set_cell(x, st.cell(x), c);
        assert_eq!(st.cell(x), c);
        assert_eq!(st.holders(x), vec![MachineId(0), MachineId(1)]);
        st.set_cell(x, c, Cell::default());
        assert!(st.no_cache_holds(x));
        assert_eq!(st.memory(x), Val::ZERO);
        assert_eq!(st.cache(MachineId(0), y), Some(Val(2)), "other cells stay");
    }

    /// Applies the `CRASH` cell rule of the machines in `machines` to every
    /// location, writing each cell back through [`State::set_cell`].
    fn crash(st: &mut State, cfg: &SystemConfig, machines: u64, volatile: bool, v: ModelVariant) {
        for loc in cfg.all_locations() {
            let pre = st.cell(loc);
            let label = CellLabel::Crash(machines, volatile);
            let (post, _) = step(pre, loc.owner, loc.owner, label, v).unwrap();
            st.set_cell(loc, pre, post);
        }
    }

    #[test]
    fn psn_drop_only_affects_owned_locations() {
        let cfg = cfg();
        let mut st = State::initial(&cfg);
        let x0 = Loc::new(MachineId(0), 0);
        let x1 = Loc::new(MachineId(1), 0);
        set_cache(&mut st, MachineId(1), x0, Val(1));
        set_cache(&mut st, MachineId(1), x1, Val(2));
        crash(&mut st, &cfg, 0b01, false, ModelVariant::Psn);
        assert!(st.no_cache_holds(x0));
        assert_eq!(st.cache(MachineId(1), x1), Some(Val(2)));
    }

    #[test]
    fn zero_memory_resets_values() {
        let cfg = cfg();
        let mut st = State::initial(&cfg);
        let (x, y) = (Loc::new(MachineId(0), 1), Loc::new(MachineId(1), 1));
        set_memory(&mut st, x, Val(9));
        set_memory(&mut st, y, Val(8));
        crash(&mut st, &cfg, 0b01, true, ModelVariant::Base);
        assert_eq!(st.memory(x), Val::ZERO);
        assert_eq!(st.memory(y), Val(8), "a live machine's memory stays");
    }

    #[test]
    fn display_renders_both_components() {
        let cfg = cfg();
        let mut st = State::initial(&cfg);
        set_cache(&mut st, MachineId(0), Loc::new(MachineId(1), 0), Val(3));
        let s = st.to_string();
        assert!(s.contains("C_m0"));
        assert!(s.contains("M_m1"));
        assert!(s.contains("↦3"));
    }

    #[test]
    fn states_are_ord_and_hashable() {
        use std::collections::{BTreeSet, HashSet};
        let cfg = cfg();
        let a = State::initial(&cfg);
        let mut b = a.clone();
        set_memory(&mut b, Loc::new(MachineId(0), 0), Val(1));
        let mut hs = HashSet::new();
        hs.insert(a.clone());
        hs.insert(b.clone());
        hs.insert(a.clone());
        assert_eq!(hs.len(), 2);
        let mut bs = BTreeSet::new();
        bs.insert(a);
        bs.insert(b);
        assert_eq!(bs.len(), 2);
    }
}
