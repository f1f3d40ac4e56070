//! CXL0 system states `γ = (C, M)` (§3.3).
//!
//! `C` maps each machine to its abstract *cache* `C_i : Loc → Val ⊎ {⊥}`
//! and `M` maps each machine to its *memory* `M_i : Loc_i → Val`. These are
//! abstract propagation layers, not literal hardware caches: they record
//! how far the latest value of each address has travelled toward physical
//! memory.
//!
//! By the global cache invariant every cache that holds a location holds
//! the same value, so a state is one [`Cell`] per location, stored by owner
//! and address like the memories it contains. A cell that no cache holds
//! keeps cached value 0, so each state has one representation and states
//! are canonical, hashable and orderable, which the explorer crate relies
//! on for state-space deduplication.

use std::fmt;

use crate::cell::Cell;
use crate::config::SystemConfig;
use crate::ids::{Loc, MachineId, Val};

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
    /// `cells[k][a]` is the cell of `Loc{k, a}`.
    cells: Vec<Vec<Cell>>,
}

impl State {
    /// The initial state: all caches empty (`C_i = λx.⊥`) and all memories
    /// zero-initialized (`M_i = λx.0`).
    pub fn initial(cfg: &SystemConfig) -> Self {
        State {
            cells: cfg
                .machines()
                .map(|m| vec![Cell::default(); cfg.machine(m).locations as usize])
                .collect(),
        }
    }

    /// Number of machines in this state.
    pub fn num_machines(&self) -> usize {
        self.cells.len()
    }

    /// `C_i(x)`: the cached value of `loc` at machine `m`, or `None` for `⊥`.
    pub fn cache(&self, m: MachineId, loc: Loc) -> Option<Val> {
        let c = self.cell(loc);
        (c.holders & (1 << m.index()) != 0).then_some(c.cache)
    }

    /// `M_k(x)`: the memory value of `loc` at its owner.
    ///
    /// # Panics
    ///
    /// Panics if `loc` does not exist in this state.
    pub fn memory(&self, loc: Loc) -> Val {
        self.cell(loc).mem
    }

    /// The unique value currently *visible* to a load of `loc`: the cached
    /// value if any cache holds one, otherwise the owner's memory value.
    pub fn visible_value(&self, loc: Loc) -> Val {
        self.cell(loc).visible()
    }

    /// The machines whose caches currently hold `loc`.
    pub fn holders(&self, loc: Loc) -> Vec<MachineId> {
        let h = self.cell(loc).holders;
        (0..self.num_machines())
            .filter(|i| h & (1 << i) != 0)
            .map(MachineId)
            .collect()
    }

    /// True if no cache holds `loc` (`∀j. C_j(x) = ⊥`).
    pub fn no_cache_holds(&self, loc: Loc) -> bool {
        self.cell(loc).holders == 0
    }

    /// True if every cache is completely empty (the GPF precondition).
    pub fn all_caches_empty(&self) -> bool {
        self.cells().all(|(_, c)| c.holders == 0)
    }

    /// The cell of `loc`: its holders, their value and the owner's memory
    /// (what [`step`](crate::cell::step) applies a label to).
    ///
    /// # Panics
    ///
    /// Panics if `loc` does not exist in this state.
    pub fn cell(&self, loc: Loc) -> Cell {
        self.cells[loc.owner.index()][loc.addr.index()]
    }

    /// Every location's cell, ordered by owner, then address.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (Loc, Cell)> + '_ {
        self.cells.iter().enumerate().flat_map(|(k, cells)| {
            (cells.iter().enumerate()).map(move |(a, &c)| (Loc::new(MachineId(k), a as u32), c))
        })
    }

    /// Replaces `loc`'s cell by `post`, whose cached value reads 0 once no
    /// cache holds it.
    pub(crate) fn set_cell(&mut self, loc: Loc, mut post: Cell) {
        if post.holders == 0 {
            post.cache = Val::ZERO;
        }
        self.cells[loc.owner.index()][loc.addr.index()] = post;
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "state {{")?;
        for i in 0..self.num_machines() {
            let held = self.cells().filter(|(_, c)| c.holders & (1 << i) != 0);
            let held: Vec<_> = held.map(|(loc, c)| format!("{loc}↦{}", c.cache)).collect();
            writeln!(f, "  C_m{i} = {{{}}}", held.join(", "))?;
        }
        for (i, cells) in self.cells.iter().enumerate() {
            let mems: Vec<_> = cells.iter().map(|c| c.mem.to_string()).collect();
            writeln!(f, "  M_m{i} = [{}]", mems.join(", "))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{step, CellLabel};
    use crate::{Label, ModelVariant, Semantics};

    fn cfg() -> SystemConfig {
        SystemConfig::symmetric_nvm(2, 2)
    }

    /// Adds `m` to `loc`'s holders, all of which then cache `v`.
    fn set_cache(st: &mut State, m: MachineId, loc: Loc, v: Val) {
        let mut c = st.cell(loc);
        c.holders |= 1 << m.index();
        c.cache = v;
        st.set_cell(loc, c);
    }

    fn set_memory(st: &mut State, loc: Loc, v: Val) {
        let mut c = st.cell(loc);
        c.mem = v;
        st.set_cell(loc, c);
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
        st.set_cell(x, c);
        assert_eq!(st.cell(x), c);
        assert_eq!(st.holders(x), vec![MachineId(0), MachineId(1)]);
        st.set_cell(x, Cell::default());
        assert!(st.no_cache_holds(x));
        assert_eq!(st.memory(x), Val::ZERO);
        assert_eq!(st.cache(MachineId(0), y), Some(Val(2)), "other cells stay");
    }

    #[test]
    fn a_drained_cell_forgets_its_cached_value() {
        use std::hash::{BuildHasher, RandomState};
        let sem = Semantics::new(cfg());
        let (m0, x) = (MachineId(0), Loc::new(MachineId(1), 0));
        let st = sem.initial_state();
        let lstore = sem.apply(&st, &Label::lstore(m0, x, Val(1))).unwrap();
        let a = sem.apply(&lstore, &Label::mstore(m0, x, Val(2))).unwrap();
        let b = sem.apply(&st, &Label::mstore(m0, x, Val(2))).unwrap();
        assert_eq!(a, b);
        let h = RandomState::new();
        assert_eq!(h.hash_one(&a), h.hash_one(&b));
    }

    /// Applies the `CRASH` cell rule of the machines in `machines` to every
    /// location, writing each cell back through [`State::set_cell`].
    fn crash(st: &mut State, cfg: &SystemConfig, machines: u64, volatile: bool, v: ModelVariant) {
        for loc in cfg.all_locations() {
            let label = CellLabel::Crash(machines, volatile);
            let (post, _) = step(st.cell(loc), loc.owner, loc.owner, label, v).unwrap();
            st.set_cell(loc, post);
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
