//! System configuration: the static description of the machines that make
//! up a CXL0 system (§3.1 of the paper).
//!
//! A system consists of `N` machines, each contributing zero or more shared
//! memory locations and declaring whether its memory is volatile or
//! non-volatile. Compute-only nodes contribute zero locations; memory-only
//! nodes are machines that never issue operations (the model does not need
//! to distinguish them statically).

use crate::ids::{Loc, MachineId};

/// Whether a machine's attached memory survives a crash of that machine.
///
/// The paper assumes, for brevity, that each `M_i` is either entirely
/// volatile or entirely non-volatile; mixed machines can be modeled with
/// sub-indices, i.e. by splitting one physical machine into two model
/// machines that crash together (see [`MachineConfig::crash_group`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryKind {
    /// Contents are reset to `0` when the owning machine crashes.
    #[default]
    Volatile,
    /// Contents survive a crash of the owning machine (NVMM, or memory in a
    /// separate failure domain such as an external pool).
    NonVolatile,
}

impl MemoryKind {
    /// True if this memory keeps its contents across a crash.
    pub fn is_non_volatile(self) -> bool {
        matches!(self, MemoryKind::NonVolatile)
    }
}

/// Static description of one machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Volatility of the machine's attached shared memory.
    pub memory: MemoryKind,
    /// Number of shared cache-line-granular locations this machine owns.
    /// `0` for compute-only nodes.
    pub locations: u32,
    /// Machines that crash *together* with this one (same failure domain).
    /// Used to model a physical machine with both volatile and non-volatile
    /// memory as two model machines. Usually empty.
    pub crash_group: Vec<MachineId>,
}

impl MachineConfig {
    /// A machine with `locations` non-volatile shared locations.
    pub fn non_volatile(locations: u32) -> Self {
        MachineConfig {
            memory: MemoryKind::NonVolatile,
            locations,
            crash_group: Vec::new(),
        }
    }

    /// A machine with `locations` volatile shared locations.
    pub fn volatile(locations: u32) -> Self {
        MachineConfig {
            memory: MemoryKind::Volatile,
            locations,
            crash_group: Vec::new(),
        }
    }

    /// A compute-only node hosting no shared memory.
    pub fn compute_only() -> Self {
        MachineConfig {
            memory: MemoryKind::Volatile,
            locations: 0,
            crash_group: Vec::new(),
        }
    }
}

/// Static description of a whole CXL0 system: the machines, their memory
/// kinds, and their shared segments.
///
/// # Examples
///
/// ```
/// use cxl0_model::{SystemConfig, MachineConfig, MachineId};
///
/// // Two machines with one non-volatile location each (the typical litmus
/// // configuration of the paper).
/// let cfg = SystemConfig::symmetric_nvm(2, 1);
/// assert_eq!(cfg.num_machines(), 2);
/// assert_eq!(cfg.all_locations().count(), 2);
/// assert!(cfg.machine(MachineId(0)).memory.is_non_volatile());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    machines: Vec<MachineConfig>,
}

impl SystemConfig {
    /// Creates a configuration from explicit machine descriptions.
    ///
    /// # Panics
    ///
    /// Panics if `machines` is empty or holds more than 64 machines (the
    /// holders mask of a [`Cell`](crate::cell::Cell)), or if any
    /// `crash_group` entry refers to a machine outside the system.
    pub fn new(machines: Vec<MachineConfig>) -> Self {
        assert!(!machines.is_empty(), "a system needs at least one machine");
        assert!(machines.len() <= 64, "at most 64 machines supported");
        let n = machines.len();
        for (i, m) in machines.iter().enumerate() {
            for g in &m.crash_group {
                assert!(
                    g.index() < n,
                    "machine m{i} crash_group refers to nonexistent {g}"
                );
            }
        }
        SystemConfig { machines }
    }

    /// `n` machines, each owning `locs` non-volatile locations.
    pub fn symmetric_nvm(n: usize, locs: u32) -> Self {
        SystemConfig::new(vec![MachineConfig::non_volatile(locs); n])
    }

    /// `n` machines, each owning `locs` volatile locations.
    pub fn symmetric_volatile(n: usize, locs: u32) -> Self {
        SystemConfig::new(vec![MachineConfig::volatile(locs); n])
    }

    /// The number of machines `N`.
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// The configuration of machine `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn machine(&self, m: MachineId) -> &MachineConfig {
        &self.machines[m.index()]
    }

    /// Iterator over all machine ids in the system.
    pub fn machines(&self) -> impl Iterator<Item = MachineId> + '_ {
        (0..self.machines.len()).map(MachineId)
    }

    /// Whether `loc` denotes a real location in this system.
    pub fn contains_loc(&self, loc: Loc) -> bool {
        loc.owner.index() < self.machines.len()
            && loc.addr.index() < self.machines[loc.owner.index()].locations as usize
    }

    /// Iterator over every shared location `Loc = ∪ᵢ Locᵢ` in the system.
    pub fn all_locations(&self) -> impl Iterator<Item = Loc> + '_ {
        self.machines
            .iter()
            .enumerate()
            .flat_map(|(i, mc)| (0..mc.locations).map(move |a| Loc::new(MachineId(i), a)))
    }

    /// Iterator over the locations owned by machine `m`.
    pub fn locations_of(&self, m: MachineId) -> impl Iterator<Item = Loc> + '_ {
        let count = self
            .machines
            .get(m.index())
            .map(|mc| mc.locations)
            .unwrap_or(0);
        (0..count).map(move |a| Loc::new(m, a))
    }

    /// All machines in the same failure domain as `m` (always includes `m`).
    pub fn failure_domain(&self, m: MachineId) -> Vec<MachineId> {
        let mut out = vec![m];
        out.extend(self.machines[m.index()].crash_group.iter().copied());
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_nvm_shape() {
        let cfg = SystemConfig::symmetric_nvm(3, 2);
        assert_eq!(cfg.num_machines(), 3);
        assert_eq!(cfg.all_locations().count(), 6);
        for m in cfg.machines() {
            assert!(cfg.machine(m).memory.is_non_volatile());
            assert_eq!(cfg.locations_of(m).count(), 2);
        }
    }

    #[test]
    fn contains_loc_bounds() {
        let cfg = SystemConfig::symmetric_volatile(2, 1);
        assert!(cfg.contains_loc(Loc::new(MachineId(0), 0)));
        assert!(!cfg.contains_loc(Loc::new(MachineId(0), 1)));
        assert!(!cfg.contains_loc(Loc::new(MachineId(2), 0)));
    }

    #[test]
    fn compute_only_machine_has_no_locations() {
        let cfg = SystemConfig::new(vec![
            MachineConfig::compute_only(),
            MachineConfig::non_volatile(4),
        ]);
        assert_eq!(cfg.locations_of(MachineId(0)).count(), 0);
        assert_eq!(cfg.locations_of(MachineId(1)).count(), 4);
    }

    #[test]
    fn heterogeneous_memory_kinds() {
        let cfg = SystemConfig::new(vec![
            MachineConfig::non_volatile(1),
            MachineConfig::volatile(1),
        ]);
        assert!(cfg.machine(MachineId(0)).memory.is_non_volatile());
        assert!(!cfg.machine(MachineId(1)).memory.is_non_volatile());
    }

    #[test]
    fn failure_domain_includes_group() {
        let mut a = MachineConfig::non_volatile(1);
        a.crash_group = vec![MachineId(1)];
        let cfg = SystemConfig::new(vec![a, MachineConfig::volatile(1)]);
        assert_eq!(
            cfg.failure_domain(MachineId(0)),
            vec![MachineId(0), MachineId(1)]
        );
        assert_eq!(cfg.failure_domain(MachineId(1)), vec![MachineId(1)]);
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_system_rejected() {
        let _ = SystemConfig::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "nonexistent")]
    fn bad_crash_group_rejected() {
        let mut a = MachineConfig::non_volatile(1);
        a.crash_group = vec![MachineId(5)];
        let _ = SystemConfig::new(vec![a]);
    }

    #[test]
    #[should_panic(expected = "at most 64 machines")]
    fn more_machines_than_a_holders_mask_rejected() {
        let _ = SystemConfig::symmetric_nvm(65, 0);
    }
}
