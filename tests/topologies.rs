//! E9: §4's system-model variations — each topology grants exactly the
//! primitives the paper lists, the restricted semantics enforces them,
//! and the claimed equivalences (e.g. `LFlush ≡ RFlush` in the
//! partitioned pool) hold.

use cxl0::explore::{Explorer, StateSet};
use cxl0::model::{
    Label, Loc, MachineConfig, MachineId, Primitive, Semantics, StepError, SystemConfig, Topology,
    Trace, Val,
};

const HOST: MachineId = MachineId(0);
const DEVICE: MachineId = MachineId(1);

#[test]
fn host_device_pair_grants_match_paper() {
    let t = Topology::host_device_pair();
    let host_denied = [
        Primitive::RStore,
        Primitive::LFlush,
        Primitive::RRmw,
        Primitive::MRmw,
    ];
    let device_denied = [Primitive::LFlush, Primitive::RRmw, Primitive::MRmw];
    for p in Primitive::ISSUED {
        assert_eq!(t.allows(HOST, p), !host_denied.contains(&p), "host {p}");
        assert_eq!(
            t.allows(DEVICE, p),
            !device_denied.contains(&p),
            "device {p}"
        );
    }
}

#[test]
fn restricted_semantics_rejects_denied_primitives() {
    let cfg = SystemConfig::symmetric_nvm(2, 1);
    let sem = Semantics::new(cfg).restricted(Topology::host_device_pair());
    let st = sem.initial_state();
    let y = Loc::new(DEVICE, 0);
    // Host RStore: ??? in Table 1.
    assert!(matches!(
        sem.apply(&st, &Label::rstore(HOST, y, Val(1))),
        Err(StepError::NotAllowed {
            topology: "host-device-pair"
        })
    ));
    // Device RStore: fine.
    assert!(sem.apply(&st, &Label::rstore(DEVICE, y, Val(1))).is_ok());
    // LFlush: unavailable to both.
    for m in [HOST, DEVICE] {
        assert!(matches!(
            sem.apply(&st, &Label::lflush(m, y)),
            Err(StepError::NotAllowed { .. })
        ));
    }
    // Crashes are environment events and always allowed.
    assert!(sem.apply(&st, &Label::crash(DEVICE)).is_ok());
}

#[test]
fn partitioned_pool_disables_cache_to_cache_propagation() {
    let cfg = SystemConfig::symmetric_nvm(2, 1);
    let sem = Semantics::new(cfg).restricted(Topology::partitioned_pool(2));
    let st = sem.initial_state();
    let st = sem
        .apply(
            &st,
            &Label::lstore(MachineId(0), Loc::new(MachineId(1), 0), Val(1)),
        )
        .unwrap();
    // Without Propagate-C-C, the only silent step for a foreign-owned
    // line... does not exist; owner-held lines still drain C-M.
    let steps = sem.silent_steps(&st);
    assert!(steps.is_empty(), "C-C must be fabric-disabled: {steps:?}");
}

#[test]
fn partitioned_pool_lflush_equals_rflush() {
    // §4: "LFlush and RFlush are semantically equivalent in this setting".
    // The paper models the partitioned pool as "conceptually similar to
    // having a set of isolated machines with NVMM": each host owns its
    // partition's locations (NVM in an external failure domain) and —
    // this is the partition discipline — touches no other host's
    // partition. Under that discipline no foreign cache ever holds a
    // host's line, so RFlush's global-drain precondition degenerates to
    // LFlush's local one. Check outcome equality over every reachable
    // state of a partition-respecting program.
    let cfg = SystemConfig::symmetric_nvm(2, 1);
    let sem = Semantics::new(cfg.clone()).restricted(Topology::partitioned_pool(2));
    let exp = Explorer::new(&sem);

    // Partition-respecting alphabet: host i accesses only its own x_i.
    let mut alphabet = Vec::new();
    for m in 0..2 {
        let i = MachineId(m);
        let x = Loc::new(i, 0);
        for v in [Val(0), Val(1)] {
            alphabet.push(Label::lstore(i, x, v));
            alphabet.push(Label::mstore(i, x, v));
            alphabet.push(Label::load(i, x, v));
        }
        alphabet.push(Label::lflush(i, x));
        alphabet.push(Label::rflush(i, x));
        alphabet.push(Label::crash(i));
    }

    let states = cxl0::explore::reachable_states(&sem, &alphabet);
    assert!(states.len() > 4, "exploration too small: {}", states.len());
    for st in states {
        let mut set = StateSet::new();
        set.insert(st);
        for m in 0..2 {
            let i = MachineId(m);
            let x = Loc::new(i, 0);
            let lf = Trace::from_labels([Label::lflush(i, x)]);
            let rf = Trace::from_labels([Label::rflush(i, x)]);
            assert!(exp.same_outcomes(&set, &lf, &rf));
        }
    }
}

#[test]
fn noncoherent_pool_allows_only_memory_primitives() {
    let t = Topology::shared_pool_noncoherent(3);
    for m in 0..3 {
        let granted = t.capabilities(MachineId(m)).granted();
        assert_eq!(
            granted,
            vec![Primitive::Load, Primitive::MStore, Primitive::MRmw]
        );
    }
}

#[test]
fn noncoherent_pool_programs_are_crash_consistent() {
    // With only MStore/M-RMW/memory loads, every completed write is
    // durable instantly: no trace can lose a stored value.
    let cfg = SystemConfig::new(vec![
        MachineConfig::compute_only(),
        MachineConfig::compute_only(),
        MachineConfig::non_volatile(1), // the pool
    ]);
    let sem = Semantics::new(cfg).restricted(Topology::shared_pool_noncoherent(3));
    let exp = Explorer::new(&sem);
    let x = Loc::new(MachineId(2), 0);
    let lossy = Trace::from_labels([
        Label::mstore(MachineId(0), x, Val(1)),
        Label::crash(MachineId(0)),
        Label::crash(MachineId(1)),
        Label::load(MachineId(1), x, Val(0)),
    ]);
    assert!(!exp.is_allowed(&lossy));
}

#[test]
fn coherent_pool_excludes_remote_cache_interaction() {
    let t = Topology::shared_pool_coherent(2);
    for m in 0..2 {
        let m = MachineId(m);
        assert!(!t.allows(m, Primitive::RStore));
        assert!(!t.allows(m, Primitive::LFlush));
        assert!(!t.allows(m, Primitive::RRmw));
        assert!(!t.allows(m, Primitive::MRmw));
        assert!(t.allows(m, Primitive::LStore));
        assert!(t.allows(m, Primitive::RFlush));
        assert!(t.allows(m, Primitive::Gpf));
    }
    assert!(!t.allows_prop_cc());
}

#[test]
fn unrestricted_topology_allows_everything() {
    let t = Topology::unrestricted(4);
    for m in 0..4 {
        for p in Primitive::ISSUED {
            assert!(t.allows(MachineId(m), p));
        }
    }
    assert!(t.allows_prop_cc());
}

#[test]
#[should_panic(expected = "machine count")]
fn topology_machine_count_mismatch_panics() {
    let cfg = SystemConfig::symmetric_nvm(3, 1);
    let _ = Semantics::new(cfg).restricted(Topology::host_device_pair());
}
