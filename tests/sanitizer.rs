//! Persistency-sanitizer integration: every *sound* persistence mode
//! runs the durability/churn/recovery workloads violation-free under
//! the shadow-state checker, and the deliberately-unsound x86 FliT port
//! (§6.1's negative result) is caught with an
//! unpersisted-read-at-recovery — the sanitizer's dynamic counterpart
//! of the `cxl0-dlcheck` history rejection.

use std::sync::Arc;

use cxl0::api::{Cluster, PersistMode};
use cxl0::model::{MachineId, SystemConfig};
use cxl0::runtime::{CheckConfig, ViolationClass};

const MEM: MachineId = MachineId(2);

/// Every mode whose strategy actually promises per-operation
/// durability. `FlitX86` is excluded by design (unsound), `None` and
/// `Buffered` promise nothing per-operation.
const SOUND_MODES: [PersistMode; 4] = [
    PersistMode::FlitCxl0,
    PersistMode::OwnerOpt,
    PersistMode::FlitAsync,
    PersistMode::NaiveMStore,
];

fn sanitized(mode: PersistMode) -> Arc<Cluster> {
    Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 15))
        .persist(mode)
        // Record instead of panicking so a regression produces a
        // readable assertion with the violation list, not a crash.
        .with_checker(CheckConfig {
            fail_fast: false,
            ..CheckConfig::default()
        })
        .build()
        .unwrap()
}

fn assert_clean(cluster: &Cluster, mode: PersistMode, what: &str) {
    let ck = cluster.checker().expect("checker installed");
    assert_eq!(
        ck.total_violations(),
        0,
        "{mode:?} {what}: {:#?}",
        ck.violations()
    );
    let snap = cluster.stats_snapshot();
    assert_eq!(snap.check_durability_races, 0);
    assert_eq!(snap.check_unpersisted_reads, 0);
    assert_eq!(snap.check_use_after_retire, 0);
}

/// Queue churn (allocator reuse), list churn (SMR retire/reclaim), a
/// memory-node crash and by-name recovery: clean under every sound
/// mode.
#[test]
fn sound_modes_run_churn_and_recovery_clean() {
    for mode in SOUND_MODES {
        let cluster = sanitized(mode);
        let session = cluster.session(MachineId(0));
        let q = session.create_queue::<u64>("q").unwrap();
        let l = session.create_list::<u64>("l").unwrap();
        for i in 0..100u64 {
            assert!(q.enqueue(&session, i + 1).unwrap());
            assert_eq!(q.dequeue(&session).unwrap(), Some(i + 1));
            let k = i % 9 + 1;
            l.insert(&session, k).unwrap();
            l.remove(&session, k).unwrap();
        }
        for k in [3u64, 5, 7] {
            l.insert(&session, k).unwrap();
        }
        for v in [10u64, 20, 30] {
            q.enqueue(&session, v).unwrap();
        }
        assert_clean(&cluster, mode, "churn");

        cluster.crash(MEM);
        cluster.recover(MEM);
        let session = cluster.session(MachineId(1));
        session.recover_roots().unwrap();
        let q = session.open_queue::<u64>("q").unwrap();
        q.recover(&session).unwrap();
        assert_eq!(q.drain(&session).unwrap(), vec![10, 20, 30]);
        let l = session.open_list::<u64>("l").unwrap();
        for k in [3u64, 5, 7] {
            assert!(l.contains(&session, k).unwrap());
        }
        assert_clean(&cluster, mode, "crash recovery");
    }
}

/// Concurrent mixed workload: four threads on two compute machines
/// hammer one queue and one list — pins, retires, reclamation and
/// contention races all mirrored, all clean.
#[test]
fn sound_modes_run_concurrent_churn_clean() {
    for mode in [PersistMode::FlitCxl0, PersistMode::OwnerOpt] {
        let cluster = sanitized(mode);
        let s0 = cluster.session(MachineId(0));
        let q = s0.create_queue::<u64>("jobs").unwrap();
        let l = s0.create_list::<u64>("set").unwrap();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let session = cluster.session(MachineId((t % 2) as usize));
            let (q, l) = (q.clone(), l.clone());
            handles.push(std::thread::spawn(move || {
                for i in 0..150u64 {
                    assert!(q.enqueue(&session, t * 1000 + i + 1).unwrap());
                    let _ = q.dequeue(&session).unwrap();
                    let k = (i * 5 + t) % 16 + 1;
                    if (t + i).is_multiple_of(2) {
                        let _ = l.insert(&session, k).unwrap();
                    } else {
                        let _ = l.remove(&session, k).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_clean(&cluster, mode, "concurrent churn");
    }
}

/// The pinned §6 unsoundness: Algorithm 1 ported with local flushes
/// only acknowledges writes that never reach the NVM node. The crash
/// loses the acknowledged value and the recovery read must trip the
/// sanitizer — the same scenario `cxl0-dlcheck` rejects by history
/// analysis in `durable_linearizability.rs`.
#[test]
fn unadapted_x86_flit_trips_unpersisted_read_at_recovery() {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 15))
        .persist(PersistMode::FlitX86)
        // Durability races are off: an always-local strategy never
        // claims publication-ordered persistence, so that check would
        // only produce noise. The lost-ack check is the sound one here.
        .with_checker(CheckConfig {
            durability_races: false,
            fail_fast: false,
        })
        .build()
        .unwrap();
    let session = cluster.session(MachineId(0));
    let reg = session.create_register::<u64>("r").unwrap();
    reg.write(&session, 7).unwrap();
    cluster.crash(MEM);
    cluster.recover(MEM);
    let v = reg.read(&session).unwrap();
    assert_eq!(v, 0, "the acknowledged write is lost (that is the bug)");
    let ck = cluster.checker().unwrap();
    assert!(
        ck.unpersisted_reads() >= 1,
        "the recovery read of the lost cell must be reported"
    );
    let reports = ck.violations();
    assert!(reports
        .iter()
        .any(|v| v.class == ViolationClass::UnpersistedReadAtRecovery));
    assert_eq!(
        cluster.stats_snapshot().check_unpersisted_reads,
        ck.unpersisted_reads(),
        "violation counters surface through StatsSnapshot"
    );
}

/// The identical scenario under every sound mode stays silent: the
/// strategies either push the line to NVM before acknowledging or
/// survive the crash with the value intact.
#[test]
fn sound_modes_survive_the_x86_scenario_silently() {
    for mode in SOUND_MODES {
        let cluster = sanitized(mode);
        let session = cluster.session(MachineId(0));
        let reg = session.create_register::<u64>("r").unwrap();
        reg.write(&session, 7).unwrap();
        cluster.crash(MEM);
        cluster.recover(MEM);
        assert_eq!(reg.read(&session).unwrap(), 7, "{mode:?} must not lose");
        assert_clean(&cluster, mode, "crash round-trip");
    }
}

/// `CXL0_SANITIZE=1` CI runs lean on fail-fast: make sure an explicit
/// fail-fast checker actually panics on a violation (fired via the
/// documented seeded-bug path would need crate internals, so this just
/// asserts the arming surface: config round-trips through the cluster).
#[test]
fn with_checker_exposes_config_and_counters() {
    let cluster = sanitized(PersistMode::FlitCxl0);
    let ck = cluster.checker().unwrap();
    let cfg = ck.config();
    assert!(cfg.durability_races);
    assert!(!cfg.fail_fast);
    assert_eq!(ck.total_violations(), 0);
    assert!(ck.violations().is_empty());
}
