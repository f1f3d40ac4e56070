//! Crash-point enumeration over a scripted run.
//!
//! A scripted queue workload is run once on a sanitized cluster to
//! count its fabric primitives. Then, for every primitive, a fresh
//! cluster replays the script with the memory node crashed right before
//! that primitive — the fabric's crash point kills the operation that
//! issues it, which stays pending in the history — and the recovered
//! queue's full history — completed prefix, killed operation, crash
//! event, post-recovery drain — is cross-validated with
//! `cxl0-dlcheck`. A second sweep crashes compute node 0, the script's
//! issuer, before every primitive instead: nothing repairs the queue
//! after a compute-node crash, so the survivor, machine 1, runs the
//! shared plumbing's recovery but not the queue's own, drains, and runs
//! two more enqueue/dequeue pairs under a primitive watchdog. A third
//! sweep kills a registry create at every primitive, with the memory
//! node, the issuer or no machine crashed, and checks the registry that
//! recovery leaves. The sanitizer itself must also stay silent at every
//! point: enumeration is a soundness sweep, not just a liveness one.

use std::sync::Arc;

use cxl0::api::{ApiError, Cluster, PersistMode, Session};
use cxl0::dlcheck::spec::{QueueOp, QueueRet, QueueSpec};
use cxl0::dlcheck::{check_durably_linearizable, Recorder, ThreadId};
use cxl0::model::{MachineId, SystemConfig};
use cxl0::runtime::{CheckConfig, DurableQueue};

const M0: MachineId = MachineId(0);
const MEM: MachineId = MachineId(2);

/// The scripted run: enough enqueues/dequeues to cross every queue
/// persist phase (fresh node, linked node, swung tail, freed dummy,
/// recycled node) at least once.
const SCRIPT: [QueueOp; 12] = [
    QueueOp::Enq(1),
    QueueOp::Enq(2),
    QueueOp::Deq,
    QueueOp::Enq(3),
    QueueOp::Deq,
    QueueOp::Deq,
    QueueOp::Deq, // empty dequeue
    QueueOp::Enq(4),
    QueueOp::Enq(5),
    QueueOp::Deq,
    QueueOp::Enq(6),
    QueueOp::Deq,
];

fn sanitized_cluster() -> Arc<Cluster> {
    Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 14))
        .persist(PersistMode::FlitCxl0)
        .with_checker(CheckConfig {
            fail_fast: false,
            ..CheckConfig::default()
        })
        .build()
        .unwrap()
}

/// Runs `SCRIPT` against `q`, recording each operation's invocation
/// and response into `rec` and calling `after` past each one. An
/// operation that fails stays pending and ends the run; returns whether
/// the whole script ran.
fn run_script(
    session: &Session,
    q: &DurableQueue<u64>,
    rec: &Recorder<QueueOp, QueueRet>,
    mut after: impl FnMut(),
) -> bool {
    for op in SCRIPT {
        let id = rec.invoke(ThreadId(0), 0, op);
        let ret = match op {
            QueueOp::Enq(v) => q.enqueue(session, v).map(|ok| {
                assert!(ok, "the heap fits the script");
                QueueRet::Ok
            }),
            QueueOp::Deq => q.dequeue(session).map(QueueRet::Deqd),
        };
        let Ok(ret) = ret else {
            return false;
        };
        rec.respond(id, ret);
        after();
    }
    true
}

/// Counts the primitives `SCRIPT` issues after the queue's creation on
/// an uncrashed sanitized cluster, whose checker must stay silent.
fn script_primitives() -> u64 {
    let cluster = sanitized_cluster();
    let session = cluster.session(MachineId(0));
    let q = session.create_queue::<u64>("q").unwrap();
    let before = cluster.stats().total_ops();
    assert!(run_script(&session, &q, &Recorder::new(), || {}));
    let prims = cluster.stats().total_ops() - before;
    let ck = cluster.checker().unwrap();
    assert_eq!(ck.total_violations(), 0, "{:#?}", ck.violations());
    assert!(
        prims >= 10 * SCRIPT.len() as u64,
        "a dozen queue ops issue far more than {prims} primitives"
    );
    prims
}

/// Replays `SCRIPT` from machine 0 on a fresh sanitized cluster with
/// `victim` crashed right before the `k`-th primitive after the queue's
/// creation, and records the crash. Returns the cluster and the history
/// so far.
fn crash_before(k: u64, victim: MachineId) -> (Arc<Cluster>, Recorder<QueueOp, QueueRet>) {
    let cluster = sanitized_cluster();
    let session = cluster.session(MachineId(0));
    let q = session.create_queue::<u64>("q").unwrap();
    let rec: Recorder<QueueOp, QueueRet> = Recorder::new();
    cluster.fabric().arm_crash(k, &[victim]);
    assert!(!run_script(&session, &q, &rec, || {}), "primitive {k}");
    assert!(cluster.fabric().disarm_crash());
    rec.crash(victim.index());
    (cluster, rec)
}

/// Runs `op` on `q` from the survivor, machine 1, recording it.
fn survivor_op(
    rec: &Recorder<QueueOp, QueueRet>,
    session: &Session,
    q: &DurableQueue<u64>,
    op: QueueOp,
) -> QueueRet {
    let id = rec.invoke(ThreadId(1), 1, op);
    let killed = "the watchdog killed the survivor";
    let ret = match op {
        QueueOp::Enq(v) => {
            assert!(q.enqueue(session, v).expect(killed), "the heap fits");
            QueueRet::Ok
        }
        QueueOp::Deq => QueueRet::Deqd(q.dequeue(session).expect(killed)),
    };
    rec.respond(id, ret);
    ret
}

/// Drains `q` from the survivor, recording each dequeue.
fn survivor_drain(rec: &Recorder<QueueOp, QueueRet>, session: &Session, q: &DurableQueue<u64>) {
    while survivor_op(rec, session, q, QueueOp::Deq) != QueueRet::Deqd(None) {}
}

/// Hands the complete history to the durable-linearizability checker
/// and asserts the sanitizer stayed silent.
fn check_history(cluster: &Cluster, rec: &Recorder<QueueOp, QueueRet>, what: &str) {
    let history = rec.finish();
    let result = check_durably_linearizable(&QueueSpec, &history);
    assert!(result.is_ok(), "{what}: {result}");
    let ck = cluster.checker().unwrap();
    assert_eq!(ck.total_violations(), 0, "{what}: {:#?}", ck.violations());
}

#[test]
fn every_distinct_persist_state_crashes_durably_linearizable() {
    // Pass 1: count the script's primitives. Pass 2: for every
    // primitive, replay on a fresh cluster with the memory node crashed
    // right before it, recover by name, drain, and check the history.
    for k in 1..=script_primitives() {
        let (cluster, rec) = crash_before(k, MEM);
        cluster.recover(MEM);
        let session = cluster.session(MachineId(1));
        session.recover_roots().unwrap();
        let q = session.open_queue::<u64>("q").unwrap();
        q.recover(&session).unwrap();
        survivor_drain(&rec, &session, &q);
        check_history(
            &cluster,
            &rec,
            &format!("memory crash before primitive {k}"),
        );
    }
}

/// Primitives the survivor may issue before the watchdog kills it: far
/// more than its few operations need, far fewer than a spin.
const WATCHDOG: u64 = 10_000;

#[test]
fn every_issuer_crash_leaves_a_queue_the_survivor_can_use() {
    // Compute node 0 crashes before each primitive of the script. Nothing
    // repairs the queue after a compute-node crash: the survivor runs
    // the shared plumbing's recovery but not the queue's own, drains,
    // and runs two more pairs, under a primitive watchdog that kills it
    // if it spins.
    for k in 1..=script_primitives() {
        let (cluster, rec) = crash_before(k, M0);
        let session = cluster.session(MachineId(1));
        session.recover_roots().unwrap();
        let q = session.open_queue::<u64>("q").unwrap();
        cluster.fabric().arm_crash(WATCHDOG, &[MachineId(1)]);
        survivor_drain(&rec, &session, &q);
        for v in [7, 8] {
            assert_eq!(
                survivor_op(&rec, &session, &q, QueueOp::Enq(v)),
                QueueRet::Ok
            );
            assert_eq!(
                survivor_op(&rec, &session, &q, QueueOp::Deq),
                QueueRet::Deqd(Some(v))
            );
        }
        assert!(
            !cluster.fabric().disarm_crash(),
            "issuer crash before primitive {k}: the survivor spun"
        );
        check_history(
            &cluster,
            &rec,
            &format!("issuer crash before primitive {k}"),
        );
    }
}

/// Fingerprints identify repeat states: replaying the script twice
/// yields the same fingerprint sequence at its op boundaries (the
/// scripted single-threaded run is deterministic for the shadow's
/// crash-relevant state).
#[test]
fn fingerprints_identify_repeat_states() {
    let mut runs = Vec::new();
    for _ in 0..2 {
        let cluster = sanitized_cluster();
        let ck = Arc::clone(cluster.checker().unwrap());
        let session = cluster.session(MachineId(0));
        let q = session.create_queue::<u64>("q").unwrap();
        let mut fps = vec![ck.fingerprint()];
        assert!(run_script(&session, &q, &Recorder::new(), || {
            fps.push(ck.fingerprint())
        }));
        runs.push(fps);
    }
    assert_eq!(runs[0], runs[1], "scripted runs fingerprint identically");
}

/// The op-boundary fingerprints of the scripted run, as a partition:
/// entry `i` is the first boundary whose fingerprint equals boundary
/// `i`'s. Boundaries that repeat a state map to an earlier index, so a
/// change to what the fingerprint covers can neither merge two
/// crash-distinct states nor split two crash-equivalent ones unnoticed.
///
/// One extra boundary follows a `GPF` right after the first enqueue. The
/// drain persists the tail hint that enqueue left in the memory node's
/// cache and changes no block's lifecycle, so only the cell half of the
/// fingerprint tells it from the boundary before it.
#[test]
fn fingerprint_partition_of_the_scripted_run_is_pinned() {
    let cluster = sanitized_cluster();
    let ck = Arc::clone(cluster.checker().unwrap());
    let session = cluster.session(MachineId(0));
    let q = session.create_queue::<u64>("q").unwrap();
    let mut fps = vec![ck.fingerprint()];
    assert!(run_script(&session, &q, &Recorder::new(), || {
        fps.push(ck.fingerprint());
        if fps.len() == 2 {
            cluster.fabric().drain_all();
            fps.push(ck.fingerprint());
        }
    }));
    let classes: Vec<usize> = fps
        .iter()
        .map(|f| fps.iter().position(|g| g == f).unwrap())
        .collect();
    let distinct = classes.iter().enumerate().filter(|&(i, &c)| i == c).count();
    // Only the empty dequeue (op 7, boundary 8) leaves the persist state
    // as it was.
    assert_eq!(distinct, 13, "{classes:?}");
    assert_eq!(classes, [0, 1, 2, 3, 4, 5, 6, 7, 7, 9, 10, 11, 12, 13]);
}

/// A sanitized cluster that already holds the counter `keep` at 7.
fn cluster_keeping_a_root() -> Arc<Cluster> {
    let cluster = sanitized_cluster();
    let session = cluster.session(M0);
    session
        .create_counter("keep")
        .unwrap()
        .add(&session, 7)
        .unwrap();
    cluster
}

/// The loads `op` issues.
fn loads(cluster: &Cluster, op: impl FnOnce()) -> u64 {
    let before = cluster.stats().snapshot().loads;
    op();
    cluster.stats().snapshot().loads - before
}

/// The loads `recover_roots` issues beyond the allocator's and the
/// reclamation domain's own sweeps. Both sweeps run once first, so
/// whatever the traffic before parked is settled and the next sweep of
/// each costs what it costs inside `recover_roots`. Loads, not
/// primitives: a store the crash killed on a live machine keeps its
/// FliT counter raised, so every later flagged load of its cell adds a
/// helping flush.
fn registry_recovery_loads(cluster: &Cluster, session: &Session) -> u64 {
    let plumbing = || {
        cluster.allocator().recover(session).unwrap();
        cluster.smr().recover(session).unwrap();
    };
    plumbing();
    let clean = loads(cluster, plumbing);
    loads(cluster, || {
        session.recover_roots().unwrap();
    }) - clean
}

#[test]
fn every_kill_point_of_a_registry_create_leaves_a_usable_registry() {
    let create = {
        let cluster = cluster_keeping_a_root();
        let session = cluster.session(M0);
        let before = cluster.stats().total_ops();
        session.create_queue::<u64>("jobs").unwrap();
        cluster.stats().total_ops() - before
    };
    for victims in [&[MEM][..], &[M0], &[]] {
        let mut committed = 0;
        for k in 1..=create {
            let what = format!("victims {victims:?}, primitive {k}");
            let cluster = cluster_keeping_a_root();
            let issuer = cluster.session(M0);
            cluster.fabric().arm_crash(k, victims);
            assert!(issuer.create_queue::<u64>("jobs").is_err(), "{what}");
            assert!(cluster.fabric().disarm_crash(), "{what}");
            for &m in victims {
                cluster.recover(m);
            }
            let session = cluster.session(MachineId(1));
            session.recover_roots().unwrap();
            let jobs = match session.open_queue::<u64>("jobs") {
                Ok(q) => {
                    committed += 1;
                    q.recover(&session).unwrap();
                    q
                }
                Err(ApiError::NotFound(_)) => session.create_queue::<u64>("jobs").unwrap(),
                Err(e) => panic!("{what}: {e}"),
            };
            assert!(jobs.enqueue(&session, k).unwrap(), "{what}");
            assert_eq!(jobs.dequeue(&session).unwrap(), Some(k), "{what}");
            let keep = session.open_counter("keep").unwrap();
            assert_eq!(keep.get(&session).unwrap(), 7, "{what}");
            let ck = cluster.checker().unwrap();
            assert_eq!(ck.total_violations(), 0, "{what}: {:#?}", ck.violations());
            // Recovery cleared the pending-claims word: the next one
            // reads it and nothing else of the registry.
            assert_eq!(registry_recovery_loads(&cluster, &session), 1, "{what}");
        }
        // A kill at either primitive that lowers the pending-claims word
        // leaves `jobs` committed; so may one at the commit store's
        // flush, as far as the store survives. None earlier does.
        assert!(
            (2..=3).contains(&committed),
            "{victims:?}: {committed} of {create} kill points committed"
        );
    }
}
