//! Crash-point enumeration over a scripted run.
//!
//! A scripted queue workload is run once on a sanitized cluster to
//! count its fabric primitives. Then, for every primitive, a fresh
//! cluster replays the script with the memory node crashed right before
//! that primitive — the fabric's crash point kills the operation that
//! issues it, which stays pending in the history — and the recovered
//! queue's full history — completed prefix, killed operation, crash
//! event, post-recovery drain — is cross-validated with
//! `cxl0-dlcheck`. The sanitizer itself must also stay silent at every
//! point: enumeration is a soundness sweep, not just a liveness one.

use std::sync::Arc;

use cxl0::api::{Cluster, PersistMode, Session};
use cxl0::dlcheck::spec::{QueueOp, QueueRet, QueueSpec};
use cxl0::dlcheck::{check_durably_linearizable, Recorder, ThreadId};
use cxl0::model::{MachineId, SystemConfig};
use cxl0::runtime::{CheckConfig, DurableQueue};

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

#[test]
fn every_distinct_persist_state_crashes_durably_linearizable() {
    // Pass 1: count the script's primitives.
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

    // Pass 2: for every primitive, replay on a fresh cluster with the
    // memory node crashed right before it, recover by name, drain, and
    // hand the complete history to the durable-linearizability checker.
    for k in 1..=prims {
        let cluster = sanitized_cluster();
        let session = cluster.session(MachineId(0));
        let q = session.create_queue::<u64>("q").unwrap();
        let rec: Recorder<QueueOp, QueueRet> = Recorder::new();
        cluster.fabric().arm_crash(k, &[MEM]);
        assert!(!run_script(&session, &q, &rec, || {}), "primitive {k}");
        assert!(cluster.fabric().disarm_crash());
        rec.crash(MEM.index());
        cluster.recover(MEM);

        let session = cluster.session(MachineId(1));
        session.recover_roots().unwrap();
        let q = session.open_queue::<u64>("q").unwrap();
        q.recover(&session).unwrap();
        loop {
            let id = rec.invoke(ThreadId(1), 1, QueueOp::Deq);
            let v = q.dequeue(&session).unwrap();
            rec.respond(id, QueueRet::Deqd(v));
            if v.is_none() {
                break;
            }
        }
        let history = rec.finish();
        let result = check_durably_linearizable(&QueueSpec, &history);
        assert!(result.is_ok(), "crash before primitive {k}: {result}");
        let ck = cluster.checker().unwrap();
        assert_eq!(
            ck.total_violations(),
            0,
            "crash before primitive {k}: {:#?}",
            ck.violations()
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
#[test]
fn fingerprint_partition_of_the_scripted_run_is_pinned() {
    let cluster = sanitized_cluster();
    let ck = Arc::clone(cluster.checker().unwrap());
    let session = cluster.session(MachineId(0));
    let q = session.create_queue::<u64>("q").unwrap();
    let mut fps = vec![ck.fingerprint()];
    assert!(run_script(&session, &q, &Recorder::new(), || {
        fps.push(ck.fingerprint())
    }));
    let classes: Vec<usize> = fps
        .iter()
        .map(|f| fps.iter().position(|g| g == f).unwrap())
        .collect();
    let distinct = classes.iter().enumerate().filter(|&(i, &c)| i == c).count();
    // Only the empty dequeue (op 7) leaves the persist state as it was.
    assert_eq!(distinct, 12, "{classes:?}");
    assert_eq!(classes, [0, 1, 2, 3, 4, 5, 6, 6, 8, 9, 10, 11, 12]);
}
