//! Where the Michael–Scott queue's tail must live, and how recovery
//! must find it.
//!
//! The tail is a hint: every node it could name is reachable from the
//! durable head, so recovery can rebuild it by walking the list. What
//! the hint still owes is to survive the crash of a *compute* node,
//! because nothing repairs the queue after one — the survivors go on
//! using it as it is. An `RStore` (a store into the owner's cache) is
//! exactly that strong; a plain `LStore` is not.
//!
//! - [`a_survivor_uses_the_queue_after_the_issuer_crashes`]: machine 0
//!   runs enq 1, enq 2, deq, enq 3 — the last reusing the old dummy's
//!   block from the thread's magazine — and crashes. Machine 1 reopens
//!   the queue by name, without the queue's `recover`, and enqueues and
//!   drains under a primitive watchdog. A tail kept only in machine 0's
//!   cache would revert to the old dummy's first incarnation, whose
//!   successor is a null of another generation: the survivor would spin.
//! - [`recovery_rebuilds_a_stale_tail_from_the_head`]: churn until the
//!   tail's memory word names a block that has since been recycled as
//!   the live queue's last node, crash the memory node and machine 0
//!   (whose cache holds a copy of the current tail), recover, and check
//!   the queue against its model and under 100 more pairs.
//! - [`a_helped_link_is_durable_before_the_tail_names_it`]: machine 0's
//!   enqueue dies with its link cached but unpersisted; machine 1's
//!   enqueue helps the tail past that link, and machines 0 and 1 crash
//!   together before each of machine 1's primitives in turn. A tail
//!   swing that named the link before the helping flush completed would
//!   outlive a link the crash lost, and the survivor, machine 2, would
//!   spin.
//!
//! Every test here runs on a test-harness thread whose thread slot is
//! below 8, so its frees park in the thread's magazine.

use std::collections::VecDeque;
use std::sync::Arc;

use cxl0::api::{Cluster, PersistMode, Session};
use cxl0::dlcheck::spec::{QueueOp, QueueRet, QueueSpec};
use cxl0::dlcheck::{check_durably_linearizable, Recorder, ThreadId};
use cxl0::model::{Loc, MachineId, SystemConfig};
use cxl0::runtime::{DurableQueue, OpResult};

const M0: MachineId = MachineId(0);
const M1: MachineId = MachineId(1);
const MEM: MachineId = MachineId(2);

/// Primitives a survivor may issue before the watchdog kills it: far
/// more than the few dozen its operations need, far fewer than a spin.
const WATCHDOG: u64 = 10_000;

/// The modes whose completed operations are durable before they
/// return and whose acknowledged persists survive a partial crash.
const SOUND_STRICT: [PersistMode; 4] = [
    PersistMode::FlitCxl0,
    PersistMode::OwnerOpt,
    PersistMode::FlitAsync,
    PersistMode::NaiveMStore,
];

fn cluster(mode: PersistMode) -> Arc<Cluster> {
    Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 12))
        .persist(mode)
        .build()
        .unwrap()
}

fn tail_cell(q: &DurableQueue<u64>) -> Loc {
    let h = q.header_cell();
    Loc::new(h.owner, h.addr.0 + 1)
}

/// The pointer words of the live list, dummy first, read from `s`.
fn live_words(s: &Session, q: &DurableQueue<u64>) -> OpResult<Vec<u64>> {
    let node = s.node();
    let alloc = s.allocator();
    let mut word = node.load(q.header_cell())?;
    let mut words = Vec::new();
    while let Some(n) = alloc.decode(word) {
        words.push(word);
        word = node.load(Loc::new(n.owner, n.addr.0 + 1))?;
    }
    Ok(words)
}

/// Runs `f` with the watchdog armed over `cluster`'s primitives, ready
/// to crash the `survivor` that runs it, then asserts it never fired.
fn watched<T>(
    cluster: &Cluster,
    survivor: MachineId,
    what: &str,
    f: impl FnOnce() -> OpResult<T>,
) -> T {
    cluster.fabric().arm_crash(WATCHDOG, &[survivor]);
    let result = f();
    assert!(
        !cluster.fabric().disarm_crash(),
        "{what}: the survivor spun past {WATCHDOG} primitives"
    );
    result.unwrap()
}

#[test]
fn a_survivor_uses_the_queue_after_the_issuer_crashes() {
    for mode in SOUND_STRICT {
        let name = mode.name();
        let cluster = cluster(mode);
        let s0 = cluster.session(M0);
        let q = s0.create_queue::<u64>("q").unwrap();
        let alloc = s0.allocator();
        assert!(q.enqueue(&s0, 1).unwrap());
        assert!(q.enqueue(&s0, 2).unwrap());
        let dummy = alloc.decode(live_words(&s0, &q).unwrap()[0]).unwrap();
        assert_eq!(q.dequeue(&s0).unwrap(), Some(1));
        assert!(alloc.debug_parked().contains(&dummy), "{name}: parked");
        assert!(q.enqueue(&s0, 3).unwrap());
        assert!(
            !alloc.debug_parked().contains(&dummy),
            "{name}: enq 3 reuses the old dummy's block"
        );
        assert_eq!(
            alloc.decode(*live_words(&s0, &q).unwrap().last().unwrap()),
            Some(dummy),
            "{name}: the old dummy's block is the last node"
        );
        cluster.crash(M0);

        let s1 = cluster.session(M1);
        let q = s1.open_queue::<u64>("q").unwrap();
        let drained = watched(&cluster, M1, name, || {
            assert!(q.enqueue(&s1, 4)?);
            q.drain(&s1)
        });
        assert_eq!(drained, [2, 3, 4], "{name}");
        let ck = cluster.checker().map_or(0, |ck| ck.total_violations());
        assert_eq!(ck, 0, "{name}: sanitizer");
    }
}

/// True when the tail's memory word names the live list's last block
/// under a generation other than its current one. The successor that
/// word leads to is a null of another generation, so a recovery that
/// started from the tail would stop right there and keep it.
fn durable_tail_is_stale(cluster: &Cluster, s: &Session, q: &DurableQueue<u64>) -> bool {
    let tail = cluster.fabric().peek_memory(tail_cell(q));
    let last = *live_words(s, q).unwrap().last().unwrap();
    let alloc = s.allocator();
    alloc.decode(tail).is_some() && alloc.decode(tail) == alloc.decode(last) && tail != last
}

#[test]
fn recovery_rebuilds_a_stale_tail_from_the_head() {
    let buffered = PersistMode::Buffered {
        capacity: 256,
        sync_interval: 0,
    };
    for mode in SOUND_STRICT.into_iter().chain([buffered]) {
        let name = mode.name();
        let cluster = cluster(mode);
        let s = cluster.session(M0);
        let q = s.create_queue::<u64>("q").unwrap();
        // A GPF right after creation: memory holds the tail under every
        // mode from here on, naming the first dummy until that changes.
        cluster.fabric().drain_all();
        let mut model = VecDeque::new();
        let mut next = 1;
        let mut stale = false;
        for i in 0..200 {
            // Two enqueues every third step: the queue grows slowly, so
            // recycled blocks land both at the tail and inside the list.
            for _ in 0..1 + usize::from(i % 3 == 0) {
                assert!(q.enqueue(&s, next).unwrap());
                model.push_back(next);
                next += 1;
            }
            assert_eq!(q.dequeue(&s).unwrap(), model.pop_front(), "{name}");
            if durable_tail_is_stale(&cluster, &s, &q) {
                stale = true;
                break;
            }
        }
        assert!(stale, "{name}: the tail's memory word never went stale");
        s.sync().unwrap();
        // Machine 0 crashes with the memory node: its loads copied the
        // current tail into its cache, and a copy there would outlive the
        // owner's crash (which wipes only the owner's own cache).
        cluster.crash(M0);
        cluster.crash(MEM);
        cluster.recover(MEM);

        let s = cluster.session(M1);
        s.recover_roots().unwrap();
        let q = s.open_queue::<u64>("q").unwrap();
        q.recover(&s).unwrap();
        let contents = watched(&cluster, M1, name, || {
            let contents = q.drain(&s)?;
            for v in next..next + 100 {
                assert!(q.enqueue(&s, v)?);
                assert_eq!(q.dequeue(&s)?, Some(v), "{name}");
            }
            Ok(contents)
        });
        assert_eq!(contents, Vec::from(model), "{name}");
        let ck = cluster.checker().map_or(0, |ck| ck.total_violations());
        assert_eq!(ck, 0, "{name}: sanitizer");
    }
}

/// The survivor of [`a_helped_link_is_durable_before_the_tail_names_it`]:
/// a third compute node.
const M2: MachineId = MachineId(2);

/// A fresh cluster of three compute nodes and a memory node whose
/// queue's first enqueue, of 1 from machine 0, was killed right before
/// its `k`-th primitive, machine 0 left running. Returns the cluster, the
/// queue and whether that enqueue died with its link visible but not
/// yet in memory.
fn link_in_flight(mode: PersistMode, k: u64) -> (Arc<Cluster>, DurableQueue<u64>, bool) {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(4, 1 << 12))
        .persist(mode)
        .build()
        .unwrap();
    let s0 = cluster.session(M0);
    let q = s0.create_queue::<u64>("q").unwrap();
    let dummy = s0.allocator().decode(live_words(&s0, &q).unwrap()[0]);
    let link = Loc::new(cluster.memory_node(), dummy.unwrap().addr.0 + 1);
    cluster.fabric().arm_crash(k, &[]);
    let killed = q.enqueue(&s0, 1).is_err();
    assert_eq!(killed, cluster.fabric().disarm_crash());
    let visible = s0.allocator().decode(s0.node().load(link).unwrap());
    let durable = s0.allocator().decode(cluster.fabric().peek_memory(link));
    let in_flight = killed && visible.is_some() && durable.is_none();
    (cluster, q, in_flight)
}

#[test]
fn a_helped_link_is_durable_before_the_tail_names_it() {
    for mode in SOUND_STRICT {
        let name = mode.name();
        let Some(k) = (1..100).find(|&k| link_in_flight(mode, k).2) else {
            // An `MStore` link is durable the moment it is visible.
            assert_eq!(mode, PersistMode::NaiveMStore, "{name}: no link in flight");
            continue;
        };
        // Count machine 1's helping enqueue (its load of the link copies
        // the line into machine 1's cache), then crash machines 0 and 1
        // together before each of its primitives, and once after it.
        let (cluster, q, _) = link_in_flight(mode, k);
        let before = cluster.stats().total_ops();
        assert!(q.enqueue(&cluster.session(M1), 2).unwrap());
        let prims = cluster.stats().total_ops() - before;
        for j in 1..=prims + 1 {
            let what = format!("{name}: machines 0 and 1 crashed before primitive {j}");
            let (cluster, q, _) = link_in_flight(mode, k);
            let rec: Recorder<QueueOp, QueueRet> = Recorder::new();
            rec.invoke(ThreadId(0), 0, QueueOp::Enq(1));
            let id = rec.invoke(ThreadId(1), 1, QueueOp::Enq(2));
            cluster.fabric().arm_crash(j, &[M0, M1]);
            let helped = q.enqueue(&cluster.session(M1), 2);
            if !cluster.fabric().disarm_crash() {
                assert!(helped.unwrap(), "{what}");
                rec.respond(id, QueueRet::Ok);
                cluster.crash(M0);
                cluster.crash(M1);
            }
            rec.crash(M0.index());
            rec.crash(M1.index());

            let s2 = cluster.session(M2);
            s2.recover_roots().unwrap();
            watched(&cluster, M2, &what, || {
                let id = rec.invoke(ThreadId(2), 2, QueueOp::Enq(3));
                assert!(q.enqueue(&s2, 3)?);
                rec.respond(id, QueueRet::Ok);
                loop {
                    let id = rec.invoke(ThreadId(2), 2, QueueOp::Deq);
                    let v = q.dequeue(&s2)?;
                    rec.respond(id, QueueRet::Deqd(v));
                    if v.is_none() {
                        return Ok(());
                    }
                }
            });
            let result = check_durably_linearizable(&QueueSpec, &rec.finish());
            assert!(result.is_ok(), "{what}: {result}");
            let ck = cluster.checker().map_or(0, |ck| ck.total_violations());
            assert_eq!(ck, 0, "{what}: sanitizer");
        }
    }
}
