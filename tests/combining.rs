//! PR 6: the flat-combining/elimination fronts keep the durability
//! story intact — combined queues and stacks are durably linearizable
//! under crashes in every *sound* `PersistMode`, batched persistence
//! never acknowledges an op that is not durable, and an un-barriered
//! batch dies wholesale (no partial ops, no torn nodes).
//!
//! The volatile announcement boards add no durable state, so every test
//! recovers through the unchanged `Session::recover_roots` +
//! `recover()` path.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cxl0::api::{Cluster, PersistMode, Session};
use cxl0::dlcheck::spec::{QueueOp, QueueRet, QueueSpec, StackOp, StackRet, StackSpec};
use cxl0::dlcheck::{check_durably_linearizable, Recorder, ThreadId};
use cxl0::model::{MachineId, SystemConfig};
use proptest::prelude::*;

const MEM: MachineId = MachineId(2);

fn setup(mode: PersistMode) -> Arc<Cluster> {
    Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 15))
        .persist(mode)
        .build()
        .unwrap()
}

/// The strict strategies: an acknowledged operation is durable before
/// it returns, so the combined fronts owe durable linearizability.
fn sound_modes() -> Vec<PersistMode> {
    PersistMode::comparison_set()
        .into_iter()
        .filter(PersistMode::is_strict)
        .collect()
}

/// Drives `threads` workers on the two compute machines, crashing the
/// memory node once mid-run (the combined-front twin of the plain
/// suite's `crash_workload`).
fn crash_workload<F>(cluster: &Arc<Cluster>, threads: usize, work: F)
where
    F: Fn(usize, &Session, &AtomicBool) + Send + Sync + 'static,
{
    let work = Arc::new(work);
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..threads {
        let session = cluster.session(MachineId(t % 2));
        let stop = Arc::clone(&stop);
        let work = Arc::clone(&work);
        handles.push(std::thread::spawn(move || work(t, &session, &stop)));
    }
    std::thread::sleep(std::time::Duration::from_millis(15));
    cluster.crash(MEM);
    std::thread::sleep(std::time::Duration::from_millis(2));
    cluster.recover(MEM);
    std::thread::sleep(std::time::Duration::from_millis(10));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

/// Combined queue, memory-node crash mid-run, full history checked for
/// durable linearizability — under every sound durability strategy.
#[test]
fn combined_queue_durably_linearizable_under_crash_all_sound_modes() {
    for mode in sound_modes() {
        let cluster = setup(mode);
        let queue = cluster.combined(
            cluster
                .session(MachineId(0))
                .create_queue::<u64>("q")
                .unwrap(),
        );
        let recorder: Recorder<QueueOp, QueueRet> = Recorder::new();
        {
            let queue = queue.clone();
            let rec = recorder.clone();
            crash_workload(&cluster, 4, move |t, session, stop| {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) && i < 25 {
                    let machine = session.machine().index();
                    if t.is_multiple_of(2) {
                        let v = (t as u64) * 1000 + i + 1;
                        let id = rec.invoke(ThreadId(t), machine, QueueOp::Enq(v));
                        match queue.enqueue(session, v) {
                            Ok(true) => rec.respond(id, QueueRet::Ok),
                            // Heap exhaustion or crash: the op stays
                            // pending in the history (outcome unknown).
                            _ => break,
                        }
                    } else {
                        let id = rec.invoke(ThreadId(t), machine, QueueOp::Deq);
                        match queue.dequeue(session) {
                            Ok(v) => rec.respond(id, QueueRet::Deqd(v)),
                            Err(_) => break,
                        }
                    }
                    i += 1;
                }
            });
        }
        recorder.crash(MEM.index());
        // Reattach by name through the unchanged recovery path and
        // drain through the front: everything acknowledged before the
        // crash must still come out, in FIFO order.
        let session = cluster.session(MachineId(0));
        session.recover_roots().unwrap();
        let queue = cluster.combined(session.open_queue::<u64>("q").unwrap());
        queue.recover(&session).unwrap();
        loop {
            let id = recorder.invoke(ThreadId(98), 0, QueueOp::Deq);
            let v = queue.dequeue(&session).unwrap();
            recorder.respond(id, QueueRet::Deqd(v));
            if v.is_none() {
                break;
            }
        }
        let result = check_durably_linearizable(&QueueSpec, &recorder.finish());
        assert!(result.is_ok(), "{}: {result}", mode.name());
    }
}

/// Combined stack (with elimination), memory-node crash mid-run, full
/// history checked — under every sound durability strategy. Eliminated
/// push/pop pairs never touch NVM, which is exactly why they must still
/// linearize in the checked history.
#[test]
fn combined_stack_durably_linearizable_under_crash_all_sound_modes() {
    for mode in sound_modes() {
        let cluster = setup(mode);
        let stack = cluster.combined(
            cluster
                .session(MachineId(0))
                .create_stack::<u64>("s")
                .unwrap(),
        );
        let recorder: Recorder<StackOp, StackRet> = Recorder::new();
        {
            let stack = stack.clone();
            let rec = recorder.clone();
            crash_workload(&cluster, 4, move |t, session, stop| {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) && i < 25 {
                    let machine = session.machine().index();
                    if (t + i as usize).is_multiple_of(2) {
                        let v = (t as u64) * 1000 + i + 1;
                        let id = rec.invoke(ThreadId(t), machine, StackOp::Push(v));
                        match stack.push(session, v) {
                            Ok(true) => rec.respond(id, StackRet::Ok),
                            _ => break,
                        }
                    } else {
                        let id = rec.invoke(ThreadId(t), machine, StackOp::Pop);
                        match stack.pop(session) {
                            Ok(v) => rec.respond(id, StackRet::Popped(v)),
                            Err(_) => break,
                        }
                    }
                    i += 1;
                }
            });
        }
        recorder.crash(MEM.index());
        let session = cluster.session(MachineId(0));
        session.recover_roots().unwrap();
        let stack = cluster.combined(session.open_stack::<u64>("s").unwrap());
        stack.recover(&session).unwrap();
        loop {
            let id = recorder.invoke(ThreadId(98), 0, StackOp::Pop);
            let v = stack.pop(&session).unwrap();
            recorder.respond(id, StackRet::Popped(v));
            if v.is_none() {
                break;
            }
        }
        let result = check_durably_linearizable(&StackSpec, &recorder.finish());
        assert!(result.is_ok(), "{}: {result}", mode.name());
    }
}

/// A crash landing while combiners are mid-batch must never surface a
/// partial operation: per producer, the recovered queue holds exactly a
/// gapless prefix of what that producer sent, covering at least every
/// acknowledged enqueue (acknowledged ⇒ durable; an un-barriered batch
/// suffix dies wholesale; in-flight ops may land either way).
#[test]
fn mid_batch_crash_leaves_no_partial_batch() {
    let cluster = setup(PersistMode::FlitAsync);
    let queue = cluster.combined(
        cluster
            .session(MachineId(0))
            .create_queue::<u64>("q")
            .unwrap(),
    );
    let threads = 6usize;
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..threads {
        let queue = queue.clone();
        let session = cluster.session(MachineId(t % 2));
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            // Enqueue 1, 2, 3, … until the crash (or stop); report how
            // many were acknowledged.
            let mut acked = 0u64;
            while !stop.load(Ordering::Relaxed) {
                match queue.enqueue(&session, (t as u64) * 100_000 + acked + 1) {
                    Ok(true) => acked += 1,
                    _ => break,
                }
            }
            acked
        }));
    }
    // Continuous 6-thread traffic: the crash lands while batches are in
    // flight (acknowledgement waits on the batch flush, so there are
    // always announced-but-unflushed ops to interrupt).
    std::thread::sleep(std::time::Duration::from_millis(25));
    cluster.crash(MEM);
    stop.store(true, Ordering::Relaxed);
    let acked: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    cluster.recover(MEM);

    let session = cluster.session(MachineId(0));
    session.recover_roots().unwrap();
    let queue = cluster.combined(session.open_queue::<u64>("q").unwrap());
    queue.recover(&session).unwrap();
    // The drain itself would fail on a torn node (a head swing persisted
    // without its node's contents).
    let drained = queue.drain(&session).unwrap();

    let mut per_thread: Vec<Vec<u64>> = vec![Vec::new(); threads];
    for v in drained {
        per_thread[(v / 100_000) as usize].push(v % 100_000);
    }
    for (t, got) in per_thread.iter().enumerate() {
        let expect: Vec<u64> = (1..=got.len() as u64).collect();
        assert_eq!(
            got, &expect,
            "thread {t}: recovered enqueues must be a gapless FIFO prefix"
        );
        assert!(
            got.len() as u64 >= acked[t],
            "thread {t}: {} acknowledged enqueues but only {} recovered — \
             an acknowledged op was lost",
            acked[t],
            got.len()
        );
    }
}

/// 8-thread stress through a combined front, with the combiner counters
/// from `Session::stats_delta` checked for *exact* op accounting.
#[test]
fn stress_counts_every_op_exactly_once() {
    let cluster = setup(PersistMode::FlitAsync);
    let session0 = cluster.session(MachineId(0));
    let queue = cluster.combined(session0.create_queue::<u64>("q").unwrap());
    let before = session0.stats_delta();

    let threads = 8usize;
    let per = 150u64;
    let mut handles = Vec::new();
    for t in 0..threads {
        let queue = queue.clone();
        let session = cluster.session(MachineId(t % 2));
        handles.push(std::thread::spawn(move || {
            let mut popped = 0u64;
            for i in 0..per {
                assert!(queue.enqueue(&session, (t as u64) * 1000 + i + 1).unwrap());
                if queue.dequeue(&session).unwrap().is_some() {
                    popped += 1;
                }
            }
            popped
        }));
    }
    let popped: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    let rest = queue.drain(&session0).unwrap().len() as u64;
    // Element conservation across combining and elimination.
    assert_eq!(popped + rest, per * threads as u64);

    let delta = session0.stats_delta().since(&before);
    let issued = 2 * per * threads as u64;
    // Every front op is completed by exactly one combiner pass (its own
    // or another thread's) and counted exactly once. The post-stress
    // drain goes through the plain path, so it does not perturb the
    // combiner counters.
    assert_eq!(delta.combine_ops, issued, "combiner ops must be exact");
    assert!(delta.combine_batches >= 1);
    assert!(delta.combine_batches <= delta.combine_ops);
    // Eliminations come in insert/remove pairs, and each saves its two
    // ops' persistence syncs; batching can only add to the saving under
    // a policy whose batches owe durability (all but `none`/`buffered`).
    assert!(delta.combine_eliminations.is_multiple_of(2));
    assert!(delta.combine_barriers_saved >= delta.combine_eliminations);
    assert!(delta.combine_elections >= delta.combine_batches);
}

// ---- proptest: random crash/recover interleavings ----------------------

#[derive(Debug, Clone)]
enum Step {
    Enq(u8),
    Deq,
    Push(u8),
    Pop,
    CrashRecover,
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Crash/recover on roughly one step in nine; the rest split evenly.
    (any::<u8>(), any::<u8>()).prop_map(|(sel, v)| match sel % 9 {
        0 | 1 => Step::Enq(v),
        2 | 3 => Step::Deq,
        4 | 5 => Step::Push(v),
        6 | 7 => Step::Pop,
        _ => Step::CrashRecover,
    })
}

/// One deterministic interleaving: combined queue + stack driven from
/// one session against in-memory reference models, with memory-node
/// crash/recover cycles at arbitrary points. Quiesced single-threaded
/// driving makes the expected state exact — every completed op must
/// read back precisely, across any number of crashes.
fn run_interleaving(mode: PersistMode, steps: Vec<Step>) {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 12))
        .persist(mode)
        .build()
        .unwrap();
    let session = cluster.session(MachineId(0));
    let queue = cluster.combined(session.create_queue::<u64>("q").unwrap());
    let stack = cluster.combined(session.create_stack::<u64>("s").unwrap());
    let mut qmodel: VecDeque<u64> = VecDeque::new();
    let mut smodel: Vec<u64> = Vec::new();
    let mut seq = 0u64;
    for step in steps {
        match step {
            Step::Enq(v) => {
                seq += 1;
                let v = u64::from(v) + seq * 1000;
                assert!(queue.enqueue(&session, v).unwrap());
                qmodel.push_back(v);
            }
            Step::Deq => {
                assert_eq!(queue.dequeue(&session).unwrap(), qmodel.pop_front());
            }
            Step::Push(v) => {
                seq += 1;
                let v = u64::from(v) + seq * 1000;
                assert!(stack.push(&session, v).unwrap());
                smodel.push(v);
            }
            Step::Pop => {
                assert_eq!(stack.pop(&session).unwrap(), smodel.pop());
            }
            Step::CrashRecover => {
                cluster.crash(MEM);
                cluster.recover(MEM);
                session.recover_roots().unwrap();
                queue.recover(&session).unwrap();
                stack.recover(&session).unwrap();
            }
        }
    }
    // Final drain: both structures must hold exactly the models.
    assert_eq!(queue.drain(&session).unwrap(), Vec::from(qmodel));
    smodel.reverse();
    assert_eq!(stack.drain(&session).unwrap(), smodel);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random op/crash/recover interleavings on combined structures,
    /// under every sound durability strategy: completed ops survive any
    /// crash pattern exactly (the spare-node cache, batched stores and
    /// recovery drains included).
    #[test]
    fn combined_ops_survive_random_crash_recover(
        steps in proptest::collection::vec(arb_step(), 0..40),
    ) {
        for mode in sound_modes() {
            run_interleaving(mode, steps.clone());
        }
    }
}
