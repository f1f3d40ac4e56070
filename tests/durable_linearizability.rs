//! E7: the §6 transformation — FliT-wrapped objects are durably
//! linearizable under partial crashes; the unadapted x86 FliT is not.
//!
//! Concurrent workers on two compute machines drive each durable object
//! hosted on an NVM memory node; the fabric's crash point crashes the
//! memory node mid-traffic, killing the operation it interrupts;
//! recovery *reattaches by name* through the session API and the full
//! history (crash included) is checked with `cxl0-dlcheck`.

mod common;

use std::sync::Arc;

use cxl0::api::{Cluster, PersistMode};
use cxl0::dlcheck::spec::{
    CounterOp, CounterSpec, MapOp, MapRet, MapSpec, QueueOp, QueueRet, QueueSpec, RegisterOp,
    RegisterRet, RegisterSpec, StackOp, StackRet, StackSpec,
};
use cxl0::dlcheck::{check_durably_linearizable, Recorder, ThreadId};
use cxl0::model::{MachineId, SystemConfig};

const MEM: MachineId = MachineId(2);

fn setup(mode: PersistMode) -> Arc<Cluster> {
    Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 15))
        .persist(mode)
        .build()
        .unwrap()
}

#[test]
fn flit_register_durably_linearizable_under_crash() {
    let build = || {
        let cluster = setup(PersistMode::FlitCxl0);
        let session = cluster.session(MachineId(0));
        let reg = session.create_register::<u64>("reg").unwrap();
        let recorder: Recorder<RegisterOp, RegisterRet> = Recorder::new();
        (Arc::clone(cluster.fabric()), (cluster, reg, recorder))
    };
    let (cluster, _, recorder) =
        common::crash_workload(4, MEM, build, |t, (_, reg, rec), node, steps| {
            let machine = node.machine().index();
            // Keep histories small enough for the checker.
            for i in steps.take(41) {
                if (t + i as usize).is_multiple_of(2) {
                    let v = (t as u64) * 1000 + i + 1;
                    let id = rec.invoke(ThreadId(t), machine, RegisterOp::Write(v));
                    match reg.write(node, v) {
                        Ok(()) => rec.respond(id, RegisterRet::Ok),
                        Err(_) => break,
                    }
                } else {
                    let id = rec.invoke(ThreadId(t), machine, RegisterOp::Read);
                    match reg.read(node) {
                        Ok(v) => rec.respond(id, RegisterRet::Value(v)),
                        Err(_) => break,
                    }
                }
            }
        });
    // Record the crash event for the checker; reattach the register by
    // name and read — completed ops must still be visible.
    recorder.crash(MEM.index());
    let session = cluster.session(MachineId(0));
    let reg = session.open_register::<u64>("reg").unwrap();
    let id = recorder.invoke(ThreadId(99), 0, RegisterOp::Read);
    let v = reg.read(&session).unwrap();
    recorder.respond(id, RegisterRet::Value(v));
    let history = recorder.finish();
    assert!(
        common::pending(&history) >= 1,
        "the crash killed no operation"
    );
    let result = check_durably_linearizable(&RegisterSpec, &history);
    assert!(result.is_ok(), "{result}");
}

#[test]
fn flit_queue_durably_linearizable_under_crash() {
    let build = || {
        let cluster = setup(PersistMode::FlitCxl0);
        let queue = cluster
            .session(MachineId(0))
            .create_queue::<u64>("q")
            .unwrap();
        let recorder: Recorder<QueueOp, QueueRet> = Recorder::new();
        (Arc::clone(cluster.fabric()), (cluster, queue, recorder))
    };
    let (cluster, _, recorder) =
        common::crash_workload(4, MEM, build, |t, (_, queue, rec), node, steps| {
            let machine = node.machine().index();
            for i in steps.take(30) {
                if (t + i as usize).is_multiple_of(2) {
                    let v = (t as u64) * 1000 + i + 1;
                    let id = rec.invoke(ThreadId(t), machine, QueueOp::Enq(v));
                    match queue.enqueue(node, v) {
                        Ok(true) => rec.respond(id, QueueRet::Ok),
                        _ => break,
                    }
                } else {
                    let id = rec.invoke(ThreadId(t), machine, QueueOp::Deq);
                    match queue.dequeue(node) {
                        Ok(v) => rec.respond(id, QueueRet::Deqd(v)),
                        Err(_) => break,
                    }
                }
            }
        });
    recorder.crash(MEM.index());
    let session = cluster.session(MachineId(0));
    let queue = session.open_queue::<u64>("q").unwrap();
    queue.recover(&session).unwrap();
    loop {
        let id = recorder.invoke(ThreadId(98), 0, QueueOp::Deq);
        let v = queue.dequeue(&session).unwrap();
        recorder.respond(id, QueueRet::Deqd(v));
        if v.is_none() {
            break;
        }
    }
    let history = recorder.finish();
    assert!(
        common::pending(&history) >= 1,
        "the crash killed no operation"
    );
    let result = check_durably_linearizable(&QueueSpec, &history);
    assert!(result.is_ok(), "{result}");
}

#[test]
fn flit_map_durably_linearizable_under_crash() {
    let build = || {
        let cluster = setup(PersistMode::OwnerOpt);
        let map = cluster
            .session(MachineId(0))
            .create_map::<u64, u64>("m", 64)
            .unwrap();
        let recorder: Recorder<MapOp, MapRet> = Recorder::new();
        (Arc::clone(cluster.fabric()), (map, recorder))
    };
    let (_, recorder) = common::crash_workload(4, MEM, build, |t, (map, rec), node, steps| {
        let machine = node.machine().index();
        for i in steps.take(25) {
            let key = (i % 8) + 1;
            match (t + i as usize) % 3 {
                0 => {
                    let v = (t as u64) * 1000 + i + 1;
                    let id = rec.invoke(ThreadId(t), machine, MapOp::Insert(key, v));
                    match map.insert(node, key, v) {
                        Ok(Some(prev)) => rec.respond(id, MapRet::Value(prev)),
                        _ => break,
                    }
                }
                1 => {
                    let id = rec.invoke(ThreadId(t), machine, MapOp::Get(key));
                    match map.get(node, key) {
                        Ok(v) => rec.respond(id, MapRet::Value(v)),
                        Err(_) => break,
                    }
                }
                _ => {
                    let id = rec.invoke(ThreadId(t), machine, MapOp::Remove(key));
                    match map.remove(node, key) {
                        Ok(v) => rec.respond(id, MapRet::Value(v)),
                        Err(_) => break,
                    }
                }
            }
        }
    });
    recorder.crash(MEM.index());
    let history = recorder.finish();
    assert!(
        common::pending(&history) >= 1,
        "the crash killed no operation"
    );
    let result = check_durably_linearizable(&MapSpec, &history);
    assert!(result.is_ok(), "{result}");
}

#[test]
fn flit_stack_and_counter_survive_compute_node_crash() {
    // Crash a *compute* node mid-operation: its threads die with pending
    // ops; everything completed must persist.
    let cluster = setup(PersistMode::FlitCxl0);
    let s0 = cluster.session(MachineId(0));
    let s1 = cluster.session(MachineId(1));
    let stack = s0.create_stack::<u64>("s").unwrap();
    let counter = s0.create_counter("c").unwrap();

    for v in 1..=20u64 {
        stack.push(&s0, v).unwrap();
        counter.add(&s0, 1).unwrap();
    }
    cluster.crash(MachineId(0));
    // m1 continues unaffected; every completed push/add is visible —
    // including through fresh by-name handles.
    let counter = s1.open_counter("c").unwrap();
    let stack = s1.open_stack::<u64>("s").unwrap();
    assert_eq!(counter.get(&s1).unwrap(), 20);
    assert_eq!(stack.len(&s1).unwrap(), 20);
    // And the memory node's crash does not lose them either:
    cluster.crash(MEM);
    cluster.recover(MEM);
    assert_eq!(counter.get(&s1).unwrap(), 20);
    let drained = stack.drain(&s1).unwrap();
    assert_eq!(drained.len(), 20);
    assert_eq!(drained[0], 20); // LIFO
}

#[test]
fn unadapted_x86_flit_loses_completed_operations() {
    // The negative result that motivates §6.1: Algorithm 1 ported with
    // local flushes only is NOT durably linearizable under partial
    // crashes — a completed write vanishes with the owner's cache.
    let cluster = setup(PersistMode::FlitX86);
    let session = cluster.session(MachineId(0));
    let reg = session.create_register::<u64>("r").unwrap();
    let recorder: Recorder<RegisterOp, RegisterRet> = Recorder::new();

    let id = recorder.invoke(ThreadId(0), 0, RegisterOp::Write(7));
    reg.write(&session, 7).unwrap();
    recorder.respond(id, RegisterRet::Ok);
    // Drain nothing: the LFlush left the line in the owner's cache only.
    cluster.crash(MEM);
    recorder.crash(MEM.index());
    cluster.recover(MEM);
    let id = recorder.invoke(ThreadId(1), 0, RegisterOp::Read);
    let v = reg.read(&session).unwrap();
    recorder.respond(id, RegisterRet::Value(v));

    assert_eq!(v, 0, "the completed write must have been lost");
    let result = check_durably_linearizable(&RegisterSpec, &recorder.finish());
    assert!(
        !result.is_ok(),
        "history with a lost completed write must be rejected"
    );
}

#[test]
fn flit_list_durably_linearizable_under_crash() {
    use cxl0::dlcheck::spec::{SetOp, SetSpec};
    let build = || {
        let cluster = setup(PersistMode::FlitCxl0);
        let list = cluster
            .session(MachineId(0))
            .create_list::<u64>("l")
            .unwrap();
        let recorder: Recorder<SetOp, bool> = Recorder::new();
        (Arc::clone(cluster.fabric()), (cluster, list, recorder))
    };
    let (cluster, _, recorder) =
        common::crash_workload(4, MEM, build, |t, (_, list, rec), node, steps| {
            let machine = node.machine().index();
            for i in steps.take(25) {
                let key = (i * 3 + t as u64) % 12 + 1;
                match (t + i as usize) % 3 {
                    0 => {
                        let id = rec.invoke(ThreadId(t), machine, SetOp::Insert(key));
                        match list.insert(node, key) {
                            Ok(r) => rec.respond(id, r),
                            Err(_) => break,
                        }
                    }
                    1 => {
                        let id = rec.invoke(ThreadId(t), machine, SetOp::Remove(key));
                        match list.remove(node, key) {
                            Ok(r) => rec.respond(id, r),
                            Err(_) => break,
                        }
                    }
                    _ => {
                        let id = rec.invoke(ThreadId(t), machine, SetOp::Contains(key));
                        match list.contains(node, key) {
                            Ok(r) => rec.respond(id, r),
                            Err(_) => break,
                        }
                    }
                }
            }
        });
    recorder.crash(MEM.index());
    // Post-crash reads must observe a consistent set.
    let session = cluster.session(MachineId(0));
    let list = session.open_list::<u64>("l").unwrap();
    for key in 1..=12u64 {
        let id = recorder.invoke(ThreadId(97), 0, SetOp::Contains(key));
        let r = list.contains(&session, key).unwrap();
        recorder.respond(id, r);
    }
    let history = recorder.finish();
    assert!(
        common::pending(&history) >= 1,
        "the crash killed no operation"
    );
    let result = check_durably_linearizable(&SetSpec, &history);
    assert!(result.is_ok(), "{result}");
}

#[test]
fn flit_log_durably_linearizable_under_crash() {
    use cxl0::dlcheck::spec::{LogOp, LogRet, LogSpec};
    let build = || {
        let cluster = setup(PersistMode::FlitCxl0);
        let log = cluster
            .session(MachineId(0))
            .create_log::<u64>("log", 512)
            .unwrap();
        let recorder: Recorder<LogOp, LogRet> = Recorder::new();
        (Arc::clone(cluster.fabric()), (cluster, log, recorder))
    };
    let (cluster, _, recorder) =
        common::crash_workload(4, MEM, build, |t, (_, log, rec), node, steps| {
            let machine = node.machine().index();
            for i in steps.take(20) {
                let v = (t as u64) * 1000 + i + 1;
                let id = rec.invoke(ThreadId(t), machine, LogOp::Append(v));
                match log.append(node, v) {
                    Ok(Some(idx)) => rec.respond(id, LogRet::Index(idx)),
                    _ => break,
                }
            }
        });
    recorder.crash(MEM.index());
    // Post-crash: only the killed append may have left a hole, which
    // recovery seals; the read-back of every other reserved slot must
    // linearize with the appends' returned indices.
    let session = cluster.session(MachineId(0));
    let log = session.open_log::<u64>("log").unwrap();
    let (committed, sealed) = log.recover(&session).unwrap();
    assert!(sealed <= 1, "{sealed} holes, but one append was killed");
    for i in 0..committed + sealed {
        match log.read(&session, i).unwrap() {
            cxl0::runtime::SlotState::Value(v) => {
                let id = recorder.invoke(ThreadId(96), 0, LogOp::Read(i));
                recorder.respond(id, LogRet::Slot(Some(v)));
            }
            cxl0::runtime::SlotState::Junk => {}
            other => panic!("slot {i} should be committed or sealed, found {other:?}"),
        }
    }
    let history = recorder.finish();
    assert!(
        common::pending(&history) >= 1,
        "the crash killed no operation"
    );
    let result = check_durably_linearizable(&LogSpec, &history);
    assert!(result.is_ok(), "{result}");
}

#[test]
fn naive_mstore_is_durable_but_flushless() {
    let cluster = setup(PersistMode::NaiveMStore);
    let session = cluster.session(MachineId(0));
    let counter = session.create_counter("c").unwrap();
    let before = session.stats_delta();
    for _ in 0..10 {
        counter.add(&session, 3).unwrap();
    }
    cluster.crash(MEM);
    cluster.recover(MEM);
    assert_eq!(counter.get(&session).unwrap(), 30);
    let s = session.stats_delta().since(&before);
    assert_eq!(s.flushes(), 0, "naive transform never flushes");
    assert!(s.rmws > 0);
}

#[test]
fn counter_spec_checked_history_with_crash() {
    let cluster = setup(PersistMode::FlitCxl0);
    let session = cluster.session(MachineId(0));
    let counter = session.create_counter("c").unwrap();
    let rec: Recorder<CounterOp, u64> = Recorder::new();
    for i in 0..12u64 {
        let id = rec.invoke(ThreadId(0), 0, CounterOp::Add(2));
        let prev = counter.add(&session, 2).unwrap();
        rec.respond(id, prev);
        assert_eq!(prev, i * 2);
    }
    cluster.crash(MEM);
    rec.crash(MEM.index());
    cluster.recover(MEM);
    let counter = session.open_counter("c").unwrap();
    let id = rec.invoke(ThreadId(1), 0, CounterOp::Get);
    let v = counter.get(&session).unwrap();
    rec.respond(id, v);
    let result = check_durably_linearizable(&CounterSpec, &rec.finish());
    assert!(result.is_ok(), "{result}");
}

#[test]
fn stack_spec_checked_history_with_crash() {
    let cluster = setup(PersistMode::FlitCxl0);
    let session = cluster.session(MachineId(0));
    let stack = session.create_stack::<u64>("s").unwrap();
    let rec: Recorder<StackOp, StackRet> = Recorder::new();
    for v in [5u64, 6, 7] {
        let id = rec.invoke(ThreadId(0), 0, StackOp::Push(v));
        stack.push(&session, v).unwrap();
        rec.respond(id, StackRet::Ok);
    }
    cluster.crash(MEM);
    rec.crash(MEM.index());
    cluster.recover(MEM);
    let stack = session.open_stack::<u64>("s").unwrap();
    for expect in [7u64, 6, 5] {
        let id = rec.invoke(ThreadId(1), 0, StackOp::Pop);
        let v = stack.pop(&session).unwrap();
        rec.respond(id, StackRet::Popped(v));
        assert_eq!(v, Some(expect));
    }
    let result = check_durably_linearizable(&StackSpec, &rec.finish());
    assert!(result.is_ok(), "{result}");
}
