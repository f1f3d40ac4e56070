//! E11: the `CXL0_AF` asynchronous-flush extension (§3.2's persistency-
//! buffer sketch, implemented end-to-end).
//!
//! Three layers are checked together here:
//!
//! 1. **Model** — the `A1`–`A8` litmus suite and the exhaustive
//!    `AFlush;Barrier ≡ RFlush` equivalence over reachable states;
//! 2. **Runtime** — `SimFabric`'s persistency buffers agree with the model
//!    (deferral, batching, crash-discard);
//! 3. **Transformation** — `FlitPolicy::ASYNC` (Algorithm 1 on `CXL0_AF`) yields
//!    durably linearizable objects under partial crashes, and its deferred
//!    helping flushes beat synchronous helping in simulated time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cxl0::dlcheck::spec::{QueueOp, QueueRet, QueueSpec, RegisterOp, RegisterRet, RegisterSpec};
use cxl0::dlcheck::{check_durably_linearizable, Recorder, ThreadId};
use cxl0::explore::paper_async::{async_flush_tests, check_aflush_barrier_equivalence};
use cxl0::model::{MachineId, SystemConfig};
use cxl0::runtime::alloc::Allocator;
use cxl0::runtime::{
    DurableQueue, DurableRegister, Flit, FlitPolicy, Persistence, SharedHeap, SimFabric,
};

const MEM: MachineId = MachineId(2);

#[test]
fn async_litmus_suite_matches_expected_verdicts() {
    for t in async_flush_tests() {
        assert!(
            t.passes(),
            "{}: expected {} observed {} — {}",
            t.name,
            t.expected,
            t.run(),
            t.description
        );
    }
}

#[test]
fn aflush_barrier_is_equivalent_to_rflush() {
    if let Some(cex) = check_aflush_barrier_equivalence() {
        panic!("equivalence violated:\n{cex}");
    }
}

#[test]
fn runtime_buffers_agree_with_the_model() {
    // The same scenario as model litmus A1/A2, on the concurrent backend.
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(2, 4));
    let n0 = fabric.node(MachineId(0));
    let x = cxl0::model::Loc::new(MachineId(1), 0);

    // A1 analogue: un-barriered AFlush, then the issuer crashes → lost.
    n0.lstore(x, 1).unwrap();
    n0.aflush(x).unwrap();
    fabric.crash(MachineId(0));
    fabric.recover(MachineId(0));
    assert_eq!(fabric.pending_flushes(MachineId(0)), 0);
    // The line may survive in the owner's cache here, but memory is stale:
    assert_eq!(fabric.peek_memory(x), 0);

    // A3 analogue: AFlush + Barrier, then the *owner* crashes → durable.
    n0.lstore(x, 2).unwrap();
    n0.aflush(x).unwrap();
    n0.barrier().unwrap();
    fabric.crash(MachineId(1));
    fabric.recover(MachineId(1));
    assert_eq!(fabric.peek_memory(x), 2);
    assert_eq!(n0.load(x).unwrap(), 2);
}

fn crash_workload<F>(fabric: &Arc<SimFabric>, threads: usize, work: F)
where
    F: Fn(usize, &cxl0::runtime::NodeHandle, &AtomicBool) + Send + Sync + 'static,
{
    let work = Arc::new(work);
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..threads {
        let node = fabric.node(MachineId(t % 2));
        let stop = Arc::clone(&stop);
        let work = Arc::clone(&work);
        handles.push(std::thread::spawn(move || work(t, &node, &stop)));
    }
    std::thread::sleep(std::time::Duration::from_millis(15));
    fabric.crash(MEM);
    std::thread::sleep(std::time::Duration::from_millis(2));
    fabric.recover(MEM);
    std::thread::sleep(std::time::Duration::from_millis(10));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn flit_async_register_durably_linearizable_under_crash() {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 15));
    let heap = Arc::new(SharedHeap::new(fabric.config(), MEM));
    let p: Arc<dyn Persistence> = Arc::new(Flit::new(FlitPolicy::ASYNC));
    let reg = DurableRegister::create(&heap, p).unwrap();
    let recorder: Recorder<RegisterOp, RegisterRet> = Recorder::new();
    {
        let reg = reg.clone();
        let rec = recorder.clone();
        crash_workload(&fabric, 4, move |t, node, stop| {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) && i <= 40 {
                let machine = node.machine().index();
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
                i += 1;
            }
        });
    }
    recorder.crash(MEM.index());
    let node = fabric.node(MachineId(0));
    let id = recorder.invoke(ThreadId(99), 0, RegisterOp::Read);
    let v = reg.read(&node).unwrap();
    recorder.respond(id, RegisterRet::Value(v));
    let result = check_durably_linearizable(&RegisterSpec, &recorder.finish());
    assert!(result.is_ok(), "{result}");
}

#[test]
fn flit_async_queue_durably_linearizable_under_crash() {
    let fabric = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 15));
    let p: Arc<dyn Persistence> = Arc::new(Flit::new(FlitPolicy::ASYNC));
    let alloc = Arc::new(Allocator::over_region(fabric.config(), MEM, p));
    let queue = DurableQueue::create(&alloc, &fabric.node(MachineId(0)))
        .unwrap()
        .unwrap();
    let recorder: Recorder<QueueOp, QueueRet> = Recorder::new();
    {
        let queue = queue.clone();
        let rec = recorder.clone();
        crash_workload(&fabric, 4, move |t, node, stop| {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) && i < 30 {
                let machine = node.machine().index();
                if t.is_multiple_of(2) {
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
                i += 1;
            }
        });
    }
    recorder.crash(MEM.index());
    let node = fabric.node(MachineId(0));
    queue.recover(&node).unwrap();
    loop {
        let id = recorder.invoke(ThreadId(98), 0, QueueOp::Deq);
        let v = queue.dequeue(&node).unwrap();
        recorder.respond(id, QueueRet::Deqd(v));
        if v.is_none() {
            break;
        }
    }
    let result = check_durably_linearizable(&QueueSpec, &recorder.finish());
    assert!(result.is_ok(), "{result}");
}

#[test]
fn deferred_helping_beats_synchronous_helping_in_sim_time() {
    // An operation that reads an 8-cell structure while in-flight writers
    // keep the FliT counters positive on every cell (the worst case for
    // helping). The ASYNC policy defers all 8 helping flushes to one
    // overlapped barrier per op; CXL0 pays 8 synchronous remote flushes
    // per op.
    const CELLS: usize = 8;
    const OPS: usize = 50;

    fn run_ops(
        fabric: &Arc<SimFabric>,
        p: &Arc<dyn Persistence>,
        cells: &[cxl0::model::Loc],
    ) -> u64 {
        let node = fabric.node(MachineId(0));
        let before = fabric.stats().snapshot();
        for _ in 0..OPS {
            for &c in cells {
                p.shared_load(&node, c, true).unwrap();
            }
            p.complete_op(&node).unwrap();
        }
        fabric.stats().snapshot().since(&before).sim_ns
    }

    let fabric_a = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 10));
    let heap_a = Arc::new(SharedHeap::new(fabric_a.config(), MEM));
    let cells_a: Vec<_> = (0..CELLS).map(|_| heap_a.alloc(1).unwrap()).collect();
    let pa = Arc::new(Flit::new(FlitPolicy::ASYNC));
    for &c in &cells_a {
        pa.table().enter(c);
    }
    let async_ns = run_ops(
        &fabric_a,
        &(Arc::clone(&pa) as Arc<dyn Persistence>),
        &cells_a,
    );

    let fabric_s = SimFabric::new(SystemConfig::symmetric_nvm(3, 1 << 10));
    let heap_s = Arc::new(SharedHeap::new(fabric_s.config(), MEM));
    let cells_s: Vec<_> = (0..CELLS).map(|_| heap_s.alloc(1).unwrap()).collect();
    let ps = Arc::new(Flit::new(FlitPolicy::CXL0));
    for &c in &cells_s {
        ps.table().enter(c);
    }
    let sync_ns = run_ops(
        &fabric_s,
        &(Arc::clone(&ps) as Arc<dyn Persistence>),
        &cells_s,
    );

    assert!(
        (async_ns as f64) < 0.75 * sync_ns as f64,
        "deferred helping should be at least 25% cheaper: async {async_ns} vs sync {sync_ns}"
    );
}
