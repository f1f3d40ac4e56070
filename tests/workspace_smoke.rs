//! Workspace smoke test: the umbrella crate can reach every layer of the
//! workspace through the `cxl0` facade, and the quickstart round-trip —
//! enqueue, crash the memory node, recover, reattach by name, dequeue —
//! really persists the enqueued value.

use cxl0::api::{ApiError, Cluster};
use cxl0::model::{MachineId, SystemConfig};

#[test]
fn durable_queue_survives_memory_node_crash() -> Result<(), ApiError> {
    // Two compute nodes + one NVM memory node, as in the cxl0 docs.
    let cluster = Cluster::symmetric(2, 1024)?;
    let session = cluster.session(MachineId(0));
    let queue = session.create_queue::<u64>("jobs")?;
    queue.enqueue(&session, 7)?;

    // The memory node crashes; NVM contents survive, caches do not — but
    // FliT persisted the enqueue before it returned. Reattach through
    // the named-root registry: no header Loc was kept anywhere volatile.
    cluster.crash(cluster.memory_node());
    cluster.recover(cluster.memory_node());
    let queue = session.open_queue::<u64>("jobs")?;
    queue.recover(&session)?;
    assert_eq!(queue.dequeue(&session)?, Some(7));

    // The queue is now empty again and stays usable.
    assert_eq!(queue.dequeue(&session)?, None);
    queue.enqueue(&session, 8)?;
    assert_eq!(queue.dequeue(&session)?, Some(8));
    Ok(())
}

#[test]
fn low_level_escape_hatch_still_reaches_primitives() {
    // The raw layer stays available for primitive-level tests. (Even a
    // registry-less cluster reserves the crash-consistent allocator's
    // metadata cells, so the segment cannot be arbitrarily tiny.)
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 128))
        .root_capacity(0)
        .build()
        .unwrap();
    let session = cluster.session(MachineId(0));
    let x = cxl0::model::Loc::new(MachineId(1), 127);
    session.node().lstore(x, 9).unwrap();
    session.node().rflush(x).unwrap();
    assert_eq!(cluster.fabric().peek_memory(x), 9);
}

#[test]
fn facade_reaches_every_workspace_layer() {
    // model
    let sem = cxl0::model::Semantics::new(SystemConfig::symmetric_nvm(2, 4));
    assert!(sem.initial_state().all_caches_empty());

    // explore: the paper's litmus verdicts hold.
    let report = cxl0::explore::litmus::run_suite(&cxl0::explore::paper::figure3_tests());
    assert!(report.all_pass());

    // protocol: a host MStore to device memory writes through.
    {
        use cxl0::protocol::{host_op, CachePair, CxlOp, MemTarget, MesiState};
        let st = CachePair::new(MesiState::I, MesiState::M);
        assert!(host_op(CxlOp::MStore, MemTarget::DeviceMemory, st).is_some());
    }

    // fabric: remote reads cost more than local ones.
    {
        use cxl0::fabric::{run_figure5, AccessPath, LatencyConfig};
        use cxl0::protocol::CxlOp;
        let fig = run_figure5(&LatencyConfig::testbed(), 50, 42);
        let local = fig.median(AccessPath::HostToHm, CxlOp::Read).unwrap();
        let remote = fig.median(AccessPath::HostToHdm, CxlOp::Read).unwrap();
        assert!(remote > local);
    }

    // dlcheck: a completed write that survives a crash is durably readable.
    {
        use cxl0::dlcheck::spec::{RegisterOp, RegisterRet};
        use cxl0::dlcheck::{check_durably_linearizable, Recorder, ThreadId};
        let rec = Recorder::new();
        let w = rec.invoke(ThreadId(0), 0, RegisterOp::Write(7));
        rec.respond(w, RegisterRet::Ok);
        rec.crash(0);
        let r = rec.invoke(ThreadId(1), 0, RegisterOp::Read);
        rec.respond(r, RegisterRet::Value(7));
        assert!(
            check_durably_linearizable(&cxl0::dlcheck::spec::RegisterSpec, &rec.finish()).is_ok()
        );
    }

    // workloads: generated keys respect the distribution's bounds.
    {
        use cxl0::workloads::{KeyDist, OpMix, Workload};
        let mut w = Workload::new(KeyDist::zipfian(100, 0.99), OpMix::read_heavy(), 42);
        for _ in 0..50 {
            let op = w.next_op();
            assert!((1..=100).contains(&op.key()));
        }
    }
}
