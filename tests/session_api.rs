//! The `Cluster`/`Session` API and its named-root registry under
//! randomized interleavings of `create_*`/`open_*`/torn creates/crash/
//! recover: every *committed* name must reattach, after any number of
//! memory-node crashes, to a structure whose contents survived.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use cxl0::api::{ApiError, Cluster, PersistMode, RootKind};
use cxl0::model::{MachineConfig, MachineId, SystemConfig};
use proptest::prelude::*;

const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

#[derive(Debug, Clone)]
enum Op {
    /// Create a structure of the given kind under `NAMES[name]`.
    Create(u8, u8),
    /// `counter.add` / `register.write` / `queue.enqueue` on the named
    /// structure (no-op when the name holds a different kind).
    Mutate(u8, u8),
    /// Claim the name in the registry without committing, as a creator
    /// crashing mid-`create` would.
    TornCreate(u8),
    /// Crash the memory node, recover it, seal pending roots, reattach
    /// every committed name and verify its contents.
    CrashRecover,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..NAMES.len() as u8, 0..3u8).prop_map(|(n, k)| Op::Create(n, k)),
        (0..NAMES.len() as u8, 1..100u8).prop_map(|(n, v)| Op::Mutate(n, v)),
        (0..NAMES.len() as u8).prop_map(Op::TornCreate),
        Just(Op::CrashRecover),
    ]
}

/// The single-threaded reference model of the committed registry state.
#[derive(Default)]
struct Model {
    kinds: HashMap<&'static str, RootKind>,
    pending: HashMap<&'static str, bool>,
    counters: HashMap<&'static str, u64>,
    registers: HashMap<&'static str, u64>,
    queues: HashMap<&'static str, VecDeque<u64>>,
}

/// Reattaches every committed name by `open_*` and checks its contents
/// against the model. Queues are drained (FIFO check) and re-enqueued,
/// leaving their durable state unchanged.
fn verify_all(cluster: &Arc<Cluster>, model: &Model) {
    let session = cluster.session(MachineId(0));
    let roots = session.roots().unwrap();
    assert_eq!(roots.len(), model.kinds.len(), "committed-root census");
    for (&name, &kind) in &model.kinds {
        match kind {
            RootKind::Counter => {
                let c = session.open_counter(name).unwrap();
                assert_eq!(c.get(&session).unwrap(), model.counters[name], "{name}");
            }
            RootKind::Register => {
                let r = session.open_register::<u64>(name).unwrap();
                assert_eq!(r.read(&session).unwrap(), model.registers[name], "{name}");
            }
            RootKind::Queue => {
                let q = session.open_queue::<u64>(name).unwrap();
                q.recover(&session).unwrap();
                let drained = q.drain(&session).unwrap();
                let expect: Vec<u64> = model.queues[name].iter().copied().collect();
                assert_eq!(drained, expect, "{name}");
                for v in drained {
                    assert!(q.enqueue(&session, v).unwrap());
                }
            }
            other => panic!("model never creates a {other}"),
        }
    }
}

fn run_interleaving(ops: Vec<Op>) {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 14))
        .persist(PersistMode::FlitCxl0)
        .root_capacity(8)
        .build()
        .unwrap();
    let mem = cluster.memory_node();
    let session = cluster.session(MachineId(0));
    let mut model = Model::default();

    for op in ops {
        match op {
            Op::Create(n, k) => {
                let name = NAMES[n as usize];
                let kind = [RootKind::Counter, RootKind::Register, RootKind::Queue][k as usize];
                let result = match kind {
                    RootKind::Counter => session.create_counter(name).map(|_| ()),
                    RootKind::Register => session.create_register::<u64>(name).map(|_| ()),
                    _ => session.create_queue::<u64>(name).map(|_| ()),
                };
                if model.pending.get(name).copied().unwrap_or(false) {
                    assert_eq!(result, Err(ApiError::PendingRoot(name.into())), "{name}");
                } else if model.kinds.contains_key(name) {
                    assert_eq!(result, Err(ApiError::AlreadyExists(name.into())), "{name}");
                } else {
                    result.unwrap();
                    model.kinds.insert(name, kind);
                    match kind {
                        RootKind::Counter => {
                            model.counters.insert(name, 0);
                        }
                        RootKind::Register => {
                            model.registers.insert(name, 0);
                        }
                        _ => {
                            model.queues.insert(name, VecDeque::new());
                        }
                    }
                }
            }
            Op::Mutate(n, v) => {
                let name = NAMES[n as usize];
                let v = u64::from(v);
                match model.kinds.get(name) {
                    Some(RootKind::Counter) => {
                        let c = session.open_counter(name).unwrap();
                        c.add(&session, v).unwrap();
                        *model.counters.get_mut(name).unwrap() += v;
                    }
                    Some(RootKind::Register) => {
                        let r = session.open_register::<u64>(name).unwrap();
                        r.write(&session, v).unwrap();
                        model.registers.insert(name, v);
                    }
                    Some(RootKind::Queue) => {
                        let q = session.open_queue::<u64>(name).unwrap();
                        assert!(q.enqueue(&session, v).unwrap());
                        model.queues.get_mut(name).unwrap().push_back(v);
                    }
                    Some(other) => panic!("model never creates a {other}"),
                    None => {
                        // Not committed: every open must miss, whatever
                        // the kind asked for.
                        assert_eq!(
                            session.open_counter(name).err(),
                            Some(ApiError::NotFound(name.into()))
                        );
                    }
                }
            }
            Op::TornCreate(n) => {
                let name = NAMES[n as usize];
                // Only exercise the torn state on otherwise-free names:
                // a pending claim for a committed name is legal but would
                // complicate the model's expected create errors.
                if !model.kinds.contains_key(name)
                    && !model.pending.get(name).copied().unwrap_or(false)
                {
                    session.simulate_torn_create(name).unwrap();
                    model.pending.insert(name, true);
                }
            }
            Op::CrashRecover => {
                cluster.crash(mem);
                cluster.recover(mem);
                let sealed = cluster.session(MachineId(0)).recover_roots().unwrap();
                let expected_sealed = model.pending.values().filter(|p| **p).count();
                assert_eq!(sealed, expected_sealed, "sealed-entry count");
                model.pending.clear();
                verify_all(&cluster, &model);
            }
        }
    }

    // Whatever the interleaving did, one final crash/recover cycle must
    // reattach every committed root with its contents intact.
    cluster.crash(mem);
    cluster.recover(mem);
    cluster.session(MachineId(0)).recover_roots().unwrap();
    verify_all(&cluster, &model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn committed_roots_always_reattach(ops in proptest::collection::vec(arb_op(), 0..40)) {
        run_interleaving(ops);
    }
}

#[test]
fn open_queue_round_trip_needs_no_header_locs() {
    // The acceptance-criterion scenario in its plainest form: create on
    // one "process", crash the memory node, reattach purely by name.
    let cluster = Cluster::symmetric(2, 4096).unwrap();
    {
        let s = cluster.session(MachineId(0));
        let q = s.create_queue::<u64>("jobs").unwrap();
        for v in [1u64, 2, 3] {
            q.enqueue(&s, v).unwrap();
        }
    } // every volatile handle dropped here
    cluster.crash(cluster.memory_node());
    cluster.recover(cluster.memory_node());
    let s = cluster.session(MachineId(1));
    s.recover_roots().unwrap();
    let q = s.open_queue::<u64>("jobs").unwrap();
    q.recover(&s).unwrap();
    assert_eq!(q.drain(&s).unwrap(), vec![1, 2, 3]);
}

#[test]
fn a_queue_whose_head_the_crash_lost_reports_corrupt() {
    // The deliberately unsound x86 FliT port flushes only to the owner's
    // cache, so a memory-node crash can take the queue's head pointer
    // with it while the registry still names the queue. The traffic is
    // `examples/named_roots.rs`'s.
    let cluster = Cluster::builder(SystemConfig::new(vec![
        MachineConfig::compute_only(),
        MachineConfig::compute_only(),
        MachineConfig::non_volatile(1 << 14),
    ]))
    .persist(PersistMode::FlitX86)
    .build()
    .unwrap();
    let s = cluster.session(MachineId(0));
    let q = s.create_queue::<u64>("jobs/pending").unwrap();
    let done = s.create_counter("jobs/done").unwrap();
    let owner = s.create_map::<u64, u64>("jobs/owner", 64).unwrap();
    for id in 1..=8u64 {
        q.enqueue(&s, id).unwrap();
        owner.insert(&s, id, 100 + id % 2).unwrap();
    }
    let w = cluster.session(MachineId(1));
    let worker = w.open_queue::<u64>("jobs/pending").unwrap();
    for _ in 0..3 {
        worker.dequeue(&w).unwrap().unwrap();
        done.add(&w, 1).unwrap();
    }
    cluster.crash(cluster.memory_node());
    cluster.recover(cluster.memory_node());

    let r = cluster.session(MachineId(0));
    r.recover_roots().unwrap();
    let q = r.open_queue::<u64>("jobs/pending").unwrap();
    assert_eq!(
        q.recover(&r),
        Err(ApiError::Corrupt {
            header: q.header_cell()
        })
    );
}

#[test]
fn registry_full_reports_cleanly() {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(2, 4096))
        .root_capacity(2)
        .build()
        .unwrap();
    let s = cluster.session(MachineId(0));
    s.create_counter("a").unwrap();
    s.create_counter("b").unwrap();
    assert_eq!(s.create_counter("c").err(), Some(ApiError::RegistryFull));
    // The full registry still serves lookups.
    assert!(s.open_counter("a").is_ok());
    assert!(s.open_counter("b").is_ok());
}

#[test]
fn word_newtypes_are_fingerprinted() {
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Ticket(u64);
    cxl0::durable_word!(Ticket(u64));

    let cluster = Cluster::symmetric(1, 4096).unwrap();
    let s = cluster.session(MachineId(0));
    let q = s.create_queue::<Ticket>("t").unwrap();
    q.enqueue(&s, Ticket(9)).unwrap();
    // Same layout, different fingerprint: opening as u64 is refused.
    assert_eq!(
        s.open_queue::<u64>("t").err(),
        Some(ApiError::TypeMismatch { name: "t".into() })
    );
    assert_eq!(
        s.open_queue::<Ticket>("t").unwrap().dequeue(&s).unwrap(),
        Some(Ticket(9))
    );
}
