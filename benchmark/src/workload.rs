//! The four workloads: what each is made of, why it exists, and the op
//! tapes generated for it from the seed.
//!
//! Tapes come from `cxl0-workloads` during setup and are replayed
//! cyclically, so the generator is never inside a timed loop. Worker `i`
//! only ever touches keys `≡ i+1 (mod 2)`: with disjoint key sets each
//! worker's results are a deterministic function of its own tape, which
//! is what lets the oracle (`model.rs`) check every single result.

use std::time::Instant;

use cxl0_workloads::{KeyDist, OpMix, Workload, WorkloadOp};

use crate::util::mix;

/// Closed-loop clients of every timed pass. The sandbox has 2 cores;
/// more threads than that would measure the scheduler.
pub const WORKERS: usize = 2;

/// The structure operations the tapes are made of — also the span names
/// of the traced pass (`ds.<name>.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpKind {
    QueueEnqueue = 0,
    QueueDequeue = 1,
    MapGet = 2,
    MapInsert = 3,
    MapRemove = 4,
    ListInsert = 5,
    ListRemove = 6,
    ListContains = 7,
}

impl OpKind {
    pub const ALL: [OpKind; 8] = [
        OpKind::QueueEnqueue,
        OpKind::QueueDequeue,
        OpKind::MapGet,
        OpKind::MapInsert,
        OpKind::MapRemove,
        OpKind::ListInsert,
        OpKind::ListRemove,
        OpKind::ListContains,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::QueueEnqueue => "queue_enqueue",
            OpKind::QueueDequeue => "queue_dequeue",
            OpKind::MapGet => "map_get",
            OpKind::MapInsert => "map_insert",
            OpKind::MapRemove => "map_remove",
            OpKind::ListInsert => "list_insert",
            OpKind::ListRemove => "list_remove",
            OpKind::ListContains => "list_contains",
        }
    }
}

/// One tape entry. `value` is the payload of `MapInsert`; the queue's
/// enqueue payloads are numbered at replay time (a cyclic tape must not
/// enqueue the same value twice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub key: u32,
    pub value: u64,
}

impl Op {
    /// An op that carries no payload (every kind but `MapInsert`; the
    /// queue's ops ignore the key).
    pub fn keyed(kind: OpKind, key: u32) -> Op {
        Op {
            kind,
            key,
            value: 0,
        }
    }
}

/// Which durable structure a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    Queue,
    Map { slots: u32 },
    List,
}

/// How keys are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Keys {
    Zipfian(f64),
    Uniform,
}

/// Everything that defines a workload except the seed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub structure: Structure,
    /// Cells per machine of `SystemConfig::symmetric_nvm(3, cells)`.
    pub cells: u32,
    /// Distinct keys over all workers (0 for the queue).
    pub keys: u32,
    pub dist: Keys,
    /// Percent lookups / inserts / removes.
    pub mix: (u8, u8, u8),
    /// Named-root registry entries, and how many of them hold filler
    /// counters (the rest minus one stay free; one holds the structure).
    pub root_capacity: u32,
    pub filler_roots: u32,
    /// Distinct cells flagged stores may touch: the snapshot region the
    /// `buffered` mode needs on top of `cells`.
    pub buffered_capacity: u32,
    /// True for the crash-cycle workload.
    pub crash_cycles: bool,
}

pub const QUEUE_HANDOFF: &str = "queue_handoff";
pub const KV_READ_HEAVY: &str = "kv_read_heavy";
pub const KV_UPDATE_HEAVY: &str = "kv_update_heavy";
pub const CHURN_CRASH: &str = "churn_crash";

/// The four workloads, in report order.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: QUEUE_HANDOFF,
            why: "write-dominated FliT path: 9 flushes/op, one alloc + inline free per pair, head/tail CAS contention; bypasses smr and the map",
            structure: Structure::Queue,
            cells: 1 << 16,
            keys: 0,
            dist: Keys::Uniform,
            mix: (0, 50, 50),
            root_capacity: 32,
            filler_roots: 0,
            buffered_capacity: 1 << 13,
            crash_cycles: false,
        },
        Spec {
            name: KV_READ_HEAVY,
            why: "cache-resident 1 MB map, zipfian 95% get: map logic, smr pin and backend host cost dominate; alloc idle, flushes negligible (the bypass for allocator and write-path changes)",
            structure: Structure::Map { slots: 8192 },
            cells: 1 << 16,
            keys: 4096,
            dist: Keys::Zipfian(0.99),
            mix: (95, 5, 0),
            root_capacity: 32,
            filler_roots: 0,
            buffered_capacity: 1 << 15,
            crash_cycles: false,
        },
        Spec {
            name: KV_UPDATE_HEAVY,
            why: "16 MB map that misses the host cache, uniform 50/40/10 get/insert/remove: writes beside reads on the same map code, so read-vs-write and small-vs-large trade-offs show",
            structure: Structure::Map { slots: 1 << 17 },
            cells: 1 << 19,
            keys: 1 << 16,
            dist: Keys::Uniform,
            mix: (50, 40, 10),
            root_capacity: 32,
            filler_roots: 0,
            buffered_capacity: (1 << 18) + (1 << 12),
            crash_cycles: false,
        },
        Spec {
            name: CHURN_CRASH,
            why: "list churn under a parked reader pin, crashed mid-traffic every cycle: the only workload where alloc, smr retire/collect and the whole recovery path do most of the work",
            structure: Structure::List,
            cells: 1 << 16,
            keys: 256,
            dist: Keys::Uniform,
            mix: (10, 45, 45),
            root_capacity: 64,
            filler_roots: 47,
            buffered_capacity: 1 << 14,
            crash_cycles: true,
        },
    ]
}

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}

/// Pass sizes. `full` is what the benchmark reports with; `quick` is a
/// smoke run (all four workloads, both passes, in under 15 s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Ops per worker tape.
    pub tape_ops: usize,
    /// Tape ops replayed by the single-thread sim/traced passes.
    pub replay_ops: usize,
    /// Setups per run (the median is `setup_s`).
    pub setup_reps: usize,
    /// Fewest slices per worker a stretch of the timed pass runs (for
    /// `churn_crash`: fewest crash cycles of the whole pass).
    pub min_slices: usize,
    /// Stretches the timed pass of a steady workload is cut into, and
    /// the crash/recover cycles of the memory node after each.
    pub segments: usize,
    pub cycles_per_segment: usize,
    /// Worker-0 ops per crash cycle of `churn_crash` (the seeded crash
    /// index is drawn from `ops..ops + ops/4`).
    pub cycle_ops: usize,
    /// Units of the backend probe (150 000 reproduces the recorded
    /// anchor row).
    pub probe_units: u64,
    /// Iterations of every other probe loop.
    pub probe_iters: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            tape_ops: 1 << 20,
            replay_ops: 200_000,
            setup_reps: 5,
            min_slices: 5,
            segments: 10,
            cycles_per_segment: 10,
            cycle_ops: 6000,
            probe_units: 150_000,
            probe_iters: 100_000,
        }
    }

    pub fn quick() -> Self {
        Sizes {
            tape_ops: 1 << 14,
            replay_ops: 5_000,
            setup_reps: 1,
            min_slices: 2,
            segments: 2,
            cycles_per_segment: 2,
            cycle_ops: 500,
            probe_units: 2_000,
            probe_iters: 2_000,
        }
    }
}

/// Ops one worker runs per timed slice, sized so a slice lasts 30–50 ms
/// on the seed commit: long against the two barrier waits around it
/// (tens of µs), short enough that a 10 s pass has some 200 slices for
/// the upper decile to be taken from.
pub fn slice_ops(spec: &Spec, sizes: &Sizes) -> usize {
    let full = match spec.structure {
        Structure::Queue => 1 << 15,
        Structure::Map { slots } if slots <= 8192 => 1 << 18,
        Structure::Map { .. } => 1 << 17,
        Structure::List => sizes.cycle_ops,
    };
    full.min(sizes.tape_ops)
}

/// The key worker `worker` uses for rank `k` (`1..=keys/WORKERS`).
fn owned_key(k: u64, worker: usize) -> u32 {
    ((k - 1) * WORKERS as u64 + worker as u64 + 1) as u32
}

/// The worker `key` belongs to.
pub fn owner(key: u32) -> usize {
    (key as usize - 1) % WORKERS
}

/// Generates worker `worker`'s tape for `spec` from `seed`.
pub fn tape(spec: &Spec, seed: u64, worker: usize, ops: usize) -> Vec<Op> {
    let stream = mix(seed, 0x7A9E + worker as u64);
    match spec.structure {
        Structure::Queue => (0..ops)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    OpKind::QueueEnqueue
                } else {
                    OpKind::QueueDequeue
                };
                Op::keyed(kind, 0)
            })
            .collect(),
        Structure::Map { .. } | Structure::List => {
            let ranks = u64::from(spec.keys) / WORKERS as u64;
            let dist = match spec.dist {
                Keys::Zipfian(theta) => KeyDist::zipfian(ranks, theta),
                Keys::Uniform => KeyDist::uniform(ranks),
            };
            let (r, i, d) = spec.mix;
            let mut gen = Workload::new(dist, OpMix::new(r, i, d), stream);
            let list = spec.structure == Structure::List;
            (0..ops)
                .map(|_| match gen.next_op() {
                    WorkloadOp::Read(k) => Op {
                        kind: if list {
                            OpKind::ListContains
                        } else {
                            OpKind::MapGet
                        },
                        key: owned_key(k, worker),
                        value: 0,
                    },
                    WorkloadOp::Insert(k, v) => Op {
                        kind: if list {
                            OpKind::ListInsert
                        } else {
                            OpKind::MapInsert
                        },
                        key: owned_key(k, worker),
                        value: v,
                    },
                    WorkloadOp::Remove(k) => Op {
                        kind: if list {
                            OpKind::ListRemove
                        } else {
                            OpKind::MapRemove
                        },
                        key: owned_key(k, worker),
                        value: 0,
                    },
                })
                .collect()
        }
    }
}

/// All workers' tapes, and how fast the generator produced them.
pub fn tapes(spec: &Spec, seed: u64, sizes: &Sizes) -> (Vec<Vec<Op>>, f64) {
    let start = Instant::now();
    let tapes: Vec<Vec<Op>> = (0..WORKERS)
        .map(|w| tape(spec, seed, w, sizes.tape_ops))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    let rate = (WORKERS * sizes.tape_ops) as f64 / secs.max(1e-9);
    (tapes, rate)
}

/// Whether `key` is present before the first op, and with which value.
/// Every map key is preloaded (the map never unclaims a slot, so "all
/// keys claimed" is its steady state). Of the list's keys every other
/// one of each worker's is — the seed picks which of the two
/// alternations — so the list's length and the spacing of its nodes,
/// and with them every simulated cost, do not depend on the seed's luck.
pub fn preload_value(spec: &Spec, seed: u64, key: u32) -> Option<u64> {
    match spec.structure {
        Structure::Queue => None,
        Structure::Map { .. } => Some((mix(seed, 0xF00D) >> 20 << 20) | u64::from(key)),
        Structure::List => {
            let rank = (u64::from(key) - 1) / WORKERS as u64;
            (rank + mix(seed, 0x1157)).is_multiple_of(2).then_some(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tape_other_seed_other_tape() {
        let sizes = Sizes::quick();
        for spec in specs() {
            let a = tape(&spec, 11, 0, sizes.tape_ops);
            let b = tape(&spec, 11, 0, sizes.tape_ops);
            assert_eq!(a, b, "{}", spec.name);
            if spec.structure != Structure::Queue {
                let c = tape(&spec, 12, 0, sizes.tape_ops);
                assert_ne!(a, c, "{}: the seed must reach the tape", spec.name);
                let w1 = tape(&spec, 11, 1, sizes.tape_ops);
                assert_ne!(a, w1, "{}: workers draw from distinct streams", spec.name);
            }
        }
    }

    #[test]
    fn workers_own_disjoint_keys_within_range() {
        for spec in specs() {
            for w in 0..WORKERS {
                for op in tape(&spec, 3, w, 4096) {
                    if spec.keys > 0 {
                        assert!(op.key >= 1 && op.key <= spec.keys, "{}", spec.name);
                        assert_eq!(owner(op.key), w, "{}", spec.name);
                    }
                }
            }
        }
    }

    #[test]
    fn mixes_follow_the_spec() {
        let spec = spec(KV_READ_HEAVY).unwrap();
        let t = tape(&spec, 5, 0, 20_000);
        let gets = t.iter().filter(|o| o.kind == OpKind::MapGet).count();
        assert!((18_600..19_400).contains(&gets), "{gets}");
        let spec = spec_by(CHURN_CRASH);
        let t = tape(&spec, 5, 1, 20_000);
        let ins = t.iter().filter(|o| o.kind == OpKind::ListInsert).count();
        assert!((8_500..9_500).contains(&ins), "{ins}");
    }

    fn spec_by(name: &str) -> Spec {
        spec(name).unwrap()
    }

    #[test]
    fn preload_is_seeded_and_nonzero() {
        let kv = spec_by(KV_UPDATE_HEAVY);
        assert!(preload_value(&kv, 1, 7).unwrap() != 0);
        assert_ne!(preload_value(&kv, 1, 7), preload_value(&kv, 2, 7));
        let list = spec_by(CHURN_CRASH);
        for worker in 0..WORKERS {
            let present = (1..=256)
                .filter(|k| owner(*k) == worker && preload_value(&list, 9, *k).is_some())
                .count();
            assert_eq!(present, 64, "exactly half of each worker's keys");
        }
        let chosen = |seed| -> Vec<u32> {
            (1..=256)
                .filter(|k| preload_value(&list, seed, *k).is_some())
                .collect()
        };
        let other = (10..20).map(chosen).find(|c| *c != chosen(9));
        assert!(other.is_some(), "which half is seeded");
    }
}
