//! The passes a run is made of: setup, the single-thread replay (the
//! sim pass and the traced replays are all this one loop with a
//! different hook), the 2-worker timed pass, and the crash/recover
//! cycle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use crate::model::{check_list_snapshot, KeyModel, Oracle, QueueCheck};
use crate::sut::{Counters, Instrument, Mode, PhaseUs, Sut, Worker, MEMORY_NODE};
use crate::util::median;
use crate::workload::{preload_value, Op, OpKind, Spec, Structure};

/// One closed-loop client: a tape cursor, the oracle checking its
/// results, and its failure accounting.
#[derive(Debug)]
pub struct Client<'t, O> {
    tape: &'t [Op],
    cursor: usize,
    pub oracle: O,
    pub attempted: u64,
    pub failed: u64,
    /// The op a crash of this client's machine interrupted, if any.
    pub in_flight: Option<Op>,
}

impl<'t, O: Oracle> Client<'t, O> {
    pub fn new(tape: &'t [Op], oracle: O) -> Self {
        Client {
            tape,
            cursor: 0,
            oracle,
            attempted: 0,
            failed: 0,
            in_flight: None,
        }
    }

    fn advance(&mut self) {
        self.cursor += 1;
        if self.cursor == self.tape.len() {
            self.cursor = 0;
        }
    }

    /// Replays up to `n` tape ops through `worker`, checking every
    /// result. `after` runs after each acknowledged op and ends the
    /// replay early by returning `false`. Returns `false` if the
    /// worker's machine crashed under an op (recorded in `in_flight`,
    /// to be retried after recovery).
    #[inline]
    pub fn run(&mut self, worker: &Worker, n: usize, mut after: impl FnMut(Op) -> bool) -> bool {
        for _ in 0..n {
            let op = self.oracle.prepare(self.tape[self.cursor]);
            self.attempted += 1;
            match worker.apply(op) {
                Ok(got) => {
                    if !self.oracle.observe(op, got) {
                        self.failed += 1;
                    }
                }
                Err(_) => {
                    self.in_flight = Some(op);
                    return false;
                }
            }
            self.advance();
            if !after(op) {
                break;
            }
        }
        true
    }

    /// The replay loop with no operation issued.
    pub fn dry_run(&mut self, n: usize) -> u64 {
        let mut acc = 0u64;
        for _ in 0..n {
            let op = self.oracle.prepare(self.tape[self.cursor]);
            acc = acc.wrapping_add(self.oracle.dry(std::hint::black_box(op)));
            self.advance();
        }
        acc
    }
}

/// The clients of one run, by the kind of oracle their structure needs.
#[derive(Debug)]
pub enum Clients<'t> {
    Keys(Vec<Client<'t, KeyModel>>),
    Queue(Vec<Client<'t, QueueCheck>>),
}

impl<'t> Clients<'t> {
    /// Fresh clients over `tapes`, their oracles in the preloaded state.
    pub fn new(spec: &Spec, seed: u64, tapes: &'t [Vec<Op>]) -> Self {
        match spec.structure {
            Structure::Queue => Clients::Queue(
                tapes
                    .iter()
                    .enumerate()
                    .map(|(w, t)| Client::new(t, QueueCheck::new(w as u64 + 1, tapes.len(), seed)))
                    .collect(),
            ),
            _ => Clients::Keys(
                tapes
                    .iter()
                    .map(|t| Client::new(t, KeyModel::preloaded(spec, seed)))
                    .collect(),
            ),
        }
    }

    pub fn attempted(&self) -> u64 {
        match self {
            Clients::Keys(c) => c.iter().map(|c| c.attempted).sum(),
            Clients::Queue(c) => c.iter().map(|c| c.attempted).sum(),
        }
    }

    pub fn failed(&self) -> u64 {
        match self {
            Clients::Keys(c) => c.iter().map(|c| c.failed).sum(),
            Clients::Queue(c) => c.iter().map(|c| c.failed).sum(),
        }
    }
}

/// Builds the cluster and preloads the structure (every map key, a
/// seeded half of the list's keys), checking the preload's own results.
///
/// # Panics
///
/// Panics if a preload insert does not report a fresh key: the run
/// would measure a structure in an unknown state.
pub fn build_loaded(spec: &Spec, seed: u64, mode: Mode, instrument: Instrument) -> Sut {
    let sut = Sut::build(spec, mode, instrument);
    let worker = sut.worker(0);
    let kind = match spec.structure {
        Structure::Queue => return sut,
        Structure::Map { .. } => OpKind::MapInsert,
        Structure::List => OpKind::ListInsert,
    };
    for key in 1..=spec.keys {
        if let Some(value) = preload_value(spec, seed, key) {
            let got = worker.apply(Op { kind, key, value }).expect("no crash");
            let fresh = if kind == OpKind::MapInsert { 0 } else { 1 };
            assert_eq!(got, fresh, "preload of key {key} found it present");
        }
    }
    sut
}

/// What a single-thread replay measured.
#[derive(Debug)]
pub struct Replay {
    pub host_s: f64,
    pub counters: Counters,
    pub attempted: u64,
    pub failed: u64,
    pub sut: Sut,
}

/// Replays the first `n` ops of worker 0's tape on one thread (compute
/// node 0) against a freshly built and preloaded cluster. `hook` sees
/// the cluster before the first op (`None`) and after each op.
pub fn replay(
    spec: &Spec,
    seed: u64,
    tapes: &[Vec<Op>],
    n: usize,
    mode: Mode,
    instrument: Instrument,
    mut hook: impl FnMut(&Sut, Option<Op>),
) -> Replay {
    let sut = build_loaded(spec, seed, mode, instrument);
    let worker = sut.worker(0);
    let mut clients = Clients::new(spec, seed, &tapes[..1]);
    let before = sut.counters();
    hook(&sut, None);
    let start = Instant::now();
    let after = |op| {
        hook(&sut, Some(op));
        true
    };
    let completed = match &mut clients {
        Clients::Keys(c) => c[0].run(&worker, n, after),
        Clients::Queue(c) => c[0].run(&worker, n, after),
    };
    let host_s = start.elapsed().as_secs_f64();
    assert!(completed, "nothing crashes during a replay");
    let counters = sut.counters().since(&before);
    Replay {
        host_s,
        counters,
        attempted: clients.attempted(),
        failed: clients.failed(),
        sut,
    }
}

/// The sim pass: a replay that reads `Stats::sim_nanos` around every
/// op, giving the exact per-op distribution of simulated time.
pub fn sim_pass(
    spec: &Spec,
    seed: u64,
    tapes: &[Vec<Op>],
    n: usize,
    mode: Mode,
) -> (Replay, Vec<u32>) {
    let mut per_op = Vec::with_capacity(n);
    let mut last = 0;
    let replay = replay(spec, seed, tapes, n, mode, Instrument::Off, |sut, op| {
        let now = sut.sim_ns();
        if op.is_some() {
            per_op.push((now - last).min(u64::from(u32::MAX)) as u32);
        }
        last = now;
    });
    (replay, per_op)
}

/// What the timed pass of a steady workload measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Ops-per-second samples in time order: one stream per worker of a
    /// steady workload (a sample per slice), one stream of cycles for
    /// `churn_crash`.
    pub rate_streams: Vec<Vec<f64>>,
    pub wall_s: f64,
    pub ops: u64,
    /// Primitives the workers' ops issued (recovery and verification
    /// excluded).
    pub op_prims: u64,
    pub counters: Counters,
    pub limbo_max: u64,
}

impl Timed {
    /// Appends a later stretch of the same pass.
    pub fn absorb(&mut self, later: Timed) {
        if self.rate_streams.is_empty() {
            self.rate_streams = later.rate_streams;
        } else {
            for (mine, theirs) in self.rate_streams.iter_mut().zip(later.rate_streams) {
                mine.extend(theirs);
            }
        }
        self.wall_s += later.wall_s;
        self.ops += later.ops;
        self.op_prims += later.op_prims;
        self.limbo_max = self.limbo_max.max(later.limbo_max);
    }
}

/// The timed pass of a steady workload: worker `i` on compute node `i`,
/// closed loop, each running slices of `slice_ops` ops back to back
/// until `seconds` have passed (and at least `min_slices` slices),
/// stamping the clock between slices. Workers start together and never
/// wait for each other afterwards: a barrier per slice would let
/// whoever arrives first run uncontended until the other wakes, and on
/// a contended structure those desynchronised stretches are faster
/// than the workload really is.
pub fn timed_pass<O: Oracle + Send>(
    sut: &Sut,
    clients: &mut [Client<'_, O>],
    slice_ops: usize,
    seconds: f64,
    min_slices: usize,
) -> Timed {
    let gate = Barrier::new(clients.len());
    let before = sut.counters();
    let started = Instant::now();
    let per_worker: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let gate = &gate;
                scope.spawn(move || {
                    let worker = sut.worker(i);
                    let mut rates = Vec::new();
                    let mut limbo_max = 0;
                    gate.wait();
                    let mut t0 = Instant::now();
                    while rates.len() < min_slices || started.elapsed().as_secs_f64() < seconds {
                        let completed = client.run(&worker, slice_ops, |_| true);
                        assert!(completed, "nothing crashes during a steady timed pass");
                        let t1 = Instant::now();
                        rates.push(slice_ops as f64 / t1.duration_since(t0).as_secs_f64());
                        limbo_max = limbo_max.max(sut.limbo());
                        t0 = Instant::now();
                    }
                    (rates, limbo_max)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let counters = sut.counters().since(&before);
    let slices: usize = per_worker.iter().map(|w| w.0.len()).sum();
    Timed {
        wall_s,
        ops: (slices * slice_ops) as u64,
        op_prims: counters.prims,
        counters,
        limbo_max: per_worker.iter().map(|w| w.1).max().unwrap_or(0),
        rate_streams: per_worker.into_iter().map(|w| w.0).collect(),
    }
}

/// One crash and the recovery after it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    /// Host ms of `Cluster::crash` itself.
    pub crash_ms: f64,
    /// Host ms from `Cluster::recover` to the reopened root's first
    /// successful op.
    pub recover_ms: f64,
    /// Simulated µs of the same interval.
    pub recover_sim_us: f64,
    /// Host µs of reopening by name plus that first op.
    pub reopen_us: f64,
    pub sealed_roots: usize,
    pub limbo_at_crash: u64,
    /// The runtime's own phase breakdown (traced clusters only).
    pub phases: Option<PhaseUs>,
}

/// Recovers `victim` (already crashed) the way a restarted application
/// does — `Cluster::recover`, fresh session on compute node 0,
/// `recover_roots`, reopen by name, the structure's own repair — and
/// times it up to `first_op`'s return.
fn recover_timed(sut: &Sut, victim: usize, first_op: impl FnOnce(&Worker)) -> (Recovery, Worker) {
    let limbo_at_crash = sut.limbo();
    let sim0 = sut.sim_ns();
    let t0 = Instant::now();
    sut.recover(victim);
    let sealed_roots = sut.recover_roots(0);
    let t1 = Instant::now();
    let worker = sut.worker(0);
    worker.repair();
    first_op(&worker);
    let t2 = Instant::now();
    let recovery = Recovery {
        crash_ms: 0.0,
        recover_ms: t2.duration_since(t0).as_secs_f64() * 1e3,
        recover_sim_us: (sut.sim_ns() - sim0) as f64 / 1e3,
        reopen_us: t2.duration_since(t1).as_secs_f64() * 1e6,
        sealed_roots,
        limbo_at_crash,
        phases: sut.recovery_phases(),
    };
    (recovery, worker)
}

/// Crashes the memory node under a quiescent steady workload and
/// recovers it; `first_op` is the reopened root's first operation.
pub fn crash_recover(sut: &Sut, first_op: impl FnOnce(&Worker)) -> (Recovery, Worker) {
    let t = Instant::now();
    sut.crash(MEMORY_NODE);
    let crash_ms = t.elapsed().as_secs_f64() * 1e3;
    let (mut recovery, worker) = recover_timed(sut, MEMORY_NODE, first_op);
    recovery.crash_ms = crash_ms;
    (recovery, worker)
}

/// One `churn_crash` cycle's measurements.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cycle {
    pub ops: u64,
    pub op_prims: u64,
    pub op_wall_s: f64,
    pub recovery: Recovery,
}

/// One crash cycle of `churn_crash`: the calling thread parks a reader
/// pin (so everything the workers retire piles up in limbo); worker 0
/// runs `crash_at` ops and crashes `victim`; worker 1 runs until it
/// sees the crash — as an error if its own node died, else as the stop
/// flag. Then recovery, and the recovered keys against the models.
pub fn churn_cycle(
    sut: &Sut,
    keys: u32,
    clients: &mut [Client<'_, KeyModel>],
    crash_at: usize,
    victim: usize,
) -> Cycle {
    let gate = Barrier::new(clients.len());
    let stop = AtomicBool::new(false);
    let parked = sut.park_pin();
    let before: u64 = clients.iter().map(|c| c.attempted).sum();
    let prims_before = sut.counters().prims;
    let stamps: Vec<(Instant, Instant, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (gate, stop) = (&gate, &stop);
                scope.spawn(move || {
                    let worker = sut.worker(i);
                    client.in_flight = None;
                    gate.wait();
                    let t0 = Instant::now();
                    let mut crash_ms = 0.0;
                    if i == 0 {
                        client.run(&worker, crash_at, |_| true);
                        let t = Instant::now();
                        sut.crash(victim);
                        crash_ms = t.elapsed().as_secs_f64() * 1e3;
                        stop.store(true, Ordering::SeqCst);
                    } else {
                        client.run(&worker, usize::MAX, |_| !stop.load(Ordering::Relaxed));
                    }
                    (t0, Instant::now(), crash_ms)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let t0 = stamps.iter().map(|s| s.0).min().expect("workers");
    let t1 = stamps.iter().map(|s| s.1).max().expect("workers");
    let crash_ms = stamps[0].2;
    let op_prims = sut.counters().prims - prims_before;
    // Recovery must run quiesced: no live guards. (Dropping the pin
    // reclaims nothing by itself; limbo is read inside `recover_timed`.)
    drop(parked);

    let first = Op::keyed(OpKind::ListContains, 1);
    let expected = clients[0].oracle.value(1);
    let excused = clients[0].in_flight.is_some_and(|op| op.key == 1);
    let mut first_wrong = false;
    let (mut recovery, worker) = recover_timed(sut, victim, |w| {
        let got = w.apply(first).expect("recovered");
        first_wrong = got != expected && !excused;
    });
    recovery.crash_ms = crash_ms;

    let snapshot = worker.list_keys().expect("recovered");
    let in_flight: Vec<Option<Op>> = clients.iter().map(|c| c.in_flight).collect();
    let mut models: Vec<&mut KeyModel> = clients.iter_mut().map(|c| &mut c.oracle).collect();
    let (verified, mismatched) = check_list_snapshot(keys, &snapshot, &mut models, &in_flight);
    let after: u64 = clients.iter().map(|c| c.attempted).sum();
    // Worker 0 carries the post-recovery checks in its accounting.
    clients[0].attempted += verified + 1;
    clients[0].failed += mismatched + u64::from(first_wrong);
    Cycle {
        ops: after - before,
        op_prims,
        op_wall_s: t1.duration_since(t0).as_secs_f64(),
        recovery,
    }
}

/// Median of one field over recoveries.
pub fn median_of(recoveries: &[Recovery], field: impl Fn(&Recovery) -> f64) -> f64 {
    median(&recoveries.iter().map(field).collect::<Vec<_>>())
}

/// Restarts the kernel's peak-RSS watermark, so that `run` — several
/// workloads in one process — reports each workload's own peak, as
/// `bench` does in a process of its own. Best effort: where the kernel
/// refuses, the peak of the whole process so far is reported.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
