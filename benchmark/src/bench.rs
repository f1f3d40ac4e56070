//! One run of one workload: the end-to-end run (`--trace 0`) and the
//! per-layer run (`--trace 1`), each producing the values of its half
//! of the registry plus the run's failure accounting.

use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::Values;
use crate::model::QueueCheck;
use crate::passes::{
    build_loaded, churn_cycle, crash_recover, median_of, peak_rss_mb, replay, reset_peak_rss,
    sim_pass, timed_pass, Clients, Cycle, Recovery, Replay, Timed,
};
use crate::probes;
use crate::spans::{Recorder, Span};
use crate::sut::{Instrument, Mode, Sut, Worker, MEMORY_NODE};
use crate::util::{median, mix, quantile_sorted, spread, steady, SplitMix};
use crate::workload::{owner, slice_ops, tapes, Op, OpKind, Sizes, Spec, Structure, WORKERS};

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// How the host metrics were reduced from their samples (sample
    /// counts and quartile distances), for the human report.
    pub notes: Vec<String>,
}

impl Outcome {
    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Where span exports go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The workload's setup: cluster, named roots, preload, tapes.
struct Setup {
    sut: Sut,
    tapes: Vec<Vec<Op>>,
    gen_ops_per_s: f64,
    secs: f64,
}

fn setup(spec: &Spec, seed: u64, sizes: &Sizes) -> Setup {
    let start = Instant::now();
    let sut = build_loaded(spec, seed, Mode::FlitCxl0, Instrument::Off);
    let (tapes, gen_ops_per_s) = tapes(spec, seed, sizes);
    Setup {
        sut,
        tapes,
        gen_ops_per_s,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// What the 2-worker pass measured: its throughput samples and
/// counters, and the recoveries it went through.
struct Crashes {
    recoveries: Vec<Recovery>,
    timed: Timed,
}

/// The machine `churn_crash` crashes in cycle `cycle`, alternating:
/// compute node 1 (worker 1 dies mid-operation) and the memory node
/// (the caches of the heap's home vanish under both workers).
fn churn_victim(cycle: usize) -> usize {
    if cycle.is_multiple_of(2) {
        1
    } else {
        MEMORY_NODE
    }
}

/// The 2-worker pass of any workload: steady workloads alternate timed
/// slices with crash/recover cycles of the memory node, verifying the
/// durable state against the oracles at the end; `churn_crash` is crash
/// cycles throughout.
fn two_worker_pass(
    spec: &Spec,
    seed: u64,
    sizes: &Sizes,
    sut: &Sut,
    clients: &mut Clients<'_>,
    seconds: f64,
    out: &mut Outcome,
) -> Crashes {
    let per_slice = slice_ops(spec, sizes);
    if spec.crash_cycles {
        let Clients::Keys(clients) = clients else {
            unreachable!("the crash-cycle workload drives the list");
        };
        let mut rng = SplitMix::new(mix(seed, 0xC4A5));
        let before = sut.counters();
        let started = Instant::now();
        let mut cycles: Vec<Cycle> = Vec::new();
        while cycles.len() < sizes.min_slices || started.elapsed().as_secs_f64() < seconds {
            let crash_at = rng.range(per_slice as u64, (per_slice + per_slice / 4) as u64) as usize;
            let victim = churn_victim(cycles.len());
            cycles.push(churn_cycle(sut, spec.keys, clients, crash_at, victim));
        }
        let timed = Timed {
            // One stream: a cycle's two workers start and stop together.
            rate_streams: vec![cycles.iter().map(|c| c.ops as f64 / c.op_wall_s).collect()],
            wall_s: cycles.iter().map(|c| c.op_wall_s).sum(),
            ops: cycles.iter().map(|c| c.ops).sum(),
            op_prims: cycles.iter().map(|c| c.op_prims).sum(),
            counters: sut.counters().since(&before),
            limbo_max: cycles
                .iter()
                .map(|c| c.recovery.limbo_at_crash)
                .max()
                .unwrap_or(0),
        };
        return Crashes {
            recoveries: cycles.iter().map(|c| c.recovery).collect(),
            timed,
        };
    }

    // Steady workloads: `segments` stretches of timed slices, each
    // followed by crash/recover cycles of the memory node on the loaded
    // heap. Spreading the recoveries over the run (instead of bunching
    // them at its end) samples the machine's slow and fast spells in
    // the proportion the throughput slices see them.
    let mut timed = Timed::default();
    let mut recoveries = Vec::with_capacity(sizes.segments * sizes.cycles_per_segment);
    let mut drain = QueueCheck::new(0, WORKERS, seed);
    let before = sut.counters();
    for segment in 0..sizes.segments {
        let share = seconds / sizes.segments as f64;
        let part = match clients {
            Clients::Keys(c) => timed_pass(sut, c, per_slice, share, sizes.min_slices),
            Clients::Queue(c) => timed_pass(sut, c, per_slice, share, sizes.min_slices),
        };
        timed.absorb(part);
        for cycle in 0..sizes.cycles_per_segment {
            let mut first_ok = true;
            let (recovery, worker) = crash_recover(sut, |w| {
                first_ok = first_op_after_recovery(w, clients, &mut drain);
            });
            recoveries.push(recovery);
            out.count(1, u64::from(!first_ok));
            // Once every acknowledged op of the run is in: the whole
            // durable state against the oracles.
            if segment + 1 == sizes.segments && cycle == 0 {
                let (checked, wrong) = verify_durable_state(spec, &worker, clients, &mut drain);
                out.count(checked, wrong);
            }
        }
    }
    timed.counters = sut.counters().since(&before);
    if let Clients::Queue(c) = clients {
        // The books close over the workers' views and the drain's.
        let mut views: Vec<QueueCheck> = c.iter().map(|c| c.oracle.clone()).collect();
        views.push(drain);
        out.count(1, QueueCheck::reconcile(&views));
    }
    Crashes { recoveries, timed }
}

/// The reopened root's first operation: a read where the structure has
/// one (checked against the model), else a dequeue (checked as the
/// drain's).
fn first_op_after_recovery(worker: &Worker, clients: &Clients<'_>, drain: &mut QueueCheck) -> bool {
    match clients {
        Clients::Keys(c) => {
            let got = worker.apply(Op::keyed(OpKind::MapGet, 1));
            got.expect("recovered") == c[owner(1)].oracle.value(1)
        }
        Clients::Queue(_) => {
            let got = worker.apply(Op::keyed(OpKind::QueueDequeue, 0));
            let got = got.expect("recovered");
            got == 0 || drain.consume(got)
        }
    }
}

/// After the first crash of a steady workload: every map key must read
/// what its owner's model holds; the queue must drain to exactly what
/// was enqueued and not yet dequeued. Returns `(checked, wrong)`.
fn verify_durable_state(
    spec: &Spec,
    worker: &Worker,
    clients: &Clients<'_>,
    drain: &mut QueueCheck,
) -> (u64, u64) {
    match clients {
        Clients::Keys(c) => {
            let wrong = (1..=spec.keys)
                .filter(|&key| {
                    let got = worker.apply(Op::keyed(OpKind::MapGet, key));
                    got.expect("recovered") != c[owner(key)].oracle.value(key)
                })
                .count();
            (u64::from(spec.keys), wrong as u64)
        }
        Clients::Queue(_) => {
            let (mut drained, mut wrong) = (0, 0);
            loop {
                let got = worker.apply(Op::keyed(OpKind::QueueDequeue, 0));
                match got.expect("recovered") {
                    0 => return (drained, wrong),
                    v => {
                        drained += 1;
                        wrong += u64::from(!drain.consume(v));
                    }
                }
            }
        }
    }
}

/// Throughput of the 2-worker pass, and how it was reduced: every
/// stream of rate samples (a steady workload's workers; `churn_crash`'s
/// cycles) reduced by [`steady`], summed over the streams — closed-loop
/// clients' rates add.
fn throughput(timed: &Timed) -> (f64, String) {
    let streams = &timed.rate_streams;
    let widest = streams.iter().map(|s| spread(s)).fold(0.0, f64::max);
    (
        streams.iter().map(|s| steady(s)).sum(),
        format!(
            "host_ops_per_s: {} stream(s) of {} samples; sum of plain medians {:.0}, widest quartile distance {:.1}%",
            streams.len(),
            streams[0].len(),
            streams.iter().map(|s| median(s)).sum::<f64>(),
            widest * 100.0
        ),
    )
}

/// `--trace 0`: every end-to-end metric.
pub fn end_to_end(spec: &Spec, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    reset_peak_rss();

    // Setup, several times; the last one is the cluster the timed pass
    // uses. (Earlier ones are dropped first, so peak memory is one
    // deployment's.)
    let mut setups = Vec::with_capacity(sizes.setup_reps);
    let mut last = None;
    for _ in 0..sizes.setup_reps {
        drop(last.take());
        let s = setup(spec, seed, sizes);
        setups.push(s.secs);
        last = Some(s);
    }
    let Setup { sut, tapes, .. } = last.expect("at least one setup");
    out.values.set("setup_s", median(&setups));
    out.notes.push(format!(
        "setup_s: median of {} setups, quartile distance {:.1}%",
        setups.len(),
        spread(&setups) * 100.0
    ));

    // Sim pass: one thread, fresh cluster, exact simulated time per op —
    // under FliT and, for the transformation's cost, with no persistence.
    let ops = sizes.replay_ops as f64;
    let (flit, mut per_op) = sim_pass(spec, seed, &tapes, sizes.replay_ops, Mode::FlitCxl0);
    out.count(flit.attempted, flit.failed);
    let flit_ns = flit.counters.sim_ns as f64 / ops;
    per_op.sort_unstable();
    out.values.set("sim_ns_per_op", flit_ns);
    out.values
        .set("sim_p50_ns", f64::from(quantile_sorted(&per_op, 0.5)));
    out.values
        .set("sim_p99_ns", f64::from(quantile_sorted(&per_op, 0.99)));
    out.values
        .set("sim_p999_ns", f64::from(quantile_sorted(&per_op, 0.999)));
    out.values
        .set("flushes_per_op", flit.counters.flushes as f64 / ops);
    drop((flit, per_op));
    let (none, _) = sim_pass(spec, seed, &tapes, sizes.replay_ops, Mode::None);
    out.count(none.attempted, none.failed);
    out.values.set(
        "persist_overhead_x",
        flit_ns / (none.counters.sim_ns as f64 / ops),
    );
    drop(none);

    // Timed pass: instruments off, 2 closed-loop workers.
    let mut clients = Clients::new(spec, seed, &tapes);
    let crashes = two_worker_pass(spec, seed, sizes, &sut, &mut clients, seconds, &mut out);
    out.count(clients.attempted(), clients.failed());
    let (rate, note) = throughput(&crashes.timed);
    out.values.set("host_ops_per_s", rate);
    out.notes.push(note);
    let ms: Vec<f64> = crashes.recoveries.iter().map(|r| r.recover_ms).collect();
    out.values.set("recover_ms", steady(&ms));
    out.notes.push(format!(
        "recover_ms: {} recoveries; median {:.4}, quartile distance {:.1}%",
        ms.len(),
        median(&ms),
        spread(&ms) * 100.0
    ));
    out.values.set(
        "recover_sim_us",
        median_of(&crashes.recoveries, |r| r.recover_sim_us),
    );
    out.values.set("peak_rss_mb", peak_rss_mb());
    out
}

/// `--trace 1`: every per-layer metric. The instruments of this run are
/// the benchmark's own spans around each call into `ds`, the layer
/// probes, the runtime's tracer and its sanitizer — each on its own
/// replay of the same ops, beside an uninstrumented one, so each
/// instrument's overhead is a ratio of two measured replays.
pub fn per_layer(spec: &Spec, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let Setup {
        sut,
        tapes,
        gen_ops_per_s,
        ..
    } = setup(spec, seed, sizes);
    out.values.set("harness.gen_ops_per_s", gen_ops_per_s);
    let n = sizes.replay_ops;
    let ops = n as f64;

    // flit: the same tape under every sound strategy.
    let mut flit_counters = None;
    for mode in Mode::ALL {
        let (pass, _) = sim_pass(spec, seed, &tapes, n, mode);
        out.count(pass.attempted, pass.failed);
        let name = mode.name();
        out.values.set(
            format!("flit.sim_ns_per_op.{name}"),
            pass.counters.sim_ns as f64 / ops,
        );
        out.values.set(
            format!("flit.flushes_per_op.{name}"),
            pass.counters.flushes as f64 / ops,
        );
        if mode == Mode::FlitCxl0 {
            flit_counters = Some(pass.counters);
        }
    }
    // Per-op call counts of each layer: from the single-thread FliT
    // replay, where they repeat exactly.
    let exact = flit_counters.expect("FlitCxl0 is one of the modes");
    out.values
        .set("backend.prims_per_op", exact.prims as f64 / ops);
    out.values
        .set("alloc.allocs_per_op", exact.allocs as f64 / ops);
    out.values
        .set("alloc.frees_per_op", exact.frees as f64 / ops);
    out.values.set("smr.pins_per_op", exact.pins as f64 / ops);
    out.values
        .set("smr.retires_per_op", exact.retires as f64 / ops);

    // The workload itself, instruments off, for a quarter of the run:
    // reclamation behaviour and wasted work under two workers.
    let mut clients = Clients::new(spec, seed, &tapes);
    let crashes = two_worker_pass(
        spec,
        seed,
        sizes,
        &sut,
        &mut clients,
        seconds / 4.0,
        &mut out,
    );
    out.count(clients.attempted(), clients.failed());
    let two = &crashes.timed;
    let c = two.counters;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.values
        .set("alloc.freelist_hit_ratio", ratio(c.freelist_hits, c.allocs));
    out.values.set("alloc.hw_cells", c.hw_cells as f64);
    out.values.set("alloc.live_cells_end", c.live_cells as f64);
    out.values
        .set("smr.reclaims_per_retire", ratio(c.reclaims, c.retires));
    out.values.set("smr.advances", c.advances as f64);
    out.values.set("smr.limbo_max", two.limbo_max as f64);
    out.values.set(
        "backend.crash_ms",
        median_of(&crashes.recoveries, |r| r.crash_ms),
    );
    out.values.set(
        "recovery.limbo_at_crash",
        median_of(&crashes.recoveries, |r| r.limbo_at_crash as f64),
    );
    out.values.set(
        "recovery.reopen_us",
        median_of(&crashes.recoveries, |r| r.reopen_us),
    );
    out.values.set(
        "recovery.sealed_roots",
        median_of(&crashes.recoveries, |r| r.sealed_roots as f64),
    );
    drop((clients, sut));

    // Four replays of the same ops: plain, with the benchmark's spans,
    // with the runtime's tracer armed, with its sanitizer armed.
    let bare = |instrument| replay(spec, seed, &tapes, n, Mode::FlitCxl0, instrument, |_, _| {});
    let plain = bare(Instrument::Off);
    let mut spans = Recorder::new();
    let spanned = spanned_replay(spec, seed, &tapes, n, &mut spans);
    let traced = bare(Instrument::Tracer);
    let checked = bare(Instrument::Sanitizer);
    for r in [&plain, &spanned, &traced, &checked] {
        out.count(r.attempted, r.failed);
    }
    for kind in OpKind::ALL {
        let (host, sim, prims) = spans.medians(kind.name());
        let op = kind.name();
        out.values.set(format!("ds.{op}.host_ns"), host);
        out.values.set(format!("ds.{op}.sim_ns"), sim);
        out.values.set(format!("ds.{op}.prims"), prims);
    }
    out.values
        .set("harness.span_overhead_x", spanned.host_s / plain.host_s);
    out.values
        .set("trace.armed_overhead_x", traced.host_s / plain.host_s);
    out.values.set(
        "trace.dropped_events",
        traced.sut.counters().trace_dropped as f64,
    );
    out.values
        .set("check.armed_overhead_x", checked.host_s / plain.host_s);
    let violations = checked.sut.counters().violations;
    out.values.set("check.violations", violations as f64);
    // A sanitizer report under the sound FliT mode is a durability bug.
    out.count(1, violations);

    // Wasted work: primitives per op with two workers against one.
    let prims_2t = ratio(two.op_prims, two.ops);
    out.values.set(
        "ds.retry_ratio_2t",
        prims_2t / (plain.counters.prims as f64 / ops),
    );

    // recovery: the runtime's own phase breakdown needs the tracer, so
    // these four come from crash cycles (of the workload's own kind) on
    // the traced cluster; the other recovery metrics were taken above,
    // with the instruments off.
    let recoveries = traced_recoveries(spec, seed, sizes, &tapes, &traced);
    let phase = |f: fn(&crate::sut::PhaseUs) -> f64| {
        median_of(&recoveries, |r| r.phases.as_ref().map_or(0.0, f))
    };
    out.values
        .set("recovery.buffered_replay_us", phase(|p| p.buffered_replay));
    out.values
        .set("recovery.allocator_sweep_us", phase(|p| p.allocator_sweep));
    out.values
        .set("recovery.smr_drain_us", phase(|p| p.smr_drain));
    out.values
        .set("recovery.registry_seal_us", phase(|p| p.registry_seal));
    drop((plain, spanned, traced, checked));

    // The harness alone: the replay loop with no operation issued.
    let mut dry = Clients::new(spec, seed, &tapes[..1]);
    let t = Instant::now();
    std::hint::black_box(match &mut dry {
        Clients::Keys(c) => c[0].dry_run(n),
        Clients::Queue(c) => c[0].dry_run(n),
    });
    out.values.set(
        "harness.loop_ns_per_op",
        t.elapsed().as_nanos() as f64 / ops,
    );

    // Layer probes, and from them each layer's estimated share of the
    // workers' host time: calls on this workload × the probe's cost of
    // one call (less the primitives inside it, which are the backend's)
    // ÷ the workers' busy time. What is left is the structures' own
    // logic (with FliT's and the harness's).
    let costs = probes::run(spec, sizes, &mut spans, &mut out.values);
    let busy_ns = two.wall_s * 1e9 * WORKERS as f64;
    let share = |calls: u64, ns: f64| (calls as f64 * ns / busy_ns).min(1.0);
    let backend = share(two.op_prims, costs.host_ns_per_prim);
    let alloc = share(c.allocs.max(c.frees), costs.alloc_pair_self_ns);
    let smr = (share(c.pins, costs.pin_ns) + share(c.retires, costs.retire_self_ns)).min(1.0);
    out.values.set("backend.host_share", backend);
    out.values.set("alloc.host_share", alloc);
    out.values.set("smr.host_share", smr);
    out.values
        .set("ds.self_host_share", (1.0 - backend - alloc - smr).max(0.0));

    let path = out_dir().join(format!("{}.trace.json", spec.name));
    if let Err(e) = spans.write_chrome(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
    out
}

/// The replay with the benchmark's own span around every call into
/// `ds`: host time from the recorder's clock, simulated time and
/// primitives from the fabric's counters, sampled at each op boundary.
fn spanned_replay(
    spec: &Spec,
    seed: u64,
    tapes: &[Vec<Op>],
    n: usize,
    spans: &mut Recorder,
) -> Replay {
    let parent = spans.open("ds.replay");
    let (mut t0, mut sim0, mut prims0) = (0, 0, 0);
    let replay = replay(
        spec,
        seed,
        tapes,
        n,
        Mode::FlitCxl0,
        Instrument::Off,
        |sut, op| {
            let now = spans.now_ns();
            let (sim, prims) = sut.sim_and_prims();
            if let Some(op) = op {
                spans.push(Span {
                    name: op.kind.name(),
                    parent,
                    start_ns: t0,
                    host_ns: now - t0,
                    sim_ns: sim - sim0,
                    prims: prims - prims0,
                });
            }
            (t0, sim0, prims0) = (spans.now_ns(), sim, prims);
        },
    );
    spans.close(parent, replay.counters.sim_ns, replay.counters.prims);
    replay
}

/// Crash/recover cycles on the tracer-armed cluster, so the runtime's
/// `PhaseTiming` can be read: the workload's own crash cycles for
/// `churn_crash`, memory-node crashes of the loaded heap otherwise.
fn traced_recoveries(
    spec: &Spec,
    seed: u64,
    sizes: &Sizes,
    tapes: &[Vec<Op>],
    traced: &Replay,
) -> Vec<Recovery> {
    let cycles = sizes.cycles_per_segment.min(5);
    if !spec.crash_cycles {
        let first = match spec.structure {
            Structure::Queue => Op::keyed(OpKind::QueueDequeue, 0),
            _ => Op::keyed(OpKind::MapGet, 1),
        };
        return (0..cycles)
            .map(|_| {
                crash_recover(&traced.sut, |w| {
                    w.apply(first).expect("recovered");
                })
                .0
            })
            .collect();
    }
    // A fresh traced cluster: the replay above moved the list away from
    // what fresh models expect.
    let sut = build_loaded(spec, seed, Mode::FlitCxl0, Instrument::Tracer);
    let Clients::Keys(mut clients) = Clients::new(spec, seed, tapes) else {
        unreachable!("the crash-cycle workload drives the list");
    };
    let per_cycle = slice_ops(spec, sizes);
    (0..cycles)
        .map(|i| churn_cycle(&sut, spec.keys, &mut clients, per_cycle, churn_victim(i)).recovery)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::workload::{specs, CHURN_CRASH, KV_READ_HEAVY, KV_UPDATE_HEAVY, QUEUE_HANDOFF};

    /// Same seed → bit-identical sim-pass metrics (counters and the
    /// whole per-op distribution), with no failed operation.
    #[test]
    fn sim_pass_repeats_exactly_for_one_seed() {
        let sizes = Sizes::quick();
        for spec in specs() {
            let (tapes, _) = tapes(&spec, 5, &sizes);
            let (a, per_op_a) = sim_pass(&spec, 5, &tapes, 2_000, Mode::FlitCxl0);
            let (b, per_op_b) = sim_pass(&spec, 5, &tapes, 2_000, Mode::FlitCxl0);
            assert_eq!(a.counters, b.counters, "{}", spec.name);
            assert_eq!(per_op_a, per_op_b, "{}", spec.name);
            assert_eq!((a.attempted, a.failed), (2_000, 0), "{}", spec.name);
            assert_eq!(
                per_op_a.iter().map(|v| u64::from(*v)).sum::<u64>(),
                a.counters.sim_ns,
                "{}: per-op values add up to the pass",
                spec.name
            );
        }
    }

    /// Every workload runs clean end to end at `--quick` sizes, reports
    /// every end-to-end metric, and none of them is 0.
    #[test]
    fn quick_end_to_end_runs_are_clean_and_complete() {
        for spec in specs() {
            let out = end_to_end(&spec, 3, 0.2, &Sizes::quick());
            assert_eq!(out.failed, 0, "{}", spec.name);
            assert!(out.attempted > 0);
            for m in metrics::end_to_end() {
                let v = out.values.get(&m.name);
                assert!(
                    v.is_some_and(|v| v > 0.0),
                    "{}: {} = {v:?}",
                    spec.name,
                    m.name
                );
            }
        }
    }

    /// The layers separate as the README predicts, the sanitizer stays
    /// silent under FliT, and the history anchor holds.
    #[test]
    fn quick_per_layer_runs_separate_the_layers() {
        for spec in specs() {
            let out = per_layer(&spec, 3, 0.4, &Sizes::quick());
            let get = |name: &str| {
                out.values
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} unset"))
            };
            assert_eq!(out.failed, 0, "{}", spec.name);
            assert_eq!(get("check.violations"), 0.0, "{}", spec.name);
            assert_eq!(get("backend.sim_anchor_ok"), 1.0);
            assert!(get("flit.sim_ns_per_op.flit-cxl0") >= get("flit.sim_ns_per_op.none"));
            assert!(get("trace.armed_overhead_x") > 0.0 && get("harness.loop_ns_per_op") > 0.0);
            match spec.name {
                QUEUE_HANDOFF => {
                    assert_eq!(get("smr.pins_per_op"), 0.0);
                    assert!(get("alloc.allocs_per_op") > 0.4);
                    assert!(get("flit.flushes_per_op.flit-cxl0") >= 4.0);
                    assert!(get("ds.queue_enqueue.prims") > 0.0);
                    assert_eq!(out.values.get("ds.map_get.prims"), Some(0.0));
                }
                KV_READ_HEAVY | KV_UPDATE_HEAVY => {
                    assert_eq!(get("alloc.allocs_per_op"), 0.0);
                    assert_eq!(get("smr.pins_per_op"), 1.0);
                    assert!(get("ds.map_get.sim_ns") > 0.0);
                }
                CHURN_CRASH => {
                    assert!(get("smr.pins_per_op") >= 1.0);
                    assert!(get("smr.retires_per_op") > 0.1);
                    assert!(get("recovery.limbo_at_crash") > 0.0);
                    assert!(get("recovery.smr_drain_us") > 0.0);
                }
                other => panic!("no expectations for {other}"),
            }
            // Every metric set is one the registry knows.
            let known: Vec<String> = metrics::per_layer().into_iter().map(|m| m.name).collect();
            assert!(out.values.names().all(|n| known.iter().any(|k| k == n)));
        }
    }
}
