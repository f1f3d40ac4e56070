//! Layer probes: direct timed calls into each layer's public functions,
//! on a small cluster of their own (the `churn_crash` layout: registry
//! three-quarters full). They give a per-call cost from outside; with a
//! workload's call counts that becomes the layer's estimated share of
//! host time. All probes together take well under 2 s.

use std::hint::black_box;
use std::time::Instant;

use crate::metrics::{Values, FLIT_FNS, PRIMITIVE_KINDS};
use crate::spans::Recorder;
use crate::sut::{Cells, Instrument, Mode, Sut};
use crate::util::median;
use crate::workload::{spec, Sizes, Spec, CHURN_CRASH};

/// Cells each probing thread works on (the `LOCS_PER_THREAD` of the
/// recorded primitive sweep).
const BLOCK: u32 = 64;
/// The primitive mix of one unit: 8 primitives, plus one barrier every
/// 8 units — the unit of the recorded `BENCH_fabric.json` primitive row.
const PRIMS_PER_UNIT: u64 = 8;
const BARRIER_EVERY: u64 = 8;
/// What 150 000 units cost in simulated time on the recorded
/// single-thread primitive row (1 218 750 primitives).
const ANCHOR_UNITS: u64 = 150_000;
const ANCHOR_SIM_NS: u64 = 292_931_250;

/// Issues `units` units on `cells`; returns the primitives issued.
fn primitive_units(cells: &Cells, units: u64) -> u64 {
    let mut issued = 0;
    for i in 0..units {
        let a = (i % u64::from(BLOCK)) as u32;
        let b = ((i + 7) % u64::from(BLOCK)) as u32;
        cells.lstore(a, i);
        black_box(cells.load(a));
        cells.lflush(a);
        cells.rflush(a);
        cells.mstore(b, i);
        black_box(cells.load(b));
        black_box(cells.faa(b, 1));
        cells.aflush(a);
        issued += PRIMS_PER_UNIT;
        if i % BARRIER_EVERY == BARRIER_EVERY - 1 {
            cells.barrier();
            issued += 1;
        }
    }
    issued
}

/// Mean host ns per call of `f` over `iters` calls.
fn per_call(iters: usize, mut f: impl FnMut(u32)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i as u32 % BLOCK);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// What the probes measured beyond the metrics themselves: the costs
/// the share estimates are built from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    pub host_ns_per_prim: f64,
    pub alloc_pair_self_ns: f64,
    pub pin_ns: f64,
    pub retire_self_ns: f64,
}

/// Runs every probe, recording one span per probe and setting the
/// probe metrics. `workload` is the spec `api.cluster_build_ms` builds.
pub fn run(workload: &Spec, sizes: &Sizes, spans: &mut Recorder, out: &mut Values) -> Costs {
    let layout = spec(CHURN_CRASH).expect("the probe layout exists");
    let sut = Sut::build(&layout, Mode::FlitCxl0, Instrument::Off);
    let mut costs = Costs::default();

    // backend: the recorded unit, then each primitive kind on its own.
    let id = spans.open("backend.probe");
    let before = sut.counters();
    let cells = sut.cells(0, BLOCK).expect("the probe block fits");
    let after_alloc = sut.counters();
    let start = Instant::now();
    let issued = primitive_units(&cells, sizes.probe_units);
    let host_ns = start.elapsed().as_nanos() as f64;
    let delta = sut.counters().since(&after_alloc);
    assert_eq!(delta.prims, issued, "fabric counters aggregate exactly");
    costs.host_ns_per_prim = host_ns / issued as f64;
    out.set("backend.host_ns_per_prim", costs.host_ns_per_prim);
    out.set(
        "backend.sim_ns_per_prim",
        delta.sim_ns as f64 / issued as f64,
    );
    // The regression anchor: single-thread simulated time of the unit
    // must stay bit-identical to the recorded row. At other probe sizes
    // (--quick) the same per-unit cost is checked proportionally.
    let anchor_ok = u128::from(delta.sim_ns) * u128::from(ANCHOR_UNITS)
        == u128::from(ANCHOR_SIM_NS) * u128::from(sizes.probe_units)
        && sizes.probe_units.is_multiple_of(BARRIER_EVERY);
    out.set("backend.sim_anchor_ok", f64::from(u8::from(anchor_ok)));

    let n = sizes.probe_iters;
    let mut shadow = [0u64; BLOCK as usize];
    for name in PRIMITIVE_KINDS {
        let ns = match name {
            "load" => per_call(n, |i| {
                black_box(cells.load(i));
            }),
            "lstore" => per_call(n, |i| cells.lstore(i, 1)),
            "rstore" => per_call(n, |i| cells.rstore(i, 2)),
            "mstore" => per_call(n, |i| cells.mstore(i, 3)),
            "lflush" => per_call(n, |i| cells.lflush(i)),
            "rflush" => per_call(n, |i| cells.rflush(i)),
            "cas" => {
                // Every CAS succeeds: the probe tracks each cell's value.
                for i in 0..BLOCK {
                    cells.lstore(i, 0);
                }
                per_call(n, |i| {
                    let v = shadow[i as usize];
                    assert!(cells.cas(i, v, v + 1));
                    shadow[i as usize] = v + 1;
                })
            }
            "faa" => per_call(n, |i| {
                black_box(cells.faa(i, 1));
            }),
            "aflush" => per_call(n, |i| cells.aflush(i)),
            "barrier" => per_call(n, |_| cells.barrier()),
            other => unreachable!("no probe for primitive kind {other}"),
        };
        out.set(format!("backend.host_ns.{name}"), ns);
    }
    cells.barrier();

    // Two threads on disjoint blocks against one: how far the backend's
    // host cost scales on this machine.
    let units = (sizes.probe_units / 2).max(BARRIER_EVERY);
    let other = sut.cells(1, BLOCK).expect("the probe block fits");
    let t = Instant::now();
    primitive_units(&cells, units);
    let one = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| primitive_units(&cells, units));
        s.spawn(|| primitive_units(&other, units));
    });
    let two = t.elapsed().as_secs_f64();
    out.set("backend.scale_2t_x", 2.0 * one / two);
    let d = sut.counters().since(&before);
    spans.close(id, d.sim_ns, d.prims);

    // flit: the strategy's wrappers with the persist flag set.
    let id = spans.open("flit.probe");
    let before = sut.counters();
    for i in 0..BLOCK {
        cells.flit_store(i, 0);
    }
    let mut shadow = [0u64; BLOCK as usize];
    let mut flit_fn = |name: &str, f: &mut dyn FnMut(u32)| {
        let c0 = sut.counters();
        let ns = per_call(n, f);
        let d = sut.counters().since(&c0);
        out.set(format!("flit.host_ns.{name}"), ns);
        out.set(format!("flit.sim_ns.{name}"), d.sim_ns as f64 / n as f64);
        d.flushes as f64 / n as f64
    };
    flit_fn(FLIT_FNS[0], &mut |i| {
        black_box(cells.flit_load(i));
    });
    let flushes_per_store = flit_fn(FLIT_FNS[1], &mut |i| cells.flit_store(i, 0));
    flit_fn(FLIT_FNS[2], &mut |i| {
        let v = shadow[i as usize];
        assert!(cells.flit_cas(i, v, v + 1));
        shadow[i as usize] = v + 1;
    });
    out.set("flit.flushes_per_store", flushes_per_store);
    let d = sut.counters().since(&before);
    spans.close(id, d.sim_ns, d.prims);

    // alloc: alloc/free pairs at steady state (the freed block is the
    // next one handed out), over the 1-, 2- and 8-cell classes.
    let id = spans.open("alloc.probe");
    let memory = sut.memory(0);
    for class in [1, 2, 8] {
        memory.free(memory.alloc(class));
    }
    let before = sut.counters();
    let start = Instant::now();
    for class in [1, 2, 8] {
        for _ in 0..n {
            memory.free(black_box(memory.alloc(class)));
        }
    }
    let pairs = (3 * n) as f64;
    let pair_ns = start.elapsed().as_nanos() as f64 / pairs;
    let d = sut.counters().since(&before);
    out.set("alloc.host_ns_per_pair", pair_ns);
    out.set("alloc.sim_ns_per_pair", d.sim_ns as f64 / pairs);
    out.set("alloc.prims_per_pair", d.prims as f64 / pairs);
    costs.alloc_pair_self_ns = (pair_ns - d.prims as f64 / pairs * costs.host_ns_per_prim).max(0.0);
    spans.close(id, d.sim_ns, d.prims);

    // smr: pin + unpin (volatile: no primitives), then retire + the
    // collect passes that hand the blocks back.
    let id = spans.open("smr.probe");
    let before = sut.counters();
    let start = Instant::now();
    for _ in 0..n {
        memory.pin_unpin();
    }
    costs.pin_ns = start.elapsed().as_nanos() as f64 / n as f64;
    out.set("smr.host_ns_per_pin", costs.pin_ns);
    let batch = n.min(4096);
    let blocks: Vec<_> = (0..batch).map(|_| memory.alloc(2)).collect();
    let c0 = sut.counters();
    let start = Instant::now();
    for &b in &blocks {
        memory.retire(b);
    }
    while sut.limbo() > 0 {
        memory.collect();
    }
    let retire_ns = start.elapsed().as_nanos() as f64 / batch as f64;
    let dr = sut.counters().since(&c0);
    out.set("smr.host_ns_per_retire", retire_ns);
    out.set("smr.sim_ns_per_retire", dr.sim_ns as f64 / batch as f64);
    costs.retire_self_ns =
        (retire_ns - dr.prims as f64 / batch as f64 * costs.host_ns_per_prim).max(0.0);
    let d = sut.counters().since(&before);
    spans.close(id, d.sim_ns, d.prims);

    // api: what setup and reopening pay per call.
    let id = spans.open("api.probe");
    let before = sut.counters();
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            drop(black_box(Sut::build(
                workload,
                Mode::FlitCxl0,
                Instrument::Off,
            )));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("api.cluster_build_ms", median(&builds));
    let opens = n.min(1000);
    let t = Instant::now();
    for _ in 0..opens {
        sut.open_session(0);
    }
    out.set(
        "api.session_open_us",
        t.elapsed().as_secs_f64() * 1e6 / opens as f64,
    );
    let creates = 8;
    let t = Instant::now();
    for i in 0..creates {
        sut.create_counter(&format!("bench/probe{i}"));
    }
    out.set(
        "api.create_root_us",
        t.elapsed().as_secs_f64() * 1e6 / f64::from(creates),
    );
    let last_filler = format!("bench/pad{:02}", layout.filler_roots - 1);
    let lookups = n.min(200);
    let t = Instant::now();
    for _ in 0..lookups {
        sut.open_counter(&last_filler);
    }
    out.set(
        "api.open_root_us",
        t.elapsed().as_secs_f64() * 1e6 / lookups as f64,
    );
    let d = sut.counters().since(&before);
    spans.close(id, d.sim_ns, d.prims);

    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::per_layer;
    use crate::workload::QUEUE_HANDOFF;

    #[test]
    fn probes_set_every_probe_metric_and_hold_the_anchor() {
        let mut out = Values::default();
        let mut spans = Recorder::new();
        let workload = spec(QUEUE_HANDOFF).unwrap();
        let costs = run(&workload, &Sizes::quick(), &mut spans, &mut out);
        assert_eq!(out.get("backend.sim_anchor_ok"), Some(1.0));
        assert!(costs.host_ns_per_prim > 0.0 && costs.pin_ns > 0.0);
        // 14 backend, 7 flit, 3 alloc, 3 smr and 4 api metrics, all of
        // them names the registry knows.
        let set: Vec<_> = per_layer()
            .into_iter()
            .filter(|m| out.get(&m.name).is_some())
            .collect();
        assert_eq!(set.len(), 31, "{set:?}");
        for layer in ["backend.", "flit.", "alloc.", "smr.", "api."] {
            assert!(set.iter().any(|m| m.name.starts_with(layer)), "{layer}");
        }
        assert!(out.get("flit.flushes_per_store").unwrap() >= 1.0);
        assert_eq!(
            out.get("smr.sim_ns_per_retire").map(|v| v > 0.0),
            Some(true)
        );
        assert_eq!(spans.spans().len(), 5);
    }
}
