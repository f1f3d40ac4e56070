//! The metric registry — the single list of names, units, directions and
//! bounds. `BENCHMARK.json` is this list printed (`manifest`
//! subcommand; a test keeps the file equal to it), the contract line is
//! this list looked up in a run's values, and `compare` reads its
//! bounds from here.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::sut::Mode;
use crate::workload::{specs, OpKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. `sim_*` are simulated nanoseconds of
/// a single-thread pass: they repeat exactly for one seed, and their
/// bounds only have to cover how much a *different* seed's tape moves
/// them (README, "Bounds").
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let bounded = |name: &str, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", Lower, 0.25),
        bounded("host_ops_per_s", "ops/s", Higher, 0.25),
        bounded("peak_rss_mb", "MB", Lower, 0.05),
        bounded("sim_ns_per_op", "sim_ns", Lower, 0.03),
        bounded("sim_p50_ns", "sim_ns", Lower, 0.03),
        bounded("sim_p99_ns", "sim_ns", Lower, 0.03),
        bounded("sim_p999_ns", "sim_ns", Lower, 0.03),
        bounded("flushes_per_op", "flushes/op", Lower, 0.05),
        bounded("persist_overhead_x", "x", Lower, 0.02),
        bounded("recover_ms", "ms", Lower, 0.25),
        bounded("recover_sim_us", "sim_us", Lower, 0.10),
    ]
}

/// Mode names as the runtime reports them.
fn mode_names() -> Vec<&'static str> {
    Mode::ALL.iter().map(|m| m.name()).collect()
}

pub const PRIMITIVE_KINDS: [&str; 10] = [
    "load", "lstore", "rstore", "mstore", "lflush", "rflush", "cas", "faa", "aflush", "barrier",
];

pub const FLIT_FNS: [&str; 3] = ["shared_load", "shared_store", "shared_cas"];

/// One layer at a time, in the runtime's own order.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut v = vec![
        def("backend.prims_per_op", "prims/op", Lower),
        def("backend.host_share", "share", Lower),
        def("backend.crash_ms", "ms", Lower),
        def("backend.host_ns_per_prim", "ns", Lower),
        def("backend.sim_ns_per_prim", "sim_ns", Lower),
    ];
    for kind in PRIMITIVE_KINDS {
        v.push(def(format!("backend.host_ns.{kind}"), "ns", Lower));
    }
    v.push(def("backend.scale_2t_x", "x", Higher));
    v.push(def("backend.sim_anchor_ok", "bool", Higher));

    for mode in mode_names() {
        v.push(def(format!("flit.sim_ns_per_op.{mode}"), "sim_ns", Lower));
    }
    for mode in mode_names() {
        v.push(def(
            format!("flit.flushes_per_op.{mode}"),
            "flushes/op",
            Lower,
        ));
    }
    for f in FLIT_FNS {
        v.push(def(format!("flit.host_ns.{f}"), "ns", Lower));
    }
    for f in FLIT_FNS {
        v.push(def(format!("flit.sim_ns.{f}"), "sim_ns", Lower));
    }
    v.push(def("flit.flushes_per_store", "flushes", Lower));

    v.extend([
        def("alloc.allocs_per_op", "allocs/op", Lower),
        def("alloc.frees_per_op", "frees/op", Lower),
        def("alloc.freelist_hit_ratio", "ratio", Higher),
        def("alloc.hw_cells", "cells", Lower),
        def("alloc.live_cells_end", "cells", Lower),
        def("alloc.host_share", "share", Lower),
        def("alloc.host_ns_per_pair", "ns", Lower),
        def("alloc.sim_ns_per_pair", "sim_ns", Lower),
        def("alloc.prims_per_pair", "prims", Lower),
        def("smr.pins_per_op", "pins/op", Lower),
        def("smr.retires_per_op", "retires/op", Lower),
        def("smr.reclaims_per_retire", "ratio", Higher),
        def("smr.advances", "count", Higher),
        def("smr.limbo_max", "blocks", Lower),
        def("smr.host_share", "share", Lower),
        def("smr.host_ns_per_pin", "ns", Lower),
        def("smr.host_ns_per_retire", "ns", Lower),
        def("smr.sim_ns_per_retire", "sim_ns", Lower),
    ]);

    for kind in OpKind::ALL {
        let op = kind.name();
        v.push(def(format!("ds.{op}.host_ns"), "ns", Lower));
        v.push(def(format!("ds.{op}.sim_ns"), "sim_ns", Lower));
        v.push(def(format!("ds.{op}.prims"), "prims", Lower));
    }
    v.extend([
        def("ds.retry_ratio_2t", "x", Lower),
        def("ds.self_host_share", "share", Lower),
        def("api.cluster_build_ms", "ms", Lower),
        def("api.session_open_us", "us", Lower),
        def("api.create_root_us", "us", Lower),
        def("api.open_root_us", "us", Lower),
        def("recovery.buffered_replay_us", "us", Lower),
        def("recovery.allocator_sweep_us", "us", Lower),
        def("recovery.smr_drain_us", "us", Lower),
        def("recovery.registry_seal_us", "us", Lower),
        def("recovery.reopen_us", "us", Lower),
        def("recovery.sealed_roots", "count", Lower),
        def("recovery.limbo_at_crash", "blocks", Higher),
        def("trace.armed_overhead_x", "x", Lower),
        def("trace.dropped_events", "count", Lower),
        def("check.armed_overhead_x", "x", Lower),
        def("check.violations", "count", Lower),
        def("harness.gen_ops_per_s", "ops/s", Higher),
        def("harness.loop_ns_per_op", "ns", Lower),
        def("harness.span_overhead_x", "x", Lower),
    ]);
    v
}

/// The benchmark's own command, as `BENCHMARK.json` names it; the
/// driver appends `--workload W --seed S --seconds N --trace T`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "bench",
];

/// How long one run measures (`--seconds`), fixed by the benchmark.
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, from the registry.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name", Json::Str(m.name.clone())),
            ("unit", Json::Str(m.unit.into())),
            ("better", Json::Str(m.better.as_str().into())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::object(fields)
    };
    Json::object(vec![
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::Str((*s).into())).collect()),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                specs()
                    .iter()
                    .map(|s| {
                        Json::object(vec![
                            ("name", Json::Str(s.name.into())),
                            ("why", Json::Str(s.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

/// The values one run measured, by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "{name} is not a number: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &String> {
        self.0.keys()
    }

    /// The contract's `metrics` object: every metric of `defs`, in
    /// registry order. A per-layer metric a workload has no path
    /// through reads 0 (the README says which); an end-to-end metric
    /// must have been measured.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing — a bug in the passes.
    pub fn to_contract(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let value = match (self.get(&d.name), d.bound) {
                        (Some(v), _) => v,
                        (None, None) => 0.0,
                        (None, Some(_)) => panic!("end-to-end metric {} was not measured", d.name),
                    };
                    (
                        d.name.clone(),
                        Json::object(vec![
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut seen = std::collections::HashSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name.clone()), "{} is used twice", m.name);
        }
        for m in &e2e {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(layers.iter().all(|m| m.bound.is_none()));
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert_eq!(
            setup.bound,
            e2e.iter().filter_map(|m| m.bound).reduce(f64::max),
            "setup_s has the largest bound"
        );
        let workloads = specs();
        assert!((2..=8).contains(&workloads.len()));
        for w in &workloads {
            assert!(name_ok(w.name) && seen.insert(w.name.to_string()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// `BENCHMARK.json` at the repository root is the registry, printed.
    #[test]
    fn benchmark_json_on_disk_is_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        assert!(on_disk.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(&on_disk).expect("valid JSON"),
            manifest(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn contract_object_fills_idle_layers_with_zero_and_demands_end_to_end() {
        let mut v = Values::default();
        v.set("backend.prims_per_op", 24.0);
        let obj = v.to_contract(&per_layer());
        assert_eq!(
            obj.get("backend.prims_per_op").and_then(|m| m.get("value")),
            Some(&Json::Num(24.0))
        );
        assert_eq!(
            obj.get("alloc.hw_cells").and_then(|m| m.get("value")),
            Some(&Json::Num(0.0))
        );
        let missing = std::panic::catch_unwind(|| Values::default().to_contract(&end_to_end()));
        assert!(missing.is_err());
    }
}
