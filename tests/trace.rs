//! Tier-1 coverage for the runtime tracer (`cxl0::trace`): histogram
//! merge correctness against a single-threaded oracle, crash-coherent
//! export (parseable Chrome JSON, per-thread simulated-time
//! monotonicity, incarnation separation), the tracing-off no-op
//! contract, percentile gauges through the stats snapshot, and the
//! recovery-phase breakdown.

use std::sync::Arc;

use cxl0::api::{ApiError, Cluster, PersistMode};
use cxl0::model::{MachineId, SystemConfig};
use cxl0::trace::{LatencyHistogram, OpKind, RecoveryPhase, TraceConfig};
use proptest::prelude::*;

// ---- a minimal JSON reader --------------------------------------------
//
// The workspace has no JSON dependency (exports are hand-rolled), so the
// test brings its own recursive-descent parser: enough JSON to fully
// validate the Chrome trace-event output, strict about syntax.

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Some(Json::Num(n)) => *n,
            other => panic!("expected number at {key:?}, got {other:?}"),
        }
    }

    fn str(&self, key: &str) -> &str {
        match self.get(key) {
            Some(Json::Str(s)) => s,
            other => panic!("expected string at {key:?}, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert!(
            self.i < self.s.len() && self.s[self.i] == b,
            "expected {:?} at byte {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        assert!(self.i < self.s.len(), "unexpected end of JSON");
        self.s[self.i]
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut kv = Vec::new();
        if self.peek() == b'}' {
            self.i += 1;
            return Json::Obj(kv);
        }
        loop {
            self.ws();
            let k = self.string();
            self.eat(b':');
            kv.push((k, self.value()));
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                c => panic!("expected ',' or '}}', got {:?}", c as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut vs = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return Json::Arr(vs);
        }
        loop {
            vs.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(vs);
                }
                c => panic!("expected ',' or ']', got {:?}", c as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            assert!(self.i < self.s.len(), "unterminated string");
            match self.s[self.i] {
                b'"' => {
                    self.i += 1;
                    return out;
                }
                b'\\' => {
                    self.i += 1;
                    match self.s[self.i] {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i + 1..self.i + 5]).unwrap();
                            let code = u32::from_str_radix(hex, 16).unwrap();
                            out.push(char::from_u32(code).unwrap());
                            self.i += 4;
                        }
                        e => panic!("bad escape \\{:?}", e as char),
                    }
                    self.i += 1;
                }
                c if c < 0x20 => panic!("raw control byte in string"),
                _ => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && self.s[self.i] != b'"'
                        && self.s[self.i] != b'\\'
                        && self.s[self.i] >= 0x20
                    {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Json {
        self.ws();
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }
}

// ---- histogram merge vs. single-threaded oracle ------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recording samples split across arbitrary per-thread histograms and
    /// merging gives exactly the histogram of recording them all in one —
    /// the property the cross-thread percentile gauges rely on.
    #[test]
    fn merged_histograms_match_single_threaded_oracle(
        samples in proptest::collection::vec((any::<u64>(), 0usize..8), 0..300),
    ) {
        let mut oracle = LatencyHistogram::new();
        let mut shards = vec![LatencyHistogram::new(); 8];
        for &(v, thread) in &samples {
            oracle.record(v);
            shards[thread].record(v);
        }
        let mut merged = LatencyHistogram::new();
        for shard in &shards {
            merged.merge(shard);
        }
        prop_assert_eq!(merged, oracle);
        prop_assert_eq!(merged.count(), samples.len() as u64);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            prop_assert_eq!(merged.quantile(q), oracle.quantile(q));
        }
    }
}

// ---- end-to-end trace tests -------------------------------------------

const MEM: MachineId = MachineId(2);

fn traced_cluster() -> Arc<Cluster> {
    Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 14))
        .persist(PersistMode::FlitCxl0)
        .with_tracing(TraceConfig::default())
        .build()
        .unwrap()
}

/// Crash mid-workload, keep working after recovery, and validate the
/// Chrome export end to end: it parses, events are grouped by
/// incarnation (`pid`) with the crash separating them, and each
/// thread's (`pid`, `tid`) op lane is monotonic in simulated time.
#[test]
fn crash_mid_trace_export_is_coherent() {
    let cluster = traced_cluster();
    let session = cluster.session(MachineId(0));
    let queue = session.create_queue::<u64>("q").unwrap();
    for i in 0..40 {
        queue.enqueue(&session, i).unwrap();
    }

    cluster.crash(MEM);
    cluster.recover(MEM);
    let session = cluster.session(MachineId(0));
    session.recover_roots().unwrap();
    let queue = session.open_queue::<u64>("q").unwrap();
    queue.recover(&session).unwrap();
    while queue.dequeue(&session).unwrap().is_some() {}

    let tracer = cluster.tracer().unwrap();
    assert_eq!(tracer.incarnation(), 1);
    let text = tracer.export_chrome_json();
    let events = match Parser::parse(&text) {
        Json::Arr(evs) => evs,
        other => panic!("Chrome export must be a JSON array, got {other:?}"),
    };
    assert!(!events.is_empty());

    let mut last_pid = 0.0f64;
    let mut last_sim: std::collections::HashMap<(u64, u64), u64> = std::collections::HashMap::new();
    let mut pids = std::collections::HashSet::new();
    for e in &events {
        // Schema: every event has the Chrome-required fields.
        let ph = e.str("ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph:?}");
        assert!(!e.str("name").is_empty());
        assert!(e.get("ts").is_some());
        let pid = e.num("pid");
        pids.insert(pid as u64);
        // Crash sealing: the export is grouped by incarnation — no
        // crashed-incarnation event interleaves after a newer one.
        assert!(pid >= last_pid, "incarnations interleave in the export");
        last_pid = pid;
        // Per-thread simulated time is cumulative rail time, so within
        // one incarnation each (pid, tid) op lane is monotonic.
        if e.str("cat") == "op" {
            let args = e.get("args").expect("op spans carry args");
            let sim = args.num("sim_start_ns") as u64;
            let key = (pid as u64, e.num("tid") as u64);
            if let Some(&prev) = last_sim.get(&key) {
                assert!(
                    sim >= prev,
                    "sim time went backwards on pid/tid {key:?}: {prev} -> {sim}"
                );
            }
            last_sim.insert(key, sim);
        }
    }
    assert_eq!(
        pids,
        [0u64, 1u64].into_iter().collect(),
        "both incarnations must appear"
    );
    // Both sides of the crash produced op spans.
    let recovery: Vec<&Json> = events
        .iter()
        .filter(|e| e.str("cat") == "recovery")
        .collect();
    assert_eq!(recovery.len(), RecoveryPhase::ALL.len());
    for r in &recovery {
        assert_eq!(
            r.num("pid") as u64,
            1,
            "recovery runs in the new incarnation"
        );
    }
}

/// Without arming, tracing must be a strict no-op: no tracer handle, no
/// gauge movement, and `export_trace` refuses cleanly.
#[test]
fn tracing_off_is_a_no_op() {
    let cluster = Cluster::builder(SystemConfig::symmetric_nvm(3, 1 << 14))
        .persist(PersistMode::FlitCxl0)
        .build()
        .unwrap();
    let session = cluster.session(MachineId(0));
    let queue = session.create_queue::<u64>("q").unwrap();
    for i in 0..10 {
        queue.enqueue(&session, i).unwrap();
    }
    assert!(cluster.tracer().is_none());
    let snap = session.stats_delta();
    assert_eq!(snap.trace_events, 0);
    assert_eq!(snap.trace_dropped, 0);
    assert_eq!(snap.trace_p99_sim_ns, 0);
    assert_eq!(
        cluster.export_trace("should-not-exist.json"),
        Err(ApiError::NoTracer)
    );
    assert!(!std::path::Path::new("should-not-exist.json").exists());
}

/// Percentile gauges surface through the ordinary stats snapshot, and
/// per-kind histograms record what actually ran.
#[test]
fn percentiles_flow_through_stats_snapshot() {
    let cluster = traced_cluster();
    let session = cluster.session(MachineId(0));
    let stack = session.create_stack::<u64>("s").unwrap();
    for i in 0..50 {
        stack.push(&session, i).unwrap();
    }
    for _ in 0..50 {
        stack.pop(&session).unwrap();
    }
    let tracer = cluster.tracer().unwrap();
    assert_eq!(tracer.histogram(OpKind::Push).count(), 50);
    assert_eq!(tracer.histogram(OpKind::Pop).count(), 50);
    assert_eq!(tracer.histogram(OpKind::Enqueue).count(), 0);
    // Durable ops take simulated time, so the percentiles are non-zero
    // and ordered.
    let h = tracer.histogram(OpKind::Push);
    assert!(h.p50() > 0);
    assert!(h.p50() <= h.p99() && h.p99() <= h.p999());

    let snap = session.stats_delta();
    assert!(snap.trace_events >= 100);
    assert!(snap.trace_p50_sim_ns > 0);
    assert!(snap.trace_p50_sim_ns <= snap.trace_p99_sim_ns);
    assert!(snap.trace_p99_sim_ns <= snap.trace_p999_sim_ns);

    // Push ops under FliT persist something: amplification counters land
    // in the exported spans.
    let evs = tracer.events();
    assert!(evs
        .iter()
        .any(|e| e.persist_acks > 0 || e.flushes > 0 || e.barriers > 0));
}

/// `recover_roots` produces a full, ordered phase breakdown every time,
/// even when phases have nothing to do.
#[test]
fn recovery_breakdown_has_every_phase() {
    let cluster = traced_cluster();
    let session = cluster.session(MachineId(0));
    session.create_counter("c").unwrap();
    let tracer = cluster.tracer().unwrap();
    assert!(tracer.recovery_breakdown().is_empty());

    cluster.crash(MEM);
    cluster.recover(MEM);
    let session = cluster.session(MachineId(0));
    session.recover_roots().unwrap();

    let phases: Vec<RecoveryPhase> = tracer
        .recovery_breakdown()
        .iter()
        .map(|t| t.phase)
        .collect();
    assert_eq!(phases, RecoveryPhase::ALL);

    // A second pass replaces, not appends: the breakdown stays one row
    // per phase.
    session.recover_roots().unwrap();
    assert_eq!(tracer.recovery_breakdown().len(), RecoveryPhase::ALL.len());
}
