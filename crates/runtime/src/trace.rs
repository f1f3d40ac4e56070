//! Op-level tracing, latency histograms and recovery-time telemetry.
//!
//! **Naming note:** this is the *runtime* tracer — spans, latency
//! percentiles and recovery phases of a live [`SimFabric`] workload.
//! The similarly named `cxl0_model::trace` module is unrelated: it holds
//! *model execution traces* (sequences of labelled transitions) used by
//! the litmus-test machinery and the protocol explorer. If you are
//! pretty-printing counter-example interleavings you want the model's
//! `Trace`; if you want to know your p99 enqueue latency you are in the
//! right place.
//!
//! ## Design
//!
//! The tracer is always compiled and strictly opt-in, mirroring the
//! [`check`](crate::check) sanitizer: a [`Tracer`] is installed on a
//! [`SimFabric`] once ([`SimFabric::install_tracer`]), usually via
//! [`ClusterBuilder::with_tracing`](crate::api::ClusterBuilder::with_tracing)
//! or the `CXL0_TRACE` environment variable. Without one installed,
//! every hook is a single `OnceLock` load on the hot path and **no new
//! atomic read-modify-write is issued anywhere** —
//! `tests/trace.rs::tracing_off_is_a_no_op` pins the contract, and the
//! benchmark's timed pass runs untraced (`trace.armed_overhead_x` is the
//! armed cost beside it).
//!
//! With a tracer armed:
//!
//! * **Per-thread recorders.** Each leased thread slot (the PR-4 rails;
//!   see `backend.rs`) owns a cache-line-padded slot recorder: a
//!   bounded ring of [`TraceEvent`]s plus per-[`OpKind`] log2 latency
//!   histograms, behind a mutex only its own thread locks on the hot
//!   path (exporters lock from outside). When a ring wraps, the oldest
//!   event is dropped and an explicit drop counter bumps — silent loss
//!   is not an option. Threads beyond the slot count share one overflow
//!   recorder, exactly like the stats rails.
//! * **Spans.** A structure op (`enqueue`, `pop`, `insert`, a combiner
//!   batch, an SMR collect…) opens a [`SpanGuard`] that samples the
//!   thread's stats rail on entry and exit: each event carries wall
//!   *and* simulated time, plus the op's flush/barrier/persist-ack
//!   deltas — the per-op *persist amplification*.
//! * **Histograms.** Latencies (simulated nanoseconds) are recorded in
//!   fixed 64-bucket log2 [`LatencyHistogram`]s, mergeable across
//!   threads; p50/p99/p999 surface through
//!   [`StatsSnapshot`](crate::StatsSnapshot) gauges.
//! * **Crash coherence.** [`SimFabric::crash`] seals the current
//!   *incarnation*: with the world stopped it drains every live ring
//!   into a retired-event buffer, so crashed-incarnation events are
//!   never interleaved into post-recovery spans. Exported events carry
//!   their incarnation (the Chrome `pid`), and histograms accumulate
//!   across crashes.
//! * **Recovery phases.** `Session::recover_roots` wraps each recovery
//!   phase (buffered replay, allocator sweep, SMR limbo drain, registry
//!   seal) in a [`PhaseGuard`]; the resulting [`PhaseTiming`] breakdown
//!   is queryable and exported alongside op spans.
//! * **Violations.** With both a sanitizer and a tracer installed,
//!   every [`Violation`](crate::check::Violation) also lands in the
//!   trace as an instant event with machine/thread provenance.
//!
//! ## Export formats
//!
//! [`Tracer::export_chrome_json`] emits a Chrome trace-event array
//! (load it in Perfetto or `chrome://tracing`): spans are `"ph":"X"`
//! complete events timed in wall microseconds, violations are instant
//! events, `pid` is the crash incarnation and `tid` the thread slot,
//! and each span's `args` carry the simulated-time and persist
//! attribution. [`Tracer::export_jsonl`] emits one self-describing JSON
//! object per line for ad-hoc analysis. [`Tracer::write_to`] picks the
//! format from the file extension (`.jsonl` vs anything else).
//!
//! See `docs/OBSERVABILITY.md` for the full tour, including measured
//! overhead numbers.
//!
//! [`SimFabric`]: crate::backend::SimFabric
//! [`SimFabric::install_tracer`]: crate::backend::SimFabric::install_tracer
//! [`SimFabric::crash`]: crate::backend::SimFabric::crash

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cxl0_model::{Loc, MachineId};
use parking_lot::Mutex;

use crate::backend::{thread_slot_index, RailProbe, Stats, RAIL_SLOTS};

/// Number of log2 buckets in a [`LatencyHistogram`] (covers the full
/// `u64` nanosecond range).
pub const HIST_BUCKETS: usize = 64;

/// Cap on events preserved from crashed incarnations across all slots;
/// beyond this, further crash-sealed events count as dropped.
const RETIRED_CAP: usize = 1 << 16;

/// Configuration for the runtime tracer.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Events retained per thread slot before the ring wraps (oldest
    /// dropped, counted). Default 4096.
    pub ring_capacity: usize,
    /// Where to export on [`Cluster`](crate::api::Cluster) drop; `None`
    /// keeps the trace queryable in-process only. A `.jsonl` suffix
    /// selects JSONL, anything else Chrome trace-event JSON.
    pub export_path: Option<String>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 4096,
            export_path: None,
        }
    }
}

impl TraceConfig {
    /// A config exporting to `path` on cluster drop.
    pub fn to_path(path: impl Into<String>) -> Self {
        TraceConfig {
            export_path: Some(path.into()),
            ..TraceConfig::default()
        }
    }
}

/// Structure-level operation kinds the tracer distinguishes (one latency
/// histogram each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpKind {
    /// Queue enqueue (direct or through a combining front).
    Enqueue = 0,
    /// Queue dequeue.
    Dequeue = 1,
    /// Stack push.
    Push = 2,
    /// Stack pop.
    Pop = 3,
    /// List/map insert.
    Insert = 4,
    /// List/map remove.
    Remove = 5,
    /// List/map lookup (`contains`/`get`).
    Get = 6,
    /// One combiner pass applying a batch of announced ops.
    CombineBatch = 7,
    /// One SMR reclamation attempt (epoch scan + limbo hand-back).
    SmrCollect = 8,
    /// A global-persistent-flush snapshot.
    GpfSnapshot = 9,
}

impl OpKind {
    /// Every op kind, in discriminant order.
    pub const ALL: [OpKind; 10] = [
        OpKind::Enqueue,
        OpKind::Dequeue,
        OpKind::Push,
        OpKind::Pop,
        OpKind::Insert,
        OpKind::Remove,
        OpKind::Get,
        OpKind::CombineBatch,
        OpKind::SmrCollect,
        OpKind::GpfSnapshot,
    ];

    /// Stable lower-case name, used in exports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Enqueue => "enqueue",
            OpKind::Dequeue => "dequeue",
            OpKind::Push => "push",
            OpKind::Pop => "pop",
            OpKind::Insert => "insert",
            OpKind::Remove => "remove",
            OpKind::Get => "get",
            OpKind::CombineBatch => "combine_batch",
            OpKind::SmrCollect => "smr_collect",
            OpKind::GpfSnapshot => "gpf_snapshot",
        }
    }
}

const OP_KINDS: usize = OpKind::ALL.len();

/// The phases of `Session::recover_roots`, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryPhase {
    /// Buffered-durability epoch replay/rollback (`PersistMode::Buffered`;
    /// a no-op phase under the synchronous strategies).
    BufferedReplay,
    /// Allocator recovery sweep (intent scan + free-list rebuild).
    AllocatorSweep,
    /// SMR limbo drain: voiding reservations and handing back retired
    /// blocks from before the crash.
    SmrDrain,
    /// Named-root registry seal: re-reading and validating the durable
    /// directory so roots can be reattached by name.
    RegistrySeal,
}

impl RecoveryPhase {
    /// Every phase, in execution order.
    pub const ALL: [RecoveryPhase; 4] = [
        RecoveryPhase::BufferedReplay,
        RecoveryPhase::AllocatorSweep,
        RecoveryPhase::SmrDrain,
        RecoveryPhase::RegistrySeal,
    ];

    /// Stable lower-case name, used in exports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPhase::BufferedReplay => "buffered_replay",
            RecoveryPhase::AllocatorSweep => "allocator_sweep",
            RecoveryPhase::SmrDrain => "smr_drain",
            RecoveryPhase::RegistrySeal => "registry_seal",
        }
    }
}

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A structure-operation span.
    Op(OpKind),
    /// A recovery-phase span.
    Recovery(RecoveryPhase),
    /// A sanitizer violation (instant event; the class name).
    Violation(&'static str),
}

impl EventKind {
    /// Stable event name, used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Op(k) => k.name(),
            EventKind::Recovery(p) => p.name(),
            EventKind::Violation(c) => c,
        }
    }

    /// Export category: `"op"`, `"recovery"` or `"violation"`.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::Op(_) => "op",
            EventKind::Recovery(_) => "recovery",
            EventKind::Violation(_) => "violation",
        }
    }
}

/// One recorded event: a span (op or recovery phase) or an instant
/// (violation), with wall- and simulated-time stamps and per-op persist
/// attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: EventKind,
    /// The recording thread's leased slot (the export `tid`); the
    /// overflow slot for threads beyond the rail count.
    pub slot: usize,
    /// The machine the op issued from, when known.
    pub machine: Option<MachineId>,
    /// Crash incarnation the event belongs to (0 until the first crash;
    /// the export `pid`). Crashed-incarnation events are sealed by the
    /// crash and never interleave with post-recovery spans.
    pub incarnation: u64,
    /// Wall-clock start, nanoseconds since the tracer was created.
    pub wall_start_ns: u64,
    /// Wall-clock duration in nanoseconds (0 for instants).
    pub wall_dur_ns: u64,
    /// Simulated-time start: the recording rail's cumulative simulated
    /// nanoseconds when the span opened (monotonic per slot).
    pub sim_start_ns: u64,
    /// Simulated nanoseconds charged to this thread during the span.
    pub sim_dur_ns: u64,
    /// Synchronous flushes (`LFlush` + `RFlush`) issued by this thread
    /// during the span — the op's persist amplification.
    pub flushes: u64,
    /// Asynchronous flush requests issued during the span.
    pub aflushes: u64,
    /// Barriers issued during the span.
    pub barriers: u64,
    /// Persistence acknowledgements (strategy-level "this store is now
    /// durable" points) during the span.
    pub persist_acks: u64,
    /// Free-form payload (violation details).
    pub detail: Option<String>,
}

/// A mergeable fixed-bucket log2 latency histogram: bucket 0 holds
/// zero-duration samples, bucket `b ≥ 1` holds durations in
/// `[2^(b-1), 2^b)` nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Adds every bucket of `other` into `self` (merging per-thread
    /// histograms is exact: bucketing is deterministic per sample).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// The inclusive upper edge of bucket `b` in nanoseconds.
    fn bucket_upper(b: usize) -> u64 {
        if b == 0 {
            0
        } else if b >= HIST_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << b) - 1
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper edge of the bucket
    /// containing it — a ≤ 2× overestimate by construction, which is
    /// the usual trade of log2-bucketed telemetry. Returns 0 on an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_upper(b);
            }
        }
        u64::MAX
    }

    /// Median (see [`LatencyHistogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

/// Timing of one recovery phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Which phase.
    pub phase: RecoveryPhase,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Simulated nanoseconds accrued fabric-wide during the phase.
    pub sim_ns: u64,
}

/// One thread slot's recorder: a bounded event ring plus per-op
/// histograms, on its own cache line. The mutex is uncontended on the
/// hot path (only the owning thread records; exporters and crash
/// sealing lock from outside, the latter with the world stopped).
#[repr(align(128))]
#[derive(Debug)]
struct SlotRecorder {
    ring: Mutex<Ring>,
    /// Persist-ack counter sampled by spans. The overflow slot is
    /// multi-writer and uses an atomic RMW; exclusive slots use plain
    /// load + store like the stats rails.
    acks: AtomicU64,
    shared: bool,
}

#[derive(Debug)]
struct Ring {
    events: VecDeque<TraceEvent>,
    cap: usize,
    recorded: u64,
    dropped: u64,
    hist: [LatencyHistogram; OP_KINDS],
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            events: VecDeque::new(),
            cap: cap.max(1),
            recorded: 0,
            dropped: 0,
            hist: [LatencyHistogram::new(); OP_KINDS],
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
        self.recorded += 1;
    }
}

/// The runtime tracer. Install one per fabric
/// ([`SimFabric::install_tracer`](crate::backend::SimFabric::install_tracer));
/// the cluster layer does this for you
/// ([`ClusterBuilder::with_tracing`](crate::api::ClusterBuilder::with_tracing)
/// or `CXL0_TRACE`).
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    epoch: Instant,
    /// `slots[RAIL_SLOTS]` is the shared overflow recorder.
    slots: Box<[SlotRecorder]>,
    incarnation: AtomicU64,
    /// Events sealed by crashes, oldest first.
    retired: Mutex<Vec<TraceEvent>>,
    retired_dropped: AtomicU64,
    recovery: Mutex<Vec<PhaseTiming>>,
}

impl Tracer {
    /// Creates a tracer with `cfg`.
    pub fn new(cfg: TraceConfig) -> Self {
        let cap = cfg.ring_capacity;
        Tracer {
            cfg,
            epoch: Instant::now(),
            slots: (0..=RAIL_SLOTS)
                .map(|i| SlotRecorder {
                    ring: Mutex::new(Ring::new(cap)),
                    acks: AtomicU64::new(0),
                    shared: i == RAIL_SLOTS,
                })
                .collect(),
            incarnation: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
            retired_dropped: AtomicU64::new(0),
            recovery: Mutex::new(Vec::new()),
        }
    }

    /// The configuration this tracer was created with.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn slot_index() -> usize {
        thread_slot_index().min(RAIL_SLOTS)
    }

    /// Opens an op span on the calling thread. Timing and persist
    /// attribution are sampled from the thread's stats rail; threads on
    /// the shared overflow rail get attribution polluted by their rail
    /// mates (exactly the stats rails' accuracy trade).
    pub(crate) fn span<'a>(
        &'a self,
        kind: OpKind,
        stats: &'a Stats,
        machine: Option<MachineId>,
    ) -> SpanGuard<'a> {
        let slot = Self::slot_index();
        SpanGuard {
            tracer: self,
            stats,
            kind,
            slot,
            machine,
            wall0: self.now_ns(),
            probe0: stats.rail_probe(),
            acks0: self.slots[slot].acks.load(Ordering::Relaxed),
        }
    }

    /// Opens a recovery-phase span (fabric-wide simulated time).
    pub(crate) fn phase<'a>(
        &'a self,
        phase: RecoveryPhase,
        stats: &'a Stats,
        machine: Option<MachineId>,
    ) -> PhaseGuard<'a> {
        PhaseGuard {
            tracer: self,
            stats,
            phase,
            machine,
            wall0: self.now_ns(),
            sim0: stats.sim_nanos(),
        }
    }

    /// Starts a fresh recovery breakdown (called at the top of
    /// `Session::recover_roots`).
    pub(crate) fn begin_recovery(&self) {
        self.recovery.lock().clear();
    }

    /// The persistence strategy acknowledged a store as durable on the
    /// calling thread.
    pub(crate) fn on_persist_ack(&self) {
        let slot = Self::slot_index();
        let rec = &self.slots[slot];
        if rec.shared {
            rec.acks.fetch_add(1, Ordering::Relaxed);
        } else {
            let n = rec.acks.load(Ordering::Relaxed);
            rec.acks.store(n + 1, Ordering::Relaxed);
        }
    }

    /// Seals the current incarnation. Called from
    /// [`SimFabric::crash`](crate::backend::SimFabric::crash) with the
    /// world stopped: every live ring drains into the retired buffer so
    /// crashed-incarnation events never interleave with post-recovery
    /// spans. Histograms are cumulative and survive the crash. A span
    /// still open across the crash (its thread parked at the gate) is
    /// recorded under the next incarnation when it closes.
    pub(crate) fn on_crash(&self) {
        self.incarnation.fetch_add(1, Ordering::Relaxed);
        let mut retired = self.retired.lock();
        for rec in self.slots.iter() {
            let mut ring = rec.ring.lock();
            while let Some(ev) = ring.events.pop_front() {
                if retired.len() < RETIRED_CAP {
                    retired.push(ev);
                } else {
                    self.retired_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Records a sanitizer violation as an instant event with
    /// provenance.
    pub(crate) fn violation(
        &self,
        class: &'static str,
        loc: Loc,
        who: Option<(MachineId, usize)>,
        detail: &str,
    ) {
        let slot = who
            .map(|(_, s)| s)
            .unwrap_or_else(Self::slot_index)
            .min(RAIL_SLOTS);
        let ev = TraceEvent {
            kind: EventKind::Violation(class),
            slot,
            machine: who.map(|(m, _)| m),
            incarnation: self.incarnation.load(Ordering::Relaxed),
            wall_start_ns: self.now_ns(),
            wall_dur_ns: 0,
            sim_start_ns: 0,
            sim_dur_ns: 0,
            flushes: 0,
            aflushes: 0,
            barriers: 0,
            persist_acks: 0,
            detail: Some(format!("{loc}: {detail}")),
        };
        self.slots[slot].ring.lock().push(ev);
    }

    /// The current crash incarnation (0 until the first crash).
    pub fn incarnation(&self) -> u64 {
        self.incarnation.load(Ordering::Relaxed)
    }

    /// Total events recorded (including ones since dropped by ring
    /// wraps or the retired-buffer cap).
    pub fn events_recorded(&self) -> u64 {
        self.slots.iter().map(|s| s.ring.lock().recorded).sum()
    }

    /// Events lost to ring wraps plus crash-sealed events beyond the
    /// retired-buffer cap.
    pub fn events_dropped(&self) -> u64 {
        let rings: u64 = self.slots.iter().map(|s| s.ring.lock().dropped).sum();
        rings + self.retired_dropped.load(Ordering::Relaxed)
    }

    /// The merged cross-thread latency histogram for `kind` (simulated
    /// nanoseconds; cumulative across crashes).
    pub fn histogram(&self, kind: OpKind) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for rec in self.slots.iter() {
            h.merge(&rec.ring.lock().hist[kind as usize]);
        }
        h
    }

    /// The merged histogram over *all* op kinds.
    pub fn merged_histogram(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for rec in self.slots.iter() {
            let ring = rec.ring.lock();
            for kh in ring.hist.iter() {
                h.merge(kh);
            }
        }
        h
    }

    /// The most recent recovery breakdown (empty if `recover_roots` has
    /// not run since the tracer was installed).
    pub fn recovery_breakdown(&self) -> Vec<PhaseTiming> {
        self.recovery.lock().clone()
    }

    /// Every event currently held (crash-sealed first, then live
    /// rings), sorted by incarnation then wall start.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut evs: Vec<TraceEvent> = self.retired.lock().clone();
        for rec in self.slots.iter() {
            evs.extend(rec.ring.lock().events.iter().cloned());
        }
        evs.sort_by_key(|e| (e.incarnation, e.wall_start_ns, e.slot));
        evs
    }

    /// Exports a Chrome trace-event JSON array (Perfetto /
    /// `chrome://tracing` loadable): `pid` = crash incarnation, `tid` =
    /// thread slot, spans as `"ph":"X"` with wall-µs timestamps,
    /// violations as instant events, simulated-time and persist
    /// attribution under `args`.
    pub fn export_chrome_json(&self) -> String {
        let evs = self.events();
        let mut out = String::with_capacity(evs.len() * 192 + 16);
        out.push('[');
        for (i, e) in evs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            chrome_event(&mut out, e);
        }
        out.push_str("\n]\n");
        out
    }

    /// Exports one self-describing JSON object per line.
    pub fn export_jsonl(&self) -> String {
        let evs = self.events();
        let mut out = String::with_capacity(evs.len() * 224);
        for e in &evs {
            jsonl_event(&mut out, e);
            out.push('\n');
        }
        out
    }

    /// Writes the trace to `path`, picking JSONL for a `.jsonl`
    /// extension and Chrome trace-event JSON otherwise.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        let body = if path.ends_with(".jsonl") {
            self.export_jsonl()
        } else {
            self.export_chrome_json()
        };
        std::fs::write(path, body)
    }
}

/// RAII guard for one op span; recording happens on drop. Opened
/// through the fabric's tracer seam (`NodeHandle::trace_span`), never
/// directly.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    stats: &'a Stats,
    kind: OpKind,
    slot: usize,
    machine: Option<MachineId>,
    wall0: u64,
    probe0: RailProbe,
    acks0: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let wall1 = self.tracer.now_ns();
        let probe1 = self.stats.rail_probe();
        let acks1 = self.tracer.slots[self.slot].acks.load(Ordering::Relaxed);
        let ev = TraceEvent {
            kind: EventKind::Op(self.kind),
            slot: self.slot,
            machine: self.machine,
            incarnation: self.tracer.incarnation.load(Ordering::Relaxed),
            wall_start_ns: self.wall0,
            wall_dur_ns: wall1.saturating_sub(self.wall0),
            sim_start_ns: self.probe0.sim_ns,
            sim_dur_ns: probe1.sim_ns.saturating_sub(self.probe0.sim_ns),
            flushes: probe1.flushes.saturating_sub(self.probe0.flushes),
            aflushes: probe1.aflushes.saturating_sub(self.probe0.aflushes),
            barriers: probe1.barriers.saturating_sub(self.probe0.barriers),
            persist_acks: acks1.saturating_sub(self.acks0),
            detail: None,
        };
        let mut ring = self.tracer.slots[self.slot].ring.lock();
        ring.hist[self.kind as usize].record(ev.sim_dur_ns);
        ring.push(ev);
    }
}

/// RAII guard for one recovery phase; records a [`PhaseTiming`] and a
/// trace event on drop.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    tracer: &'a Tracer,
    stats: &'a Stats,
    phase: RecoveryPhase,
    machine: Option<MachineId>,
    wall0: u64,
    sim0: u64,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let wall1 = self.tracer.now_ns();
        let sim1 = self.stats.sim_nanos();
        let timing = PhaseTiming {
            phase: self.phase,
            wall_ns: wall1.saturating_sub(self.wall0),
            sim_ns: sim1.saturating_sub(self.sim0),
        };
        self.tracer.recovery.lock().push(timing);
        let slot = Tracer::slot_index();
        let ev = TraceEvent {
            kind: EventKind::Recovery(self.phase),
            slot,
            machine: self.machine,
            incarnation: self.tracer.incarnation.load(Ordering::Relaxed),
            wall_start_ns: self.wall0,
            wall_dur_ns: timing.wall_ns,
            sim_start_ns: self.sim0,
            sim_dur_ns: timing.sim_ns,
            flushes: 0,
            aflushes: 0,
            barriers: 0,
            persist_acks: 0,
            detail: None,
        };
        self.tracer.slots[slot].ring.lock().push(ev);
    }
}

/// Appends `ns` as a microsecond decimal (`"12.345"`) — the Chrome
/// trace format's `ts`/`dur` unit.
fn push_micros(out: &mut String, ns: u64) {
    use std::fmt::Write;
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Appends `s` JSON-escaped (quotes, backslashes, control characters).
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn chrome_event(out: &mut String, e: &TraceEvent) {
    use std::fmt::Write;
    let instant = matches!(e.kind, EventKind::Violation(_));
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":",
        e.kind.name(),
        e.kind.category(),
        if instant { "i" } else { "X" },
    );
    push_micros(out, e.wall_start_ns);
    if instant {
        out.push_str(",\"s\":\"t\"");
    } else {
        out.push_str(",\"dur\":");
        push_micros(out, e.wall_dur_ns);
    }
    let _ = write!(out, ",\"pid\":{},\"tid\":{}", e.incarnation, e.slot);
    let _ = write!(
        out,
        ",\"args\":{{\"sim_start_ns\":{},\"sim_dur_ns\":{},\"flushes\":{},\"aflushes\":{},\"barriers\":{},\"persist_acks\":{}",
        e.sim_start_ns, e.sim_dur_ns, e.flushes, e.aflushes, e.barriers, e.persist_acks,
    );
    if let Some(m) = e.machine {
        let _ = write!(out, ",\"machine\":{}", m.index());
    }
    if let Some(d) = &e.detail {
        out.push_str(",\"detail\":\"");
        push_escaped(out, d);
        out.push('"');
    }
    out.push_str("}}");
}

fn jsonl_event(out: &mut String, e: &TraceEvent) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"slot\":{},\"incarnation\":{},\
         \"wall_start_ns\":{},\"wall_dur_ns\":{},\"sim_start_ns\":{},\"sim_dur_ns\":{},\
         \"flushes\":{},\"aflushes\":{},\"barriers\":{},\"persist_acks\":{}",
        e.kind.name(),
        e.kind.category(),
        e.slot,
        e.incarnation,
        e.wall_start_ns,
        e.wall_dur_ns,
        e.sim_start_ns,
        e.sim_dur_ns,
        e.flushes,
        e.aflushes,
        e.barriers,
        e.persist_acks,
    );
    if let Some(m) = e.machine {
        let _ = write!(out, ",\"machine\":{}", m.index());
    }
    if let Some(d) = &e.detail {
        out.push_str(",\"detail\":\"");
        push_escaped(out, d);
        out.push('"');
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        h.record(0);
        assert_eq!(h.p50(), 0);
        let mut h = LatencyHistogram::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        // Nine samples of 1 (bucket 1, upper edge 1), one of 1000
        // (bucket 10, upper edge 1023).
        assert_eq!(h.p50(), 1);
        assert_eq!(h.quantile(0.90), 1);
        assert_eq!(h.p99(), 1023);
        assert_eq!(h.quantile(1.0), 1023);
    }

    #[test]
    fn histogram_merge_is_bucketwise_sum() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(5);
        b.record(5);
        b.record(77);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[LatencyHistogram::bucket_of(5)], 2);
        assert_eq!(a.buckets()[LatencyHistogram::bucket_of(77)], 1);
    }

    #[test]
    fn bucket_edges_cover_u64() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.p50(), u64::MAX);
    }

    #[test]
    fn ring_wrap_counts_drops() {
        let mut ring = Ring::new(2);
        let ev = |i: u64| TraceEvent {
            kind: EventKind::Op(OpKind::Enqueue),
            slot: 0,
            machine: None,
            incarnation: 0,
            wall_start_ns: i,
            wall_dur_ns: 0,
            sim_start_ns: 0,
            sim_dur_ns: 0,
            flushes: 0,
            aflushes: 0,
            barriers: 0,
            persist_acks: 0,
            detail: None,
        };
        ring.push(ev(1));
        ring.push(ev(2));
        ring.push(ev(3));
        assert_eq!(ring.recorded, 3);
        assert_eq!(ring.dropped, 1);
        assert_eq!(ring.events.len(), 2);
        assert_eq!(ring.events.front().unwrap().wall_start_ns, 2);
    }

    #[test]
    fn escaping_is_json_safe() {
        let mut s = String::new();
        push_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn exports_are_wellformed_on_empty_tracer() {
        let tr = Tracer::new(TraceConfig::default());
        let chrome = tr.export_chrome_json();
        assert!(chrome.starts_with('['));
        assert!(chrome.trim_end().ends_with(']'));
        assert_eq!(tr.export_jsonl(), "");
    }
}
