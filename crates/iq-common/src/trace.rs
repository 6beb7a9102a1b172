//! Unified observability: a deterministic structured-event journal plus a
//! process-wide metrics registry.
//!
//! Every hot path in the stack (object PUT/GET, retry/backoff, OCM
//! hit/miss/eviction, buffer-manager load/flush, transaction lifecycle,
//! key-range allocation, GC ticks, scan morsels) emits [`EventKind`]s into
//! a global bounded ring buffer. Timestamps come from the *virtual
//! op-clock* — the simulated object store advances it via
//! [`advance_clock`], never the wall clock — so a journal captured from a
//! single-threaded workload under a fixed seed is byte-for-byte
//! reproducible (including under the fault injector) and usable as a
//! golden file in tests.
//!
//! Tracing is off by default and costs one relaxed atomic load per emit
//! site when disabled. Subsystems that want periodic numeric exposure
//! instead of (or in addition to) events register closures into a
//! [`MetricsRegistry`]; its [`MetricsRegistry::snapshot`] flattens every
//! source into a sorted `source.metric → value` map with a stable JSON
//! schema.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::Serialize;

/// Default ring-buffer capacity used by [`enable_default`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CLOCK: AtomicU64 = AtomicU64::new(0);
static JOURNAL: Mutex<Journal> = Mutex::new(Journal {
    ring: VecDeque::new(),
    capacity: DEFAULT_CAPACITY,
    seq: 0,
    dropped: 0,
});

struct Journal {
    ring: VecDeque<TraceEvent>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

/// One journal entry: a monotone sequence number, the virtual op-clock at
/// emit time, and the event payload.
#[derive(Debug, Clone, Serialize)]
pub struct TraceEvent {
    /// Monotone emission ordinal (0-based since the last [`enable`]).
    pub seq: u64,
    /// Virtual op-clock reading at emit time (ops, not wall time).
    pub t: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event taxonomy. Variants are grouped by subsystem; every payload
/// field is a plain integer/string so the JSONL rendering is stable.
#[derive(Debug, Clone, Serialize)]
pub enum EventKind {
    /// Object store: an object was uploaded.
    ObjectPut {
        /// Key offset within the cloud key space.
        key: u64,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Object store: a GET returned data.
    ObjectGet {
        /// Key offset.
        key: u64,
        /// Bytes returned.
        bytes: u64,
    },
    /// Object store: a ranged GET returned a byte slice of a composite
    /// object (one request, `len` bytes on the wire).
    RangeGet {
        /// Key offset.
        key: u64,
        /// Byte offset of the requested range.
        offset: u64,
        /// Bytes returned.
        len: u64,
    },
    /// Object store: a GET missed (visibility window or deleted key).
    ObjectGetMiss {
        /// Key offset.
        key: u64,
    },
    /// Object store: an object was deleted.
    ObjectDelete {
        /// Key offset.
        key: u64,
    },
    /// Object store: an existence probe (HEAD).
    ObjectHead {
        /// Key offset.
        key: u64,
        /// Whether the object existed.
        found: bool,
    },
    /// Retry layer: an attempt failed with a transient error.
    RetryAttempt {
        /// Key offset being retried.
        key: u64,
        /// 1-based attempt ordinal that failed.
        attempt: u32,
        /// Rendered transient error.
        error: String,
    },
    /// Retry layer: a backoff was charged in virtual time.
    RetryBackoff {
        /// Key offset being retried.
        key: u64,
        /// 1-based attempt ordinal the backoff precedes.
        attempt: u32,
        /// Op-clock advance charged (op-equivalents of the sleep).
        ops: u64,
        /// Simulated wait in nanoseconds.
        wait_nanos: u64,
    },
    /// OCM: a read was served from the SSD cache (or the pending
    /// write-queue image).
    OcmHit {
        /// Key offset.
        key: u64,
    },
    /// OCM: a read missed and went through to the object store.
    OcmMiss {
        /// Key offset.
        key: u64,
    },
    /// OCM: an LRU entry was evicted to free SSD slots.
    OcmEvict {
        /// Evicted key offset.
        key: u64,
    },
    /// OCM: async write-queue depth sample.
    OcmQueueDepth {
        /// Jobs queued behind the writer at sample time.
        depth: u64,
    },
    /// Buffer manager: a page was served from RAM.
    BufferHit {
        /// Owning table id.
        table: u64,
        /// Logical page id.
        page: u64,
    },
    /// Buffer manager: a page was loaded from below.
    BufferLoad {
        /// Owning table id.
        table: u64,
        /// Logical page id.
        page: u64,
        /// True for a demand (query-blocking) load, false for prefetch.
        demand: bool,
    },
    /// Buffer manager: a second requester waited on an in-flight load
    /// (single-flight collapse).
    SingleFlightWait {
        /// Owning table id.
        table: u64,
        /// Logical page id.
        page: u64,
    },
    /// Buffer manager: a frame was evicted.
    BufferEvict {
        /// Owning table id.
        table: u64,
        /// Logical page id.
        page: u64,
        /// Whether the frame was dirty (forced a flush).
        dirty: bool,
    },
    /// Flush packing: several sealed page images were coalesced into one
    /// composite object and uploaded with a single PUT.
    PackFlush {
        /// Composite object's key offset.
        key: u64,
        /// Member pages packed into the object.
        pages: u64,
        /// Total composite size in bytes.
        bytes: u64,
    },
    /// GC/compaction: a sparse composite's live members were repacked
    /// through the normal (never-write-twice) write path so the old
    /// object can be reclaimed.
    Compaction {
        /// Composite object's key offset.
        key: u64,
        /// Live members rewritten.
        rewritten: u64,
        /// Members already dead at selection time.
        dead: u64,
    },
    /// Buffer manager: a transaction's dirty set was flushed.
    BufferFlush {
        /// Transaction id.
        txn: u64,
        /// Pages flushed.
        pages: u64,
        /// `"commit"` or `"eviction"`.
        cause: String,
    },
    /// Transaction manager: a transaction began.
    TxnBegin {
        /// Transaction id.
        txn: u64,
        /// Node that opened it.
        node: u64,
    },
    /// Transaction manager: a transaction committed.
    TxnCommit {
        /// Transaction id.
        txn: u64,
        /// Global commit sequence number.
        commit_seq: u64,
    },
    /// Transaction manager: a transaction rolled back.
    TxnRollback {
        /// Transaction id.
        txn: u64,
    },
    /// Transaction log: a record was appended.
    LogAppend {
        /// Record kind (`"Checkpoint"`, `"AllocateRange"`, `"Commit"`).
        record: String,
        /// Log sequence number of the appended record.
        lsn: u64,
    },
    /// Key generator: a key range was allocated to a node.
    KeyRangeAlloc {
        /// Receiving node.
        node: u64,
        /// First key offset of the range.
        start: u64,
        /// One past the last key offset.
        end: u64,
    },
    /// RF/RB bitmaps: a page version was recorded as allocated by the
    /// transaction (deleted on rollback).
    RbFlip {
        /// Key offset (cloud) or physical block (conventional).
        key: u64,
    },
    /// RF/RB bitmaps: a page version was recorded as freed by the
    /// transaction (deleted by GC after commit).
    RfFlip {
        /// Key offset (cloud) or physical block (conventional).
        key: u64,
    },
    /// GC: one committed-transaction-chain tick.
    GcTick {
        /// Chain entries consumed by this tick.
        consumed: u64,
        /// Chain entries remaining after the tick.
        remaining: u64,
    },
    /// GC: one batched deletion pass — eligible chain entries were drained
    /// together, their keys deduped and fanned out as multi-object
    /// deletes through the submission/completion I/O core.
    GcBatch {
        /// Cloud keys submitted for deletion in this pass.
        keys: u64,
        /// Simulated multi-object delete requests issued (incl. retries).
        requests: u64,
        /// Peak number of delete batches in flight concurrently.
        in_flight_peak: u64,
    },
    /// GC / restart polling: a dead page version was deleted (or polled)
    /// after its deferral window.
    DeferredDelete {
        /// Key offset.
        key: u64,
    },
    /// Scan: one morsel (row group) was claimed and processed.
    ScanMorsel {
        /// Table id.
        table: u64,
        /// Row-group ordinal within the scan.
        group: u64,
        /// Rows surviving the filter in this morsel.
        rows: u64,
    },
    /// Scan: a row group was pruned before any I/O (zone maps or the
    /// partition-tag fallback).
    GroupPruned {
        /// Table id.
        table: u64,
        /// Row-group ordinal.
        group: u64,
    },
    /// Scan: late materialization skipped a surviving group's projection
    /// pages because the predicate mask came up all-false.
    LateMatSkip {
        /// Table id.
        table: u64,
        /// Row-group ordinal.
        group: u64,
        /// Projection-page GETs avoided.
        pages_saved: u64,
    },
    /// A named span opened (see [`span`]).
    SpanBegin {
        /// Span label.
        name: String,
    },
    /// A named span closed.
    SpanEnd {
        /// Span label.
        name: String,
    },
    /// A free-form named counter observation.
    Counter {
        /// Counter label.
        name: String,
        /// Observed value.
        value: u64,
    },
}

impl EventKind {
    /// The variant name, used by journal folding ([`fold_journal`]).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ObjectPut { .. } => "ObjectPut",
            EventKind::ObjectGet { .. } => "ObjectGet",
            EventKind::RangeGet { .. } => "RangeGet",
            EventKind::ObjectGetMiss { .. } => "ObjectGetMiss",
            EventKind::ObjectDelete { .. } => "ObjectDelete",
            EventKind::ObjectHead { .. } => "ObjectHead",
            EventKind::RetryAttempt { .. } => "RetryAttempt",
            EventKind::RetryBackoff { .. } => "RetryBackoff",
            EventKind::OcmHit { .. } => "OcmHit",
            EventKind::OcmMiss { .. } => "OcmMiss",
            EventKind::OcmEvict { .. } => "OcmEvict",
            EventKind::OcmQueueDepth { .. } => "OcmQueueDepth",
            EventKind::BufferHit { .. } => "BufferHit",
            EventKind::BufferLoad { .. } => "BufferLoad",
            EventKind::SingleFlightWait { .. } => "SingleFlightWait",
            EventKind::BufferEvict { .. } => "BufferEvict",
            EventKind::PackFlush { .. } => "PackFlush",
            EventKind::Compaction { .. } => "Compaction",
            EventKind::BufferFlush { .. } => "BufferFlush",
            EventKind::TxnBegin { .. } => "TxnBegin",
            EventKind::TxnCommit { .. } => "TxnCommit",
            EventKind::TxnRollback { .. } => "TxnRollback",
            EventKind::LogAppend { .. } => "LogAppend",
            EventKind::KeyRangeAlloc { .. } => "KeyRangeAlloc",
            EventKind::RbFlip { .. } => "RbFlip",
            EventKind::RfFlip { .. } => "RfFlip",
            EventKind::GcTick { .. } => "GcTick",
            EventKind::GcBatch { .. } => "GcBatch",
            EventKind::DeferredDelete { .. } => "DeferredDelete",
            EventKind::ScanMorsel { .. } => "ScanMorsel",
            EventKind::GroupPruned { .. } => "GroupPruned",
            EventKind::LateMatSkip { .. } => "LateMatSkip",
            EventKind::SpanBegin { .. } => "SpanBegin",
            EventKind::SpanEnd { .. } => "SpanEnd",
            EventKind::Counter { .. } => "Counter",
        }
    }

    /// The payload's byte weight, if the event moves bytes (used by
    /// journal folding to aggregate bandwidth per event kind).
    pub fn bytes(&self) -> u64 {
        match self {
            EventKind::ObjectPut { bytes, .. }
            | EventKind::ObjectGet { bytes, .. }
            | EventKind::PackFlush { bytes, .. } => *bytes,
            EventKind::RangeGet { len, .. } => *len,
            _ => 0,
        }
    }
}

/// Enable tracing with a bounded ring of `capacity` events. Clears any
/// previous journal and resets the sequence counter and the virtual trace
/// clock to zero.
pub fn enable(capacity: usize) {
    let mut j = JOURNAL.lock();
    j.ring.clear();
    j.capacity = capacity.max(1);
    j.seq = 0;
    j.dropped = 0;
    CLOCK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Release);
}

/// [`enable`] with [`DEFAULT_CAPACITY`].
pub fn enable_default() {
    enable(DEFAULT_CAPACITY);
}

/// Stop recording (the journal is kept; [`drain`] still returns it).
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether tracing is currently recording. Emit sites use this to skip
/// payload construction entirely when tracing is off.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Advance the virtual trace clock by `ops`. Called by the simulated
/// object store's op counter (one per request) and its backoff charging —
/// the same virtual time that closes visibility windows. No-op when
/// tracing is disabled so untraced runs pay nothing.
#[inline]
pub fn advance_clock(ops: u64) {
    if is_enabled() {
        CLOCK.fetch_add(ops, Ordering::Relaxed);
    }
}

/// Current virtual trace-clock reading.
pub fn clock() -> u64 {
    CLOCK.load(Ordering::Relaxed)
}

/// Record one event (no-op when disabled). When the ring is full the
/// oldest event is dropped and counted in [`dropped`].
pub fn emit(kind: EventKind) {
    if !is_enabled() {
        return;
    }
    let t = CLOCK.load(Ordering::Relaxed);
    let mut j = JOURNAL.lock();
    let seq = j.seq;
    j.seq += 1;
    if j.ring.len() == j.capacity {
        j.ring.pop_front();
        j.dropped += 1;
    }
    j.ring.push_back(TraceEvent { seq, t, kind });
}

/// Take the journal contents, leaving it empty (sequence numbers keep
/// counting until the next [`enable`]).
pub fn drain() -> Vec<TraceEvent> {
    JOURNAL.lock().ring.drain(..).collect()
}

/// Events dropped because the ring was full since the last [`enable`].
pub fn dropped() -> u64 {
    JOURNAL.lock().dropped
}

/// Render events as JSONL — one `{"seq":…,"t":…,"kind":{…}}` object per
/// line, with deterministic field order (declaration order of the derive).
pub fn render_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e).expect("trace events are serializable"));
        out.push('\n');
    }
    out
}

/// Aggregate of one event kind inside a folded journal.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FoldedKind {
    /// Number of events of this kind.
    pub count: u64,
    /// Total bytes moved by events of this kind (PUT/GET payloads).
    pub bytes: u64,
    /// Op-clock of the first occurrence.
    pub first_t: u64,
    /// Op-clock of the last occurrence.
    pub last_t: u64,
}

/// Fold a journal into per-kind aggregates. Order-independent, so the
/// result is stable even for journals captured from parallel workloads
/// where event interleaving is timing-dependent.
pub fn fold_journal(events: &[TraceEvent]) -> BTreeMap<&'static str, FoldedKind> {
    let mut out: BTreeMap<&'static str, FoldedKind> = BTreeMap::new();
    for e in events {
        let f = out.entry(e.kind.name()).or_default();
        if f.count == 0 {
            f.first_t = e.t;
        }
        f.count += 1;
        f.bytes += e.kind.bytes();
        f.first_t = f.first_t.min(e.t);
        f.last_t = f.last_t.max(e.t);
    }
    out
}

/// RAII span: emits [`EventKind::SpanBegin`] on creation and
/// [`EventKind::SpanEnd`] on drop.
pub struct Span {
    name: &'static str,
}

/// Open a named span (see [`Span`]).
pub fn span(name: &'static str) -> Span {
    emit(EventKind::SpanBegin { name: name.into() });
    Span { name }
}

impl Drop for Span {
    fn drop(&mut self) {
        emit(EventKind::SpanEnd {
            name: self.name.into(),
        });
    }
}

/// Record a named counter observation.
pub fn counter(name: &'static str, value: u64) {
    emit(EventKind::Counter {
        name: name.into(),
        value,
    });
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A single metric observation: unsigned counter or gauge/ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Counter-style value.
    U64(u64),
    /// Gauge / ratio value.
    F64(f64),
}

impl Serialize for MetricValue {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Forward to the raw number so the JSON export reads
        // `"buffer.hits": 12` rather than an enum-tagged wrapper.
        match self {
            MetricValue::U64(v) => serializer.serialize_content(serde::Content::U64(*v)),
            MetricValue::F64(v) => serializer.serialize_content(serde::Content::F64(*v)),
        }
    }
}

type MetricSource = Box<dyn Fn() -> Vec<(String, MetricValue)> + Send + Sync>;

/// A registry of named metric sources. Subsystems register a closure that
/// reports their current counters; [`MetricsRegistry::snapshot`] evaluates
/// every source and flattens the result into a sorted
/// `source.metric → value` map — the machine-readable export behind
/// `Database::metrics()` and `repro --metrics`.
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<(String, MetricSource)>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a named source. Re-registering a name replaces the old
    /// source (subsystems re-register across `Database::reopen`).
    pub fn register<F>(&self, name: &str, source: F)
    where
        F: Fn() -> Vec<(String, MetricValue)> + Send + Sync + 'static,
    {
        let mut sources = self.sources.lock();
        sources.retain(|(n, _)| n != name);
        sources.push((name.to_string(), Box::new(source)));
    }

    /// Evaluate every source into a sorted `source.metric → value` map.
    pub fn snapshot(&self) -> BTreeMap<String, MetricValue> {
        let sources = self.sources.lock();
        let mut out = BTreeMap::new();
        for (name, source) in sources.iter() {
            for (metric, value) in source() {
                out.insert(format!("{name}.{metric}"), value);
            }
        }
        out
    }

    /// The snapshot rendered as one stable JSON object.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.snapshot()).expect("metric snapshots are serializable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The journal is process-global; tests share it, so each test fully
    // re-enables (which resets seq/clock) and runs its assertions on its
    // own drained batch. They must not run concurrently with each other —
    // the JOURNAL_TEST lock below serializes them.
    static JOURNAL_TEST: Mutex<()> = Mutex::new(());

    #[test]
    fn emit_drain_roundtrip_with_virtual_clock() {
        let _g = JOURNAL_TEST.lock();
        enable(16);
        emit(EventKind::ObjectPut { key: 7, bytes: 64 });
        advance_clock(3);
        emit(EventKind::ObjectGetMiss { key: 7 });
        disable();
        let events = drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].t, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].t, 3);
        assert_eq!(events[1].kind.name(), "ObjectGetMiss");
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let _g = JOURNAL_TEST.lock();
        enable(2);
        for k in 0..5u64 {
            emit(EventKind::ObjectDelete { key: k });
        }
        disable();
        assert_eq!(dropped(), 3);
        let events = drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
    }

    #[test]
    fn disabled_emits_are_free_and_invisible() {
        let _g = JOURNAL_TEST.lock();
        enable(8);
        disable();
        emit(EventKind::ObjectDelete { key: 1 });
        advance_clock(10);
        assert!(drain().is_empty());
    }

    #[test]
    fn jsonl_rendering_is_stable() {
        let _g = JOURNAL_TEST.lock();
        enable(8);
        emit(EventKind::ObjectPut { key: 1, bytes: 32 });
        {
            let _s = span("load");
        }
        disable();
        let text = render_jsonl(&drain());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            r#"{"seq":0,"t":0,"kind":{"ObjectPut":{"key":1,"bytes":32}}}"#
        );
        assert_eq!(
            lines[1],
            r#"{"seq":1,"t":0,"kind":{"SpanBegin":{"name":"load"}}}"#
        );
        assert_eq!(
            lines[2],
            r#"{"seq":2,"t":0,"kind":{"SpanEnd":{"name":"load"}}}"#
        );
    }

    #[test]
    fn folding_aggregates_per_kind() {
        let _g = JOURNAL_TEST.lock();
        enable(16);
        emit(EventKind::ObjectPut { key: 1, bytes: 10 });
        advance_clock(5);
        emit(EventKind::ObjectPut { key: 2, bytes: 30 });
        emit(EventKind::OcmHit { key: 1 });
        disable();
        let folded = fold_journal(&drain());
        let puts = &folded["ObjectPut"];
        assert_eq!(puts.count, 2);
        assert_eq!(puts.bytes, 40);
        assert_eq!(puts.first_t, 0);
        assert_eq!(puts.last_t, 5);
        assert_eq!(folded["OcmHit"].count, 1);
    }

    #[test]
    fn metrics_registry_flattens_and_sorts() {
        let reg = MetricsRegistry::new();
        reg.register("zeta", || vec![("b".into(), MetricValue::U64(2))]);
        reg.register("alpha", || {
            vec![
                ("hits".into(), MetricValue::U64(10)),
                ("ratio".into(), MetricValue::F64(0.5)),
            ]
        });
        let snap = reg.snapshot();
        let keys: Vec<&str> = snap.keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["alpha.hits", "alpha.ratio", "zeta.b"]);
        assert_eq!(
            reg.to_json(),
            r#"{"alpha.hits":10,"alpha.ratio":0.5,"zeta.b":2}"#
        );
        // Re-registration replaces.
        reg.register("zeta", || vec![("b".into(), MetricValue::U64(3))]);
        assert_eq!(snap.len(), 3);
        assert_eq!(reg.snapshot()["zeta.b"], MetricValue::U64(3));
    }
}
