//! Benchmark-side tracing: spans recorded around the calls into each
//! layer, kept in memory and written out when the workload ends.
//!
//! The workloads are closed loops with one client thread, so span
//! nesting on that thread is plain RAII. The program's own fan-out
//! (scan morsels, flush lanes) calls back into [`TimedStore`] from
//! worker threads; those leaf spans take the client thread's innermost
//! open span as their parent, which is exact because the client blocks
//! while its workers run.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bytes::Bytes;
use iq_common::{IqResult, PageId, TableId, TxnId};
use iq_engine::PageStore;
use iq_storage::{Page, PageKind};

use crate::stats::self_time;

/// One finished span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u32,
    /// 0 for a top-level span.
    pub parent: u32,
    pub name: &'static str,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
    /// Identifier shared by the spans of one request (round·query, or a
    /// transaction ordinal).
    pub request: u64,
}

/// In-memory span recorder. Off by default; every entry point is a
/// relaxed load and a branch while off.
pub struct Tracer {
    on: AtomicBool,
    origin: Instant,
    next_id: AtomicU32,
    /// Innermost open span on the client thread.
    current: AtomicU32,
    request: AtomicU64,
    /// Page-body bytes handed to `write_page` while on.
    pub body_bytes: AtomicU64,
    done: Mutex<Vec<SpanRec>>,
}

fn thread_ordinal() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(1);
    thread_local! {
        static ORDINAL: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: AtomicBool::new(false),
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            request: AtomicU64::new(0),
            body_bytes: AtomicU64::new(0),
            done: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Tag the spans opened from now on with `request`.
    pub fn set_request(&self, request: u64) {
        self.request.store(request, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span on the client thread; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.is_on() {
            return SpanGuard { open: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::Relaxed);
        SpanGuard {
            open: Some((self, id, parent, name, self.now())),
        }
    }

    /// Time `f` as a leaf span under the client thread's innermost open
    /// span. Callable from any thread.
    pub fn leaf<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.is_on() {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(SpanRec {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current.load(Ordering::Relaxed),
            name,
            thread: thread_ordinal(),
            start,
            end,
            request: self.request.load(Ordering::Relaxed),
        });
        out
    }

    fn push(&self, rec: SpanRec) {
        self.done
            .lock()
            .expect("span buffer poisoned: a traced call panicked")
            .push(rec);
    }

    /// Take every finished span, leaving the recorder empty.
    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(
            &mut *self
                .done
                .lock()
                .expect("span buffer poisoned: a traced call panicked"),
        )
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    open: Option<(&'a Tracer, u32, u32, &'static str, u64)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((tracer, id, parent, name, start)) = self.open.take() {
            let end = tracer.now();
            tracer.current.store(parent, Ordering::Relaxed);
            tracer.push(SpanRec {
                id,
                parent,
                name,
                thread: thread_ordinal(),
                start,
                end,
                request: tracer.request.load(Ordering::Relaxed),
            });
        }
    }
}

/// A [`PageStore`] that records one leaf span per call and otherwise
/// forwards everything — including the scan parallelism and the shared
/// counters — to the store it wraps.
pub struct TimedStore<'a> {
    inner: &'a dyn PageStore,
    tracer: &'a Tracer,
}

impl<'a> TimedStore<'a> {
    pub fn new(inner: &'a dyn PageStore, tracer: &'a Tracer) -> Self {
        Self { inner, tracer }
    }
}

pub const READ_SPAN: &str = "pager.read";
pub const PREFETCH_SPAN: &str = "pager.prefetch";
pub const WRITE_SPAN: &str = "pager.write";

impl PageStore for TimedStore<'_> {
    fn read_page(&self, table: TableId, page: PageId, demand: bool) -> IqResult<Page> {
        self.tracer
            .leaf(READ_SPAN, || self.inner.read_page(table, page, demand))
    }

    fn write_page(
        &self,
        table: TableId,
        page: PageId,
        kind: PageKind,
        body: Bytes,
        txn: TxnId,
    ) -> IqResult<()> {
        if self.tracer.is_on() {
            self.tracer
                .body_bytes
                .fetch_add(body.len() as u64, Ordering::Relaxed);
        }
        self.tracer.leaf(WRITE_SPAN, || {
            self.inner.write_page(table, page, kind, body, txn)
        })
    }

    fn prefetch(&self, table: TableId, pages: &[PageId]) -> IqResult<()> {
        self.tracer
            .leaf(PREFETCH_SPAN, || self.inner.prefetch(table, pages))
    }

    fn scan_parallelism(&self) -> usize {
        self.inner.scan_parallelism()
    }

    fn io_stats(&self) -> Option<std::sync::Arc<iq_common::IoStats>> {
        self.inner.io_stats()
    }

    fn scan_stats(&self) -> Option<std::sync::Arc<iq_engine::ScanStats>> {
        self.inner.scan_stats()
    }
}

/// What a finished trace says about where the time went.
#[derive(Debug, Default)]
pub struct SpanSummary {
    /// Per span name: `(count, total ns, self ns)`.
    pub by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)>,
    /// Durations in ns of every span, grouped by name (for medians).
    pub durations: std::collections::BTreeMap<&'static str, Vec<f64>>,
    /// Total duration of the top-level spans: the part of the wall the
    /// span tree accounts for (lanes that overlap inside a span are not
    /// counted twice, because a parent's self time subtracts the union of
    /// its children).
    pub top_level_ns: u64,
}

/// Fold spans into per-name totals and self times.
pub fn summarize(spans: &[SpanRec]) -> SpanSummary {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out = SpanSummary::default();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let own = self_time(s.start, s.end, kids);
        let e = out.by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end - s.start;
        e.2 += own;
        out.durations
            .entry(s.name)
            .or_default()
            .push((s.end - s.start) as f64);
        if s.parent == 0 {
            out.top_level_ns += s.end - s.start;
        }
    }
    out
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
            s.id, s.parent, s.name, s.thread, s.start, s.end, s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_nests_by_raii() {
        let t = Tracer::new();
        {
            let _g = t.span("ignored");
            t.leaf("ignored", || ());
        }
        assert!(t.take().is_empty());

        t.set_on(true);
        t.set_request(7);
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
                t.leaf("leaf", || ());
            }
            std::thread::scope(|s| {
                s.spawn(|| t.leaf("worker", || ()));
            });
        }
        let spans = t.take();
        let by = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by("outer").parent, 0);
        assert_eq!(by("inner").parent, by("outer").id);
        assert_eq!(by("leaf").parent, by("inner").id);
        // Worker leaves hang off the client thread's open span.
        assert_eq!(by("worker").parent, by("outer").id);
        assert_ne!(by("worker").thread, by("outer").thread);
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
    }

    #[test]
    fn timed_store_is_transparent() {
        // Same pages, same plans: wrapping the store may add spans but
        // must not change a single result bit.
        let r = crate::fixture::Reference::load(0.002, 11);
        let queries = [1, 3, 6, 14, 19];
        let bare = r.digests(&queries);

        let tracer = Tracer::new();
        let wrapped = TimedStore::new(&r.store, &tracer);
        assert_eq!(r.digests_over(&wrapped, &queries), bare);
        assert!(tracer.take().is_empty(), "off records nothing");

        tracer.set_on(true);
        assert_eq!(r.digests_over(&wrapped, &queries), bare);
        let spans = tracer.take();
        assert!(spans.iter().any(|s| s.name == READ_SPAN));
        assert_eq!(wrapped.scan_parallelism(), r.store.scan_parallelism());
    }

    #[test]
    fn summary_subtracts_the_union_of_overlapping_lanes() {
        let mk = |id, parent, name, start, end| SpanRec {
            id,
            parent,
            name,
            thread: 1,
            start,
            end,
            request: 0,
        };
        let spans = [
            mk(1, 0, "query", 0, 100),
            mk(2, 1, "pager.read", 10, 40),
            mk(3, 1, "pager.read", 30, 60), // overlaps 2 on another lane
            mk(4, 1, "pager.prefetch", 80, 90),
        ];
        let s = summarize(&spans);
        assert_eq!(s.by_name["query"], (1, 100, 40));
        assert_eq!(s.by_name["pager.read"], (2, 60, 60));
        assert_eq!(s.top_level_ns, 100);
    }
}
