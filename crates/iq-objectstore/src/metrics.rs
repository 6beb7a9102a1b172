//! Per-device request ledgers.
//!
//! Every simulated device owns a [`DeviceStats`]. Functional code records
//! each request as it happens; the time model and the cost model fold the
//! ledger afterwards. The ledger also keeps:
//!
//! * a **per-prefix spread** histogram for object stores, from which the
//!   time model derives the effective per-prefix throttling (S3 limits
//!   request rates *per key prefix* — the reason the paper hashes key
//!   prefixes, §3.1);
//! * **time-series buckets** (requests/bytes per fixed window of bytes
//!   moved) so Figure 8's bandwidth-over-time plot can be regenerated.

use std::collections::HashMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// The kind of request issued to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOp {
    /// Object GET that returned data.
    Get,
    /// Object GET that failed inside the visibility window (retried).
    GetMiss,
    /// Object PUT.
    Put,
    /// Object DELETE.
    Delete,
    /// Object existence poll (GC).
    Head,
    /// Block-device read.
    BlockRead,
    /// Block-device write.
    BlockWrite,
}

impl IoOp {
    /// All op kinds, for iteration in reports.
    pub const ALL: [IoOp; 7] = [
        IoOp::Get,
        IoOp::GetMiss,
        IoOp::Put,
        IoOp::Delete,
        IoOp::Head,
        IoOp::BlockRead,
        IoOp::BlockWrite,
    ];
}

/// Counters for one op kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCounter {
    /// Number of requests.
    pub count: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
}

/// One bucket of the request time series: a fixed count of bytes moved
/// (the last bucket may be short), and the requests that began in it.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TraceBucket {
    /// Requests whose first byte fell in this bucket (a request that
    /// moves no bytes counts in the bucket being filled).
    pub requests: u64,
    /// Payload bytes in this bucket.
    pub bytes: u64,
}

/// Default time-series bucket: bytes moved per bucket.
const BUCKET_BYTES: u64 = 64 * 1024;

#[derive(Debug, Default)]
struct Inner {
    ops: HashMap<IoOp, OpCounter>,
    prefix_spread: HashMap<u16, u64>,
    buckets: Vec<TraceBucket>,
    total_requests: u64,
    /// Bytes moved so far: the time-series cursor.
    total_bytes: u64,
    retries: u64,
    backoff_nanos: u64,
}

impl Inner {
    /// Fold `src` into `self`: counters add, the prefix histogram adds
    /// per-prefix, and `src`'s
    /// time-series buckets are appended after `self`'s (the merged series
    /// reads oldest-epoch-first).
    fn merge(&mut self, src: &Inner) {
        for (op, c) in &src.ops {
            let dst = self.ops.entry(*op).or_default();
            dst.count += c.count;
            dst.bytes += c.bytes;
        }
        for (p, n) in &src.prefix_spread {
            *self.prefix_spread.entry(*p).or_default() += n;
        }
        self.buckets.extend_from_slice(&src.buckets);
        self.total_requests += src.total_requests;
        self.total_bytes += src.total_bytes;
        self.retries += src.retries;
        self.backoff_nanos += src.backoff_nanos;
    }
}

/// Thread-safe request ledger for one device.
///
/// The ledger is **epoched**: [`DeviceStats::snapshot`] reads the current
/// epoch only, and [`DeviceStats::begin_epoch`] archives the current epoch
/// into a lifetime ledger and starts a fresh one. `Database::reopen` opens
/// a new epoch on every backend that survives a restart, so post-crash
/// figures never mix in pre-crash traffic while
/// [`DeviceStats::lifetime_snapshot`] still reports the merged whole.
#[derive(Debug, Default)]
pub struct DeviceStats {
    inner: Mutex<Inner>,
    /// Merged ledger of all closed epochs.
    archived: Mutex<Inner>,
    /// Number of closed epochs (0 until the first [`DeviceStats::begin_epoch`]).
    epoch: std::sync::atomic::AtomicU64,
    /// Bytes moved per time-series bucket.
    bucket_bytes: u64,
}

impl DeviceStats {
    /// New ledger with the default time-series bucket (64 KiB moved).
    pub fn new() -> Self {
        Self::with_bucket_bytes(BUCKET_BYTES)
    }

    /// New ledger whose time-series buckets each cover `bucket_bytes`
    /// bytes moved. Bucketing on bytes rather than request ordinals keeps
    /// the series as long when requests get fewer and larger.
    pub fn with_bucket_bytes(bucket_bytes: u64) -> Self {
        Self {
            bucket_bytes: bucket_bytes.max(1),
            ..Self::default()
        }
    }

    /// Record one request.
    pub fn record(&self, op: IoOp, bytes: u64) {
        self.record_prefixed(op, bytes, None);
    }

    /// Record one request carrying an object-store key prefix.
    pub fn record_prefixed(&self, op: IoOp, bytes: u64, prefix: Option<u16>) {
        let mut g = self.inner.lock();
        let c = g.ops.entry(op).or_default();
        c.count += 1;
        c.bytes += bytes;
        if let Some(p) = prefix {
            *g.prefix_spread.entry(p).or_default() += 1;
        }
        // The request counts where its first byte lands; its bytes fill
        // that bucket and spill into the next ones.
        let width = self.bucket_bytes;
        let (mut at, end) = (g.total_bytes, g.total_bytes + bytes);
        let last = (end.max(at + 1) - 1) / width;
        if g.buckets.len() as u64 <= last {
            g.buckets.resize(last as usize + 1, TraceBucket::default());
        }
        g.buckets[(at / width) as usize].requests += 1;
        while at < end {
            let fill = (at / width + 1) * width;
            g.buckets[(at / width) as usize].bytes += fill.min(end) - at;
            at = fill.min(end);
        }
        g.total_bytes = end;
        g.total_requests += 1;
    }

    /// Record one retry backoff: the attempt count bumps by one and the
    /// simulated wait accumulates, to be folded into device time later.
    pub fn record_backoff(&self, nanos: u64) {
        let mut g = self.inner.lock();
        g.retries += 1;
        g.backoff_nanos += nanos;
    }

    fn snapshot_of(&self, g: &Inner) -> StatsSnapshot {
        let mut ops: Vec<(IoOp, OpCounter)> = g.ops.iter().map(|(k, v)| (*k, *v)).collect();
        ops.sort_by_key(|(op, _)| format!("{op:?}"));
        StatsSnapshot {
            ops,
            prefix_count: g.prefix_spread.len() as u64,
            effective_prefixes: effective_prefixes(&g.prefix_spread),
            buckets: g.buckets.clone(),
            bucket_bytes: self.bucket_bytes,
            total_requests: g.total_requests,
            retries: g.retries,
            backoff_nanos: g.backoff_nanos,
        }
    }

    /// Snapshot the current epoch's counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.snapshot_of(&self.inner.lock())
    }

    /// Snapshot the whole lifetime: every closed epoch merged with the
    /// current one.
    pub fn lifetime_snapshot(&self) -> StatsSnapshot {
        // Lock order: archived before inner (matched by `begin_epoch`).
        let archived = self.archived.lock();
        let current = self.inner.lock();
        let mut merged = Inner::default();
        merged.merge(&archived);
        merged.merge(&current);
        self.snapshot_of(&merged)
    }

    /// Close the current epoch: archive its counters into the lifetime
    /// ledger and start a fresh epoch. Called on every surviving backend
    /// at `Database::reopen`, so per-run figures (prefix spread, Figure-8
    /// buckets, retry ledgers) never leak across a restart.
    pub fn begin_epoch(&self) {
        let mut archived = self.archived.lock();
        let mut current = self.inner.lock();
        archived.merge(&current);
        *current = Inner::default();
        self.epoch
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Number of closed epochs (0 for a ledger that never restarted).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Reset the current epoch's counters (between benchmark phases).
    /// Closed epochs in the lifetime ledger are unaffected.
    pub fn reset(&self) {
        *self.inner.lock() = Inner::default();
    }
}

/// Effective number of prefixes sharing the load: the inverse Simpson index
/// `(Σc)² / Σc²`. A perfectly uniform spread over N prefixes yields N; a
/// single hot prefix yields 1. The time model multiplies the per-prefix
/// request-rate limit by this number.
fn effective_prefixes(spread: &HashMap<u16, u64>) -> f64 {
    let total: u64 = spread.values().sum();
    if total == 0 {
        return 0.0;
    }
    let sum_sq: f64 = spread.values().map(|&c| (c as f64) * (c as f64)).sum();
    (total as f64) * (total as f64) / sum_sq
}

/// Immutable snapshot of a [`DeviceStats`] ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Per-op counters, sorted by op name for stable output.
    pub ops: Vec<(IoOp, OpCounter)>,
    /// Number of distinct key prefixes seen.
    pub prefix_count: u64,
    /// Inverse-Simpson effective prefix count (see [`DeviceStats`]).
    pub effective_prefixes: f64,
    /// Request time series.
    pub buckets: Vec<TraceBucket>,
    /// Bytes moved per bucket.
    pub bucket_bytes: u64,
    /// Total requests across all ops.
    pub total_requests: u64,
    /// Retry attempts taken after a transient failure.
    pub retries: u64,
    /// Cumulative simulated backoff wait, in nanoseconds.
    pub backoff_nanos: u64,
}

impl StatsSnapshot {
    /// Scale every count and byte figure by `factor` — how the benchmark
    /// harness projects a small-scale-factor functional run to the
    /// paper's SF 1000 (counts grow linearly with SF; cache dynamics and
    /// queue depths are taken from the real run). The effective prefix
    /// count scales too, capped at the 16-bit prefix space.
    pub fn scaled(&self, factor: f64) -> StatsSnapshot {
        let mut out = self.clone();
        for (_, c) in &mut out.ops {
            c.count = (c.count as f64 * factor).round() as u64;
            c.bytes = (c.bytes as f64 * factor).round() as u64;
        }
        out.total_requests = (out.total_requests as f64 * factor).round() as u64;
        out.effective_prefixes = (out.effective_prefixes * factor).min(65_536.0);
        out.retries = (out.retries as f64 * factor).round() as u64;
        out.backoff_nanos = (out.backoff_nanos as f64 * factor).round() as u64;
        for b in &mut out.buckets {
            b.requests = (b.requests as f64 * factor).round() as u64;
            b.bytes = (b.bytes as f64 * factor).round() as u64;
        }
        out
    }

    /// Re-chunk request counts to a target transfer size: byte-carrying
    /// ops become `ceil(bytes / chunk)` requests; zero-byte ops (retry
    /// misses, existence polls, deletes) shrink by the same ratio as
    /// their byte-carrying sibling. Projects our small-page functional
    /// runs onto the paper's 512 KiB page geometry (SAP IQ issues one
    /// object per 512 KiB page).
    pub fn rechunked(&self, chunk: u64) -> StatsSnapshot {
        let mut out = self.clone();
        let ratio_of = |c: OpCounter| -> f64 {
            if c.count == 0 {
                1.0
            } else {
                (c.bytes.div_ceil(chunk).max(1)) as f64 / c.count as f64
            }
        };
        let get_ratio = ratio_of(self.op(IoOp::Get));
        let put_ratio = ratio_of(self.op(IoOp::Put));
        for (op, c) in &mut out.ops {
            let ratio = match op {
                IoOp::Get | IoOp::BlockRead if c.bytes > 0 => ratio_of(*c),
                IoOp::Put | IoOp::BlockWrite if c.bytes > 0 => ratio_of(*c),
                IoOp::GetMiss | IoOp::Head => get_ratio,
                IoOp::Delete => put_ratio,
                _ => 1.0,
            };
            c.count = ((c.count as f64 * ratio).round() as u64).max(u64::from(c.count > 0));
        }
        out.total_requests = out.ops.iter().map(|(_, c)| c.count).sum();
        out
    }

    /// Counter for one op kind (zero if never recorded).
    pub fn op(&self, op: IoOp) -> OpCounter {
        self.ops
            .iter()
            .find_map(|(o, c)| (*o == op).then_some(*c))
            .unwrap_or_default()
    }

    /// Total bytes across a set of ops.
    pub fn bytes_for(&self, ops: &[IoOp]) -> u64 {
        ops.iter().map(|&o| self.op(o).bytes).sum()
    }

    /// Total request count across a set of ops.
    pub fn count_for(&self, ops: &[IoOp]) -> u64 {
        ops.iter().map(|&o| self.op(o).count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let s = DeviceStats::new();
        s.record(IoOp::Get, 1000);
        s.record(IoOp::Get, 500);
        s.record(IoOp::Put, 200);
        let snap = s.snapshot();
        assert_eq!(
            snap.op(IoOp::Get),
            OpCounter {
                count: 2,
                bytes: 1500
            }
        );
        assert_eq!(
            snap.op(IoOp::Put),
            OpCounter {
                count: 1,
                bytes: 200
            }
        );
        assert_eq!(snap.op(IoOp::Delete), OpCounter::default());
        assert_eq!(snap.total_requests, 3);
    }

    #[test]
    fn effective_prefixes_uniform_vs_hot() {
        let s = DeviceStats::new();
        for p in 0..100u16 {
            s.record_prefixed(IoOp::Put, 1, Some(p));
        }
        let snap = s.snapshot();
        assert!((snap.effective_prefixes - 100.0).abs() < 1e-9);

        let hot = DeviceStats::new();
        for _ in 0..100 {
            hot.record_prefixed(IoOp::Put, 1, Some(7));
        }
        let snap = hot.snapshot();
        assert!((snap.effective_prefixes - 1.0).abs() < 1e-9);
    }

    #[test]
    fn buckets_fill_by_bytes_in_order() {
        let s = DeviceStats::with_bucket_bytes(20);
        for _ in 0..5 {
            s.record(IoOp::BlockWrite, 10);
        }
        let snap = s.snapshot();
        assert_eq!(snap.buckets.len(), 3);
        assert_eq!(snap.buckets[0].requests, 2);
        assert_eq!(snap.buckets[2].requests, 1);
        assert_eq!(snap.buckets[1].bytes, 20);
        // One large request spreads its bytes over the buckets it spans
        // and counts once, where it starts; a byteless one counts in the
        // bucket being filled.
        s.record(IoOp::Put, 45);
        s.record(IoOp::Delete, 0);
        let snap = s.snapshot();
        let bytes: Vec<u64> = snap.buckets.iter().map(|b| b.bytes).collect();
        let requests: Vec<u64> = snap.buckets.iter().map(|b| b.requests).collect();
        assert_eq!(bytes, [20, 20, 20, 20, 15]);
        assert_eq!(requests, [2, 2, 2, 0, 1]);
    }

    #[test]
    fn backoff_ledger_accumulates_and_scales() {
        let s = DeviceStats::new();
        s.record_backoff(1_000);
        s.record_backoff(4_000);
        let snap = s.snapshot();
        assert_eq!(snap.retries, 2);
        assert_eq!(snap.backoff_nanos, 5_000);
        let doubled = snap.scaled(2.0);
        assert_eq!(doubled.retries, 4);
        assert_eq!(doubled.backoff_nanos, 10_000);
        s.reset();
        assert_eq!(s.snapshot().retries, 0);
    }

    #[test]
    fn reset_clears() {
        let s = DeviceStats::new();
        s.record(IoOp::Get, 10);
        s.reset();
        assert_eq!(s.snapshot().total_requests, 0);
    }

    #[test]
    fn epochs_partition_and_lifetime_merges() {
        let s = DeviceStats::with_bucket_bytes(200);
        s.record_prefixed(IoOp::Put, 100, Some(1));
        s.record_prefixed(IoOp::Put, 100, Some(2));
        s.record_backoff(500);
        assert_eq!(s.epoch(), 0);

        // Restart boundary: the new epoch starts clean.
        s.begin_epoch();
        assert_eq!(s.epoch(), 1);
        let fresh = s.snapshot();
        assert_eq!(fresh.total_requests, 0);
        assert_eq!(fresh.retries, 0);
        assert_eq!(fresh.prefix_count, 0);
        assert!(fresh.buckets.is_empty());

        // Post-restart traffic lands in the new epoch only.
        s.record_prefixed(IoOp::Get, 40, Some(3));
        let cur = s.snapshot();
        assert_eq!(cur.total_requests, 1);
        assert_eq!(cur.op(IoOp::Put).count, 0);

        // The lifetime view merges both epochs: counters add, the prefix
        // histogram unions, buckets concatenate.
        let life = s.lifetime_snapshot();
        assert_eq!(life.total_requests, 3);
        assert_eq!(
            life.op(IoOp::Put),
            OpCounter {
                count: 2,
                bytes: 200
            }
        );
        assert_eq!(
            life.op(IoOp::Get),
            OpCounter {
                count: 1,
                bytes: 40
            }
        );
        assert_eq!(life.prefix_count, 3);
        assert_eq!(life.retries, 1);
        assert_eq!(life.backoff_nanos, 500);
        assert_eq!(life.buckets.len(), 2);

        // A second restart keeps folding.
        s.begin_epoch();
        assert_eq!(s.epoch(), 2);
        assert_eq!(s.lifetime_snapshot().total_requests, 3);
    }
}
