//! The throughput drill is a fixed-seed simulation end to end: capture,
//! classification, stream mix, and both scheduler runs must serialize to
//! the exact same bytes on a repeated run — the property the CI smoke
//! relies on when it diffs `BENCH_throughput.json` across runs.

use iq_bench::experiments::cache_measurements;
use iq_bench::throughput::throughput_measurements;

#[test]
fn bench_throughput_is_byte_identical_across_runs() {
    let sf = 0.002;
    let a = throughput_measurements(sf).expect("first run");
    let b = throughput_measurements(sf).expect("second run");
    let ja = serde_json::to_string(&a).expect("serialize");
    let jb = serde_json::to_string(&b).expect("serialize");
    assert_eq!(ja, jb, "BENCH_throughput.json must be replayable");

    // Sanity on the shape the CI gates read.
    assert_eq!(a.fair.len(), 2);
    assert_eq!(a.fair[0].class, "light");
    assert!(a.metrics.contains_key("query.light_p99_s"));
    assert!(a.metrics.contains_key("query.agg_speedup_8w"));
    assert!(
        a.agg_speedup_8w >= 2.0,
        "modeled partitioned-aggregate speedup regressed: {}",
        a.agg_speedup_8w
    );
    // Weighted-fair admission must actually shield the light class.
    assert!(
        a.fair[0].p99_s <= a.fifo[0].p99_s,
        "fair light p99 {} should not exceed FIFO's {}",
        a.fair[0].p99_s,
        a.fifo[0].p99_s
    );
}

/// The cache ablation is modeled end to end (hit rates from the manager's
/// epoch counters, scan wall from per-shard operation counts), so
/// `BENCH_cache.json` must replay byte for byte too.
#[test]
fn bench_cache_is_byte_identical_across_runs() {
    let sf = 0.002;
    let a = cache_measurements(sf).expect("first run");
    let b = cache_measurements(sf).expect("second run");
    let ja = serde_json::to_string(&a).expect("serialize");
    let jb = serde_json::to_string(&b).expect("serialize");
    assert_eq!(ja, jb, "BENCH_cache.json must be replayable");
    assert_eq!(a.len(), 4);
}
