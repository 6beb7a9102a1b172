//! The declared metrics, and how a finished run turns into them.
//!
//! End-to-end metrics come from untraced rounds only. Per-layer metrics
//! come from the traced run: spans (S), counter deltas (C) and probes
//! (P), one list for every workload. A metric whose layer the workload
//! does not exercise reads 0 there.

use std::collections::BTreeMap;

use crate::alloc;
use crate::fixture::QUERY_SPANS;
use crate::host;
use crate::probes;
use crate::run::{Report, Run};
use crate::spans::{summarize, write_jsonl, SpanSummary, PREFETCH_SPAN, READ_SPAN, WRITE_SPAN};
use crate::stats::median;

/// End-to-end metrics `(name, unit)`, every one defined on every
/// workload (see the README for what each means where).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("round_ms", "ms"),
    ("op_geomean_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("work_per_s", "1/s"),
    ("restart_ms", "ms"),
    ("store_puts_per_user_mib", "requests/MiB"),
    ("store_bytes_per_user_byte", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`; the layers are the crates.
pub const PER_LAYER: [(&str, &str); 110] = [
    ("tpch.q01_ms", "ms"),
    ("tpch.q02_ms", "ms"),
    ("tpch.q03_ms", "ms"),
    ("tpch.q04_ms", "ms"),
    ("tpch.q05_ms", "ms"),
    ("tpch.q06_ms", "ms"),
    ("tpch.q07_ms", "ms"),
    ("tpch.q08_ms", "ms"),
    ("tpch.q09_ms", "ms"),
    ("tpch.q10_ms", "ms"),
    ("tpch.q11_ms", "ms"),
    ("tpch.q12_ms", "ms"),
    ("tpch.q13_ms", "ms"),
    ("tpch.q14_ms", "ms"),
    ("tpch.q15_ms", "ms"),
    ("tpch.q16_ms", "ms"),
    ("tpch.q17_ms", "ms"),
    ("tpch.q18_ms", "ms"),
    ("tpch.q19_ms", "ms"),
    ("tpch.q20_ms", "ms"),
    ("tpch.q21_ms", "ms"),
    ("tpch.q22_ms", "ms"),
    ("tpch.gen_rows_per_s", "rows/s"),
    ("engine.query_self_ms", "ms"),
    ("engine.work_units_per_round", "count"),
    ("engine.scan_pages_read_per_round", "count"),
    ("engine.scan_pages_skipped_share", "ratio"),
    ("engine.scan_groups_pruned_share", "ratio"),
    ("engine.decode_mib_per_s.i64", "MiB/s"),
    ("engine.decode_mib_per_s.f64", "MiB/s"),
    ("engine.decode_mib_per_s.str", "MiB/s"),
    ("engine.decode_mib_per_s.date", "MiB/s"),
    ("engine.encode_mib_per_s", "MiB/s"),
    ("engine.eval_mask_mrows_per_s", "Mrows/s"),
    ("engine.hash_agg_mrows_per_s", "Mrows/s"),
    ("engine.hash_join_mrows_per_s", "Mrows/s"),
    ("engine.sort_mrows_per_s", "Mrows/s"),
    ("engine.writer_rows_per_s", "rows/s"),
    ("core.pager_read_ms_per_round", "ms"),
    ("core.pager_read_calls_per_round", "count"),
    ("core.pager_prefetch_ms_per_round", "ms"),
    ("core.pager_write_ms", "ms"),
    ("core.pager_unattributed_share", "ratio"),
    ("core.commit_bulk_ms", "ms"),
    ("core.commit_refresh_ms", "ms"),
    ("core.gc_tick_us_p50", "us"),
    ("core.gc_drain_ms", "ms"),
    ("core.gc_keys_per_s", "1/s"),
    ("core.compact_tick_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("core.reopen_log_gets", "requests"),
    ("core.reopen_replayed_records", "count"),
    ("core.log_puts_per_commit", "ratio"),
    ("core.log_puts_per_commit_2c", "ratio"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.evictions_per_round", "count"),
    ("buffer.dirty_evictions", "count"),
    ("buffer.lock_wait_ms", "ms"),
    ("buffer.flush_in_flight_peak", "count"),
    ("buffer.hit_ns", "ns"),
    ("buffer.miss_insert_ns", "ns"),
    ("ocm.hit_ratio", "ratio"),
    ("ocm.evictions", "count"),
    ("ocm.hit_us", "us"),
    ("ocm.miss_us", "us"),
    ("ocm.quiesce_ms", "ms"),
    ("storage.seal_mib_per_s", "MiB/s"),
    ("storage.unseal_mib_per_s", "MiB/s"),
    ("storage.compress_mib_per_s", "MiB/s"),
    ("storage.decompress_mib_per_s", "MiB/s"),
    ("storage.blockmap_get_ns", "ns"),
    ("storage.compression_ratio", "ratio"),
    ("objectstore.gets", "requests"),
    ("objectstore.range_gets", "requests"),
    ("objectstore.puts", "requests"),
    ("objectstore.deletes", "requests"),
    ("objectstore.delete_batches", "requests"),
    ("objectstore.bytes_read", "bytes"),
    ("objectstore.bytes_written_per_user_byte", "ratio"),
    ("objectstore.retries", "count"),
    ("objectstore.over_read_bytes", "bytes"),
    ("objectstore.pack_mean_members", "count"),
    ("objectstore.sim_get_ns", "ns"),
    ("objectstore.sim_get_range_ns", "ns"),
    ("objectstore.sim_put_ns", "ns"),
    ("objectstore.reactor_overhead_ns", "ns"),
    ("objectstore.retry_overhead_ns", "ns"),
    ("txn.log_append_ns", "ns"),
    ("txn.keygen_alloc_ns", "ns"),
    ("txn.log_records", "count"),
    ("txn.committed_chain_peak", "count"),
    ("txn.gc_requests_saved_share", "ratio"),
    ("txn.composites_reclaimed", "count"),
    ("txn.compaction_rewritten", "count"),
    ("snapshot.take_ms", "ms"),
    ("snapshot.sweep_ms", "ms"),
    ("snapshot.retained_keys", "count"),
    ("common.iocore_fanout_us", "us"),
    ("common.io_submitted_per_round", "count"),
    ("common.io_queue_depth_peak", "count"),
    ("common.io_in_flight_peak", "count"),
    ("common.trace_emit_ns_off", "ns"),
    ("common.trace_emit_ns_on", "ns"),
    ("proc.cpu_user_s", "s"),
    ("proc.cpu_sys_s", "s"),
    ("proc.allocs_per_page_read", "count"),
    ("proc.alloc_mib_per_round", "MiB"),
    ("trace.overhead_share", "ratio"),
    ("trace.span_reconcile_share", "ratio"),
    // Request economy on the read path. It is 0 on `power_warm`, and an
    // end-to-end metric may never be, so it lives here without a bound.
    ("store_gets_per_round", "requests"),
];

/// The workload-specific end-to-end values; `setup_s` and
/// `peak_rss_mib` are read the same way everywhere.
pub struct EndToEnd {
    pub round_ms: f64,
    pub op_geomean_ms: f64,
    pub op_tail_ms: f64,
    pub work_per_s: f64,
    pub restart_ms: f64,
    pub store_puts_per_user_mib: f64,
    pub store_bytes_per_user_byte: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Turn a finished run into its report: the end-to-end metrics of an
/// untraced run, or the per-layer metrics of a traced one.
/// `user_bytes_per_round` is what a round writes in raw user bytes (0
/// for a read-only round).
pub fn finish(
    mut run: Run,
    workload: &'static str,
    e2e: EndToEnd,
    user_bytes_per_round: f64,
) -> Report {
    let setup_s = run.values.median("setup_s");
    run.notes.push(format!(
        "set-up: n={} median {setup_s:.4} s (reference digests and the generator dry run excluded)",
        run.values.get("setup_s").len(),
    ));
    run.notes.push(format!(
        "rounds: {} measured ({} traced), {} operations checked, {} failed",
        run.rounds, run.traced_rounds, run.attempted, run.failed
    ));
    let metrics: BTreeMap<String, f64> = if run.opts.trace {
        per_layer(&mut run, workload, user_bytes_per_round)
    } else {
        [
            ("setup_s", setup_s),
            ("round_ms", e2e.round_ms),
            ("op_geomean_ms", e2e.op_geomean_ms),
            ("op_tail_ms", e2e.op_tail_ms),
            ("work_per_s", e2e.work_per_s),
            ("restart_ms", e2e.restart_ms),
            ("store_puts_per_user_mib", e2e.store_puts_per_user_mib),
            ("store_bytes_per_user_byte", e2e.store_bytes_per_user_byte),
            ("peak_rss_mib", host::peak_rss_mib()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
    };
    Report {
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        notes: run.notes,
    }
}

fn span_ms(s: &SpanSummary, name: &str) -> f64 {
    s.by_name
        .get(name)
        .map_or(0.0, |&(_, total, _)| total as f64 / 1e6)
}

/// Median duration of a span. Per-layer span series are often mixed
/// (a `gc_drain` with work and one without, sweeps of growing size), so
/// unlike the end-to-end timings they report the typical case, not the
/// fastest tenth.
fn span_median_ms(s: &SpanSummary, name: &str) -> f64 {
    s.durations.get(name).map_or(0.0, |d| median(d) / 1e6)
}

fn per_layer(run: &mut Run, workload: &str, user_bytes_per_round: f64) -> BTreeMap<String, f64> {
    let (allocs, alloc_bytes) = alloc::counted();
    let (cpu_user, cpu_sys) = host::cpu_seconds();
    let spans = run.tracer.take();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"));
    match write_jsonl(&path, &spans) {
        Ok(()) => run.notes.push(format!(
            "trace: {} spans in {}",
            spans.len(),
            path.display()
        )),
        Err(e) => run.notes.push(format!("trace not written: {e}")),
    }
    let s = summarize(&spans);
    let probe = probes::run_all(run.opts.seed);

    let traced = run.traced_rounds.max(1) as f64;
    let rounds = run.rounds.max(1) as f64;
    let c = &run.counters;
    let per_round = |name: &str| c.get(name) / rounds;

    let mut m: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| (name.to_owned(), 0.0))
        .collect();
    let mut set = |name: &str, value: f64| {
        *m.get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric")) = value;
    };
    for (&name, &value) in probe
        .iter()
        .filter(|(&n, _)| n != probes::UNSEAL_NS_PER_PAGE)
    {
        set(name, value);
    }

    // tpch + engine
    let mut query_self_ns = 0.0;
    for (i, span) in QUERY_SPANS.iter().enumerate() {
        set(&format!("tpch.q{:02}_ms", i + 1), span_median_ms(&s, span));
        query_self_ns += s.by_name.get(span).map_or(0.0, |&(_, _, own)| own as f64);
    }
    set("engine.query_self_ms", query_self_ns / 1e6 / traced);
    set(
        "engine.work_units_per_round",
        per_round("engine.work_units"),
    );
    let pages_read = c.get("scan.predicate_pages_read") + c.get("scan.projection_pages_read");
    set("engine.scan_pages_read_per_round", pages_read / rounds);
    set(
        "engine.scan_pages_skipped_share",
        ratio(
            c.get("scan.gets_saved"),
            c.get("scan.gets_saved") + pages_read,
        ),
    );
    set(
        "engine.scan_groups_pruned_share",
        ratio(
            c.get("scan.groups_zone_pruned") + c.get("scan.groups_partition_pruned"),
            c.get("scan.groups_considered"),
        ),
    );

    // core
    let read_ms = span_ms(&s, READ_SPAN) / traced;
    let read_calls = s.by_name.get(READ_SPAN).map_or(0.0, |&(n, _, _)| n as f64);
    set("core.pager_read_ms_per_round", read_ms);
    set("core.pager_read_calls_per_round", read_calls / traced);
    set(
        "core.pager_prefetch_ms_per_round",
        span_ms(&s, PREFETCH_SPAN) / traced,
    );
    set("core.pager_write_ms", span_ms(&s, WRITE_SPAN) / traced);
    // What reading and prefetching would take if every step cost what
    // its probe measured in isolation; the rest is waiting, contention
    // and glue.
    let loads = per_round("buffer.demand_misses") + per_round("buffer.prefetched");
    let store_get_ns = probe["objectstore.sim_get_range_ns"]
        + probe["objectstore.reactor_overhead_ns"]
        + probe["objectstore.retry_overhead_ns"];
    let explained_ns = per_round("buffer.hits") * probe["buffer.hit_ns"]
        + loads * (probe["buffer.miss_insert_ns"] + probe[probes::UNSEAL_NS_PER_PAGE])
        + per_round("ocm.hits") * probe["ocm.hit_us"] * 1e3
        + per_round("ocm.misses") * probe["ocm.miss_us"] * 1e3
        + per_round("pack.ranged_gets") * store_get_ns;
    let pager_ms = read_ms + span_ms(&s, PREFETCH_SPAN) / traced;
    set(
        "core.pager_unattributed_share",
        if pager_ms == 0.0 {
            0.0
        } else {
            1.0 - explained_ns / 1e6 / pager_ms
        },
    );
    set(
        "core.commit_bulk_ms",
        span_median_ms(&s, "core.commit_bulk"),
    );
    set(
        "core.commit_refresh_ms",
        span_median_ms(&s, "core.commit_refresh"),
    );
    // The one span timing whose name promises a median.
    let gc_ticks = s
        .durations
        .get("core.gc_tick")
        .map_or(&[][..], Vec::as_slice);
    set("core.gc_tick_us_p50", median(gc_ticks) / 1e3);
    set("core.gc_drain_ms", span_median_ms(&s, "core.gc_drain"));
    let gc_s = (span_ms(&s, "core.gc_tick") + span_ms(&s, "core.gc_drain")) / 1e3 / traced;
    set(
        "core.gc_keys_per_s",
        ratio(per_round("gc.keys_deleted"), gc_s),
    );
    set(
        "core.compact_tick_ms",
        span_median_ms(&s, "core.compact_tick"),
    );
    set("core.checkpoint_ms", span_median_ms(&s, "core.checkpoint"));
    set("core.reopen_log_gets", run.values.median("reopen_log_gets"));
    set(
        "core.reopen_replayed_records",
        run.values.median("reopen_replayed_records"),
    );
    set(
        "core.log_puts_per_commit",
        ratio(c.get("log.puts"), c.get("bench.commits")),
    );

    // buffer + ocm
    set(
        "buffer.hit_ratio",
        ratio(per_round("buffer.hits"), per_round("buffer.hits") + loads),
    );
    set("buffer.evictions_per_round", per_round("buffer.evictions"));
    set(
        "buffer.dirty_evictions",
        per_round("buffer.dirty_evictions"),
    );
    set(
        "buffer.lock_wait_ms",
        per_round("buffer.lock_wait_nanos") / 1e6,
    );
    set(
        "buffer.flush_in_flight_peak",
        c.get("buffer.flush_in_flight_peak"),
    );
    set(
        "ocm.hit_ratio",
        ratio(c.get("ocm.hits"), c.get("ocm.hits") + c.get("ocm.misses")),
    );
    set("ocm.evictions", per_round("ocm.evictions"));
    set("ocm.quiesce_ms", span_ms(&s, "ocm.quiesce") / traced);

    // storage + objectstore
    let body_bytes = run
        .tracer
        .body_bytes
        .load(std::sync::atomic::Ordering::Relaxed) as f64;
    set(
        "storage.compression_ratio",
        ratio(per_round("store.put_bytes"), body_bytes / traced),
    );
    let ranged = per_round("pack.ranged_gets");
    let gets = per_round("store.get") + per_round("store.get_miss");
    set("objectstore.gets", gets - ranged);
    set("objectstore.range_gets", ranged);
    set("store_gets_per_round", gets);
    set("objectstore.puts", per_round("store.put"));
    set("objectstore.deletes", per_round("store.delete"));
    set("objectstore.delete_batches", per_round("gc.batches"));
    set("objectstore.bytes_read", per_round("store.get_bytes"));
    set(
        "objectstore.bytes_written_per_user_byte",
        ratio(per_round("store.put_bytes"), user_bytes_per_round),
    );
    set("objectstore.retries", per_round("store.retries"));
    set(
        "objectstore.over_read_bytes",
        per_round("pack.bytes_over_read"),
    );
    set(
        "objectstore.pack_mean_members",
        ratio(c.get("pack.pages_packed"), c.get("pack.objects_written")),
    );

    // txn + snapshot + common
    set("txn.log_records", c.get("log.records"));
    set("txn.committed_chain_peak", c.get("txn.committed_chain"));
    set(
        "txn.gc_requests_saved_share",
        ratio(
            c.get("gc.requests_saved"),
            c.get("gc.requests") + c.get("gc.requests_saved"),
        ),
    );
    set(
        "txn.composites_reclaimed",
        per_round("pack.composites_reclaimed"),
    );
    set(
        "txn.compaction_rewritten",
        per_round("pack.compaction_rewritten"),
    );
    set("snapshot.take_ms", span_median_ms(&s, "snapshot.take"));
    set("snapshot.sweep_ms", span_median_ms(&s, "snapshot.sweep"));
    set(
        "snapshot.retained_keys",
        run.values.median("snapshot.retained_keys"),
    );
    set("common.io_submitted_per_round", per_round("io.submitted"));
    set("common.io_queue_depth_peak", c.get("io.queue_depth_peak"));
    set("common.io_in_flight_peak", c.get("io.in_flight_peak"));

    // proc + trace
    set("proc.cpu_user_s", cpu_user);
    set("proc.cpu_sys_s", cpu_sys);
    set(
        "proc.allocs_per_page_read",
        ratio(allocs as f64, read_calls),
    );
    set(
        "proc.alloc_mib_per_round",
        alloc_bytes as f64 / crate::MIB / traced,
    );
    let (traced_ms, plain_ms) = (run.traced.fast("round"), run.plain.fast("round"));
    set("trace.overhead_share", ratio(traced_ms, plain_ms) - 1.0);
    let (covered_ms, wall_ms) = (s.top_level_ns as f64 / 1e6, run.traced.sum("wall"));
    set("trace.span_reconcile_share", ratio(covered_ms, wall_ms));
    // Ratios with their base.
    run.notes.push(format!(
        "trace.overhead_share: traced round p10 {traced_ms:.4} ms over untraced {plain_ms:.4} ms, minus 1"
    ));
    run.notes.push(format!(
        "trace.span_reconcile_share: top-level spans cover {covered_ms:.1} ms of {wall_ms:.1} ms traced wall"
    ));
    m
}
