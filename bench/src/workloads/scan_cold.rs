//! `scan_cold`: the scan-bound queries after an instance restart, first
//! with every cache empty (pass A), then with only the RAM lost and the
//! OCM's SSD still warm (pass B).
//!
//! Here the storage stack does over half the work: pager → buffer
//! miss/evict → OCM → retry → reactor → `ObjectStoreSim` →
//! unseal/decompress. Pass B isolates the OCM hit path. Engine-only
//! gains move this workload about half as much as `power_warm`.

use std::collections::BTreeMap;

use iq_common::MIB;
use iq_core::{Database, DatabaseConfig};

use crate::counters::db_snap;
use crate::fixture::{
    clear_ram, digest, generator_dry_run, run_queries, timed, tpch_config, Loaded, Reference,
};
use crate::layers::{self, EndToEnd};
use crate::run::{fast_rate, Opts, Report, Run};
use crate::stats::geomean;

pub const NAME: &str = "scan_cold";

pub const SF: f64 = 0.05;

/// Paper-proportional caches: the buffer is smaller than the ≈12 MiB
/// working set, the OCM holds all of it in 64 KiB slots.
const BUFFER_BYTES: usize = 4 * MIB as usize;
const OCM_BYTES: u64 = 128 * MIB;

/// The queries where the scan is most of the plan.
const QUERIES: [u32; 4] = [6, 14, 15, 19];

const WARMUP_ROUNDS: usize = 3;

fn config() -> DatabaseConfig {
    DatabaseConfig {
        buffer_bytes: BUFFER_BYTES,
        ocm_bytes: OCM_BYTES,
        ..tpch_config()
    }
}

fn quiesce(run: &Run, db: &Database) {
    let _s = run.tracer.span("ocm.quiesce");
    db.ocm().expect("scan_cold runs with an OCM").quiesce();
}

/// One pass over the query set after dropping RAM state (and, for pass
/// A, the OCM). Returns the pass wall in ms; background OCM populates
/// are waited for outside it.
fn pass(
    run: &mut Run,
    state: &Loaded,
    want: &BTreeMap<u32, u64>,
    label: &str,
    request_base: u64,
    clear_ocm: bool,
) -> f64 {
    {
        let _s = run.tracer.span("buffer.clear");
        clear_ram(&state.db);
        if clear_ocm {
            state.db.ocm().expect("OCM").clear_cache();
        }
    }
    let (results, pass_ms) =
        timed(|| run_queries(&state.db, &state.tpch, &QUERIES, &run.tracer, request_base));
    quiesce(run, &state.db);
    for (n, ms, out) in results {
        run.samples().push(&format!("{label}.q{n:02}"), ms);
        run.samples().push(&format!("{label}.query"), ms);
        run.check(digest(&out) == want[&n]);
    }
    pass_ms
}

fn round(run: &mut Run, state: &Loaded, want: &BTreeMap<u32, u64>, round: u64) {
    let a = pass(run, state, want, "A", round * 100, true);
    let before = (db_snap(&state.db), state.stores.snap());
    let b = pass(run, state, want, "B", round * 100 + 50, false);
    let after = (db_snap(&state.db), state.stores.snap());
    run.samples().push("round", a);
    run.samples().push("passB", b);
    run.samples().push(
        "queries_per_s",
        2.0 * QUERIES.len() as f64 / ((a + b) / 1e3),
    );
    // What still reaches the store with the OCM warm.
    let delta = |name: &str| after.0[name] - before.0[name];
    let (hits, misses) = (delta("ocm.hits"), delta("ocm.misses"));
    run.values
        .push("passB.ocm_hit_ratio", hits / (hits + misses).max(1.0));
    run.values
        .push("passB.range_gets", delta("pack.ranged_gets"));
    run.values.push(
        "passB.store_gets",
        after.1["store.get"] - before.1["store.get"],
    );
}

fn setup(run: &mut Run, want: &BTreeMap<u32, u64>) -> Loaded {
    let state = Loaded::build(config(), SF, run.opts.seed, &run.tracer);
    run.warm_up(|scratch| {
        for r in 0..WARMUP_ROUNDS {
            round(scratch, &state, want, r as u64);
        }
    });
    state
}

pub fn run(opts: Opts) -> Report {
    let mut run = Run::new(opts);
    let input = generator_dry_run(SF, run.opts.seed);
    let want = {
        let reference = Reference::load(SF, run.opts.seed);
        reference.digests(&QUERIES)
    };

    let state = run.setup(|run| setup(run, &want));

    let db_before = db_snap(&state.db);
    let stores_before = state.stores.snap();
    run.measure(|run, r| round(run, &state, &want, r));
    run.counters.absorb(&db_before, &db_snap(&state.db));
    run.counters.absorb(&stores_before, &state.stores.snap());

    let per_query: Vec<f64> = QUERIES
        .iter()
        .map(|n| run.plain.fast(&format!("A.q{n:02}")))
        .collect();
    run.note_distribution("query latency, pass A", "ms", "A.query");
    run.note_distribution("query latency, pass B", "ms", "B.query");
    run.note_distribution("pass A (all caches cold)", "ms", "round");
    run.note_distribution("pass B (OCM warm)", "ms", "passB");
    run.notes.push(format!(
        "pass B: OCM hit ratio {:.4}; {} GETs still reach the store, {} of them ranged GETs of composite members, which bypass the OCM",
        run.values.median("passB.ocm_hit_ratio"),
        run.values.median("passB.store_gets"),
        run.values.median("passB.range_gets"),
    ));
    run.notes.push(format!(
        "sizes: SF {SF}, buffer {} MiB, OCM {} MiB, {:.1} MiB raw, {:.1} MiB resident, {} load PUTs",
        BUFFER_BYTES as u64 / MIB,
        OCM_BYTES / MIB,
        input.bytes as f64 / crate::MIB,
        state.resident_bytes as f64 / crate::MIB,
        state.load_puts,
    ));

    let (store_puts_per_user_mib, store_bytes_per_user_byte) = state.store_cost(input.bytes);
    let e2e = EndToEnd {
        round_ms: run.plain.fast("round"),
        op_geomean_ms: geomean(&per_query),
        op_tail_ms: per_query.iter().copied().fold(0.0, f64::max),
        work_per_s: fast_rate(run.plain.get("queries_per_s")),
        restart_ms: run.plain.fast("passB"),
        store_puts_per_user_mib,
        store_bytes_per_user_byte,
    };
    layers::finish(run, NAME, e2e, 0.0)
}
