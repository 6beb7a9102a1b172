//! `power_warm`: Q1–Q22 rounds against a buffer that holds everything.
//!
//! Engine-bound steady state: decode, expressions, operators and the
//! query plans do nearly all the work, the buffer serves hits and the
//! store is idle. Kernel work must show here; storage-stack work must
//! not move it.

use std::collections::BTreeMap;

use iq_core::Database;

use crate::counters::db_snap;
use crate::fixture::{
    digest, generator_dry_run, run_queries, timed, tpch_config, Loaded, Reference,
};
use crate::layers::{self, EndToEnd};
use crate::run::{fast_rate, Opts, Report, Run};
use crate::stats::geomean;

pub const NAME: &str = "power_warm";

/// 256 MiB of buffer against ≈12 MiB resident: everything stays cached.
pub const SF: f64 = 0.05;

const QUERIES: [u32; 22] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
];

/// Restarts measured after the rounds, on top of one per set-up, so that
/// `restart_ms` rests on five samples.
const EXTRA_RESTARTS: usize = 2;

/// Power the instance off and on and run the first — cold — round: the
/// paper's power run after an instance restart, one `restart_ms` sample.
fn restart(run: &mut Run, mut loaded: Loaded, want: &BTreeMap<u32, u64>) -> Loaded {
    let (db, reopen_ms) =
        timed(|| Database::reopen(loaded.db.into_durable(), tpch_config()).expect("reopen"));
    loaded.db = db;
    let (results, cold_ms) =
        timed(|| run_queries(&loaded.db, &loaded.tpch, &QUERIES, &run.tracer, 0));
    for (n, _, out) in results {
        run.check(digest(&out) == want[&n]);
    }
    run.values.push("restart_ms", reopen_ms + cold_ms);
    loaded
}

/// Load, commit, restart; the cold round after the restart doubles as
/// the warm-up.
fn setup(run: &mut Run, want: &BTreeMap<u32, u64>) -> Loaded {
    let loaded = Loaded::build(tpch_config(), SF, run.opts.seed, &run.tracer);
    restart(run, loaded, want)
}

pub fn run(opts: Opts) -> Report {
    let mut run = Run::new(opts);
    let input = generator_dry_run(SF, run.opts.seed);
    let want = {
        let reference = Reference::load(SF, run.opts.seed);
        reference.digests(&QUERIES)
    };

    let mut state = run.setup(|run| setup(run, &want));

    let db_before = db_snap(&state.db);
    let stores_before = state.stores.snap();
    run.measure(|run, round| {
        let (results, round_ms) =
            timed(|| run_queries(&state.db, &state.tpch, &QUERIES, &run.tracer, round * 100));
        run.samples().push("round", round_ms);
        run.samples()
            .push("queries_per_s", QUERIES.len() as f64 / (round_ms / 1e3));
        for (n, ms, out) in results {
            run.samples().push(&format!("q{n:02}"), ms);
            run.samples().push("query", ms);
            run.check(digest(&out) == want[&n]);
        }
    });
    run.counters.absorb(&db_before, &db_snap(&state.db));
    run.counters.absorb(&stores_before, &state.stores.snap());
    if !(run.opts.trace || run.opts.quick) {
        for _ in 0..EXTRA_RESTARTS {
            state = restart(&mut run, state, &want);
        }
    }

    let per_query: Vec<f64> = QUERIES
        .iter()
        .map(|n| run.plain.fast(&format!("q{n:02}")))
        .collect();
    run.note_distribution("query latency, all queries", "ms", "query");
    run.note_distribution("round (Q1-Q22)", "ms", "round");
    run.notes.push(format!(
        "sizes: SF {SF}, {} rows, {:.1} MiB raw, {:.1} MiB resident in {} objects",
        input.rows,
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
        restart_ms: run.values.fast("restart_ms"),
        store_puts_per_user_mib,
        store_bytes_per_user_byte,
    };
    // Nothing is written in a measured round.
    layers::finish(run, NAME, e2e, 0.0)
}
