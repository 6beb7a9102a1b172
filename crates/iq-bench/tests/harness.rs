//! Smoke tests for the reproduction harness: every experiment driver
//! produces a well-formed report at a tiny functional scale, and the
//! reproduced *shapes* hold.

use std::collections::BTreeSet;

use iq_bench::experiments;
use iq_bench::runner::{PowerRun, RunConfig};
use iq_bench::sections::{select, GROUPS, SECTIONS};
use iq_objectstore::VolumeKind;

const SF: f64 = 0.002;

#[test]
fn power_run_captures_all_phases() {
    let run = PowerRun::execute(RunConfig::paper_default(SF)).unwrap();
    assert_eq!(run.queries.len(), 22);
    assert!(run.load.rows > 10_000);
    assert!(run.resident_bytes > 0);
    // Every phase folds to a positive, finite time.
    for p in std::iter::once(&run.load).chain(&run.queries) {
        let seconds = run.phase_seconds(p);
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "{}: {seconds}",
            p.name
        );
    }
    assert!(run.query_geomean() > 0.0);
}

#[test]
fn table2_shape_s3_beats_efs() {
    let suite = experiments::run_volume_suite(SF).unwrap();
    let s3 = &suite.runs["AWS S3"];
    let efs = &suite.runs["AWS EFS"];
    // The paper's headline: S3 wins the query sweep by a wide margin
    // against EFS.
    assert!(
        s3.query_geomean() * 3.0 < efs.query_geomean(),
        "s3={} efs={}",
        s3.query_geomean(),
        efs.query_geomean()
    );
    // Table 4's order-of-magnitude at-rest gap.
    let t4 = experiments::table4(&suite);
    assert_eq!(t4.rows.len(), 3);
    // Figure 8 produces a non-trivial series.
    let f8 = experiments::fig8(&suite);
    assert!(f8.rows.len() >= 2);
}

#[test]
fn table1_report_walks_all_clock_ticks() {
    let r = experiments::table1().unwrap();
    assert!(r.rows.len() >= 8);
    let text = r.to_text();
    assert!(text.contains("Coordinator recovers"));
    assert!(text.contains("NOT notified"));
}

#[test]
fn fig9_halves_with_node_count() {
    let r = experiments::fig9(SF).unwrap();
    assert_eq!(r.rows.len(), 3);
    let t2: f64 = r.rows[0][1].trim().parse().unwrap();
    let t8: f64 = r.rows[2][1].trim().parse().unwrap();
    assert!(t8 * 3.0 < t2, "2 nodes {t2}, 8 nodes {t8}");
}

#[test]
fn ablations_render() {
    let c = experiments::consistency();
    // Update-in-place must show stale reads, never-write-twice zero.
    let stale_inplace: u64 = c.rows[0][3].parse().unwrap();
    let stale_fresh: u64 = c.rows[1][3].parse().unwrap();
    assert!(stale_inplace > 0);
    assert_eq!(stale_fresh, 0);

    let p = experiments::prefix();
    let hot: f64 = p.rows[0][2].trim().parse().unwrap();
    let spread: f64 = p.rows[1][2].trim().parse().unwrap();
    assert!(hot > spread * 1.5);

    let k = experiments::keyrange();
    let singleton: u64 = k.rows[0][2].parse().unwrap();
    let adaptive: u64 = k.rows[3][2].parse().unwrap();
    assert!(singleton > adaptive * 1000);

    let m = experiments::ocm_mode();
    let wb: f64 = m.rows[0][2].trim().parse().unwrap();
    let wt: f64 = m.rows[1][2].trim().parse().unwrap();
    assert!(wb < wt, "write-back churn must be cheaper");
}

#[test]
fn ebs_run_exercises_conventional_path() {
    let cfg = RunConfig {
        volume: VolumeKind::EbsGp2,
        ..RunConfig::paper_default(SF)
    };
    let run = PowerRun::execute(cfg).unwrap();
    // No OCM on a conventional volume.
    assert_eq!(run.ocm_stats.hits + run.ocm_stats.misses, 0);
    assert!(run.query_geomean() > 0.0);
}

#[test]
fn section_table_is_well_formed() {
    let flags = GROUPS.iter().map(|g| g.flag);
    let flags: Vec<&str> = flags.chain(SECTIONS.iter().map(|s| s.flag)).collect();
    let unique: BTreeSet<&str> = flags.iter().copied().collect();
    assert_eq!(unique.len(), flags.len(), "a flag is declared twice");

    let picked =
        |args: &[&str]| -> Vec<&str> { select(args).unwrap().iter().map(|s| s.flag).collect() };
    // A group selects its members; everything is in `all` but the
    // calibration aid; selection is in table order, each section once.
    assert_eq!(picked(&["all"]).len(), SECTIONS.len() - 1);
    assert!(!picked(&["all"]).contains(&"explain"));
    assert_eq!(picked(&["ablations"]).len(), 13);
    assert!(!picked(&["ablations"]).contains(&"throughput"));
    assert_eq!(
        picked(&["gc", "table1", "ablations", "gc"])[..2],
        ["table1", "faults"]
    );
    assert_eq!(picked(&["prune", "gc", "prune"]), ["gc", "prune"]);
    let unknown = select(&["tabel2"]).err().expect("a typo selects nothing");
    assert!(unknown.contains("--table2"), "{unknown}");
}

/// Schema-drift check on `repro --metrics`: the exported key set equals
/// the committed list exactly (with and without the fault injector), and
/// the lifecycle really exercised the sources it exports. Regenerate the
/// list after adding or renaming a metric with:
///
/// ```sh
/// cargo run -q -p iq-bench --bin repro -- --metrics | grep -o '"[^"]*"' | tr -d '"' \
///   > crates/iq-bench/tests/golden/metrics.keys
/// ```
#[test]
fn metrics_export_matches_the_committed_key_set() {
    use serde_json::Value;
    let golden: Vec<&str> = include_str!("golden/metrics.keys").lines().collect();
    let export = |faults: bool| match serde_json::from_str(
        &experiments::metrics_export(0.01, faults).unwrap(),
    ) {
        Ok(Value::Object(metrics)) => metrics,
        other => panic!("metrics export is not a JSON object: {other:?}"),
    };
    let (plain, faulty) = (export(false), export(true));
    for metrics in [&plain, &faulty] {
        assert_eq!(metrics.keys().collect::<Vec<_>>(), golden);
        assert!(metrics.values().all(|v| v.as_f64().is_some()));
    }
    let get = |key: &str| plain[key].as_u64().expect(key);
    // The lifecycle packs its commit flush: the pack source must report a
    // live pipeline, not zeros.
    assert!(get("pack.objects_written") > 0 && get("pack.ranged_gets") > 0);
    // Its cold scan flows through the two-phase scan front end: groups
    // are considered and pages accounted.
    assert!(get("scan.groups_considered") > 0 && get("scan.projection_pages_read") > 0);
    // The reactor carries the store traffic: requests flow and every
    // submitted one completes.
    assert!(get("io.submitted") > 0 && get("io.completed") == get("io.submitted"));
    // The scripted injector must actually surface in the counters.
    let get = |key: &str| faulty[key].as_u64().expect(key);
    assert!(get("dbspace.1.retries") > 0 && get("dbspace.1.backoff_nanos") > 0);
}
