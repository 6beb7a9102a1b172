//! Table-driven checks over every measured ablation in
//! [`iq_bench::sections::SECTIONS`]: the gates hold, a repeated run
//! serialises to the same bytes, each gate rejects rows that violate it,
//! and the `BENCH_<name>.json` committed at the repository root is what
//! the code produces today. A new measured ablation is covered by adding
//! its table entry (and its negative fixture below) — nothing else here
//! names a section.

use std::any::Any;

use iq_bench::experiments::{
    CacheMeasure, GcBatchingMeasure, GroupCommitMeasure, PackMeasure, PruneMeasure, RecoveryMeasure,
};
use iq_bench::sections::{bench_doc, Rows, Run, Section, SECTIONS};
use iq_bench::throughput::ThroughputMeasure;
use iq_common::IqResult;

type Measure = fn(f64) -> IqResult<Box<dyn Rows>>;

fn measured() -> impl Iterator<Item = (&'static Section, Measure)> {
    SECTIONS.iter().filter_map(|s| match s.run {
        Run::Measured(measure) => Some((s, measure)),
        _ => None,
    })
}

/// Break one condition of the rows' gate — e.g. make the coalesced log
/// pay one PUT per append — so a gate that silently became `Ok(())` is
/// caught.
fn violate(rows: &mut dyn Rows) {
    let rows: &mut dyn Any = rows;
    if let Some(r) = rows.downcast_mut::<Vec<GcBatchingMeasure>>() {
        r[2].delete_requests = r[0].delete_requests;
    } else if let Some(r) = rows.downcast_mut::<Vec<CacheMeasure>>() {
        r[3].post_scan_hit_rate = r[2].post_scan_hit_rate;
    } else if let Some(r) = rows.downcast_mut::<Vec<PackMeasure>>() {
        // A composite member read past the OCM on the warm re-read.
        r[4].store_gets = 1;
    } else if let Some(r) = rows.downcast_mut::<Vec<GroupCommitMeasure>>() {
        r[2].log_puts = r[2].log_appends;
    } else if let Some(r) = rows.downcast_mut::<Vec<RecoveryMeasure>>() {
        r[1].pages_resurrected = 1;
    } else if let Some(r) = rows.downcast_mut::<Vec<PruneMeasure>>() {
        r[1].checksum ^= 1;
    } else if let Some(m) = rows.downcast_mut::<ThroughputMeasure>() {
        m.fair[0].p99_s = m.fifo[0].p99_s + 1.0;
    } else {
        panic!("no negative fixture for this ablation's rows: add one");
    }
}

#[test]
fn gates_hold_runs_replay_and_violations_are_caught() {
    let sf = 0.002;
    for (section, measure) in measured() {
        let flag = section.flag;
        let mut rows = measure(sf).expect(flag);
        if let Err(why) = rows.gates() {
            panic!("--{flag} gate failed: {why}");
        }
        assert_eq!(
            rows.json(),
            measure(sf).expect(flag).json(),
            "--{flag}: {} must be replayable byte for byte",
            section.bench_file()
        );
        violate(rows.as_mut());
        assert!(
            rows.gates().is_err(),
            "--{flag}: the gate accepted rows that violate it"
        );
    }
}

/// The pack ablation gates several claims; each fixture breaks one of
/// them and must be rejected on its own (`violate` holds one of them).
#[test]
fn each_pack_claim_rejects_its_violation() {
    type Fixture = fn(&mut Vec<PackMeasure>);
    let fixtures: [(&str, Fixture); 3] = [
        ("packing stops saving PUTs", |r| {
            r[2].load_puts = r[0].load_puts
        }),
        ("eviction goes page by page", |r| {
            r[4].load_puts = r[4].pages
        }),
        ("a member bypasses the OCM", |r| r[4].store_gets = 1),
    ];
    let (_, measure) = measured()
        .find(|(s, _)| s.flag == "pack")
        .expect("--pack is a measured section");
    for (claim, break_it) in fixtures {
        let mut rows = measure(0.002).expect("pack");
        let any: &mut dyn Any = rows.as_mut();
        break_it(any.downcast_mut().expect("pack rows"));
        assert!(rows.gates().is_err(), "the pack gate accepted: {claim}");
    }
}

/// Byte-stability of the modeled artifacts: each committed
/// `BENCH_<name>.json` equals a regeneration at the `sf` recorded inside
/// it. A failure means the file was edited by hand or the code's numbers
/// moved — regenerate with the `repro` invocation the message names and
/// say so in CHANGES.md.
#[test]
fn committed_bench_files_match_a_regeneration() {
    for (section, measure) in measured() {
        let file = section.bench_file();
        let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect(&path);
        let sf = match serde_json::from_str(&committed).expect(&file) {
            serde_json::Value::Object(doc) => doc["sf"].as_f64().expect("sf is a number"),
            other => panic!("{file} is not an object: {other:?}"),
        };
        let rows = measure(sf).expect(section.flag);
        assert_eq!(
            bench_doc(sf, rows.as_ref()),
            committed,
            "{file} is stale or hand-edited: `repro --{} --sf {sf}` rewrites it",
            section.flag
        );
    }
}
