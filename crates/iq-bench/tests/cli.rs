//! `repro`'s command line, driven as a subprocess: what it does not
//! understand is a usage error (exit status 2), never a silent success.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn unknown_section_is_an_error_naming_the_known_ones() {
    let out = repro(&["--tabel2", "--sf", "0.002"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs on a usage error");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown section --tabel2"), "{err}");
    for known in [
        "--all",
        "--ablations",
        "--table2",
        "--group-commit",
        "--explain",
    ] {
        assert!(err.contains(known), "{known} missing from: {err}");
    }
}

#[test]
fn sf_without_a_value_is_a_usage_error() {
    for args in [&["--table1", "--sf"][..], &["--sf", "lots"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("--sf takes a number"), "{err}");
    }
}

#[test]
fn explain_is_a_section_like_any_other() {
    let out = repro(&["--table1", "--explain", "--sf", "0.002"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let table1 = text
        .find("## Table 1 — recovery")
        .expect("Table 1's report");
    let explain = text.find("event journal —").expect("explain's journal");
    assert!(table1 < explain, "sections print in table order");
}
