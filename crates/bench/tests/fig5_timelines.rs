//! `fig5_timelines` judges only what it measured: a row no episode measured
//! reads "not measured", never a pass.

use std::process::Command;

#[test]
fn zero_trials_measure_nothing_and_pass_nothing() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig5_timelines"))
        .args(["--trials", "0"])
        .output()
        .expect("spawn fig5_timelines");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("T_")).collect();
    assert_eq!(rows.len(), 5, "{text}");
    for row in rows {
        assert!(row.ends_with(" -   not measured"), "{row}");
    }
    assert!(!text.contains("within budget"), "{text}");
}
