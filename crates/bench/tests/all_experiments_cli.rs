//! `all_experiments` is the one way to run an experiment. The committed
//! `reports/` pin the default scale, so only a default-scale run writes
//! them; a scaled run prints its reports and leaves `reports/` alone.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one run.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("assasin-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// Runs `all_experiments` in `dir` with `args`, at `scale` (`None` =
/// `ASSASIN_SCALE` unset).
fn run(dir: &Path, args: &[&str], scale: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all_experiments"));
    cmd.current_dir(dir).args(args).env_remove("ASSASIN_SCALE");
    if let Some(s) = scale {
        cmd.env("ASSASIN_SCALE", s);
    }
    cmd.output().expect("spawn all_experiments")
}

#[test]
fn default_scale_writes_the_committed_report() {
    let dir = workdir("default");
    let out = run(&dir, &["--filter", "table04"], None);
    assert!(out.status.success(), "{out:?}");
    let written = std::fs::read(dir.join("reports/table04.json")).expect("report written");
    let committed = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../reports/table04.json"
    ))
    .expect("committed report");
    assert_eq!(written, committed);
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn scaled_run_prints_and_writes_no_reports() {
    let dir = workdir("scaled");
    let out = run(&dir, &["--filter", "table04"], Some("0.5"));
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table IV"), "{stdout}");
    assert!(!dir.join("reports").exists(), "a scaled run wrote reports/");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn unknown_filter_exits_2() {
    let dir = workdir("nope");
    let out = run(&dir, &["--filter", "nope"], None);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
