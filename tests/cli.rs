//! Integration tests for the `mosc-cli` binary: the full
//! solve → serialize → re-load → evaluate loop through the text format.

use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mosc-cli"))
}

#[test]
fn solve_then_peak_roundtrip() {
    let dir = std::env::temp_dir().join("mosc_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sched_path = dir.join("ao_sched.txt");

    let out = cli()
        .args([
            "solve", "--algo", "ao", "--rows", "1", "--cols", "3", "--levels", "2", "--tmax", "55",
            "--out",
        ])
        .arg(&sched_path)
        .output()
        .expect("run solve");
    assert!(out.status.success(), "solve failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("AO:"), "{stdout}");
    assert!(stdout.contains("feasible true"), "{stdout}");
    assert!(sched_path.exists());

    let out = cli()
        .args(["peak", "--rows", "1", "--cols", "3", "--levels", "2", "--tmax", "55", "--schedule"])
        .arg(&sched_path)
        .output()
        .expect("run peak");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SAFE"), "{stdout}");
    assert!(stdout.contains("Theorem 1"), "{stdout}");
}

#[test]
fn compare_prints_all_algorithms() {
    let out = cli()
        .args(["compare", "--rows", "1", "--cols", "2", "--levels", "2", "--tmax", "60"])
        .output()
        .expect("run compare");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["LNS", "EXS", "AO", "PCO"] {
        assert!(stdout.contains(name), "missing {name} in {stdout}");
    }
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = cli().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");

    let out = cli()
        .args(["solve", "--algo", "nonsense", "--rows", "1", "--cols", "2"])
        .output()
        .expect("run");
    assert!(!out.status.success());

    let out = cli().args(["solve", "--levels", "9"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("levels"));

    // peak without --schedule
    let out = cli().args(["peak"]).output().expect("run");
    assert!(!out.status.success());
}

#[test]
fn schedule_core_count_mismatch_detected() {
    let dir = std::env::temp_dir().join("mosc_cli_test2");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("two_core.txt");
    std::fs::write(&path, "period 0.1\ncore 0: 0.6 x 0.1\ncore 1: 0.6 x 0.1\n").expect("write");
    let out = cli()
        .args(["peak", "--rows", "1", "--cols", "3", "--tmax", "55", "--schedule"])
        .arg(&path)
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cores"));
}

#[test]
fn obs_json_emits_span_tree_and_kernel_counters() {
    let out = cli()
        .args(["solve", "--algo", "ao", "--rows", "1", "--cols", "3", "--tmax", "55", "--obs=json"])
        .output()
        .expect("run solve --obs=json");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The m-sweep span must appear nested under the solve root.
    assert!(
        stdout.contains(r#""path":"ao.solve/ao.sweep_m""#),
        "missing nested sweep span in {stdout}"
    );
    // Kernel and solver counters are present and nonzero. AO runs entirely
    // through the modal period-map kernel, so `expm.calls` no longer
    // appears; the kernel's own counters do.
    for name in [
        "period_map.matmuls",
        "steady_state.cache_hits",
        "ao.tpt_rounds",
        "ao.m_candidates",
        "peak_eval.calls",
    ] {
        let line = stdout
            .lines()
            .find(|l| l.contains(&format!(r#""name":"{name}""#)))
            .unwrap_or_else(|| panic!("missing counter {name} in {stdout}"));
        assert!(!line.contains(r#""value":0"#), "zero {name}: {line}");
    }
}

#[cfg(unix)]
#[test]
fn closed_stdout_exits_with_the_io_code_and_no_panic() {
    // The reader is gone before the solve prints (`mosc-cli … | true`): its
    // end of the socket pair is closed before the spawn, so the first write
    // fails with a broken pipe however the threads are scheduled.
    let (stdout, reader) = std::os::unix::net::UnixStream::pair().expect("socket pair");
    drop(reader);
    let out = cli()
        .args(["solve", "--algo", "lns", "--rows", "1", "--cols", "2", "--tmax", "55"])
        .stdout(Stdio::from(std::os::fd::OwnedFd::from(stdout)))
        .stderr(Stdio::piped())
        .output()
        .expect("run solve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(4), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn obs_pretty_renders_report_after_output() {
    let out = cli()
        .args(["solve", "--algo", "lns", "--rows", "1", "--cols", "2", "--tmax", "60", "--obs"])
        .output()
        .expect("run solve --obs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("LNS:"), "{stdout}");
    assert!(stdout.contains("lns.solve"), "missing span tree in {stdout}");

    let out = cli()
        .args(["solve", "--rows", "1", "--cols", "2", "--tmax", "60", "--obs=yaml"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("yaml"));
}

#[test]
fn profile_reports_all_six_solvers() {
    let dir = std::env::temp_dir().join("mosc_cli_profile");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = dir.join("spec.json");
    std::fs::write(
        &spec,
        r#"{"platform": {"rows": 1, "cols": 2, "levels": [0.6, 1.3], "t_max_c": 55.0}}"#,
    )
    .expect("write spec");

    let out = cli().arg("profile").arg(&spec).output().expect("run profile");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["LNS", "EXS", "EXS-BnB", "AO", "PCO", "Governor"] {
        assert!(stdout.contains(&format!("=== {name} ===")), "missing {name} in {stdout}");
    }
    assert!(stdout.contains("expm.calls"), "summary table missing in {stdout}");

    let out = cli().arg("profile").arg(&spec).arg("--obs=json").output().expect("run profile json");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["LNS", "EXS", "EXS-BnB", "AO", "PCO", "Governor"] {
        assert!(
            stdout.contains(&format!(r#""type":"profile","solver":"{name}""#)),
            "missing {name} profile line in {stdout}"
        );
    }

    let out = cli().args(["profile"]).output().expect("run profile without spec");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("SPEC"));
}

#[test]
fn out_flag_errors_carry_the_path() {
    // --out without a value must not fall through to stdout silently.
    let out = cli()
        .args(["solve", "--rows", "1", "--cols", "2", "--tmax", "60", "--out"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out needs a file path"));

    // An unwritable path must report which path failed.
    let bad = std::env::temp_dir().join("mosc_no_such_dir").join("sched.txt");
    let out = cli()
        .args(["solve", "--rows", "1", "--cols", "2", "--tmax", "60", "--out"])
        .arg(&bad)
        .output()
        .expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot write schedule to") && stderr.contains("mosc_no_such_dir"),
        "{stderr}"
    );
}

const SPEC_1X2: &str =
    r#"{"platform": {"rows": 1, "cols": 2, "levels": [0.6, 1.3], "t_max_c": 55.0}}"#;

/// The analyze engine's typed exit codes: 0 clean/warnings, 1 denied
/// findings, 2 parse/structural, 4 I/O.
#[test]
fn analyze_exit_codes_are_typed() {
    let dir = std::env::temp_dir().join("mosc_cli_analyze_codes");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, SPEC_1X2).expect("write spec");

    // Clean spec -> 0.
    let out = cli().args(["analyze"]).arg(&spec).output().expect("run");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    // Missing file -> 4 (I/O).
    let out = cli().args(["analyze"]).arg(dir.join("missing.json")).output().expect("run");
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));

    // Structural garbage -> 2 (parse).
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json at all").expect("write");
    let out = cli().args(["analyze"]).arg(&garbage).output().expect("run");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));

    // Off-table schedule voltage against the spec -> M080 error -> 1.
    let sched = dir.join("sched.txt");
    std::fs::write(&sched, "period 0.1\ncore 0: 0.9 x 0.1\ncore 1: 0.6 x 0.1\n").expect("write");
    let out = cli().args(["analyze"]).arg(&spec).arg(&sched).output().expect("run");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("M080"));

    // The same finding allowed -> 0; demoted to warning -> 0.
    for flags in [["-A", "M080"], ["-W", "M080"]] {
        let out = cli().args(["analyze"]).args(flags).arg(&spec).arg(&sched).output().expect("run");
        assert_eq!(out.status.code(), Some(0), "{flags:?}");
    }

    // Acknowledged in a baseline -> 0 on the next run.
    let baseline = dir.join("baseline.txt");
    let out = cli()
        .args(["analyze", "--write-baseline"])
        .arg(&baseline)
        .arg(&spec)
        .arg(&sched)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let out = cli()
        .args(["analyze", "--baseline"])
        .arg(&baseline)
        .arg(&spec)
        .arg(&sched)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));

    // SARIF output is one valid JSON document even on findings.
    let out =
        cli().args(["analyze", "--format", "sarif"]).arg(&spec).arg(&sched).output().expect("run");
    assert_eq!(out.status.code(), Some(1));
    let sarif = String::from_utf8_lossy(&out.stdout);
    assert!(sarif.contains("\"2.1.0\""), "{sarif}");
    assert!(sarif.contains("M080"), "{sarif}");
}

/// `solve --claim` emits a claim document that `analyze` verifies clean
/// against the matching spec — and catches when it is tampered with.
#[test]
fn solve_claim_round_trips_through_analyze() {
    let dir = std::env::temp_dir().join("mosc_cli_claim");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = dir.join("spec.json");
    std::fs::write(&spec, SPEC_1X2).expect("write spec");
    let claim = dir.join("claim.json");

    let out = cli()
        .args([
            "solve", "--algo", "ao", "--rows", "1", "--cols", "2", "--levels", "2", "--tmax", "55",
            "--claim",
        ])
        .arg(&claim)
        .output()
        .expect("run solve");
    assert!(out.status.success(), "solve failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(claim.exists());

    // The CLI platform flags build the same platform as the spec file, so
    // the claim recomputes exactly: deny-warnings clean.
    let out = cli()
        .args(["analyze", "-D", "warnings"])
        .arg(&spec)
        .arg(&claim)
        .output()
        .expect("run analyze");
    assert_eq!(
        out.status.code(),
        Some(0),
        "claim did not verify:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Tampering with the claimed throughput is caught (M081 -> exit 1).
    let text = std::fs::read_to_string(&claim).expect("read claim");
    let tampered = text.replacen("\"throughput\":", "\"throughput\":2e3,\"was\":", 1);
    assert_ne!(tampered, text);
    std::fs::write(&claim, tampered).expect("write tampered claim");
    let out = cli().args(["analyze"]).arg(&spec).arg(&claim).output().expect("run analyze");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("M081"));
}
