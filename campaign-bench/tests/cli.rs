//! End-to-end runs of the benchmark binary on a seed other than the
//! default: the run succeeds with every verdict correct, and the input
//! fingerprints it prints repeat from one process to the next. Run with
//! `--release`; the debug build is too slow for a profile-matrix campaign.

use std::process::Command;

/// Runs the benchmark and returns its stdout; panics unless it exits 0.
fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign-bench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{args:?} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn fingerprints(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("workload "))
        .expect("the run prints its input fingerprints")
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

#[test]
fn second_seed_runs_end_to_end_and_fingerprints_repeat() {
    let args = [
        "--workload",
        "profile_matrix",
        "--seed",
        "8",
        "--seconds",
        "0",
        "--trace",
        "0",
    ];
    let first = bench(&args);
    let second = bench(&args);
    assert_eq!(fingerprints(&first), fingerprints(&second));
    // Seed 8 pulls the fixed corpus in another order than seed 7 does.
    assert!(fingerprints(&first).contains("set fnv1a64 9e9a9f7e76b008a9"));
    assert!(!fingerprints(&first).contains("feed fnv1a64 9e9a9f7e76b008a9"));
    for out in [&first, &second] {
        let last = result_line(out);
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": 30672, \"failed\": 0,"),
            "{last}"
        );
        for metric in ["items_per_s", "cpu_s", "setup_s", "peak_rss_mb"] {
            assert!(
                last.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{metric}: {last}"
            );
        }
    }
}

#[test]
fn resumed_matrix_traces_every_layer_on_a_second_seed() {
    let out = bench(&[
        "--workload",
        "store_resume",
        "--seed",
        "8",
        "--seconds",
        "0",
        "--trace",
        "1",
    ]);
    assert!(out.contains("0 verdict(s) differ from the campaign, 0 from the reference, 0 item(s) whose layers do not add up"), "{out}");
    let last = result_line(&out);
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": 30672,"),
        "{last}"
    );
    for metric in [
        "journal.replayed",
        "persist.disk_hits",
        "obs.overhead_pct",
        "pipeline.residual_ms",
    ] {
        assert!(
            last.contains(&format!("\"{metric}\": {{\"value\": ")),
            "{metric}: {last}"
        );
    }
}
