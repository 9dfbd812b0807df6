//! End-to-end runs of the hivebench binary at smoke sizes: the harness,
//! its checks and its output format, against the metric lists in the
//! repository's `BENCHMARK.json`.

use std::process::Command;

fn hivebench(args: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hivebench"))
        .args(args.split_whitespace())
        .output()
        .expect("hivebench runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8"),
    )
}

fn is_name(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks every line before the last is `<scope> <name> <value> <unit>`
/// and returns the last line, the JSON result.
fn check_lines(stdout: &str) -> &str {
    let mut lines: Vec<&str> = stdout.lines().collect();
    let json = lines.pop().expect("output has a result line");
    for line in lines {
        let f: Vec<&str> = line.split(' ').collect();
        assert_eq!(f.len(), 4, "not `<scope> <name> <value> <unit>`: {line}");
        assert!(is_name(f[0]) && is_name(f[1]), "bad name: {line}");
        assert!(is_unit(f[3]), "bad unit: {line}");
        // The two lines that label the run rather than measure it.
        if f[1] != "digest" && f[1] != "profile" {
            let v: f64 = f[2].parse().unwrap_or_else(|_| panic!("bad value: {line}"));
            assert!(v.is_finite(), "{line}");
        }
    }
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(json.contains(", \"failed\": 0, \"metrics\": {"), "{json}");
    json
}

/// The metric names listed under `section` in BENCHMARK.json.
fn contract_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// The result reports exactly the metrics listed under `section`.
fn assert_reports(json: &str, section: &str) {
    let names = contract_names(section);
    assert!(!names.is_empty());
    assert_eq!(json.matches("{\"value\": ").count(), names.len(), "{json}");
    for name in names {
        let key = format!("\"{name}\": {{\"value\": ");
        assert!(
            json.contains(&key),
            "{section} metric {name} missing: {json}"
        );
    }
}

#[test]
fn smoke_runs_all_five_workloads_and_their_checks() {
    let (ok, stdout) = hivebench("--smoke");
    assert!(ok, "{stdout}");
    let json = check_lines(&stdout);
    for w in [
        "cloud_offload",
        "edge_local",
        "chaos_planes",
        "mission_4096",
        "fig_grid",
    ] {
        assert!(json.contains(&format!("\"{w}.wall_s\"")), "{w}: {json}");
        assert!(json.contains(&format!("\"{w}.sim.tasks\"")), "{w}: {json}");
    }
}

#[test]
fn one_workload_reports_the_contract_metrics() {
    let (ok, stdout) = hivebench("--workload chaos_planes --seed 4 --seconds 1 --trace 0 --smoke");
    assert!(ok, "{stdout}");
    let json = check_lines(&stdout);
    let attempted: usize = json["{\"correct\": true, \"attempted\": ".len()..]
        .split(',')
        .next()
        .and_then(|n| n.parse().ok())
        .expect("attempted is a count");
    assert!(attempted >= 3, "three repetitions minimum: {json}");
    assert_reports(json, "end_to_end");

    let (ok, stdout) = hivebench("--workload fig_grid --seed 4 --trace 1 --smoke");
    assert!(ok, "{stdout}");
    assert_reports(check_lines(&stdout), "per_layer");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let (ok, stdout) = hivebench("--workload no_such_workload");
    assert!(!ok);
    assert!(stdout.is_empty());
}
