//! Smoke test of the benchmark itself at tiny sizes: the command's
//! result line carries every catalogued metric with a unit and a
//! well-formed name, `BENCHMARK.json` agrees with the catalog, and each
//! correctness check trips on a deliberately corrupted output.

use std::path::Path;
use std::process::Command;

use gtw_desim::Json;
use gtw_perfbench::catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use gtw_perfbench::{climate, control_storm, fmri, wan_bulk, Scale};

fn well_formed(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Run the benchmark binary and parse its last stdout line.
fn result_line(args: &[&str]) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    (out.status.success(), Json::parse(last).expect("last line is JSON"))
}

fn metrics(result: &Json) -> Vec<(String, Json)> {
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs.clone(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn assert_result(args: &[&str], expected: &[(&str, &str)]) {
    let (ok, result) = result_line(args);
    assert!(ok, "{args:?} exited non-zero: {}", result.dump());
    assert!(matches!(result.get("correct"), Some(Json::Bool(true))), "{args:?}: not correct");
    let attempted = result.get("attempted").and_then(Json::as_i128).expect("attempted");
    let failed = result.get("failed").and_then(Json::as_i128).expect("failed");
    assert!(attempted >= 1 && failed == 0, "{args:?}: attempted {attempted}, failed {failed}");
    let got = metrics(&result);
    assert_eq!(got.len(), expected.len(), "{args:?}: metric count");
    for (name, unit) in expected {
        let (_, m) =
            got.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name} unit");
        let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        assert!(v.is_finite(), "{args:?}: {name} = {v}");
    }
    for (name, _) in &got {
        assert!(well_formed(name), "bad metric name {name}");
    }
}

#[test]
fn every_metric_is_emitted_with_a_unit() {
    let e2e: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let layers: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let trace = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke-trace.json");
    let trace = trace.to_str().expect("utf-8 target path");
    for w in &WORKLOADS {
        let base = ["--workload", w.name, "--seed", "7", "--scale", "tiny", "--seconds", "0.3"];
        assert_result(&[&base[..], &["--trace", "0"]].concat(), &e2e);
        assert_result(&[&base[..], &["--trace", "1", "--trace-out", trace]].concat(), &layers);
    }
    let _ = std::fs::remove_file(trace);
}

#[test]
fn end_to_end_values_are_never_zero() {
    let (_, result) = result_line(&[
        "--workload",
        "control_storm",
        "--scale",
        "tiny",
        "--seconds",
        "0.2",
        "--trace",
        "0",
    ]);
    for (name, m) in metrics(&result) {
        assert!(m.get("value").and_then(Json::as_f64).unwrap_or(0.0) > 0.0, "{name} is 0");
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect()
    };
    assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    for (e, m) in doc.get("end_to_end").and_then(Json::as_arr).unwrap().iter().zip(&END_TO_END) {
        assert_eq!(e.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(e.get("better").and_then(Json::as_str), Some(m.better));
        assert_eq!(e.get("bound").and_then(Json::as_f64), Some(m.bound));
    }
    for (e, m) in doc.get("per_layer").and_then(Json::as_arr).unwrap().iter().zip(&PER_LAYER) {
        assert_eq!(e.get("unit").and_then(Json::as_str), Some(m.unit), "{}", m.name);
        assert_eq!(e.get("better").and_then(Json::as_str), Some(m.better), "{}", m.name);
    }
}

#[test]
fn wan_bulk_check_trips_on_corrupted_reports() {
    let sc = wan_bulk::Scenario::generate(7, 0, wan_bulk::Size::of(Scale::Tiny));
    let (_, run) = sc.transfer_set().run(0);
    wan_bulk::check_report(&sc, &run).expect("a clean run passes");

    let mut bad = run.clone();
    bad.hops[0].stats.packets_out += 1;
    assert!(wan_bulk::check_report(&sc, &bad).is_err(), "hop conservation");
    let mut bad = run.clone();
    bad.receivers[0].bytes_delivered -= 1;
    assert!(wan_bulk::check_report(&sc, &bad).is_err(), "incomplete transfer");
    let mut bad = run.clone();
    bad.senders[1].bytes_acked += 1;
    assert!(wan_bulk::check_report(&sc, &bad).is_err(), "acked != delivered");
}

fn with(report: &Json, key: &str, value: Json) -> Json {
    let Json::Obj(pairs) = report else { panic!("report is an object") };
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), if k == key { value.clone() } else { v.clone() }))
            .collect(),
    )
}

#[test]
fn control_storm_check_trips_on_corrupted_reports() {
    let report = gtw_net::replica::multi_domain_fault_report(7);
    let t = control_storm::check_report(&report).expect("a clean report passes");
    assert!(
        control_storm::check_report(&with(&report, "placed", Json::from(t.placed - 1))).is_err()
    );
    assert!(control_storm::check_report(&with(&report, "budgets_conserved", Json::from(false)))
        .is_err());
    assert!(
        control_storm::check_report(&with(&report, "states_converged", Json::from(false))).is_err()
    );
}

#[test]
fn fmri_check_trips_on_a_flipped_map_bit() {
    let scanner = fmri::scanner(7);
    let map = fmri::direct_map(&scanner);
    fmri::check_map(&map, &map).expect("a map equals itself");
    let mut bad = map.clone();
    let i = bad.data.len() / 2;
    bad.data[i] = f32::from_bits(bad.data[i].to_bits() ^ 1);
    assert!(fmri::check_map(&bad, &map).is_err());
}

#[test]
fn climate_check_trips_on_a_changed_mean() {
    let (report, _) = climate::run(climate::steps(Scale::Tiny));
    let first = report.expect("the ocean rank reports");
    climate::check_run(Some(&first), &first).expect("a run equals itself");
    let mut bad = first.clone();
    bad.sst_mean[3] = f64::from_bits(bad.sst_mean[3].to_bits() ^ 1);
    assert!(climate::check_run(Some(&bad), &first).is_err());
    assert!(climate::check_run(None, &first).is_err());
}
