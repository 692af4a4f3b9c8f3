//! The benchmark's self-test: every workload at a small size, untraced and
//! traced, under two seeds — the seed the benchmark was tuned on and one it
//! never used. Each run must pass its own output checks, print exactly the
//! catalog's metric names with their units, and print a result line that
//! parses as the expected JSON object. The catalog must agree with
//! `BENCHMARK.json` when that file sits beside the benchmark's directory.
//!
//! Run with `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --selftest` or `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::ExitCode;

use serde_json::Value;

use crate::metrics::{self, valid_name, valid_unit, Def};
use crate::workload::{Kind, Size};

/// The tuning seed and a seed no tuning ever used.
const SEEDS: [u64; 2] = [1, 0x5EED_0FF5];

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, x)| x)
}

/// Check one printed result line against the catalog.
fn check_line(line: &str, catalog: &[Def]) -> Vec<String> {
    let mut errs = Vec::new();
    let v: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return vec![format!("result line does not parse: {e:?}")],
    };
    let keys: Vec<&str> = v
        .as_object()
        .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        errs.push(format!("result keys are {keys:?}"));
    }
    if field(&v, "attempted").and_then(Value::as_u64).unwrap_or(0) < 1 {
        errs.push("attempted is not a whole number >= 1".into());
    }
    if field(&v, "failed").and_then(Value::as_u64).is_none() {
        errs.push("failed is not a whole number".into());
    }
    let Some(m) = field(&v, "metrics").and_then(Value::as_object) else {
        errs.push("metrics is not an object".into());
        return errs;
    };
    let printed: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = catalog.iter().map(|d| d.name.as_str()).collect();
    if printed != expected {
        errs.push(format!(
            "printed names {printed:?} differ from the catalog {expected:?}"
        ));
    }
    for (name, body) in m {
        let unit = field(body, "unit").and_then(Value::as_str).unwrap_or("");
        if !valid_name(name) {
            errs.push(format!("invalid metric name {name:?}"));
        }
        if !valid_unit(unit) {
            errs.push(format!("metric {name} has invalid unit {unit:?}"));
        }
        if let Some(d) = catalog.iter().find(|d| &d.name == name) {
            if d.unit != unit {
                errs.push(format!(
                    "metric {name} printed unit {unit}, catalog says {}",
                    d.unit
                ));
            }
        }
        if field(body, "value").and_then(Value::as_f64).is_none() {
            errs.push(format!("metric {name} has no numeric value"));
        }
    }
    errs
}

/// Compare the catalog with `BENCHMARK.json`, if present.
fn check_benchmark_json() -> Vec<String> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Vec::new();
    };
    let v: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e:?}")],
    };
    let mut errs = Vec::new();
    for (key, catalog) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        let listed: Vec<(String, String, String)> = field(&v, key)
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|e| {
                let s = |k| {
                    field(e, k)
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = catalog
            .iter()
            .map(|d| {
                (
                    d.name.clone(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect();
        if listed != ours {
            errs.push(format!("BENCHMARK.json {key} differs from the catalog"));
        }
    }
    let workloads: Vec<String> = field(&v, "workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|e| {
            field(e, "name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        })
        .collect();
    if workloads != Kind::ALL.map(|k| k.name().to_string()) {
        errs.push(format!(
            "BENCHMARK.json workloads {workloads:?} differ from the benchmark's"
        ));
    }
    errs
}

/// Every failure the self-test finds.
pub fn failures() -> Vec<String> {
    let mut errs = check_benchmark_json();
    for kind in Kind::ALL {
        for seed in SEEDS {
            for trace in [false, true] {
                let r = crate::run(kind, Size::Small, seed, 0, trace);
                let tag = format!("{} seed {seed} trace {}", kind.name(), u8::from(trace));
                let catalog = if trace {
                    metrics::per_layer()
                } else {
                    metrics::end_to_end()
                };
                errs.extend(r.errors.iter().map(|e| format!("{tag}: {e}")));
                errs.extend(
                    check_line(&r.json(), &catalog)
                        .into_iter()
                        .map(|e| format!("{tag}: {e}")),
                );
                println!(
                    "selftest {tag}: {} metrics, correct {}",
                    r.metrics.len(),
                    r.correct()
                );
            }
        }
    }
    errs
}

pub fn run() -> ExitCode {
    let errs = failures();
    for e in &errs {
        eprintln!("selftest: {e}");
    }
    if errs.is_empty() {
        println!("selftest passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    // Under debug assertions the market's auditor panics on the first
    // invariant violation, and the multipath workload records known
    // tree-disjointness violations; the benchmark counts them instead, so
    // the self-test runs in release mode.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "run with --release")]
    fn selftest_passes() {
        let errs = super::failures();
        assert!(errs.is_empty(), "{errs:#?}");
    }
}
