//! `perfbench compare <BENCHMARK.json> <set-a> <set-b>`: two sets of
//! runs of the same code must agree.
//!
//! A set directory holds `<workload>-e2e.json` and
//! `<workload>-layers.json`, each the result line of one run. For every
//! end-to-end metric and workload the relative difference of set B
//! against set A (in the direction that counts as worse) is printed
//! next to the metric's bound; a difference outside the bound, a
//! failed operation, or an exact counter that changed makes the exit
//! code non-zero.

use crate::report::EXACT;
use insum_telemetry::json::{self, Value};
use std::path::Path;
use std::process::ExitCode;

/// A JSON document, or a run's output whose last line is one.
fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let last_line = text.lines().rev().find(|l| !l.trim().is_empty());
    json::parse(text.trim())
        .or_else(|_| json::parse(last_line.unwrap_or("")))
        .map_err(|e| format!("{}: {e:?}", path.display()))
}

fn metric(run: &Value, name: &str) -> Result<f64, String> {
    run.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("metric {name} missing from a run"))
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: {key} missing"))
}

/// How much worse `b` is than `a`, as a share of `a` (negative when it
/// is better).
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

fn compare(benchmark: &Path, set_a: &Path, set_b: &Path) -> Result<bool, String> {
    let spec = load(benchmark)?;
    let list = |key: &str| -> Result<&[Value], String> {
        spec.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: {key} missing"))
    };
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set a", "set b", "worse by", "bound"
    );
    for workload in list("workloads")? {
        let workload = text(workload, "name")?;
        let run = |set: &Path, kind: &str| load(&set.join(format!("{workload}-{kind}.json")));
        let (a, b) = (run(set_a, "e2e")?, run(set_b, "e2e")?);
        for run in [&a, &b] {
            if run.get("correct") != Some(&Value::Bool(true)) {
                println!("{workload}: a run reports failed operations");
                ok = false;
            }
        }
        for m in list("end_to_end")? {
            let name = text(m, "name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: bound missing")?;
            let (va, vb) = (metric(&a, name)?, metric(&b, name)?);
            let worse = worse_by(va, vb, text(m, "better")? == "lower");
            let verdict = if worse > bound { "OUTSIDE" } else { "" };
            ok &= worse <= bound;
            println!(
                "{workload:<16} {name:<16} {va:>14.6e} {vb:>14.6e} {:>8.2}% {:>6.1}% {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
        let (a, b) = (run(set_a, "layers")?, run(set_b, "layers")?);
        for name in EXACT {
            let (va, vb) = (metric(&a, name)?, metric(&b, name)?);
            if va.to_bits() != vb.to_bits() {
                println!("{workload}: exact counter {name} changed: {va} vs {vb}");
                ok = false;
            }
        }
        println!(
            "{workload}: {} exact counters identical across the two sets",
            EXACT.len()
        );
    }
    Ok(ok)
}

pub fn main(args: &[String]) -> ExitCode {
    let [benchmark, set_a, set_b] = args else {
        eprintln!("usage: perfbench compare <BENCHMARK.json> <set-a-dir> <set-b-dir>");
        return ExitCode::from(2);
    };
    match compare(Path::new(benchmark), Path::new(set_a), Path::new(set_b)) {
        Ok(true) => {
            println!("the two sets agree within every bound");
            ExitCode::SUCCESS
        }
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        // A latency that grew 10 % is 10 % worse; a rate that grew is better.
        assert!((worse_by(1.0, 1.1, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) + 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, false) - 0.1).abs() < 1e-12);
        assert_eq!(worse_by(2.0, 2.0, true), 0.0);
    }
}
