//! Everything at once: all six workloads in child processes, the comparison
//! of two such runs, and the smoke run.

use crate::json::Json;
use crate::run_workload;
use crate::schema::{END_TO_END, WORKLOADS};
use crate::stats::median_f;
use std::path::Path;
use std::process::{Command, Stdio};

/// Runs one pass in a child process (so CPU time and peak RSS are that
/// pass's alone), forwards its readable lines and returns its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload} (exit {:?}) printed no result: {e}",
            out.status.code()
        )
    })?;
    if !out.status.success() {
        eprintln!("{workload} seed {seed}: exit {:?}", out.status.code());
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs every workload: `runs` untraced passes on consecutive seeds and one
/// traced pass, each in its own process. Writes one JSON document.
pub fn run_all(
    seed: u64,
    seconds: f64,
    runs: usize,
    out: Option<&Path>,
    trace_out: Option<&Path>,
) -> Result<i32, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (workload, _) in WORKLOADS {
        let mut passes = Vec::new();
        for r in 0..runs.max(1) as u64 {
            passes.push(child(workload, seed + r, seconds, false, None)?);
        }
        let hot_trace = trace_out.filter(|_| workload == "pay_hot");
        let layers = child(workload, seed, seconds, true, hot_trace)?;
        let sum = |key: &str| {
            let all = passes.iter().chain([&layers]);
            all.filter_map(|p| p.get(key)?.as_f64()).sum::<f64>()
        };
        let correct = passes
            .iter()
            .chain([&layers])
            .all(|p| p.get("correct") == Some(&Json::Bool(true)));
        all_correct &= correct;
        let end_to_end = END_TO_END
            .iter()
            .map(|(name, unit, _, _)| {
                let values: Vec<f64> = passes
                    .iter()
                    .filter_map(|p| metric_value(p, name))
                    .collect();
                let m = vec![
                    ("unit".to_string(), Json::Str(unit.to_string())),
                    ("median".to_string(), Json::Num(median_f(&values))),
                    (
                        "values".to_string(),
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ];
                (name.to_string(), Json::Obj(m))
            })
            .collect();
        let per_layer = layers
            .get("metrics")
            .cloned()
            .unwrap_or(Json::Obj(Vec::new()));
        workloads.push((
            workload.to_string(),
            Json::Obj(vec![
                ("correct".into(), Json::Bool(correct)),
                ("attempted".into(), Json::Num(sum("attempted"))),
                ("failed".into(), Json::Num(sum("failed"))),
                ("end_to_end".into(), Json::Obj(end_to_end)),
                ("per_layer".into(), per_layer),
            ]),
        ));
    }
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("runs".into(), Json::Num(runs.max(1) as f64)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    match out {
        Some(path) => std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?,
        None => println!("{}", doc.render()),
    }
    Ok(i32::from(!all_correct))
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` gives — the
/// driver's spread is the distance between the first and the third.
fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = x.len();
    if m < 2 {
        return None;
    }
    let at = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some([at(1), at(2), at(3)])
}

/// Interquartile range as a share of the median; 0 for a single value.
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |[q1, q2, q3]| (q3 - q1) / q2)
}

/// `agree`, `regressed` or `unresolved` for one metric of one workload: B
/// against A, by medians, against the metric's bound. Where either side's
/// own spread exceeds the bound the pair says nothing — except for
/// `setup_s` (`gate_spread` false), a few milliseconds whose spread the
/// driver does not gate either.
fn verdict(
    a: &[f64],
    b: &[f64],
    better: &str,
    bound: f64,
    gate_spread: bool,
) -> (&'static str, f64) {
    let (ma, mb) = (median_f(a), median_f(b));
    let worse = if better == "lower" {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let v = if gate_spread && (spread(a) > bound || spread(b) > bound) {
        "unresolved"
    } else if worse > bound {
        "regressed"
    } else {
        "agree"
    };
    (v, worse)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares two files written by `--out`: per workload and end-to-end
/// metric, both medians, the change and the verdict; and whether the
/// simulator's per-operation counts are bit-equal.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut bad = 0;
    println!(
        "{:<13} {:<14} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse %", "A iqr %", "B iqr %"
    );
    for (workload, _) in WORKLOADS {
        let side = |doc: &Json| doc.get("workloads")?.get(workload).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            println!("{workload:<13} missing from one side");
            bad += 1;
            continue;
        };
        for (name, _, better, bound) in END_TO_END {
            let values = |w: &Json| -> Option<Vec<f64>> {
                let arr = w.get("end_to_end")?.get(name)?.get("values")?.as_arr()?;
                arr.iter().map(Json::as_f64).collect()
            };
            let (Some(va), Some(vb)) = (values(&wa), values(&wb)) else {
                println!("{workload:<13} {name:<14} missing from one side");
                bad += 1;
                continue;
            };
            let (v, worse) = verdict(&va, &vb, better, bound, name != "setup_s");
            bad += i32::from(v != "agree");
            println!(
                "{workload:<13} {name:<14} {:>14.4} {:>14.4} {:>8.2} {:>7.2} {:>7.2}  {v} (bound {:.0} %)",
                median_f(&va),
                median_f(&vb),
                worse * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                bound * 100.0
            );
        }
        if workload.starts_with("sim_") {
            let counts = |w: &Json| -> Vec<(String, Json)> {
                let layers = w
                    .get("per_layer")
                    .and_then(Json::as_obj)
                    .unwrap_or_default();
                let per_tx = layers.iter().filter(|(k, _)| {
                    k.ends_with("_per_tx")
                        && !k.starts_with("core.node.")
                        && !k.starts_with("trace.")
                });
                per_tx.cloned().collect()
            };
            let equal = counts(&wa) == counts(&wb);
            bad += i32::from(!equal);
            println!(
                "{workload:<13} exact per-operation counts: {}",
                if equal { "bit-equal" } else { "DIFFER" }
            );
        }
    }
    Ok(i32::from(bad > 0))
}

/// What the smoke run divides cluster sizes, counted prefixes and probe
/// lengths by.
const SMOKE_SHRINK: usize = 20;

/// The smoke run: all six workloads, both passes, at tiny sizes, in this
/// process. Asserts the schema (every metric present, finite, nothing
/// extra), that nothing failed and that every output check held.
pub fn check() -> Result<i32, String> {
    let mut bad = 0;
    for (workload, _) in WORKLOADS {
        for traced in [false, true] {
            let r = run_workload(workload, 1, 0.3, traced, None, SMOKE_SHRINK)?;
            let clean = r.errors.is_empty() && r.failed == 0 && r.attempted > 0;
            println!(
                "check {workload} trace {}: {} operations, {} failed, {} metrics: {}",
                u8::from(traced),
                r.attempted,
                r.failed,
                r.metrics.0.len(),
                if clean { "ok" } else { "FAILED" }
            );
            for e in &r.errors {
                println!("  {e}");
            }
            bad += i32::from(!clean);
        }
    }
    Ok(i32::from(bad > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[5.0]), None);
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(&steady, &[104.0, 105.0, 103.0, 104.0], "lower", 0.1, true).0,
            "agree"
        );
        assert_eq!(
            verdict(&steady, &[120.0, 121.0, 119.0, 120.0], "lower", 0.1, true).0,
            "regressed"
        );
        // Better in the other direction is never a regression.
        assert_eq!(
            verdict(&steady, &[120.0, 121.0, 119.0, 120.0], "higher", 0.1, true).0,
            "agree"
        );
        assert_eq!(
            verdict(&steady, &[80.0, 81.0, 79.0, 80.0], "higher", 0.1, true).0,
            "regressed"
        );
        // A side noisier than the bound resolves nothing.
        let noisy = [60.0, 140.0, 90.0, 110.0];
        assert_eq!(verdict(&steady, &noisy, "lower", 0.1, true).0, "unresolved");
        assert_eq!(verdict(&steady, &noisy, "lower", 0.1, false).0, "agree");
    }

    /// The smoke run is the bin's own end-to-end test.
    #[test]
    fn smoke_run_passes() {
        assert_eq!(check(), Ok(0));
    }
}
