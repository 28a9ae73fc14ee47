//! `trend`: diffs two `BENCH_*.json` snapshots so a perf trajectory
//! across PRs is one command away.
//!
//! ```text
//! trend <old.json> <new.json> [--threshold <pct>]
//!       [--fail-drop <dotted.key>]... [--fail-rise <dotted.key>]...
//! ```
//!
//! Every numeric leaf of the artifacts' `metrics`, `op_errors` and
//! `latency` sections is compared by its dotted path (arrays such as the
//! per-engine `configs` list are positional and noisy across runs, so
//! they are skipped). Rows moving more than the threshold (default 10%)
//! are flagged; keys present on only one side are reported as added or
//! removed. Run it as `cargo run --release -p teechain-bench --bin trend
//! -- <old.json> <new.json>`.
//!
//! The `--fail-*` flags turn the diff into a CI gate: exit nonzero when
//! a named key *drops* (`--fail-drop`, e.g. `metrics.events_per_s_1shard`)
//! or *rises* (`--fail-rise`, e.g. `metrics.channel_locked_total`) by
//! more than the threshold, or disappears from the new artifact.

use teechain_bench::report::{JsonValue, Table};

/// Collects `metrics`/`op_errors`/`latency` numeric leaves as dotted
/// paths. Arrays are skipped (positional, noisy across runs).
fn flatten(doc: &JsonValue) -> Vec<(String, f64)> {
    fn walk(prefix: &str, v: &JsonValue, out: &mut Vec<(String, f64)>) {
        match v {
            JsonValue::Num(n) if n.is_finite() => out.push((prefix.to_string(), *n)),
            JsonValue::Obj(fields) => {
                for (k, v) in fields {
                    walk(&format!("{prefix}.{k}"), v, out);
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for section in ["metrics", "op_errors", "latency"] {
        if let Some(v) = doc.get(section) {
            walk(section, v, &mut out);
        }
    }
    out
}

fn load(path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    JsonValue::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn arg_val(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_vals(name: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].clone())
        .collect()
}

fn main() {
    // Positional args, skipping the value slots of known flags (gate
    // keys like `metrics.events_per_s_1shard` would otherwise parse as
    // file paths).
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<String> = Vec::new();
    let mut i = 0;
    while i < raw.len() {
        let a = &raw[i];
        if a == "--threshold" || a == "--fail-drop" || a == "--fail-rise" {
            i += 2;
            continue;
        }
        if !a.starts_with("--") {
            paths.push(a.clone());
        }
        i += 1;
    }
    let [old_path, new_path] = &paths[..] else {
        eprintln!(
            "usage: trend <old.json> <new.json> [--threshold <pct>] \
             [--fail-drop <key>]... [--fail-rise <key>]..."
        );
        std::process::exit(2);
    };
    let threshold: f64 = arg_val("--threshold")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let old = flatten(&load(old_path));
    let new = flatten(&load(new_path));

    let mut table = Table::new(
        &format!("Bench trend: {old_path} -> {new_path}"),
        &["Metric", "Old", "New", "Delta"],
    );
    let mut moved = 0usize;
    let fmt = |v: f64| {
        if v.fract() == 0.0 && v.abs() < 9e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.3}")
        }
    };
    for (key, old_v) in &old {
        match new.iter().find(|(k, _)| k == key) {
            Some((_, new_v)) => {
                let delta_pct = if *old_v != 0.0 {
                    (new_v - old_v) / old_v.abs() * 100.0
                } else if *new_v != 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                let flag = if delta_pct.abs() > threshold {
                    " !"
                } else {
                    ""
                };
                if !flag.is_empty() {
                    moved += 1;
                }
                // Unchanged rows stay out of the table: the diff is the
                // point, not a re-print of both files.
                if delta_pct != 0.0 {
                    table.row(&[
                        key.clone(),
                        fmt(*old_v),
                        fmt(*new_v),
                        format!("{delta_pct:+.1}%{flag}"),
                    ]);
                }
            }
            None => {
                table.row(&[key.clone(), fmt(*old_v), "—".into(), "removed".into()]);
            }
        }
    }
    for (key, new_v) in &new {
        if !old.iter().any(|(k, _)| k == key) {
            table.row(&[key.clone(), "—".into(), fmt(*new_v), "added".into()]);
        }
    }
    table.print();
    println!(
        "\n{} of {} shared metrics moved more than {threshold}% (flagged '!').",
        moved,
        old.iter()
            .filter(|(k, _)| new.iter().any(|(nk, _)| nk == k))
            .count()
    );

    // CI gate: named keys may not regress past the threshold.
    let delta_of = |key: &str| -> Option<f64> {
        let old_v = old.iter().find(|(k, _)| k == key).map(|(_, v)| *v)?;
        let new_v = new.iter().find(|(k, _)| k == key).map(|(_, v)| *v)?;
        Some(if old_v != 0.0 {
            (new_v - old_v) / old_v.abs() * 100.0
        } else if new_v != 0.0 {
            f64::INFINITY
        } else {
            0.0
        })
    };
    let mut violations = Vec::new();
    for key in arg_vals("--fail-drop") {
        match delta_of(&key) {
            Some(d) if d < -threshold => {
                violations.push(format!("{key} dropped {:.1}% (limit {threshold}%)", -d));
            }
            Some(_) => {}
            None => violations.push(format!("{key} missing from one side")),
        }
    }
    for key in arg_vals("--fail-rise") {
        match delta_of(&key) {
            Some(d) if d > threshold => {
                violations.push(format!("{key} rose {d:.1}% (limit {threshold}%)"));
            }
            Some(_) => {}
            None => violations.push(format!("{key} missing from one side")),
        }
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        std::process::exit(1);
    }
}
