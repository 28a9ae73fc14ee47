//! The repo benchmark. See `README.md` beside this package for every
//! metric's definition, each workload's reason and how the layers interact.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
//!     one pass over one workload; the last line of stdout is the result
//! benchmark [--seed N] [--seconds S] [--runs K] [--out FILE] [--trace-out FILE]
//!     every workload, each pass in a child process of its own
//! benchmark compare A.json B.json
//!     two files written by --out, metric by metric against the bounds
//! benchmark --check
//!     a smoke run of everything at tiny sizes
//! ```

mod crank;
mod gen;
mod host;
mod json;
mod live;
mod probes;
mod schema;
mod sim;
mod stats;
mod suite;
mod trace;

use json::Json;
use sim::SimKind;
use stats::Metrics;
use std::path::PathBuf;

/// What one pass over one workload produced.
#[derive(Default)]
pub struct RunResult {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl RunResult {
    /// The result line the driver reads.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .0
            .iter()
            .map(|(name, value)| {
                let unit = schema::unit_of(name).expect("put checked the name");
                let m = vec![
                    ("value".to_string(), Json::Num(*value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ];
                (name.clone(), Json::Obj(m))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.errors.is_empty())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// 0 only if every output check held.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.errors.is_empty())
    }
}

/// One pass over one workload: the untraced pass reports the end-to-end
/// metrics, the traced pass the per-layer ones. `shrink` is 1 except in the
/// smoke run, which divides cluster sizes, counted prefixes and probe lengths
/// by it.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<&std::path::Path>,
    shrink: usize,
) -> Result<RunResult, String> {
    let live_shape = [&live::PAY_HOT, &live::PAY_MESH]
        .into_iter()
        .find(|s| s.name == workload);
    let sim_kind = [SimKind::Pay, SimKind::Repl, SimKind::Wal, SimKind::Multihop]
        .into_iter()
        .find(|k| k.name() == workload);
    if live_shape.is_none() && sim_kind.is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    let calib_start = host::calib_ns();
    let mut result = RunResult::default();
    let r = &mut result;
    if traced {
        // First, while the process is small and quiet: the workload-
        // independent probes.
        probes::run(&mut r.metrics, seed, shrink, &mut r.errors);
    }
    let count_ops = |kind: SimKind| kind.count_ops() / shrink as u64;
    match (live_shape, sim_kind, traced) {
        (Some(shape), _, false) => live::run_e2e(shape, seed, seconds, shrink, r),
        (Some(shape), _, true) => live::run_layers(shape, seed, seconds, trace_out, shrink, r),
        (_, Some(kind), false) => sim::run_e2e(kind, seed, seconds, count_ops(kind), r),
        (_, Some(kind), true) => sim::run_layers(kind, seed, seconds, count_ops(kind), r),
        (None, None, _) => unreachable!("checked above"),
    }
    if traced {
        let calib_end = host::calib_ns();
        let drift = (calib_end as f64 / calib_start as f64 - 1.0) * 100.0;
        if drift.abs() > 10.0 {
            eprintln!("warning: host calibration moved {drift:.1} % during the run");
        }
        result.metrics.put("host.calib_ns", calib_start as f64);
        result.metrics.put("host.calib_drift_pct", drift);
        result.metrics.put("host.nproc", host::nproc() as f64);
        schema::fill_not_applicable(&mut result.metrics);
    }
    schema::check_reported(&result.metrics, traced)?;
    Ok(result)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        traced: false,
        runs: 1,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--runs" => a.runs = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--out" => a.out = Some(value()?.into()),
            "--trace-out" => a.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn real_main() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return Err("usage: benchmark compare A.json B.json".into());
            };
            return suite::compare(a.as_ref(), b.as_ref());
        }
        Some("--check") => return suite::check(),
        _ => {}
    }
    let args = parse_args(&argv)?;
    let Some(workload) = &args.workload else {
        return suite::run_all(
            args.seed,
            args.seconds,
            args.runs,
            args.out.as_deref(),
            args.trace_out.as_deref(),
        );
    };
    let result = run_workload(
        workload,
        args.seed,
        args.seconds,
        args.traced,
        args.trace_out.as_deref(),
        1,
    )?;
    for (name, value) in &result.metrics.0 {
        let unit = schema::unit_of(name).expect("put checked the name");
        println!("{workload} {name} {value} {unit}");
    }
    for e in &result.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", result.to_json().render());
    Ok(result.exit_code())
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}
