//! Benchmark harness for the Teechain reproduction.
//!
//! Regenerates every table and figure of the paper's evaluation (§7):
//!
//! | Binary  | Artifact |
//! |---------|----------|
//! | `table1` | Table 1 — single-channel throughput and latency |
//! | `table2` | Table 2 — channel operation latencies |
//! | `fig4`   | Fig. 4 + §7.3 — multi-hop latency and throughput vs hops |
//! | `fig6`   | Fig. 6 — complete-graph network throughput |
//! | `table3` | Table 3 — hub-and-spoke throughput (incl. dynamic routing) |
//! | `fig7`   | Fig. 7 — temporary channels |
//! | `table4` | Table 4 / §7.5 — blockchain cost |
//! | `persistence` | §6 persistence vs. replication cost + crash churn |
//! | `scale`  | engine scaling: a generated 10k+-node hub-and-spoke overlay measured under every engine configuration |
//! | `all`    | everything above |
//!
//! Every binary also writes a machine-readable `BENCH_<name>.json`
//! artifact (see [`report::BenchJson`]) so the perf trajectory is
//! tracked across PRs.
//!
//! `cargo bench` additionally runs Criterion micro-benchmarks of the
//! substrates (with heap traffic per row, through [`alloc_count`]), the ablations listed in `docs/ARCHITECTURE.md`, and the raw
//! engine-overhead bench (`--bench engine`, which feeds
//! `BENCH_engine_micro.json`).

pub mod alloc_count;
pub mod harness;
pub mod report;
pub mod scenarios;
pub mod trace_out;
pub mod turns;
pub mod workload;

pub use harness::{BenchCluster, RunStats};
