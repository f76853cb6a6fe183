//! Benchmark harness regenerating every table and figure of the PageForge
//! paper's evaluation (§5–§6).
//!
//! The experiment logic lives here so integration tests validate the same
//! code paths the binaries run. `run_all` is the one evaluation entry
//! point: it schedules every experiment of [`suite::EXPERIMENTS`] (or the
//! `--only` subset), prints each table, and writes JSON copies under
//! `results/` so EXPERIMENTS.md can be kept honest.
//!
//! Binaries (run with `cargo run --release -p pageforge-bench --bin <name>`):
//!
//! | binary | does |
//! |--------|------|
//! | `run_all` | regenerates the evaluation; `--only <name>` picks experiments |
//! | `fault_campaign` | fault-injection sweep asserting zero incorrect merges |
//! | `make_report` | bundles `results/*.json` into `REPORT.md` |
//! | `micro_bench` | per-operation micro-benchmarks (compare, keys, trees, DRAM, caches) |
//! | `snapshot_diff` | compares two observability snapshots |
//! | `timing_gate` | checks `meta/timing.json` records against `perf_budget.toml` |
//! | `trace_report` | folds a `--trace` stream into per-component attribution |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod experiments;
pub mod report;
pub mod scheduler;
pub mod snapshot_diff;
pub mod suite;
pub mod timing_gate;
pub mod trace_report;

pub use args::BenchArgs;
pub use report::Table;
