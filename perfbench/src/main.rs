//! Runs one benchmark repetition in this process and prints it as one
//! JSON line.
//!
//! ```text
//! perfbench-rep --workload pf-silo|ksm-silo|fleet-dense [--seed N]
//!               [--trace] [--root DIR]
//! ```
//!
//! `--root` is the repository checkout holding `results/` and
//! `perfbench/reference.json` (default: the current directory). The
//! process exits 0 when the repetition ran, whether or not its result
//! matched the references; the line's `error` field says why it did not.

use std::path::PathBuf;
use std::process::ExitCode;

use pageforge_bench::experiments::Scale;
use pageforge_perfbench::{parse_seed, run_rep, References, Workload, DEFAULT_SEED};

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut traced = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_default();
        match arg.as_str() {
            "--workload" => workload = Workload::parse(&value()),
            "--seed" => match parse_seed(&value()) {
                Some(s) => seed = s,
                None => return usage("--seed takes a decimal or 0x-hex number"),
            },
            "--trace" => traced = true,
            "--root" => root = PathBuf::from(value()),
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is pf-silo, ksm-silo or fleet-dense");
    };
    let load_refs = || References::load(&root, workload, Scale::Full, seed);
    let rep = run_rep(workload, Scale::Full, seed, load_refs, traced);
    println!("{}", rep.to_json().to_string_compact());
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench-rep: {msg}");
    ExitCode::from(2)
}
