//! The per-layer metrics of the benchmark are well formed: counts repeat
//! exactly across repetitions of one input, every ratio names a count
//! that is its base, and the traced set-up decomposition reaches the
//! simulator's own merge count. Runs at smoke scale.

use pageforge_bench::experiments::Scale;
use pageforge_perfbench::{run_rep, self_time, Kind, References, Span, Workload};

const SEED: u64 = 0xC0FFEE;

fn no_refs() -> Result<References, String> {
    Ok(References::none())
}

fn counts(rep: &pageforge_perfbench::Rep) -> Vec<(&'static str, f64)> {
    rep.metrics
        .iter()
        .filter(|m| m.kind != Kind::Host && !m.name.starts_with("trace."))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn counts_repeat_exactly_across_repetitions() {
    for workload in Workload::ALL {
        let a = run_rep(workload, Scale::Smoke, SEED, no_refs, false);
        let b = run_rep(workload, Scale::Smoke, SEED, no_refs, false);
        assert_eq!(a.error, None, "{}", workload.name());
        assert_eq!(a.digest, b.digest, "{}", workload.name());
        assert_eq!(counts(&a), counts(&b), "{}", workload.name());
        assert!(a.sim_cycles > 0 && a.setup_s > 0.0 && a.run_s > 0.0);
        assert!(a.wall_s >= a.setup_s + a.run_s);
    }
}

#[test]
fn every_ratio_reports_its_base() {
    for workload in Workload::ALL {
        let rep = run_rep(workload, Scale::Smoke, SEED, no_refs, false);
        for m in &rep.metrics {
            match m.kind {
                Kind::Ratio { base } => {
                    let base = rep
                        .metric(base)
                        .unwrap_or_else(|| panic!("{}: base {base} is not reported", m.name));
                    assert_eq!(base.kind, Kind::Count, "{}: base is not a count", m.name);
                    assert!((0.0..=1.0).contains(&m.value), "{} = {}", m.name, m.value);
                }
                // The program exports the L3 miss rate but not its access
                // count; this is the only ratio allowed without a base.
                Kind::OpaqueRatio => assert_eq!(m.name, "cache.l3_miss_rate"),
                Kind::Count | Kind::Host => assert_ne!(m.unit, "ratio", "{}", m.name),
            }
        }
    }
}

#[test]
fn traced_decomposition_matches_the_untraced_run() {
    for workload in [Workload::PfSilo, Workload::KsmSilo] {
        let plain = run_rep(workload, Scale::Smoke, SEED, no_refs, false);
        let traced = run_rep(workload, Scale::Smoke, SEED, no_refs, true);
        assert_eq!(traced.error, None, "{}", workload.name());
        assert_eq!(counts(&plain), counts(&traced), "{}", workload.name());
        let premerged = traced.metric("trace.premerge_merges").map(|m| m.value);
        let merges = plain.metric("vm.merges").map(|m| m.value);
        let during = plain.metric("sim.merged_during_run").map(|m| m.value);
        assert_eq!(premerged.zip(during).map(|(p, d)| p + d), merges);
        let (used, unused) = match workload {
            Workload::PfSilo => ("core.premerge_s", "ksm.premerge_s"),
            _ => ("ksm.premerge_s", "core.premerge_s"),
        };
        for name in ["vm.synth_s", "vm.map_s", used, "sim.loop_s"] {
            assert!(traced.metric(name).unwrap().value > 0.0, "{name}");
        }
        assert_eq!(traced.metric(unused).unwrap().value, 0.0);
        assert!(plain.spans.is_empty());
    }
}

#[test]
fn self_time_subtracts_direct_children() {
    let span = |name, start, end, parent| Span {
        name,
        start,
        end,
        parent,
    };
    let spans = [
        span("rep", 0.0, 10.0, None),
        span("setup", 0.0, 4.0, Some(0)),
        span("vm.synth", 0.0, 1.0, Some(1)),
        span("vm.synth", 1.0, 2.5, Some(1)),
        span("run", 4.0, 9.0, Some(0)),
    ];
    assert_eq!(self_time(&spans, "rep"), 1.0);
    assert_eq!(self_time(&spans, "setup"), 1.5);
    assert_eq!(self_time(&spans, "vm.synth"), 2.5);
    assert_eq!(self_time(&spans, "missing"), 0.0);
}

#[test]
fn committed_references_load_for_every_workload_and_seed() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for workload in Workload::ALL {
        for seed in [SEED, 0xD15EA5E] {
            if let Err(e) = References::load(&root, workload, Scale::Full, seed) {
                panic!("{} {seed:#x}: {e}", workload.name());
            }
        }
    }
}
