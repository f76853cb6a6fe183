//! Cold-process benchmark of the PageForge simulator.
//!
//! One call to [`run_rep`] is one repetition: it builds a workload through
//! the simulator's public entry points, runs it, checks the simulated
//! result against a committed reference, and reports host times, peak RSS
//! and per-layer counts. The `perfbench-rep` binary runs exactly one
//! repetition per process, so no process-wide memo (the image-content memo
//! in `pageforge_vm::generate`, the premerge memo in `pageforge_sim`) can
//! carry work from one repetition into the next.
//!
//! A traced repetition (`run_rep` with `traced` set) also reproduces the
//! simulator's pre-merge construction from public calls inside timed
//! spans, which splits set-up into image synthesis, mapping and the
//! dedup engine's pre-merge. Spans are recorded here, around calls into
//! the program, and stay in memory until the repetition ends.

#![forbid(unsafe_code)]

use std::path::Path;
use std::time::Instant;

use pageforge_bench::experiments::{fleet_cell_config, Scale};
use pageforge_core::{FlatFabric, PageForge};
use pageforge_fleet::ControlPlane;
use pageforge_ksm::Ksm;
use pageforge_obs::Snapshot;
use pageforge_sim::{DedupMode, SimConfig, System};
use pageforge_types::json::{self, ToJson, Value};
use pageforge_types::VmId;
use pageforge_vm::{HostMemory, MemoryImage};

/// Worker threads handed to the simulator: the default executor
/// configuration (`run_all --shards 1`).
const THREADS: usize = 1;

/// The workload seed used when none is given.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Passes allowed to reach merge steady state, as in the simulator's own
/// pre-merge construction.
const PREMERGE_MAX_PASSES: usize = 12;

/// DRAM latency of the flat fabric the simulator pre-merges on.
const PREMERGE_DRAM_LATENCY: u64 = 80;

/// Function density of the dense fleet cell (instances per host).
const FLEET_DENSITY: u32 = 16;

/// Fleet set-ups timed per repetition (odd, so the median is a sample).
const FLEET_SETUP_SAMPLES: usize = 1001;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// silo on the Table 2 machine under PageForge.
    PfSilo,
    /// The same machine, images and arrivals under software KSM.
    KsmSilo,
    /// The fleet experiment's density-16 unhinted cell.
    FleetDense,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::PfSilo, Workload::KsmSilo, Workload::FleetDense];

    /// The workload's name on the command line and in references.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PfSilo => "pf-silo",
            Workload::KsmSilo => "ksm-silo",
            Workload::FleetDense => "fleet-dense",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `label` of this workload's cell in the latency-suite golden.
    fn dedup_label(self) -> &'static str {
        match self {
            Workload::PfSilo => "PageForge",
            _ => "KSM",
        }
    }

    fn sim_config(self, scale: Scale, seed: u64) -> Option<SimConfig> {
        let mode = match self {
            Workload::PfSilo => DedupMode::PageForge(SimConfig::scaled_pageforge()),
            Workload::KsmSilo => DedupMode::Ksm(SimConfig::scaled_ksm()),
            Workload::FleetDense => return None,
        };
        Some(scale.sim_config("silo", mode, seed))
    }
}

/// How a metric is to be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An amount of simulated work; repeats exactly for one input.
    Count,
    /// Host seconds, or a rate over host seconds.
    Host,
    /// `numerator / base`, where `base` names another metric of the same
    /// repetition (0 when the base is 0).
    Ratio {
        /// The metric the ratio divides by.
        base: &'static str,
    },
    /// A ratio the program reports without exporting its base.
    OpaqueRatio,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Layer-qualified name (`vm.merges`, `core.on_chip_ratio`, ...).
    pub name: &'static str,
    /// Unit (`count`, `s`, `ratio`, `1/s`, `Mcycles`).
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// How to read it.
    pub kind: Kind,
}

/// One timed interval of a traced repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name.
    pub name: &'static str,
    /// Seconds since the repetition started.
    pub start: f64,
    /// Seconds since the repetition started.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Times calls into the program and, when enabled, records each as a
/// span in memory.
struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(t0: Instant, enabled: bool) -> Tracer {
        Tracer {
            t0,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f`, returning its value and its duration in host seconds.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = self.t0.elapsed().as_secs_f64();
        let index = self.spans.len();
        if self.enabled {
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent: self.open.last().copied(),
            });
            self.open.push(index);
        }
        let out = f(self);
        let end = self.t0.elapsed().as_secs_f64();
        if self.enabled {
            self.open.pop();
            self.spans[index].end = end;
        }
        (out, end - start)
    }
}

/// Sum over spans called `name` of their duration minus the part covered
/// by their direct children.
pub fn self_time(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| {
            let children: f64 = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end - c.start)
                .sum();
            (s.end - s.start) - children
        })
        .sum()
}

/// The outcome of one repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Which workload ran.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Cold construction (`System::with_shards`, or the fleet config plus
    /// `ControlPlane::new`), host seconds.
    pub setup_s: f64,
    /// The event loop (`run_observed` or `ControlPlane::run`), host seconds.
    pub run_s: f64,
    /// Set-up, run and result check, host seconds.
    pub wall_s: f64,
    /// Simulated cycles the run covered.
    pub sim_cycles: u64,
    /// `VmHWM` of this process at the end of the repetition, MiB.
    pub peak_rss_mb: f64,
    /// FNV-1a 64 digest of the result's compact JSON.
    pub digest: String,
    /// `None` when the result matched every reference that applies.
    pub error: Option<String>,
    /// Per-layer measurements (counts from the run's snapshot).
    pub metrics: Vec<Metric>,
    /// Spans of a traced repetition (empty otherwise).
    pub spans: Vec<Span>,
}

impl Rep {
    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let kind = match m.kind {
                    Kind::Host => "host",
                    Kind::Count | Kind::Ratio { .. } | Kind::OpaqueRatio => "exact",
                };
                let mut fields = vec![
                    ("value".to_owned(), Value::Num(m.value)),
                    ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                    ("kind".to_owned(), Value::Str(kind.to_owned())),
                ];
                if let Kind::Ratio { base } = m.kind {
                    fields.push(("base".to_owned(), Value::Str(base.to_owned())));
                }
                (m.name.to_owned(), Value::Obj(fields))
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".to_owned(), Value::Str(s.name.to_owned())),
                    ("start".to_owned(), Value::Num(s.start)),
                    ("end".to_owned(), Value::Num(s.end)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            (
                "workload".to_owned(),
                Value::Str(self.workload.name().to_owned()),
            ),
            ("seed".to_owned(), Value::Str(format!("{:#x}", self.seed))),
            ("setup_s".to_owned(), Value::Num(self.setup_s)),
            ("run_s".to_owned(), Value::Num(self.run_s)),
            ("wall_s".to_owned(), Value::Num(self.wall_s)),
            ("sim_cycles".to_owned(), Value::Num(self.sim_cycles as f64)),
            ("peak_rss_mb".to_owned(), Value::Num(self.peak_rss_mb)),
            ("digest".to_owned(), Value::Str(self.digest.clone())),
            (
                "error".to_owned(),
                self.error.clone().map_or(Value::Null, Value::Str),
            ),
            ("metrics".to_owned(), Value::Obj(metrics)),
            ("spans".to_owned(), Value::Arr(spans)),
        ])
    }
}

/// What the simulated result of a repetition must equal.
pub struct References {
    /// `(workload, seed, digest)` blessed for this scale.
    digests: Vec<(String, u64, String)>,
    /// The silo cell of the committed latency-suite golden, for
    /// full-scale default-seed silo repetitions.
    golden_cell: Option<Value>,
    /// The `16 / all` row of the committed fleet table, for the
    /// full-scale default-seed fleet repetition.
    golden_fleet_row: Option<Vec<Value>>,
}

impl References {
    /// No references: every check but internal consistency is skipped.
    pub fn none() -> References {
        References {
            digests: Vec::new(),
            golden_cell: None,
            golden_fleet_row: None,
        }
    }

    /// Loads the references that apply to `workload` at `scale` and
    /// `seed` from the repository checkout at `root`.
    pub fn load(
        root: &Path,
        workload: Workload,
        scale: Scale,
        seed: u64,
    ) -> Result<References, String> {
        let read = |rel: &str| -> Result<Value, String> {
            let path = root.join(rel);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            json::parse(&text).map_err(|e| format!("cannot parse {}: {e:?}", path.display()))
        };
        let refs = read("perfbench/reference.json")?;
        let mut digests = Vec::new();
        if let Some(table) = refs.get("digests").and_then(|d| d.get(scale.tag())) {
            for row in table.as_array().unwrap_or_default() {
                let field = |k: &str| row.get(k).and_then(Value::as_str);
                let (Some(w), Some(s), Some(d)) =
                    (field("workload"), field("seed"), field("digest"))
                else {
                    return Err(format!("malformed digest row {}", row.to_string_compact()));
                };
                let s = parse_seed(s).ok_or_else(|| format!("bad seed {s}"))?;
                digests.push((w.to_owned(), s, d.to_owned()));
            }
        }
        // Keep only the cell or row this repetition is checked against:
        // the whole latency-suite golden would add tens of MiB to the
        // peak RSS of default-seed repetitions.
        let golden = scale == Scale::Full && seed == DEFAULT_SEED;
        let mut golden_cell = None;
        let mut golden_fleet_row = None;
        match workload {
            _ if !golden => {}
            Workload::PfSilo | Workload::KsmSilo => {
                let label = workload.dedup_label();
                let suite = read("results/latency_suite_0xc0ffee_full.json")?;
                let cell = suite
                    .as_array()
                    .unwrap_or_default()
                    .iter()
                    .flat_map(|triple| triple.as_array().unwrap_or_default())
                    .find(|c| {
                        c.get("app").and_then(Value::as_str) == Some("silo")
                            && c.get("label").and_then(Value::as_str) == Some(label)
                    })
                    .ok_or_else(|| format!("latency suite golden has no silo/{label} cell"))?;
                golden_cell = Some(cell.clone());
            }
            Workload::FleetDense => {
                let table = read("results/fleet_serverless.json")?;
                let row = table
                    .get("rows")
                    .and_then(Value::as_array)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(Value::as_array)
                    .find(|r| {
                        r.first().and_then(Value::as_str) == Some("16")
                            && r.get(1).and_then(Value::as_str) == Some("all")
                    })
                    .ok_or("fleet golden has no 16/all row")?;
                golden_fleet_row = Some(row.to_vec());
            }
        }
        Ok(References {
            digests,
            golden_cell,
            golden_fleet_row,
        })
    }

    fn digest_for(&self, workload: Workload, seed: u64) -> Option<&str> {
        self.digests
            .iter()
            .find(|(w, s, _)| w == workload.name() && *s == seed)
            .map(|(_, _, d)| d.as_str())
    }

    /// Checks a result; `Err` names the first mismatch.
    fn check(
        &self,
        workload: Workload,
        seed: u64,
        result: &Value,
        digest: &str,
    ) -> Result<(), String> {
        match self.digest_for(workload, seed) {
            Some(want) if want != digest => {
                return Err(format!("result digest {digest} != reference {want}"));
            }
            None if !self.digests.is_empty() => {
                return Err(format!("no reference digest for seed {seed:#x}"));
            }
            _ => {}
        }
        if self.golden_cell.as_ref().is_some_and(|cell| cell != result) {
            let label = workload.dedup_label();
            return Err(format!("result differs from the golden silo/{label} cell"));
        }
        if let Some(row) = &self.golden_fleet_row {
            // Columns: Arrivals (2), Migrations (3), Migrated pages (4),
            // Merged (6), Rejected (10), Retries (11).
            for (col, key) in [
                (2, "arrivals"),
                (3, "migrations"),
                (4, "migrated_pages"),
                (6, "merged_pages"),
                (10, "queue_rejected"),
                (11, "lease_retries"),
            ] {
                let want = row.get(col).and_then(Value::as_str).unwrap_or("?");
                let got = result
                    .get(key)
                    .and_then(Value::as_u64)
                    .map(|v| v.to_string());
                if got.as_deref() != Some(want) {
                    return Err(format!(
                        "fleet {key} = {got:?}, golden 16/all row says {want}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Parses `0x`-prefixed hex or decimal.
pub fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// FNV-1a 64 over `text`, as 16 hex digits.
fn digest(text: &str) -> String {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reproduces the simulator's pre-merge construction from public calls,
/// one span per call: per-VM image synthesis, mapping in VM order, then
/// the dedup engine's run to merge steady state on a flat all-DRAM
/// fabric. Returns the merges it reached.
fn premerge_from_public_calls(cfg: &SimConfig, tr: &mut Tracer) -> u64 {
    let mut mem = HostMemory::new();
    let contents: Vec<_> = (0..cfg.cores)
        .map(|c| {
            let profile = cfg.profile_for(c);
            tr.span("vm.synth", |_| {
                profile.generate_vm_page_contents(VmId(c as u32), cfg.seed)
            })
            .0
        })
        .collect();
    let images: Vec<MemoryImage> = tr
        .span("vm.map", |_| {
            contents
                .into_iter()
                .enumerate()
                .map(|(c, vm_contents)| {
                    let profile = cfg.profile_for(c);
                    let mut pages = Vec::with_capacity(vm_contents.len());
                    profile.map_vm_page_contents(&mut mem, VmId(c as u32), vm_contents, &mut pages);
                    MemoryImage {
                        app: profile.name.clone(),
                        n_vms: 1,
                        pages,
                    }
                })
                .collect()
        })
        .0;
    let hints: Vec<_> = images.iter().flat_map(|i| i.mergeable_hints()).collect();
    match &cfg.dedup {
        DedupMode::None => {}
        DedupMode::Ksm(k) => {
            tr.span("ksm.premerge", |_| {
                Ksm::new(k.clone(), hints).run_to_steady_state(&mut mem, PREMERGE_MAX_PASSES)
            });
        }
        DedupMode::PageForge(p) => {
            // Table 2 has one PageForge module, so one driver scans every
            // hint; a config with more would fail the merge-count check.
            tr.span("core.premerge", |_| {
                let mut flat = FlatFabric::all_dram(PREMERGE_DRAM_LATENCY);
                PageForge::new(p.clone(), hints).run_to_steady_state(
                    &mut mem,
                    &mut flat,
                    PREMERGE_MAX_PASSES,
                )
            });
        }
    }
    mem.stats().merges
}

/// What the timed calls of a repetition produced.
struct Outcome {
    result: Value,
    snapshot: Snapshot,
    sim_cycles: u64,
    setup_s: f64,
    run_s: f64,
    /// Merges reached by the traced set-up decomposition.
    premerge_merges: Option<u64>,
}

fn execute(workload: Workload, scale: Scale, seed: u64, tr: &mut Tracer) -> Outcome {
    match workload.sim_config(scale, seed) {
        Some(cfg) => {
            let premerge_merges = tr.enabled.then(|| {
                tr.span("setup", |tr| premerge_from_public_calls(&cfg, tr))
                    .0
            });
            let (system, setup_s) = tr.span("sim.build", |_| System::with_shards(cfg, THREADS));
            let ((result, snapshot), run_s) = tr.span("sim.run", |_| system.run_observed());
            let sim_cycles = snapshot.gauge("sim.clock").unwrap_or(0.0) as u64;
            Outcome {
                result: result.to_json(),
                snapshot,
                sim_cycles,
                setup_s,
                run_s,
                premerge_merges,
            }
        }
        None => {
            // Fleet construction takes microseconds, so one sample is
            // mostly timer and cache noise: report the median of several.
            let mut samples = Vec::with_capacity(FLEET_SETUP_SAMPLES);
            let mut plane = None;
            for _ in 0..FLEET_SETUP_SAMPLES {
                let (built, s) = tr.span("fleet.build", |_| {
                    ControlPlane::new(fleet_cell_config(
                        FLEET_DENSITY,
                        false,
                        seed,
                        scale,
                        None,
                        None,
                    ))
                });
                samples.push(s);
                plane = Some(built);
            }
            let plane = plane.expect("at least one fleet set-up sample");
            samples.sort_by(f64::total_cmp);
            let setup_s = samples[samples.len() / 2];
            let ((result, snapshot), run_s) = tr.span("fleet.run", |_| plane.run(THREADS));
            let sim_cycles = result.ticks * plane.config().tick_cycles;
            Outcome {
                result: result.to_json(),
                snapshot,
                sim_cycles,
                setup_s,
                run_s,
                premerge_merges: None,
            }
        }
    }
}

/// The per-layer measurements of one repetition. Counts come from the
/// run's snapshot and result; host times from the spans (all zero on an
/// untraced repetition).
fn layer_metrics(workload: Workload, out: &Outcome, spans: &[Span]) -> Vec<Metric> {
    let snap = &out.snapshot;
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let g = |name: &str| snap.gauge(name).unwrap_or(0.0);
    let ratio = |num: f64, base: f64| if base > 0.0 { num / base } else { 0.0 };
    let count = |name, value| Metric {
        name,
        unit: "count",
        value,
        kind: Kind::Count,
    };
    let host = |name, unit, value| Metric {
        name,
        unit,
        value,
        kind: Kind::Host,
    };
    let share = |name, base, value| Metric {
        name,
        unit: "ratio",
        value,
        kind: Kind::Ratio { base },
    };
    let silo = workload != Workload::FleetDense;
    let key_compares = c("pageforge.key_matches") + c("pageforge.key_mismatches");
    let digest_lookups = c("ksm.digest.hits") + c("ksm.digest.misses");
    let jhash_checks = c("ksm.jhash_matches") + c("ksm.jhash_mismatches");
    let row_accesses = c("mem.dram.row_hits") + c("mem.dram.row_misses");
    let shard_lines = c("sim.shard.xdomain_lines") + c("sim.shard.local_lines");
    let loop_s = |name| self_time(spans, name);
    vec![
        host("vm.synth_s", "s", self_time(spans, "vm.synth")),
        host("vm.map_s", "s", self_time(spans, "vm.map")),
        count("vm.pages_mapped", g("mem.mapped_guest_pages")),
        count("vm.merges", c("mem.merges")),
        count("vm.cow_breaks", c("mem.cow_breaks")),
        count("vm.frames_allocated", g("mem.allocated_frames")),
        host("core.premerge_s", "s", self_time(spans, "core.premerge")),
        count("core.engine_runs", c("engine.runs")),
        count("core.lines_fetched", c("engine.lines_fetched")),
        count("core.lines_on_chip", c("engine.lines_on_chip")),
        share(
            "core.on_chip_ratio",
            "core.lines_fetched",
            ratio(c("engine.lines_on_chip"), c("engine.lines_fetched")),
        ),
        count("core.key_compares", key_compares),
        share(
            "core.key_match_ratio",
            "core.key_compares",
            ratio(c("pageforge.key_matches"), key_compares),
        ),
        count("core.refills", c("pageforge.refills")),
        host("ksm.premerge_s", "s", self_time(spans, "ksm.premerge")),
        count("ksm.comparisons", c("ksm.work.comparisons")),
        count("ksm.cmp_bytes", c("ksm.work.cmp_bytes")),
        count("ksm.hash_ops", c("ksm.work.hash_ops")),
        count("ksm.digest_lookups", digest_lookups),
        share(
            "ksm.digest_hit_ratio",
            "ksm.digest_lookups",
            ratio(c("ksm.digest.hits"), digest_lookups),
        ),
        count("ksm.jhash_checks", jhash_checks),
        share(
            "ksm.jhash_match_ratio",
            "ksm.jhash_checks",
            ratio(c("ksm.jhash_matches"), jhash_checks),
        ),
        count("mem.dram_reads", c("mem.dram.reads")),
        count("mem.row_accesses", row_accesses),
        share(
            "mem.row_hit_ratio",
            "mem.row_accesses",
            ratio(c("mem.dram.row_hits"), row_accesses),
        ),
        count("mem.queue_wait_cycles", c("mem.dram.queue_wait_cycles")),
        count("mem.controller_reads", c("mem.controller.reads")),
        count("mem.pageforge_lines", c("mem.controller.pageforge_lines")),
        share(
            "mem.pageforge_line_share",
            "mem.controller_reads",
            ratio(
                c("mem.controller.pageforge_lines"),
                c("mem.controller.reads"),
            ),
        ),
        Metric {
            name: "cache.l3_miss_rate",
            unit: "ratio",
            value: out
                .result
                .get("l3_miss_rate")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            kind: Kind::OpaqueRatio,
        },
        host(
            "sim.loop_s",
            "s",
            if silo { loop_s("sim.run") } else { 0.0 },
        ),
        Metric {
            name: "sim.mcycles",
            unit: "Mcycles",
            value: out.sim_cycles as f64 / 1e6,
            kind: Kind::Count,
        },
        count("sim.queries_completed", c("sim.queries_completed")),
        count("sim.epochs", c("sim.shard.epochs")),
        count("sim.merged_during_run", c("sim.merged_during_run")),
        count("sim.shard_lines", shard_lines),
        share(
            "sim.xdomain_line_share",
            "sim.shard_lines",
            ratio(c("sim.shard.xdomain_lines"), shard_lines),
        ),
        host(
            "fleet.loop_s",
            "s",
            if silo { 0.0 } else { loop_s("fleet.run") },
        ),
        count("fleet.scanned_pages", c("fleet.scanned_pages")),
        count("fleet.merged_pages", c("fleet.merged_pages")),
        count("fleet.migrated_pages", c("fleet.migrated_pages")),
        count("fleet.churn_events", c("fleet.churn_events")),
        count("fleet.rejected", c("fleet.queue.rejected")),
        count("fleet.retries", c("fleet.queue.retries")),
        host(
            "fleet.scanned_pages_per_s",
            "1/s",
            if silo || spans.is_empty() {
                0.0
            } else {
                ratio(c("fleet.scanned_pages"), loop_s("fleet.run"))
            },
        ),
        count(
            "trace.premerge_merges",
            out.premerge_merges.unwrap_or(0) as f64,
        ),
    ]
}

/// Runs one repetition of `workload` and checks its result against the
/// references `load_refs` returns. A traced repetition also decomposes
/// set-up into spans and checks that the decomposition reaches the
/// simulator's own merge count.
pub fn run_rep(
    workload: Workload,
    scale: Scale,
    seed: u64,
    load_refs: impl FnOnce() -> Result<References, String>,
    traced: bool,
) -> Rep {
    let t0 = Instant::now();
    let mut tr = Tracer::new(t0, traced);
    let mut load_s = 0.0;
    let ((out, digest, error), _) = tr.span("rep", |tr| {
        let out = execute(workload, scale, seed, tr);
        // Loaded only now, so parsing the goldens reuses memory the
        // simulator freed instead of raising peak RSS. Loading is not
        // part of what a user waits for, so `wall_s` leaves it out.
        let (refs, s) = tr.span("refs.load", |_| load_refs());
        load_s = s;
        let ((digest, error), _) = tr.span("check", |_| {
            let digest = digest(&out.result.to_string_compact());
            let mut error = refs
                .and_then(|refs| refs.check(workload, seed, &out.result, &digest))
                .err();
            if let Some(premerged) = out.premerge_merges {
                let merges = out.snapshot.counter("mem.merges").unwrap_or(0);
                let during = out.snapshot.counter("sim.merged_during_run").unwrap_or(0);
                if premerged + during != merges {
                    error.get_or_insert(format!(
                        "traced pre-merge reached {premerged} merges; the run reports \
                         {merges} with {during} during the run"
                    ));
                }
            }
            (digest, error)
        });
        (out, digest, error)
    });
    let wall_s = t0.elapsed().as_secs_f64() - load_s;
    let metrics = layer_metrics(workload, &out, &tr.spans);
    Rep {
        workload,
        seed,
        setup_s: out.setup_s,
        run_s: out.run_s,
        wall_s,
        sim_cycles: out.sim_cycles,
        peak_rss_mb: peak_rss_mb(),
        digest,
        error,
        metrics,
        spans: tr.spans,
    }
}
