//! Pins every smoke-scale result artifact to a committed digest manifest.
//!
//! The CI determinism gates are self-relative (`--jobs 2` against
//! `--jobs 4`, traced against untraced), so a deterministic change in
//! what the simulator computes would pass them silently. This test runs
//! the whole suite at `--smoke --jobs 2`, exactly as `run_all` does, and
//! compares the FNV-1a-64 digest of every `*.json` it writes — the tables
//! and the latency-suite record — with `tests/golden/smoke_digests.txt`.
//!
//! An intended change to results re-records the changed lines in the same
//! commit and says why in CHANGES.md. On mismatch the failure message
//! prints the full manifest as computed, ready to be reviewed and pasted.

use std::collections::BTreeMap;
use std::path::PathBuf;

use pageforge_bench::{suite, BenchArgs};

const MANIFEST: &str = include_str!("golden/smoke_digests.txt");

/// FNV-1a (64-bit) over a byte slice.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs the smoke suite into a fresh directory and digests every JSON
/// artifact, keyed by file name.
fn smoke_digests() -> BTreeMap<String, u64> {
    let out_dir: PathBuf =
        std::env::temp_dir().join(format!("pageforge-golden-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out_dir);
    std::fs::create_dir_all(&out_dir).unwrap();
    // A well-formed but wrong latency-suite record, as a stale run would
    // leave behind: the suite must simulate afresh and overwrite it.
    std::fs::write(out_dir.join("latency_suite_0xc0ffee_smoke.json"), "[]").unwrap();
    let args = BenchArgs {
        smoke: true,
        jobs: 2,
        out_dir: out_dir.clone(),
        ..BenchArgs::default()
    };
    let outcome = suite::run_suite(&args).expect("smoke suite runs");
    suite::print_and_write(&outcome, &out_dir);
    let mut digests = BTreeMap::new();
    for entry in std::fs::read_dir(&out_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            digests.insert(name, fnv1a64(&std::fs::read(&path).unwrap()));
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    digests
}

/// Parses `<16 hex digits>  <file name>` lines; `#` starts a comment.
fn parse_manifest(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (hex, name) = l.split_once("  ").expect("`<digest>  <file>` line");
            let digest = u64::from_str_radix(hex, 16).expect("hex digest");
            (name.trim().to_string(), digest)
        })
        .collect()
}

fn render_manifest(digests: &BTreeMap<String, u64>) -> String {
    digests
        .iter()
        .map(|(name, d)| format!("{d:016x}  {name}\n"))
        .collect()
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
}

#[test]
fn smoke_results_match_committed_digests() {
    let expected = parse_manifest(MANIFEST);
    let actual = smoke_digests();
    assert!(
        actual.keys().any(|n| n.starts_with("latency_suite_")),
        "the latency-suite record is part of the pinned artifact set"
    );
    let drift: Vec<String> = expected
        .keys()
        .chain(actual.keys())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .filter(|name| expected.get(*name) != actual.get(*name))
        .map(|name| match (expected.get(name), actual.get(name)) {
            (Some(e), Some(a)) => format!("{name}: expected {e:016x}, got {a:016x}"),
            (Some(_), None) => format!("{name}: pinned but no longer written"),
            _ => format!("{name}: written but not pinned"),
        })
        .collect();
    assert!(
        drift.is_empty(),
        "smoke results drifted from tests/golden/smoke_digests.txt:\n  {}\n\
         computed manifest:\n{}",
        drift.join("\n  "),
        render_manifest(&actual)
    );
}
