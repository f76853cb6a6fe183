//! Micro-benchmarks backing the paper's per-operation claims: page
//! comparison cost, jhash vs ECC key generation (§3.3), red-black tree
//! search (§2.1), Scan-Table batch processing (Table 5), DRAM service,
//! cache-hierarchy access, and the RNG fill behind image synthesis.
//!
//! Uses a small hand-rolled harness (the build environment has no
//! crates.io access for Criterion): each benchmark is auto-calibrated to
//! ~20 ms per sample, run for 15 samples, and reported as the median
//! ns/op with the interquartile range.

use std::hint::black_box;
use std::time::Instant;

use pageforge_cache::{HierarchyConfig, SystemCaches};
use pageforge_core::fabric::FlatFabric;
use pageforge_core::{EngineConfig, PageForgeEngine, INVALID_INDEX};
use pageforge_ecc::{EccKeyConfig, LineEcc, Secded72};
use pageforge_ksm::rbtree::RbTree;
use pageforge_ksm::{jhash2, page_checksum};
use pageforge_mem::{Dram, DramConfig};
use pageforge_types::{Gfn, LineAddr, PageData, VmId};
use pageforge_vm::HostMemory;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

const SAMPLES: usize = 15;
const TARGET_SAMPLE_NANOS: u128 = 20_000_000;

/// Times `f` and prints `group/name: median ns/op (IQR)`.
fn bench(group: &str, name: &str, mut f: impl FnMut()) {
    // Calibrate: grow the batch until one batch takes ~1/4 of the target.
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = t.elapsed().as_nanos().max(1);
        if elapsed >= TARGET_SAMPLE_NANOS / 4 || batch >= 1 << 30 {
            batch = ((batch as u128 * TARGET_SAMPLE_NANOS / elapsed).max(1)) as u64;
            break;
        }
        batch *= 2;
    }
    let mut per_op: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_op.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = per_op[SAMPLES / 2];
    let iqr = per_op[SAMPLES * 3 / 4] - per_op[SAMPLES / 4];
    println!("{group}/{name}: {median:10.1} ns/op  (IQR {iqr:.1}, {batch} iters/sample)");
}

fn page_with_divergence_at(byte: usize) -> (PageData, PageData) {
    let a = PageData::from_fn(|i| (i % 251) as u8);
    let mut b = a.clone();
    b.as_bytes_mut()[byte] ^= 0xFF;
    (a, b)
}

fn bench_page_compare() {
    for &at in &[0usize, 1024, 4095] {
        let (a, b) = page_with_divergence_at(at);
        bench("page_compare", &format!("diverge_at_{at}"), || {
            black_box(a.bytes_examined(black_box(&b)));
        });
    }
    let a = PageData::from_fn(|i| i as u8);
    let b = a.clone();
    bench("page_compare", "identical_full_page", || {
        black_box(a.content_cmp(black_box(&b)));
    });
}

fn bench_hash_keys() {
    let page = PageData::from_fn(|i| (i * 31 % 256) as u8);
    // KSM's key: jhash2 over 1 KB.
    bench("hash_keys", "jhash_1kb", || {
        black_box(page_checksum(black_box(&page)));
    });
    // PageForge's key: ECC minikeys of 4 lines (256 B touched).
    let cfg = EccKeyConfig::default();
    bench("hash_keys", "ecc_key_4_lines", || {
        black_box(cfg.page_key(black_box(&page)));
    });
    let words: Vec<u32> = (0..256).collect();
    bench("hash_keys", "jhash2_256_words", || {
        black_box(jhash2(black_box(&words), 17));
    });
}

fn bench_ecc_codec() {
    bench("ecc_codec", "encode_word", || {
        black_box(Secded72::encode(black_box(0xDEAD_BEEF_0123_4567)));
    });
    let code = Secded72::encode(0xDEAD_BEEF_0123_4567);
    bench("ecc_codec", "decode_clean_word", || {
        black_box(Secded72::decode(black_box(0xDEAD_BEEF_0123_4567), code));
    });
    let line = [0x5Au8; 64];
    bench("ecc_codec", "encode_line", || {
        black_box(LineEcc::encode(black_box(&line)));
    });
    // The engine's key snatch: word 0's code only.
    bench("ecc_codec", "minikey_of", || {
        black_box(LineEcc::minikey_of(black_box(&line)));
    });
}

fn bench_rng() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut page = PageData::zeroed();
    bench("rng", "fill_page_4k", || {
        rng.fill_bytes(black_box(page.as_bytes_mut()));
    });
}

fn bench_rbtree() {
    bench("rbtree", "insert_1000", || {
        let mut t = RbTree::<u64>::new();
        for i in 0..1000u64 {
            t.insert_ord(i.wrapping_mul(0x9E3779B97F4A7C15));
        }
        black_box(&t);
    });
    let mut tree = RbTree::new();
    for i in 0..10_000u64 {
        tree.insert_ord(i.wrapping_mul(0x9E3779B97F4A7C15));
    }
    let needle = 5_000u64.wrapping_mul(0x9E3779B97F4A7C15);
    bench("rbtree", "find_in_10k", || {
        black_box(tree.find_ord(black_box(&needle)));
    });
}

fn bench_scan_table() {
    // One full-table batch: candidate compared against a 7-node tree.
    let mut mem = HostMemory::new();
    let pages: Vec<_> = (0..8u64)
        .map(|i| {
            mem.map_new_page(
                VmId(0),
                Gfn(i),
                PageData::from_fn(move |j| ((i * 37 + j as u64) % 251) as u8),
            )
        })
        .collect();
    bench("scan_table", "batch_7_entries", || {
        let mut eng = PageForgeEngine::new(EngineConfig::default());
        eng.insert_pfe(pages[7], true, 0);
        for (i, &p) in pages[..7].iter().enumerate() {
            eng.insert_ppn(i as u8, p, INVALID_INDEX, INVALID_INDEX - 1);
        }
        let mut fabric = FlatFabric::all_dram(80);
        black_box(eng.run_batch(&mem, &mut fabric, 0));
    });
}

fn bench_memory_system() {
    let mut dram = Dram::new(DramConfig::micro50());
    let mut t = 0u64;
    let mut addr = 0u64;
    bench("memory_system", "dram_service", || {
        addr = addr.wrapping_add(97) % 1_000_000;
        t += 50;
        black_box(dram.service(LineAddr(addr), t, false));
    });
    let mut caches = SystemCaches::new(HierarchyConfig::micro50(4));
    let mut addr2 = 0u64;
    bench("memory_system", "cache_hierarchy_access", || {
        addr2 = addr2.wrapping_add(13) % 100_000;
        black_box(caches.access(
            (addr2 % 4) as usize,
            LineAddr(addr2),
            addr2.is_multiple_of(5),
        ));
    });
}

fn main() {
    bench_page_compare();
    bench_hash_keys();
    bench_ecc_codec();
    bench_rng();
    bench_rbtree();
    bench_scan_table();
    bench_memory_system();
}
