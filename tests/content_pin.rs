//! Pins the bytes of a small synthesized image and of its ECC page keys.
//!
//! Image synthesis (`AppProfile` over the vendored RNG) and key assembly
//! (SECDED minikeys) feed every result, yet a change that moves their
//! output would otherwise surface only as drift in the full-scale
//! benchmark digests. These digests were recorded once and must not move:
//! a deliberate change to synthesis or keys re-records them in the same
//! commit and says why.

use pageforge::ecc::EccKeyConfig;
use pageforge::types::VmId;
use pageforge::vm::{AppProfile, PageCategory};

/// FNV-1a (64-bit) over a byte stream.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

const SEED: u64 = 0xC0FFEE;
const N_VMS: u32 = 2;
const PAGES_PER_VM: usize = 96;

/// Digests of (a) every page's gfn, category and bytes and (b) every
/// page's default ECC key, over both VMs in mapping order.
fn digests() -> (u64, u64) {
    let profile = AppProfile::tailbench_suite_scaled(PAGES_PER_VM)
        .into_iter()
        .find(|p| p.name == "silo")
        .expect("silo preset");
    let keys = EccKeyConfig::default();
    let mut image = Fnv1a::new();
    let mut key_digest = Fnv1a::new();
    for vm in 0..N_VMS {
        for (gfn, data, category) in profile.generate_vm_page_contents_uncached(VmId(vm), SEED) {
            image.write(&gfn.0.to_le_bytes());
            image.write(&[match category {
                PageCategory::Unmergeable => 0,
                PageCategory::MergeableZero => 1,
                PageCategory::MergeableNonZero => 2,
            }]);
            image.write(data.as_bytes());
            key_digest.write(&keys.page_key(&data).0.to_le_bytes());
        }
    }
    (image.0, key_digest.0)
}

#[test]
fn synthesized_image_and_keys_are_pinned() {
    let (image, keys) = digests();
    assert_eq!(image, 0x6708_be64_9bb0_e7e1, "image digest {image:#018x}");
    assert_eq!(keys, 0xf3e6_1c8c_f07a_4569, "key digest {keys:#018x}");
}
