//! Corruption corpus over the on-disk run-cache entry format.
//!
//! The durability contract (DESIGN.md) says damage is *detected at
//! read time* with a classified miss — never a panic, never silent
//! acceptance. This suite proves it mechanically:
//!
//! * every single-byte flip and truncation of a golden [`CacheEntry`]
//!   reads as `None` (a miss);
//! * proptest corpora of random splices and arbitrary byte soup never
//!   panic the decoder and never parse to anything but the golden
//!   value;
//! * a corrupted entry file on disk is classified
//!   [`CacheLookup::Corrupt`] and quarantined under a
//!   reproducer-grade name.

use proptest::prelude::*;
use refsim_core::config::SystemConfig;
use refsim_core::experiment::{run_many_checked, Job};
use refsim_core::runcache::{job_fingerprint, CacheEntry, CacheLookup, RunCache};
use refsim_workloads::mix::WorkloadMix;
use refsim_workloads::profiles::Benchmark;

fn tiny_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::table1().with_time_scale(512).with_seed(seed);
    cfg.warmup = cfg.trefw() / 8;
    cfg.measure = cfg.trefw() / 4;
    cfg
}

fn tiny_mix() -> WorkloadMix {
    WorkloadMix::from_groups(
        "corpus",
        &[(Benchmark::Stream, 1), (Benchmark::Povray, 1)],
        "M",
    )
}

/// A golden cache entry wrapping real run metrics, built once.
fn golden_entry() -> &'static CacheEntry {
    static GOLDEN: std::sync::OnceLock<CacheEntry> = std::sync::OnceLock::new();
    GOLDEN.get_or_init(|| {
        let job = Job {
            cfg: tiny_cfg(0xBEEF),
            mix: tiny_mix(),
        };
        let metrics = run_many_checked(std::slice::from_ref(&job), 1)
            .pop()
            .expect("one result")
            .expect("tiny run succeeds");
        CacheEntry {
            fingerprint: job_fingerprint(&job.cfg, &job.mix),
            replay_hash: 0x5151_5151_dead_beef,
            wall_nanos: 123_456_789,
            metrics,
        }
    })
}

// ---- cache entry container -----------------------------------------------

#[test]
fn cache_entry_rejects_every_single_byte_flip_and_truncation() {
    let golden = golden_entry();
    let bytes = golden.to_bytes();
    assert_eq!(
        CacheEntry::from_bytes(&bytes).as_ref(),
        Some(golden),
        "golden entry must round-trip before we vandalize it"
    );
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << bit;
            assert!(
                CacheEntry::from_bytes(&bad).is_none(),
                "flip of bit {bit} at byte {i}/{} must read as a miss",
                bytes.len()
            );
        }
    }
    for n in 0..bytes.len() {
        assert!(
            CacheEntry::from_bytes(&bytes[..n]).is_none(),
            "truncation to {n}/{} bytes must read as a miss",
            bytes.len()
        );
    }
}

#[test]
fn corrupt_entry_on_disk_is_classified_and_quarantined() {
    let dir = std::env::temp_dir().join(format!("refsim-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = RunCache::new(&dir);
    let golden = golden_entry();
    let fp = golden.fingerprint;
    cache.store(golden).expect("store golden entry");
    match cache.lookup(fp) {
        CacheLookup::Hit(e, _) => assert_eq!(&*e, golden),
        other => panic!("healthy entry must hit, got {other:?}"),
    }

    // Flip one byte of the file in place: a silent-bitrot event.
    let path = dir.join(format!("{fp:016x}.run"));
    let mut bytes = std::fs::read(&path).expect("read entry file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("plant bitrot");

    assert!(
        matches!(cache.lookup(fp), CacheLookup::Corrupt),
        "bitrot must be classified as a corrupt miss, not absent or a hit"
    );
    assert!(
        !path.exists() && path.with_extension("run.quarantine").exists(),
        "the damaged entry must be quarantined under a reproducer-grade name"
    );
    // The quarantine is sticky: the slot now reads as a plain absence.
    assert!(matches!(cache.lookup(fp), CacheLookup::Absent));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- randomized vandalism ------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup must never panic the decoder, and must never
    /// parse: forging a valid entry requires matching the magic,
    /// version, framing, AND the FNV-64 trailer by chance.
    #[test]
    fn arbitrary_bytes_never_panic_or_parse(soup in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(CacheEntry::from_bytes(&soup).is_none());
    }

    /// Multi-byte vandalism: splice a random run of random bytes into
    /// the middle of a golden cache entry. Either the result is
    /// byte-identical to the golden image (splice happened to match) or
    /// it must read as a miss.
    #[test]
    fn cache_entry_random_splice_reads_as_miss(
        at in 0usize..10_000,
        splice in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let golden = golden_entry();
        let bytes = golden.to_bytes();
        let i = at % bytes.len();
        let end = (i + splice.len()).min(bytes.len());
        let mut bad = bytes.clone();
        bad[i..end].copy_from_slice(&splice[..end - i]);
        match CacheEntry::from_bytes(&bad) {
            None => prop_assert_ne!(bad, bytes, "golden bytes must still parse"),
            Some(e) => {
                prop_assert_eq!(&bad, &bytes, "a parse implies the splice was a no-op");
                prop_assert_eq!(&e, golden);
            }
        }
    }
}
