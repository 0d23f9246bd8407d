//! Corruption corpus over every on-disk container format.
//!
//! The durability contract (DESIGN.md) says damage is *detected at
//! read time* with a typed error or a classified miss — never a panic,
//! never silent acceptance. This suite proves it mechanically:
//!
//! * every single-byte flip and every truncation of a small
//!   [`Checkpoint`] image is rejected with a typed [`CheckpointError`];
//! * the same holds for the framing and a strided payload sample of a
//!   real multi-megabyte system image (payload rejection is
//!   checksum-driven and offset-symmetric, so the distinct code paths
//!   all live in the framing);
//! * every single-byte flip and truncation of a golden [`CacheEntry`]
//!   reads as `None` (a miss);
//! * proptest corpora of random substitutions, splices, and arbitrary
//!   byte soup never panic either decoder and never parse to anything
//!   but the golden value;
//! * a corrupted entry file on disk is classified
//!   [`CacheLookup::Corrupt`] and quarantined under a
//!   reproducer-grade name.

use proptest::prelude::*;
use refsim_core::checkpoint::{Checkpoint, CheckpointError, SavedSystem};
use refsim_core::config::SystemConfig;
use refsim_core::experiment::{run_many_checked, Job};
use refsim_core::runcache::{job_fingerprint, CacheEntry, CacheLookup, RunCache};
use refsim_core::system::System;
use refsim_dram::time::Ps;
use refsim_os::bank_alloc::SavedBankAlloc;
use refsim_os::buddy::SavedBuddy;
use refsim_os::sched::{SavedScheduler, SchedStats};
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

/// A structurally valid checkpoint whose payload is small enough that
/// exhaustively re-parsing one variant per byte stays cheap (a real
/// system image runs to megabytes; see `real_image_*` below for that).
fn small_checkpoint() -> Checkpoint {
    Checkpoint {
        fingerprint: 0x5EED_F00D_0BAD_CAFE,
        state: SavedSystem {
            clock: Ps::from_us(42),
            next_req: 7,
            measure_start: Ps::ZERO,
            mcs: Vec::new(),
            cores: Vec::new(),
            tasks: Vec::new(),
            sims: Vec::new(),
            sched: SavedScheduler {
                queues: Vec::new(),
                stats: SchedStats::default(),
            },
            alloc: SavedBankAlloc {
                buddy: SavedBuddy {
                    frames: 0,
                    free_frames: 0,
                    free_lists: Vec::new(),
                    alloc_map: Vec::new(),
                },
                per_bank_free: Vec::new(),
                stats: Default::default(),
            },
            inflight: Vec::new(),
            base: Vec::new(),
            sched_base_stats: SchedStats::default(),
        },
    }
}

/// A golden checkpoint image captured from a real (freshly built)
/// system, so the payload exercises every nested codec. Encoded once:
/// the image runs to megabytes and several tests re-read it.
fn real_image() -> &'static [u8] {
    static GOLDEN: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    GOLDEN.get_or_init(|| {
        let cfg = tiny_cfg(0xC0FFEE);
        let mix = tiny_mix();
        System::new(cfg, &mix).checkpoint(&mix).to_bytes()
    })
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

// ---- checkpoint container (exhaustive on a small image) ------------------

#[test]
fn checkpoint_rejects_every_single_byte_flip() {
    let bytes = small_checkpoint().to_bytes();
    assert!(
        Checkpoint::from_bytes(&bytes).is_ok(),
        "golden image must round-trip before we vandalize it"
    );
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << bit;
            match Checkpoint::from_bytes(&bad) {
                Err(_) => {}
                Ok(_) => panic!(
                    "flip of bit {bit} at byte {i}/{} was silently accepted",
                    bytes.len()
                ),
            }
        }
    }
}

#[test]
fn checkpoint_rejects_every_truncation() {
    let bytes = small_checkpoint().to_bytes();
    for n in 0..bytes.len() {
        assert!(
            Checkpoint::from_bytes(&bytes[..n]).is_err(),
            "truncation to {n}/{} bytes was accepted",
            bytes.len()
        );
    }
}

// ---- checkpoint container (real multi-megabyte image) --------------------

#[test]
fn real_image_round_trips_and_fingerprint_gate_is_typed() {
    let cp = Checkpoint::from_bytes(real_image()).expect("real image parses");
    let cfg = tiny_cfg(0xC0FFEE);
    let mix = tiny_mix();
    cp.check_fingerprint(job_fingerprint(&cfg, &mix))
        .expect("the captured fingerprint matches its own (cfg, mix)");
    let err = cp
        .check_fingerprint(cp.fingerprint ^ 1)
        .expect_err("wrong fingerprint must be rejected");
    assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
}

#[test]
fn real_image_rejects_framing_and_sampled_payload_flips() {
    let bytes = real_image();
    // Every framing byte (magic, version, fingerprint, and length live
    // in the first 24 bytes, the checksum trailer in the last 8), plus
    // a payload stride: payload rejection is checksum-driven, so
    // offsets are interchangeable, and each probe re-hashes the whole
    // multi-megabyte image — the sample is kept small on purpose.
    let mut offsets: Vec<usize> = (0..24).chain(bytes.len() - 8..bytes.len()).collect();
    offsets.extend((24..bytes.len() - 8).step_by(bytes.len() / 16));
    for i in offsets {
        let mut bad = bytes.to_vec();
        bad[i] ^= 1 << (i % 8);
        assert!(
            Checkpoint::from_bytes(&bad).is_err(),
            "bit flip at byte {i}/{} of the real image was accepted",
            bytes.len()
        );
    }
    for n in [
        0,
        3,
        4,
        7,
        8,
        15,
        16,
        bytes.len() / 2,
        bytes.len() - 9,
        bytes.len() - 1,
    ] {
        assert!(
            Checkpoint::from_bytes(&bytes[..n]).is_err(),
            "truncation to {n}/{} bytes of the real image was accepted",
            bytes.len()
        );
    }
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

    /// Any substituted byte anywhere in the checkpoint image is a typed
    /// error — including inside the checksum trailer itself.
    #[test]
    fn checkpoint_random_byte_substitution_is_rejected(
        pos in 0usize..10_000,
        val in 0u8..=255,
    ) {
        let bytes = small_checkpoint().to_bytes();
        let i = pos % bytes.len();
        let mut bad = bytes.clone();
        bad[i] = val;
        if bad == bytes {
            prop_assert!(Checkpoint::from_bytes(&bad).is_ok());
        } else {
            prop_assert!(Checkpoint::from_bytes(&bad).is_err());
        }
    }

    /// Arbitrary byte soup must never panic either decoder, and must
    /// never parse: forging a valid image requires matching the magic,
    /// version, framing, AND the FNV-64 trailer by chance.
    #[test]
    fn arbitrary_bytes_never_panic_or_parse(soup in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(Checkpoint::from_bytes(&soup).is_err());
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
