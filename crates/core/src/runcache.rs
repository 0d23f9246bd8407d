//! Content-addressed, persistent cache of run results.
//!
//! A run is a pure function of `(SystemConfig, WorkloadMix)` — the
//! config already carries the span (`warmup`/`measure`), the seed, and
//! the engine — which PR 4's replay-hash proofs turned into a checkable
//! contract. This module turns the same property into *memoization*:
//! every `(config, mix)` pair hashes to a stable **canonical
//! fingerprint** ([`job_fingerprint`]), and a finished run's
//! [`RunMetrics`] (plus its final replay state hash, for later
//! verification) can be persisted under that fingerprint and served to
//! any later run of a bit-identical cell, whether in the same sweep, a
//! different figure binary, or a different process entirely.
//!
//! # Fingerprint derivation
//!
//! The fingerprint is FNV-1a over a hand-rolled canonical encoding of
//! every semantically load-bearing knob — *not* over the `Debug`
//! representation, which reshuffles whenever a field is renamed or
//! reordered. Presentation-only fields (the mix's display name and
//! MPKI-category label) are excluded: two mixes with identical task
//! lists simulate identically. The encoding is salted with
//! [`CACHE_SCHEMA`]; bump it whenever simulation semantics change in a
//! way the config encoding cannot see, and every existing entry turns
//! into a miss.
//!
//! # Entry format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"RFSC"
//! 4       4     format version (LE u32, currently 1)
//! 8       4     cache schema salt (LE u32)
//! 12      8     job fingerprint
//! 20      8     final replay state hash (StateHashes::combined)
//! 28      8     original run wall-clock nanoseconds
//! 36      8     payload length N
//! 44      N     payload: RunMetrics via the crate codec
//! 44+N    8     checksum: FNV-1a over bytes [0, 44+N)
//! ```
//!
//! Entries are written atomically (unique temp sibling + rename), so a
//! crash mid-store can never leave a torn entry; a torn, truncated,
//! version-skewed, or checksum-corrupt entry simply reads as a **miss**
//! and is overwritten by the next store.
//!
//! # Bypass rules
//!
//! Some runs exist to *observe the simulator*, not to produce reusable
//! numbers: invariant-audited runs, fault-injected runs, and runs with
//! the debug skip-overshoot knob set. [`bypass_reason`] names these;
//! the sweep runner neither reads nor writes the cache for them, so
//! soak/chaos harnesses and sanitizer sweeps always execute for real.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use refsim_dram::backend::BackendKind;
use refsim_dram::refresh::RefreshPolicyKind;
use refsim_dram::time::Ps;
use refsim_dram::timing::{Density, FgrMode, Retention};
use refsim_os::partition::PartitionPlan;
use refsim_os::sched::SchedPolicy;
use refsim_workloads::mix::WorkloadMix;

use refsim_dram::mapping::MappingScheme;

use crate::codec::{self, Dec, Enc};
use crate::config::{EngineKind, SystemConfig};
use crate::metrics::RunMetrics;
use crate::sanitize::AuditLevel;
use crate::vfs::{self, std_vfs, Vfs, VfsError, VfsErrorKind};

/// Magic number opening every cache entry.
pub const CACHE_MAGIC: [u8; 4] = *b"RFSC";
/// Current entry format version.
pub const CACHE_VERSION: u32 = 1;
/// Schema salt folded into every fingerprint *and* stored in every
/// entry. Bump on any semantic change the config encoding cannot
/// express (e.g. a simulator behavior fix): all prior entries read as
/// misses. v2: the backend-selection and shadow-perturbation knobs
/// joined the fingerprint preimage. v3: the tick-path knob joined the
/// preimage. v4: the shard-mode knob joined the preimage. v5:
/// tick-path and shard-mode knobs removed.
pub const CACHE_SCHEMA: u32 = 5;

/// Environment variable naming the shared cache directory.
pub const CACHE_DIR_ENV: &str = "REFSIM_CACHE_DIR";

// ---- canonical fingerprint ----------------------------------------------

fn put_ps(e: &mut Enc, p: Ps) {
    e.put_u64(p.as_ps());
}

fn put_opt_ps(e: &mut Enc, p: Option<Ps>) {
    match p {
        None => e.put_u8(0),
        Some(p) => {
            e.put_u8(1);
            put_ps(e, p);
        }
    }
}

fn put_str(e: &mut Enc, s: &str) {
    e.put_u64(s.len() as u64);
    e.put_bytes(s.as_bytes());
}

fn put_refresh(e: &mut Enc, p: RefreshPolicyKind) {
    // Explicit tags: stable against enum reordering, and a new variant
    // fails to compile here instead of silently colliding.
    let (tag, sub) = match p {
        RefreshPolicyKind::NoRefresh => (0u8, 0u8),
        RefreshPolicyKind::AllBank => (1, 0),
        RefreshPolicyKind::PerBankRoundRobin => (2, 0),
        RefreshPolicyKind::PerBankSequential => (3, 0),
        RefreshPolicyKind::OooPerBank => (4, 0),
        RefreshPolicyKind::Fgr(FgrMode::X1) => (5, 1),
        RefreshPolicyKind::Fgr(FgrMode::X2) => (5, 2),
        RefreshPolicyKind::Fgr(FgrMode::X4) => (5, 4),
        RefreshPolicyKind::Adaptive => (6, 0),
        RefreshPolicyKind::Elastic => (7, 0),
    };
    e.put_u8(tag);
    e.put_u8(sub);
}

fn put_partition(e: &mut Enc, p: PartitionPlan) {
    match p {
        PartitionPlan::None => {
            e.put_u8(0);
            e.put_u32(0);
        }
        PartitionPlan::Soft => {
            e.put_u8(1);
            e.put_u32(0);
        }
        PartitionPlan::Confine { banks_per_task } => {
            e.put_u8(2);
            e.put_u32(banks_per_task);
        }
        PartitionPlan::Hard => {
            e.put_u8(3);
            e.put_u32(0);
        }
    }
}

fn put_sched(e: &mut Enc, p: SchedPolicy) {
    match p {
        SchedPolicy::Cfs => {
            e.put_u8(0);
            e.put_u32(0);
            e.put_u8(0);
        }
        SchedPolicy::RefreshAware {
            eta_thresh,
            best_effort,
        } => {
            e.put_u8(1);
            e.put_u32(eta_thresh);
            e.put_u8(u8::from(best_effort));
        }
    }
}

/// Canonical byte encoding of every simulation-relevant knob of a
/// `(config, mix)` cell. This is the cache key's preimage; see the
/// module docs for what is deliberately excluded.
pub fn fingerprint_bytes(cfg: &SystemConfig, mix: &WorkloadMix) -> Vec<u8> {
    let mut e = Enc::new();
    e.put_bytes(b"refsim-runcache");
    e.put_u32(CACHE_SCHEMA);

    e.put_u32(cfg.n_cores);
    e.put_u32(cfg.channels);
    e.put_u32(cfg.ranks_per_channel);
    e.put_u8(match cfg.density {
        Density::Gb8 => 8,
        Density::Gb16 => 16,
        Density::Gb24 => 24,
        Density::Gb32 => 32,
    });
    e.put_u8(match cfg.retention {
        Retention::Ms64 => 64,
        Retention::Ms32 => 32,
    });
    put_refresh(&mut e, cfg.refresh_policy);
    e.put_u8(match cfg.mapping {
        MappingScheme::RowRankBankColumn => 0,
        MappingScheme::RowBankRankColumn => 1,
        MappingScheme::BankRankRowColumn => 2,
        MappingScheme::PermutedBank => 3,
    });
    put_partition(&mut e, cfg.partition);
    put_sched(&mut e, cfg.sched_policy);
    e.put_u32(cfg.time_scale);
    put_opt_ps(&mut e, cfg.timeslice);

    put_ps(&mut e, cfg.core.period);
    put_ps(&mut e, cfg.core.base_ppi);
    e.put_u64(cfg.core.rob);
    e.put_u64(cfg.core.mshrs as u64);
    put_ps(&mut e, cfg.core.l2_hit_penalty);

    e.put_u64(cfg.controller.read_queue as u64);
    e.put_u64(cfg.controller.write_queue as u64);
    e.put_u64(cfg.controller.wq_high as u64);
    e.put_u64(cfg.controller.wq_low as u64);
    put_ps(&mut e, cfg.controller.utilization_epoch);
    e.put_u8(u8::from(cfg.controller.track_retention));

    put_ps(&mut e, cfg.ctx_switch_cost);
    put_ps(&mut e, cfg.fault_cost);
    put_ps(&mut e, cfg.warmup);
    put_ps(&mut e, cfg.measure);
    e.put_u64(cfg.seed);

    match &cfg.fault_plan {
        None => e.put_u8(0),
        Some(p) => {
            e.put_u8(1);
            e.put_u64(p.seed);
            e.put_u32(p.skip_ppm);
            e.put_u32(p.delay_ppm);
            put_ps(&mut e, p.max_delay);
            e.put_u32(p.weak_rows);
            put_ps(&mut e, p.weak_limit);
            e.put_u64(p.horizon);
        }
    }
    e.put_u8(match cfg.audit {
        AuditLevel::Off => 0,
        AuditLevel::Sampled => 1,
        AuditLevel::Full => 2,
    });
    e.put_u8(match cfg.engine {
        EngineKind::FixedStep => 0,
        EngineKind::EventSkip => 1,
    });
    put_ps(&mut e, cfg.step);
    put_ps(&mut e, cfg.debug_skip_overshoot);
    // The DRAM timing model behind the trait: cached results from
    // different backends must never alias even when their metrics agree.
    e.put_u8(match cfg.backend {
        BackendKind::Primary => 0,
        BackendKind::Shadow => 1,
    });
    e.put_u64(cfg.shadow.drop_refresh_every);

    // The mix: task list only. Benchmarks are encoded by name, which is
    // stable against enum reordering; the mix's display name and
    // category label are presentation-only and excluded so bit-identical
    // cells dedup across differently labeled mixes.
    e.put_u64(mix.tasks.len() as u64);
    for b in &mix.tasks {
        put_str(&mut e, b.name());
    }
    e.into_bytes()
}

/// Stable canonical fingerprint of a `(config, mix)` cell: FNV-1a over
/// [`fingerprint_bytes`]. Equal fingerprints ⇒ bit-identical runs (the
/// determinism contract pinned by the replay suite); the cache and the
/// in-flight deduper both key on this value.
pub fn job_fingerprint(cfg: &SystemConfig, mix: &WorkloadMix) -> u64 {
    codec::fnv64(&fingerprint_bytes(cfg, mix))
}

/// Why a configuration must not touch the cache, or `None` when caching
/// is sound. Audited, fault-injected, and debug-knob runs exist to
/// observe the simulator; serving them from (or into) the cache would
/// defeat their purpose.
pub fn bypass_reason(cfg: &SystemConfig) -> Option<&'static str> {
    if cfg.audit != AuditLevel::Off {
        return Some("invariant audit enabled");
    }
    if cfg.fault_plan.is_some() {
        return Some("fault-injection plan installed");
    }
    if cfg.debug_skip_overshoot > Ps::ZERO {
        return Some("debug skip-overshoot set");
    }
    if cfg.shadow.is_perturbed() {
        return Some("shadow-model perturbation set");
    }
    None
}

// ---- entries -------------------------------------------------------------

/// One persisted run result.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Canonical fingerprint of the cell that produced the metrics.
    pub fingerprint: u64,
    /// Final replay state hash ([`crate::replay::StateHashes::combined`])
    /// of the run, for sampled re-verification.
    pub replay_hash: u64,
    /// Wall-clock nanoseconds the original run took (drives the
    /// "estimated seconds saved" telemetry).
    pub wall_nanos: u64,
    /// The run's metrics.
    pub metrics: RunMetrics,
}

impl CacheEntry {
    /// Serializes the entry into the version-1 file format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = codec::to_bytes(&self.metrics);
        let mut e = Enc::new();
        e.put_bytes(&CACHE_MAGIC);
        e.put_u32(CACHE_VERSION);
        e.put_u32(CACHE_SCHEMA);
        e.put_u64(self.fingerprint);
        e.put_u64(self.replay_hash);
        e.put_u64(self.wall_nanos);
        e.put_u64(payload.len() as u64);
        e.put_bytes(&payload);
        let mut bytes = e.into_bytes();
        let checksum = codec::fnv64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        bytes
    }

    /// Parses and verifies a version-1 entry. Every failure mode —
    /// truncation, wrong magic, version or schema skew, checksum
    /// mismatch, undecodable payload — is a plain `None`: the caller
    /// treats it as a miss and re-runs.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 8 {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().ok()?);
        if codec::fnv64(body) != stored {
            return None;
        }
        let mut d = Dec::new(body);
        if d.get_bytes(4).ok()? != CACHE_MAGIC {
            return None;
        }
        if d.get_u32().ok()? != CACHE_VERSION || d.get_u32().ok()? != CACHE_SCHEMA {
            return None;
        }
        let fingerprint = d.get_u64().ok()?;
        let replay_hash = d.get_u64().ok()?;
        let wall_nanos = d.get_u64().ok()?;
        let n = d.get_u64().ok()?;
        if n != d.remaining() as u64 {
            return None;
        }
        let payload = d.get_bytes(n as usize).ok()?;
        let metrics: RunMetrics = codec::from_bytes(payload).ok()?;
        Some(CacheEntry {
            fingerprint,
            replay_hash,
            wall_nanos,
            metrics,
        })
    }
}

// ---- the cache -----------------------------------------------------------

/// What a cache probe found, with the miss cause classified so
/// telemetry (and the crash-matrix harness) can tell "never ran" from
/// "ran but the entry rotted" from "the disk is failing".
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A valid entry, with its on-disk size in bytes. Boxed: an entry
    /// carries full run metrics, and the other arms are near-empty.
    Hit(Box<CacheEntry>, u64),
    /// No entry exists for the fingerprint.
    Absent,
    /// An entry exists but is torn, corrupt, version-skewed, or
    /// mislabeled; it has been quarantined under a `.run.quarantine`
    /// name and the cell re-runs.
    Corrupt,
    /// The entry could not be read at all (I/O failure, not ENOENT).
    Io(VfsError),
}

/// Handle to a content-addressed run-cache directory. Cloneable and
/// cheap; the directory is created lazily on the first store. Equality
/// compares the directory only — two handles over the same directory
/// are the same cache regardless of the filesystem layer in front.
#[derive(Debug, Clone)]
pub struct RunCache {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
}

impl PartialEq for RunCache {
    fn eq(&self, other: &Self) -> bool {
        self.dir == other.dir
    }
}

impl Eq for RunCache {}

impl RunCache {
    /// A cache rooted at `dir`, on the real filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        RunCache::with_vfs(dir, std_vfs())
    }

    /// A cache rooted at `dir` doing its I/O through `vfs` — the
    /// fault-injection seam used by the crash-matrix harness.
    pub fn with_vfs(dir: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> Self {
        RunCache {
            dir: dir.into(),
            vfs,
        }
    }

    /// The cache named by [`CACHE_DIR_ENV`], or `None` when the
    /// variable is unset or empty.
    pub fn from_env() -> Option<Self> {
        match std::env::var(CACHE_DIR_ENV) {
            Ok(dir) if !dir.is_empty() => Some(RunCache::new(dir)),
            _ => None,
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.run"))
    }

    /// Probes the cache for `fingerprint`, classifying the outcome.
    /// Torn, corrupt, version-skewed, or mislabeled entries (stored
    /// fingerprint ≠ requested) are quarantined in place under a
    /// reproducer-grade `<fingerprint>.run.quarantine` name so the
    /// damaged bytes survive for triage while the slot frees up for the
    /// re-run's store.
    pub fn lookup(&self, fingerprint: u64) -> CacheLookup {
        let path = self.entry_path(fingerprint);
        let bytes = match self.vfs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind == VfsErrorKind::NotFound => return CacheLookup::Absent,
            Err(e) => return CacheLookup::Io(e),
        };
        match CacheEntry::from_bytes(&bytes) {
            Some(entry) if entry.fingerprint == fingerprint => {
                CacheLookup::Hit(Box::new(entry), bytes.len() as u64)
            }
            _ => {
                let _ = self
                    .vfs
                    .rename(&path, &path.with_extension("run.quarantine"));
                CacheLookup::Corrupt
            }
        }
    }

    /// Loads the entry for `fingerprint`, returning it with its on-disk
    /// size; every non-hit [`CacheLookup`] class collapses to `None`.
    pub fn load(&self, fingerprint: u64) -> Option<(CacheEntry, u64)> {
        match self.lookup(fingerprint) {
            CacheLookup::Hit(entry, size) => Some((*entry, size)),
            _ => None,
        }
    }

    /// Atomically persists `entry` ([`crate::vfs::write_atomic`]),
    /// creating the cache directory if needed. Returns the bytes
    /// written.
    ///
    /// # Errors
    ///
    /// The classified filesystem failure. Callers treat store failures
    /// as non-fatal: the run's result is already in hand, the cache
    /// just stays cold.
    pub fn store(&self, entry: &CacheEntry) -> Result<u64, VfsError> {
        self.vfs.create_dir_all(&self.dir)?;
        let bytes = entry.to_bytes();
        vfs::write_atomic(&*self.vfs, &self.entry_path(entry.fingerprint), &bytes)?;
        Ok(bytes.len() as u64)
    }
}

// ---- telemetry -----------------------------------------------------------

/// Cache and deduplication telemetry for one sweep (or, merged, for a
/// whole figure pipeline).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Result cells requested (before dedup).
    pub requested: u64,
    /// Cells whose work was shared with an identical in-flight cell.
    pub deduped: u64,
    /// Simulations actually executed.
    pub executed: u64,
    /// Cells served from a persistent cache entry.
    pub hits: u64,
    /// Cells that probed the cache and found nothing usable.
    pub misses: u64,
    /// Misses where no entry existed (cold cache — the benign case).
    pub misses_absent: u64,
    /// Misses where an entry existed but was torn, corrupt,
    /// version-skewed, or mislabeled; the entry was quarantined.
    pub misses_corrupt: u64,
    /// Misses where the entry could not be read at all (I/O failure).
    pub misses_io: u64,
    /// Entries written.
    pub stores: u64,
    /// Entry stores that failed (ENOSPC, torn write, dead disk); the
    /// run's result was still delivered, the cache just stayed cold.
    pub store_failures: u64,
    /// Cells that skipped the cache per [`bypass_reason`].
    pub bypassed: u64,
    /// Cache hits that were re-executed for verification.
    pub verified: u64,
    /// Verifications whose re-run did not match the entry.
    pub verify_failures: u64,
    /// Entry bytes read on hits.
    pub bytes_read: u64,
    /// Entry bytes written on stores.
    pub bytes_written: u64,
    /// Original wall-clock nanoseconds of the runs served from cache —
    /// the estimated time the cache saved.
    pub saved_nanos: u64,
}

impl CacheStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &CacheStats) {
        self.requested += other.requested;
        self.deduped += other.deduped;
        self.executed += other.executed;
        self.hits += other.hits;
        self.misses += other.misses;
        self.misses_absent += other.misses_absent;
        self.misses_corrupt += other.misses_corrupt;
        self.misses_io += other.misses_io;
        self.stores += other.stores;
        self.store_failures += other.store_failures;
        self.bypassed += other.bypassed;
        self.verified += other.verified;
        self.verify_failures += other.verify_failures;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.saved_nanos += other.saved_nanos;
    }

    /// Requested cells per unique cell (leader, `requested - deduped`)
    /// — how much work in-flight dedup shared. 1.0 means nothing was
    /// shared. Cache hits do not count: a warm sweep reports the same
    /// factor as its cold run.
    pub fn dedup_factor(&self) -> f64 {
        match self.requested.saturating_sub(self.deduped) {
            0 => 1.0,
            leaders => self.requested as f64 / leaders as f64,
        }
    }

    /// Hits over cache probes (hits + misses), in `[0, 1]`; 0 when the
    /// cache was never probed.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }

    /// One-line human summary. Miss classes (absent/corrupt/io) and
    /// store failures are shown only when a non-benign class is
    /// nonzero, keeping the healthy-path line short.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "cells {} | executed {} | dedup {:.2}x | cache {} hit / {} miss / {} stored \
             / {} bypassed | verified {} ({} failed) | ~{:.2}s saved",
            self.requested,
            self.executed,
            self.dedup_factor(),
            self.hits,
            self.misses,
            self.stores,
            self.bypassed,
            self.verified,
            self.verify_failures,
            self.saved_nanos as f64 / 1e9,
        );
        if self.misses_corrupt > 0 || self.misses_io > 0 || self.store_failures > 0 {
            s.push_str(&format!(
                " | DEGRADED: {} corrupt / {} io-error misses, {} failed stores",
                self.misses_corrupt, self.misses_io, self.store_failures
            ));
        }
        s
    }

    /// The members of the stats' JSON object (the workspace deliberately
    /// has no JSON dependency), one two-space-indented `"key": value`
    /// line each, comma-separated, with no braces and no trailing
    /// newline — so an artifact can compose them with other members.
    pub fn json_members(&self) -> String {
        format!(
            "  \"requested\": {},\n  \"deduped\": {},\n  \"executed\": {},\n  \
             \"hits\": {},\n  \"misses\": {},\n  \"misses_absent\": {},\n  \
             \"misses_corrupt\": {},\n  \"misses_io\": {},\n  \"stores\": {},\n  \
             \"store_failures\": {},\n  \"bypassed\": {},\n  \
             \"verified\": {},\n  \"verify_failures\": {},\n  \"bytes_read\": {},\n  \
             \"bytes_written\": {},\n  \"saved_nanos\": {},\n  \"dedup_factor\": {:.4},\n  \
             \"hit_rate\": {:.4}",
            self.requested,
            self.deduped,
            self.executed,
            self.hits,
            self.misses,
            self.misses_absent,
            self.misses_corrupt,
            self.misses_io,
            self.stores,
            self.store_failures,
            self.bypassed,
            self.verified,
            self.verify_failures,
            self.bytes_read,
            self.bytes_written,
            self.saved_nanos,
            self.dedup_factor(),
            self.hit_rate(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TaskMetrics;
    use refsim_workloads::mix::by_name;

    fn entry(fp: u64) -> CacheEntry {
        CacheEntry {
            fingerprint: fp,
            replay_hash: 0xDEAD_BEEF,
            wall_nanos: 1_500_000_000,
            metrics: RunMetrics {
                tasks: vec![TaskMetrics {
                    task: 0,
                    label: "mcf".into(),
                    instructions: 123,
                    cpu_time: Ps::from_us(1),
                    stall_time: Ps::ZERO,
                    llc_misses: 9,
                    faults: 1,
                    spilled_pages: 0,
                    schedules: 2,
                }],
                sim_time: Ps::from_us(4),
                controller: Default::default(),
                sched: Default::default(),
                cpu_period: Ps::from_ps(312),
                dram_period: Ps::from_ps(1250),
            },
        }
    }

    fn tmp_cache(tag: &str) -> RunCache {
        let d = std::env::temp_dir().join(format!("refsim-runcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        RunCache::new(d)
    }

    #[test]
    fn entry_roundtrips() {
        let e = entry(42);
        let back = CacheEntry::from_bytes(&e.to_bytes()).expect("roundtrip");
        assert_eq!(back, e);
    }

    #[test]
    fn corruption_version_skew_and_truncation_read_as_miss() {
        let e = entry(42);
        let bytes = e.to_bytes();
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            // Any single-byte flip must fail the checksum (or a header
            // check) — never decode to a different entry.
            assert!(CacheEntry::from_bytes(&b).is_none(), "flip at {i}");
        }
        assert!(CacheEntry::from_bytes(&bytes[..bytes.len() - 3]).is_none());
        assert!(CacheEntry::from_bytes(b"").is_none());
    }

    #[test]
    fn store_load_and_atomicity() {
        let cache = tmp_cache("roundtrip");
        let e = entry(7);
        let wrote = cache.store(&e).expect("store");
        assert!(wrote > 0);
        // No temp litter.
        let leftovers: Vec<_> = std::fs::read_dir(cache.dir())
            .expect("dir")
            .filter(|f| {
                f.as_ref()
                    .expect("entry")
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(leftovers.is_empty());
        let (back, bytes) = cache.load(7).expect("hit");
        assert_eq!(back, e);
        assert_eq!(bytes, wrote);
        assert!(cache.load(8).is_none(), "absent fingerprint must miss");
        // A mislabeled entry (file name != stored fingerprint) must miss.
        std::fs::rename(cache.entry_path(7), cache.entry_path(9)).expect("rename");
        assert!(cache.load(9).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn lookup_classifies_misses_and_quarantines_corrupt_entries() {
        let cache = tmp_cache("classify");
        assert_eq!(cache.lookup(1), CacheLookup::Absent, "cold cache");
        let e = entry(1);
        cache.store(&e).expect("store");
        assert!(matches!(cache.lookup(1), CacheLookup::Hit(_, _)));
        // Bitrot: flip one byte in the stored entry.
        let path = cache.entry_path(1);
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("re-write");
        assert_eq!(cache.lookup(1), CacheLookup::Corrupt);
        assert!(
            !path.exists() && path.with_extension("run.quarantine").exists(),
            "corrupt entry must be quarantined under a reproducer-grade name"
        );
        assert_eq!(
            cache.lookup(1),
            CacheLookup::Absent,
            "slot freed for a re-store"
        );
        // An unreadable path (a directory where the entry should be) is
        // an I/O-class miss, not a silent one.
        std::fs::create_dir_all(cache.entry_path(2)).expect("dir in the way");
        assert!(matches!(cache.lookup(2), CacheLookup::Io(_)));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn fingerprint_is_stable_and_ignores_presentation_fields() {
        let cfg = SystemConfig::table1();
        let mix = by_name("WL-5").expect("mix");
        assert_eq!(job_fingerprint(&cfg, &mix), job_fingerprint(&cfg, &mix));
        let mut renamed = mix.clone();
        renamed.name = "renamed".into();
        renamed.category = "X".into();
        assert_eq!(
            job_fingerprint(&cfg, &mix),
            job_fingerprint(&cfg, &renamed),
            "display name and category are presentation-only"
        );
        let other = by_name("WL-4").expect("mix");
        assert_ne!(job_fingerprint(&cfg, &mix), job_fingerprint(&cfg, &other));
    }

    #[test]
    fn bypass_reasons() {
        let clean = SystemConfig::table1();
        assert_eq!(bypass_reason(&clean), None);
        assert!(bypass_reason(&clean.clone().with_audit(AuditLevel::Sampled)).is_some());
        assert!(bypass_reason(&clean.clone().with_audit(AuditLevel::Full)).is_some());
        assert!(
            bypass_reason(
                &clean
                    .clone()
                    .with_fault_plan(crate::faults::FaultPlan::none(1))
            )
            .is_some(),
            "any installed plan bypasses, even an empty one"
        );
        assert!(bypass_reason(&clean.clone().with_debug_skip_overshoot(Ps(1))).is_some());
    }

    #[test]
    fn stats_merge_and_rates() {
        let mut a = CacheStats {
            requested: 10,
            deduped: 4,
            executed: 6,
            hits: 3,
            misses: 3,
            ..Default::default()
        };
        let b = CacheStats {
            requested: 10,
            executed: 4,
            hits: 6,
            misses: 1,
            saved_nanos: 2_000_000_000,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.requested, 20);
        assert_eq!(a.executed, 10);
        // 20 requested over 16 leaders; the 9 hits are not dedup.
        assert!((a.dedup_factor() - 1.25).abs() < 1e-12);
        assert!((a.hit_rate() - 9.0 / 13.0).abs() < 1e-12);
        let json = a.json_members();
        assert!(json.contains("\"hits\": 9"), "{json}");
        assert!(a.summary().contains("dedup 1.25x"), "{}", a.summary());
    }
}
