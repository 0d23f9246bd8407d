//! Crash-point enumeration: prove every persistence surface survives a
//! kill at *every* I/O operation.
//!
//! The harness runs a representative resilient sweep (checkpoints, a
//! manifest, per-job metrics frames, a run cache — every surface the
//! workspace persists) behind a [`FaultVfs`], first with a clean
//! schedule to count and log the I/O operations, then once per crash
//! point `k`: the same sweep in a fresh directory with a fault injected
//! at operation `k`, followed by a post-fault filesystem scan and a
//! clean-filesystem restart. The durability contract it enforces:
//!
//! 1. **No panics, ever** — every failure surfaces as a typed error.
//! 2. **Final paths always validate** — after a crash, every file at a
//!    consumable path (manifest, `*.ckpt`, `*.metrics`, `*.run`) parses
//!    and carries the right fingerprint; only `*.tmp` litter and
//!    quarantined `*.quarantine` bytes are exempt. This is the property
//!    the [`defeat_rename`](FaultSchedule::defeat_rename) negative
//!    control breaks on purpose, proving the scan has teeth.
//! 3. **Restart converges bit-identically** — rerunning over the
//!    survivors with a clean filesystem reproduces the reference
//!    results exactly, with no healthy job quarantined.
//!
//! `bench --bin crashmat` drives [`enumerate`] over the full operation
//! range; the tests here cover a stride plus targeted points.

use std::path::Path;
use std::sync::Arc;

use refsim_dram::time::Ps;
use refsim_workloads::mix::WorkloadMix;
use refsim_workloads::profiles::Benchmark;

use crate::checkpoint::Checkpoint;
use crate::codec;
use crate::config::SystemConfig;
use crate::error::RefsimError;
use crate::experiment::Job;
use crate::runcache::{job_fingerprint, CacheEntry, CacheLookup, RunCache};
use crate::sweep::{run_many_resilient, SweepOptions, SweepReport};
use crate::vfs::{std_vfs, FaultSchedule, FaultVfs, OpRecord, Vfs};

/// The sweep a crash matrix is enumerated over. Kept small enough that
/// hundreds of crash points stay tractable, while still exercising
/// every persistence surface: checkpoints at span boundaries, the
/// manifest, per-job metrics frames, and (optionally) the run cache —
/// including one duplicate cell so dedup fan-out is on the I/O path.
#[derive(Debug, Clone)]
pub struct CrashScenario {
    /// The jobs of the sweep.
    pub jobs: Vec<Job>,
    /// Mid-run checkpoint pitch (see [`SweepOptions::checkpoint_every`]).
    pub checkpoint_every: Option<Ps>,
    /// Whether the sweep writes through a persistent run cache.
    pub use_cache: bool,
    /// Seed for the scenario's jobs and every injected fault's
    /// byte-level decisions.
    pub seed: u64,
}

impl CrashScenario {
    /// A tiny three-job scenario (two unique cells plus one duplicate,
    /// so dedup fan-out runs) with mid-run checkpointing and the run
    /// cache enabled.
    pub fn tiny(seed: u64) -> Self {
        let job = |s: u64| {
            let mut cfg = SystemConfig::table1().with_time_scale(512).with_seed(s);
            cfg.warmup = cfg.trefw() / 8;
            cfg.measure = cfg.trefw() / 4;
            Job {
                cfg,
                mix: WorkloadMix::from_groups(
                    "crashmat",
                    &[(Benchmark::Stream, 2), (Benchmark::Povray, 2)],
                    "M + L",
                ),
            }
        };
        let every = job(seed).cfg.effective_timeslice() * 8;
        CrashScenario {
            jobs: vec![job(seed), job(seed.wrapping_add(1)), job(seed)],
            checkpoint_every: Some(every),
            use_cache: true,
            seed,
        }
    }

    /// [`CrashScenario::tiny`] with a much finer checkpoint pitch and a
    /// longer measured span, multiplying the checkpoint-save I/O until
    /// the sweep issues a few hundred operations — the exhaustive
    /// matrix `bench --bin crashmat` enumerates by default.
    pub fn dense(seed: u64) -> Self {
        let mut scn = CrashScenario::tiny(seed);
        for job in &mut scn.jobs {
            job.cfg.measure = job.cfg.trefw() / 2;
        }
        scn.checkpoint_every = Some(scn.jobs[0].cfg.effective_timeslice() / 8);
        scn
    }
}

/// Which fault the harness injects at the chosen operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Kill the process model at the operation ([`FaultSchedule::crash_at`]).
    Crash,
    /// Same kill, but renames onto `*.metrics` destinations lose their
    /// atomicity — the negative control that must produce violations.
    CrashDefeatRename,
    /// The disk fills permanently at the operation
    /// ([`FaultSchedule::enospc_from`]).
    Enospc,
    /// The write at the operation persists only a seeded prefix and
    /// reports failure.
    TornWrite,
    /// The operation fails once, EINTR-style, with no on-disk effect.
    Interrupt,
    /// The write at the operation silently flips one seeded byte.
    CorruptWrite,
}

impl FaultMode {
    /// Every mode, in reporting order.
    pub const ALL: [FaultMode; 6] = [
        FaultMode::Crash,
        FaultMode::CrashDefeatRename,
        FaultMode::Enospc,
        FaultMode::TornWrite,
        FaultMode::Interrupt,
        FaultMode::CorruptWrite,
    ];

    /// Parses the [`std::fmt::Display`] form back into a mode.
    pub fn parse(s: &str) -> Option<FaultMode> {
        match s {
            "crash" => Some(FaultMode::Crash),
            "crash-defeat-rename" => Some(FaultMode::CrashDefeatRename),
            "enospc" => Some(FaultMode::Enospc),
            "torn-write" => Some(FaultMode::TornWrite),
            "interrupt" => Some(FaultMode::Interrupt),
            "corrupt-write" => Some(FaultMode::CorruptWrite),
            _ => None,
        }
    }

    /// Whether the mode freezes the disk (so a truncated faulted
    /// invocation is expected rather than a violation).
    pub fn is_crash(self) -> bool {
        matches!(self, FaultMode::Crash | FaultMode::CrashDefeatRename)
    }

    /// The [`FaultSchedule`] this mode prescribes at operation `k`.
    pub fn schedule(self, seed: u64, k: u64) -> FaultSchedule {
        match self {
            FaultMode::Crash => FaultSchedule::crash_at(seed, k),
            FaultMode::CrashDefeatRename => FaultSchedule {
                defeat_rename: Some(".metrics".to_owned()),
                ..FaultSchedule::crash_at(seed, k)
            },
            FaultMode::Enospc => FaultSchedule::enospc_from(seed, k),
            FaultMode::TornWrite => FaultSchedule {
                torn_write_at: vec![k],
                ..FaultSchedule::clean(seed)
            },
            FaultMode::Interrupt => FaultSchedule {
                interrupt_at: vec![k],
                ..FaultSchedule::clean(seed)
            },
            FaultMode::CorruptWrite => FaultSchedule {
                corrupt_write_at: vec![k],
                ..FaultSchedule::clean(seed)
            },
        }
    }
}

impl std::fmt::Display for FaultMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultMode::Crash => "crash",
            FaultMode::CrashDefeatRename => "crash-defeat-rename",
            FaultMode::Enospc => "enospc",
            FaultMode::TornWrite => "torn-write",
            FaultMode::Interrupt => "interrupt",
            FaultMode::CorruptWrite => "corrupt-write",
        })
    }
}

/// How one crash point resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The restart reproduced the reference with no visible damage.
    Resumed,
    /// The restart reproduced the reference, but recovery machinery did
    /// real work (quarantines, a manifest rebuild, classified cache
    /// misses, checkpoint resumes) — described in the payload.
    Degraded(String),
    /// The durability contract broke: a panic, a torn file at a final
    /// path, a diverged or quarantined job, or a failed restart.
    Violation(String),
}

/// One enumerated crash point: the operation index, what operation the
/// clean run issued there (when the faulted run got that far), and the
/// verdict.
#[derive(Debug, Clone)]
pub struct CrashPoint {
    /// Global operation index the fault targeted.
    pub index: u64,
    /// The operation actually recorded at that index in the faulted
    /// invocation, for reproducer-grade reports.
    pub op: Option<OpRecord>,
    /// The outcome.
    pub verdict: Verdict,
}

/// The outcome of enumerating crash points over a scenario.
#[derive(Debug, Clone)]
pub struct CrashMatrix {
    /// The fault mode enumerated.
    pub mode: FaultMode,
    /// Total I/O operations the clean invocation issues.
    pub total_ops: u64,
    /// Tested points, in index order.
    pub points: Vec<CrashPoint>,
}

impl CrashMatrix {
    /// The points whose verdict is a [`Verdict::Violation`].
    pub fn violations(&self) -> Vec<&CrashPoint> {
        self.points
            .iter()
            .filter(|p| matches!(p.verdict, Verdict::Violation(_)))
            .collect()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let mut clean = 0usize;
        let mut degraded = 0usize;
        let mut violations = 0usize;
        for p in &self.points {
            match p.verdict {
                Verdict::Resumed => clean += 1,
                Verdict::Degraded(_) => degraded += 1,
                Verdict::Violation(_) => violations += 1,
            }
        }
        format!(
            "mode {:<19} | {:>4} ops | {:>4} points | {clean} clean, {degraded} degraded, \
             {violations} violations",
            self.mode.to_string(),
            self.total_ops,
            self.points.len(),
        )
    }
}

/// Seed for point `k`'s schedule: every point makes independent
/// byte-level decisions, but each is a complete reproducer.
fn point_seed(seed: u64, k: u64) -> u64 {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&seed.to_le_bytes());
    b[8..].copy_from_slice(&k.to_le_bytes());
    codec::fnv64(&b)
}

/// Runs the scenario's sweep single-threaded (so the I/O operation
/// sequence is deterministic) against `vfs`, rooted at `dir`.
fn run_scenario(
    scn: &CrashScenario,
    dir: &Path,
    vfs: Arc<dyn Vfs>,
) -> Result<SweepReport, RefsimError> {
    let opts = SweepOptions {
        dir: Some(dir.join("sweep")),
        checkpoint_every: scn.checkpoint_every,
        cache: scn
            .use_cache
            .then(|| RunCache::with_vfs(dir.join("cache"), vfs.clone())),
        vfs,
        ..SweepOptions::default()
    };
    run_many_resilient(&scn.jobs, 1, &opts)
}

/// The reference rows every crash point is held to: the scenario run
/// with no persistence and no faults (same checkpoint pitch, so the
/// segmentation — part of the bit-identity contract — matches), each
/// per-job `Result` rendered to its `Debug` string.
///
/// # Errors
///
/// Any sweep-level [`RefsimError`] from the reference run.
pub fn reference_rows(scn: &CrashScenario) -> Result<Vec<String>, RefsimError> {
    let opts = SweepOptions {
        checkpoint_every: scn.checkpoint_every,
        ..SweepOptions::default()
    };
    let rep = run_many_resilient(&scn.jobs, 1, &opts)?;
    Ok(rep.results.iter().map(|r| format!("{r:?}")).collect())
}

/// Counts and logs the I/O operations of one clean, cold invocation of
/// the scenario — the enumeration domain for [`run_point`].
///
/// # Errors
///
/// Any sweep-level [`RefsimError`] from the probe run.
pub fn probe(scn: &CrashScenario, root: &Path) -> Result<(u64, Vec<OpRecord>), RefsimError> {
    let dir = root.join("probe");
    let _ = std::fs::remove_dir_all(&dir);
    let fvfs = Arc::new(FaultVfs::over_std(FaultSchedule::clean(scn.seed)));
    let r = run_scenario(scn, &dir, fvfs.clone());
    let ops = fvfs.ops();
    let log = fvfs.log();
    let _ = std::fs::remove_dir_all(&dir);
    r.map(|_| (ops, log))
}

// ---- the per-point contract check ----------------------------------------

fn job_index(name: &str, suffix: &str) -> Option<usize> {
    name.strip_prefix("job-")?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Validates one on-disk file against the durability contract.
fn validate_file(p: &Path, fingerprints: &[u64]) -> Result<(), String> {
    let name = p
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if name.ends_with(".tmp") || name.ends_with(".quarantine") {
        return Ok(()); // removable litter / quarantined bytes kept for triage
    }
    let bytes = std::fs::read(p).map_err(|e| format!("unreadable {}: {e}", p.display()))?;
    if name == "sweep.manifest" {
        let text = String::from_utf8(bytes)
            .map_err(|_| format!("manifest is not UTF-8: {}", p.display()))?;
        return crate::sweep::validate_manifest(&text)
            .map_err(|e| format!("torn manifest {}: {e}", p.display()));
    }
    if let Some(i) = job_index(&name, ".ckpt") {
        let cp = Checkpoint::from_bytes(&bytes)
            .map_err(|e| format!("torn checkpoint {}: {e}", p.display()))?;
        let fp = *fingerprints
            .get(i)
            .ok_or_else(|| format!("checkpoint for unknown job {i}: {}", p.display()))?;
        return cp
            .check_fingerprint(fp)
            .map_err(|e| format!("misattributed checkpoint {}: {e}", p.display()));
    }
    if let Some(i) = job_index(&name, ".metrics") {
        return match crate::sweep::decode_metrics(&bytes) {
            Some((fp, _)) if fingerprints.get(i) == Some(&fp) => Ok(()),
            Some(_) => Err(format!("misattributed metrics frame {}", p.display())),
            None => Err(format!("torn metrics frame {}", p.display())),
        };
    }
    if let Some(stem) = name.strip_suffix(".run") {
        let named = u64::from_str_radix(stem, 16)
            .map_err(|_| format!("unparseable cache entry name {}", p.display()))?;
        return match CacheEntry::from_bytes(&bytes) {
            Some(e) if e.fingerprint == named => Ok(()),
            Some(_) => Err(format!("mislabeled cache entry {}", p.display())),
            None => Err(format!("torn cache entry {}", p.display())),
        };
    }
    Err(format!("unexpected file {}", p.display()))
}

/// Walks everything under `root` and requires every final-path file to
/// validate — the "a reader never sees a prefix" half of the contract.
fn scan_tree(root: &Path, fingerprints: &[u64]) -> Result<(), String> {
    let mut stack = vec![root.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&d) else {
            continue; // the faulted invocation may not have created it
        };
        for entry in rd.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                validate_file(&p, fingerprints)?;
            }
        }
    }
    Ok(())
}

fn push_degradation(notes: &mut Vec<String>, rep: &SweepReport) {
    if rep.manifest_rebuilt {
        notes.push("manifest rebuilt from metrics frames".to_owned());
    }
    if rep.files_quarantined > 0 {
        notes.push(format!("{} files quarantined", rep.files_quarantined));
    }
    if rep.ckpt_save_failures > 0 {
        notes.push(format!(
            "{} checkpoint saves failed",
            rep.ckpt_save_failures
        ));
    }
    if rep.stats.misses_corrupt > 0 {
        notes.push(format!("{} corrupt cache misses", rep.stats.misses_corrupt));
    }
    if rep.stats.misses_io > 0 {
        notes.push(format!("{} io-error cache misses", rep.stats.misses_io));
    }
    if rep.stats.store_failures > 0 {
        notes.push(format!("{} cache stores failed", rep.stats.store_failures));
    }
}

type Attempt = Result<Result<SweepReport, RefsimError>, Box<dyn std::any::Any + Send>>;

fn judge(
    scn: &CrashScenario,
    dir: &Path,
    k: u64,
    mode: FaultMode,
    reference: &[String],
    attempt: Attempt,
    fingerprints: &[u64],
) -> Verdict {
    let mut notes: Vec<String> = Vec::new();
    match attempt {
        Err(payload) => {
            return Verdict::Violation(format!(
                "op {k} ({mode}): faulted invocation panicked: {}",
                crate::sweep::panic_message(payload.as_ref())
            ));
        }
        Ok(Err(e)) => {
            // A typed sweep-level abort is acceptable under any fault —
            // what matters is the restart — but only crash modes may
            // produce non-I/O failure classes.
            if !mode.is_crash() && !matches!(e, RefsimError::Io(_)) {
                return Verdict::Violation(format!(
                    "op {k} ({mode}): sweep failed outside the I/O error class: {e}"
                ));
            }
            notes.push(format!("faulted invocation aborted: {e}"));
        }
        Ok(Ok(rep)) => {
            for (i, r) in rep.results.iter().enumerate() {
                match r {
                    Ok(_) => {
                        if format!("{r:?}") != reference[i] {
                            return Verdict::Violation(format!(
                                "op {k} ({mode}): job {i} diverged in the faulted invocation"
                            ));
                        }
                    }
                    Err(e) if mode.is_crash() => notes.push(format!("job {i} aborted: {e}")),
                    Err(e) => {
                        return Verdict::Violation(format!(
                            "op {k} ({mode}): job {i} failed under a survivable fault: {e}"
                        ));
                    }
                }
            }
            push_degradation(&mut notes, &rep);
        }
    }

    // Silent bitrot is only required to be *detected on read* — its
    // scan runs after the restart has had the chance to classify it.
    if mode != FaultMode::CorruptWrite {
        if let Err(why) = scan_tree(dir, fingerprints) {
            return Verdict::Violation(format!("op {k} ({mode}): post-fault scan: {why}"));
        }
    }

    match run_scenario(scn, dir, std_vfs()) {
        Err(e) => return Verdict::Violation(format!("op {k} ({mode}): restart failed: {e}")),
        Ok(rep) => {
            if !rep.quarantined.is_empty() {
                return Verdict::Violation(format!(
                    "op {k} ({mode}): healthy jobs quarantined on restart: {:?}",
                    rep.quarantined
                ));
            }
            for (i, r) in rep.results.iter().enumerate() {
                if format!("{r:?}") != reference[i] {
                    return Verdict::Violation(format!(
                        "op {k} ({mode}): job {i} is not bit-identical after restart"
                    ));
                }
            }
            if rep.resumed > 0 {
                notes.push(format!("{} attempts resumed from checkpoint", rep.resumed));
            }
            push_degradation(&mut notes, &rep);
        }
    }
    if mode == FaultMode::CorruptWrite && scn.use_cache {
        // Silent bitrot is only ever *detected at read time* — but a
        // poisoned entry for an already-finished cell has no reader on
        // the restart path. Drain every cell through a cache probe so
        // each entry meets its reader; `lookup` classifies corrupt
        // entries and quarantines them, after which the scan must pass.
        let cache = RunCache::new(dir.join("cache"));
        let drained = fingerprints
            .iter()
            .filter(|&&fp| matches!(cache.lookup(fp), CacheLookup::Corrupt))
            .count();
        if drained > 0 {
            notes.push(format!(
                "{drained} poisoned cache entries quarantined on probe"
            ));
        }
    }
    if let Err(why) = scan_tree(dir, fingerprints) {
        return Verdict::Violation(format!("op {k} ({mode}): post-restart scan: {why}"));
    }
    if notes.is_empty() {
        Verdict::Resumed
    } else {
        Verdict::Degraded(notes.join("; "))
    }
}

/// Tests one crash point: runs the scenario in a fresh directory with
/// `mode`'s fault injected at operation `k`, scans the aftermath,
/// restarts over the survivors with a clean filesystem, and judges the
/// whole story against `reference` (from [`reference_rows`]).
pub fn run_point(
    scn: &CrashScenario,
    root: &Path,
    k: u64,
    mode: FaultMode,
    reference: &[String],
) -> CrashPoint {
    let dir = root.join(format!("{mode}-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    let fvfs = Arc::new(FaultVfs::over_std(
        mode.schedule(point_seed(scn.seed, k), k),
    ));
    let dyn_vfs: Arc<dyn Vfs> = fvfs.clone();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_scenario(scn, &dir, dyn_vfs)
    }));
    let op = fvfs.log().into_iter().find(|r| r.index == k);
    let fingerprints: Vec<u64> = scn
        .jobs
        .iter()
        .map(|j| job_fingerprint(&j.cfg, &j.mix))
        .collect();
    let verdict = judge(scn, &dir, k, mode, reference, attempt, &fingerprints);
    let _ = std::fs::remove_dir_all(&dir);
    CrashPoint {
        index: k,
        op,
        verdict,
    }
}

/// Enumerates crash points `0, stride, 2·stride, …` across the
/// scenario's full operation range under `mode`. `stride == 1` is the
/// exhaustive matrix `bench --bin crashmat` runs.
///
/// # Errors
///
/// Any sweep-level [`RefsimError`] from the reference or probe run —
/// faulted points themselves never error, they produce verdicts.
pub fn enumerate(
    scn: &CrashScenario,
    root: &Path,
    stride: u64,
    mode: FaultMode,
) -> Result<CrashMatrix, RefsimError> {
    let reference = reference_rows(scn)?;
    let (total_ops, _) = probe(scn, root)?;
    let stride = stride.max(1);
    let mut points = Vec::new();
    let mut k = 0;
    while k < total_ops {
        points.push(run_point(scn, root, k, mode, &reference));
        k += stride;
    }
    Ok(CrashMatrix {
        mode,
        total_ops,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{RunMetrics, TaskMetrics};
    use crate::vfs::IoOp;
    use std::path::PathBuf;

    fn root(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("refsim-crashmat-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crash_enumeration_holds_the_contract_on_a_stride() {
        let scn = CrashScenario::tiny(21);
        let root = root("stride");
        let (total, _) = probe(&scn, &root).expect("probe");
        assert!(
            total > 30,
            "the tiny scenario should exercise dozens of I/O ops, got {total}"
        );
        let matrix = enumerate(&scn, &root, total / 4, FaultMode::Crash).expect("enumerate");
        assert_eq!(matrix.total_ops, total);
        assert!(matrix.points.len() >= 4, "{}", matrix.summary());
        for p in &matrix.points {
            assert!(
                !matches!(p.verdict, Verdict::Violation(_)),
                "crash at op {}: {:?} (op was {:?})",
                p.index,
                p.verdict,
                p.op
            );
        }
        // Spot-check a reproducer detail: point 0 dies creating the
        // sweep directory, and its recorded op says so.
        let p0 = &matrix.points[0];
        assert_eq!(p0.index, 0);
        assert!(p0.op.is_some());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn defeated_rename_negative_control_is_detected() {
        let scn = CrashScenario::tiny(22);
        let root = root("defeat");
        let reference = reference_rows(&scn).expect("reference");
        let (_, log) = probe(&scn, &root).expect("probe");
        let metrics_renames: Vec<u64> = log
            .iter()
            .filter(|r| r.op == IoOp::Rename && r.path.to_string_lossy().ends_with(".metrics"))
            .map(|r| r.index)
            .collect();
        assert!(
            !metrics_renames.is_empty(),
            "the sweep must publish metrics frames via rename"
        );
        let k = metrics_renames[0];
        let p = run_point(&scn, &root, k, FaultMode::CrashDefeatRename, &reference);
        assert!(
            matches!(p.verdict, Verdict::Violation(ref why) if why.contains("metrics")),
            "a defeated rename must be flagged by the scan, got {:?}",
            p.verdict
        );
        // The same point under an honest atomic rename passes.
        let p = run_point(&scn, &root, k, FaultMode::Crash, &reference);
        assert!(
            !matches!(p.verdict, Verdict::Violation(_)),
            "atomic rename at the same op must pass, got {:?}",
            p.verdict
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn survivable_fault_classes_degrade_gracefully() {
        let scn = CrashScenario::tiny(23);
        let root = root("classes");
        let reference = reference_rows(&scn).expect("reference");
        let (total, log) = probe(&scn, &root).expect("probe");

        // ENOSPC at the very first op and mid-sweep; a transient and a
        // torn write mid-sweep.
        for (mode, k) in [
            (FaultMode::Enospc, 0),
            (FaultMode::Enospc, total / 2),
            (FaultMode::Interrupt, total / 3),
            (FaultMode::TornWrite, total / 2),
        ] {
            let p = run_point(&scn, &root, k, mode, &reference);
            assert!(
                !matches!(p.verdict, Verdict::Violation(_)),
                "{mode} at op {k}: {:?} (op was {:?})",
                p.verdict,
                p.op
            );
        }

        // Silent bitrot on the *last* manifest publish: the corrupt
        // manifest survives invocation A, and the restart must detect
        // it via the checksum trailer and rebuild from metrics frames.
        let last_manifest_write = log
            .iter()
            .filter(|r| {
                r.op == crate::vfs::IoOp::Write
                    && r.path.to_string_lossy().contains("sweep.manifest")
            })
            .map(|r| r.index)
            .next_back()
            .expect("the sweep writes its manifest");
        let p = run_point(
            &scn,
            &root,
            last_manifest_write,
            FaultMode::CorruptWrite,
            &reference,
        );
        match &p.verdict {
            Verdict::Degraded(why) => assert!(
                why.contains("manifest rebuilt") || why.contains("quarantined"),
                "bitrot on the manifest must surface in the degradation notes: {why}"
            ),
            other => panic!("corrupt manifest write must degrade, not {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn metrics_frames_reject_every_single_byte_flip_and_truncation() {
        let m = RunMetrics {
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
        };
        let frame = crate::sweep::encode_metrics(0xFEED_F00D, &m);
        let (fp, back) = crate::sweep::decode_metrics(&frame).expect("roundtrip");
        assert_eq!(fp, 0xFEED_F00D);
        assert_eq!(back, m);
        for i in 0..frame.len() {
            let mut b = frame.clone();
            b[i] ^= 0xFF;
            assert!(
                crate::sweep::decode_metrics(&b).is_none(),
                "flip at byte {i} must not decode"
            );
        }
        for cut in [0, 1, 7, 8, frame.len() - 1] {
            assert!(crate::sweep::decode_metrics(&frame[..cut]).is_none());
        }
        // A frame with the wrong fingerprint is detected by the caller
        // (load_metrics), which compares against the expected value —
        // covered by the misattribution arm of the crash scans.
    }
}
