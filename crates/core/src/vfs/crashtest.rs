//! Crash-point enumeration: prove the run cache — the one surface a
//! sweep persists — survives a kill at *every* I/O operation.
//!
//! The harness runs a small cached sweep behind a [`FaultVfs`], first
//! with a clean schedule to count and log the I/O operations, then once
//! per crash point `k`: the same sweep in a fresh directory with a fault
//! injected at operation `k`, followed by a post-fault filesystem scan
//! and a clean-filesystem restart over the same cache. The durability
//! contract it enforces:
//!
//! 1. **No panics, ever** — every failure surfaces as a typed error or a
//!    counted cache miss.
//! 2. **Final paths always validate** — after a crash, every `*.run`
//!    entry at its final path parses and carries the fingerprint its
//!    name claims; only `*.tmp` litter and quarantined `*.quarantine`
//!    bytes are exempt. This is the property the
//!    [`defeat_rename`](FaultSchedule::defeat_rename) negative control
//!    breaks on purpose, proving the scan has teeth.
//! 3. **Restart converges bit-identically** — rerunning over the
//!    survivors with a clean filesystem reproduces the reference
//!    results exactly, with no healthy job quarantined.
//!
//! `bench --bin crashmat` drives [`enumerate`] over the full operation
//! range; the tests here cover a stride plus targeted points.

use std::path::Path;
use std::sync::Arc;

use refsim_workloads::mix::WorkloadMix;
use refsim_workloads::profiles::Benchmark;

use crate::codec;
use crate::config::SystemConfig;
use crate::experiment::{run_many_checked, Job};
use crate::runcache::{CacheEntry, RunCache};
use crate::sweep::{run_many_resilient, SweepOptions, SweepReport};
use crate::vfs::{std_vfs, FaultSchedule, FaultVfs, OpRecord, Vfs};

/// Unique cells of [`CrashScenario::dense`].
const DENSE_CELLS: u64 = 8;

/// The cached sweep a crash matrix is enumerated over. Each unique cell
/// issues four I/O operations (a lookup, and the store's directory
/// creation, temp write and rename), so the operation count grows with
/// the number of cells: 8 for [`CrashScenario::tiny`], 32 for
/// [`CrashScenario::dense`]. One duplicate cell keeps dedup fan-out on
/// the path.
#[derive(Debug, Clone)]
pub struct CrashScenario {
    /// The jobs of the sweep.
    pub jobs: Vec<Job>,
    /// Seed for the scenario's jobs and every injected fault's
    /// byte-level decisions.
    pub seed: u64,
}

/// One tiny scenario cell: a short Table 1 run at seed `s`.
fn cell(s: u64) -> Job {
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
}

impl CrashScenario {
    /// A tiny three-job scenario: two unique cells plus one duplicate.
    pub fn tiny(seed: u64) -> Self {
        CrashScenario {
            jobs: vec![cell(seed), cell(seed.wrapping_add(1)), cell(seed)],
            seed,
        }
    }

    /// [`CrashScenario::tiny`] widened to [`DENSE_CELLS`] unique cells
    /// (plus the duplicate) — the exhaustive matrix `bench --bin
    /// crashmat` enumerates by default.
    pub fn dense(seed: u64) -> Self {
        let mut jobs: Vec<Job> = (0..DENSE_CELLS)
            .map(|i| cell(seed.wrapping_add(i)))
            .collect();
        jobs.push(cell(seed));
        CrashScenario { jobs, seed }
    }
}

/// Which fault the harness injects at the chosen operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Kill the process model at the operation ([`FaultSchedule::crash_at`]).
    Crash,
    /// Same kill, but renames onto `*.run` cache entries lose their
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

    /// The [`FaultSchedule`] this mode prescribes at operation `k`.
    pub fn schedule(self, seed: u64, k: u64) -> FaultSchedule {
        match self {
            FaultMode::Crash => FaultSchedule::crash_at(seed, k),
            FaultMode::CrashDefeatRename => FaultSchedule {
                defeat_rename: Some(".run".to_owned()),
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
    /// real work (classified cache misses, failed stores, quarantined
    /// entries) — described in the payload.
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
/// sequence is deterministic) over a run cache rooted at `dir`, doing
/// its I/O through `vfs`.
fn run_scenario(scn: &CrashScenario, dir: &Path, vfs: Arc<dyn Vfs>) -> SweepReport {
    let opts = SweepOptions {
        cache: Some(RunCache::with_vfs(dir, vfs)),
        ..SweepOptions::default()
    };
    run_many_resilient(&scn.jobs, 1, &opts)
}

/// The reference rows every crash point is held to: the scenario run
/// with no persistence and no faults, each per-job `Result` rendered to
/// its `Debug` string.
pub fn reference_rows(scn: &CrashScenario) -> Vec<String> {
    run_many_checked(&scn.jobs, 1)
        .iter()
        .map(|r| format!("{r:?}"))
        .collect()
}

/// Counts and logs the I/O operations of one clean, cold invocation of
/// the scenario — the enumeration domain for [`run_point`].
pub fn probe(scn: &CrashScenario, root: &Path) -> (u64, Vec<OpRecord>) {
    let dir = root.join("probe");
    let _ = std::fs::remove_dir_all(&dir);
    let fvfs = Arc::new(FaultVfs::over_std(FaultSchedule::clean(scn.seed)));
    run_scenario(scn, &dir, fvfs.clone());
    let _ = std::fs::remove_dir_all(&dir);
    (fvfs.ops(), fvfs.log())
}

// ---- the per-point contract check ----------------------------------------

/// Validates one on-disk file against the durability contract.
fn validate_file(p: &Path) -> Result<(), String> {
    let name = p
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    if name.ends_with(".tmp") || name.ends_with(".quarantine") {
        return Ok(()); // removable litter / quarantined bytes kept for triage
    }
    let Some(stem) = name.strip_suffix(".run") else {
        return Err(format!("unexpected file {}", p.display()));
    };
    let bytes = std::fs::read(p).map_err(|e| format!("unreadable {}: {e}", p.display()))?;
    let named = u64::from_str_radix(stem, 16)
        .map_err(|_| format!("unparseable cache entry name {}", p.display()))?;
    match CacheEntry::from_bytes(&bytes) {
        Some(e) if e.fingerprint == named => Ok(()),
        Some(_) => Err(format!("mislabeled cache entry {}", p.display())),
        None => Err(format!("torn cache entry {}", p.display())),
    }
}

/// Walks everything under `root` and requires every final-path file to
/// validate — the "a reader never sees a prefix" half of the contract.
fn scan_tree(root: &Path) -> Result<(), String> {
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
                validate_file(&p)?;
            }
        }
    }
    Ok(())
}

fn push_degradation(notes: &mut Vec<String>, rep: &SweepReport) {
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

type Attempt = Result<SweepReport, Box<dyn std::any::Any + Send>>;

fn judge(
    scn: &CrashScenario,
    dir: &Path,
    k: u64,
    mode: FaultMode,
    reference: &[String],
    attempt: Attempt,
) -> Verdict {
    let mut notes: Vec<String> = Vec::new();
    // The jobs themselves do no I/O, so no fault may change a result:
    // a failed cache probe or store only costs work.
    let rep = match attempt {
        Ok(rep) => rep,
        Err(payload) => {
            return Verdict::Violation(format!(
                "op {k} ({mode}): faulted invocation panicked: {}",
                crate::sweep::panic_message(payload.as_ref())
            ));
        }
    };
    for (i, r) in rep.results.iter().enumerate() {
        if format!("{r:?}") != reference[i] {
            return Verdict::Violation(format!(
                "op {k} ({mode}): job {i} diverged in the faulted invocation"
            ));
        }
    }
    push_degradation(&mut notes, &rep);

    // Silent bitrot is only required to be *detected on read* — its
    // scan runs after the restart, which probes every cell's entry and
    // quarantines the ones that fail their checksum.
    if mode != FaultMode::CorruptWrite {
        if let Err(why) = scan_tree(dir) {
            return Verdict::Violation(format!("op {k} ({mode}): post-fault scan: {why}"));
        }
    }

    let rep = run_scenario(scn, dir, std_vfs());
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
    push_degradation(&mut notes, &rep);
    if let Err(why) = scan_tree(dir) {
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
    let verdict = judge(scn, &dir, k, mode, reference, attempt);
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
pub fn enumerate(scn: &CrashScenario, root: &Path, stride: u64, mode: FaultMode) -> CrashMatrix {
    let reference = reference_rows(scn);
    let (total_ops, _) = probe(scn, root);
    let stride = stride.max(1);
    let mut points = Vec::new();
    let mut k = 0;
    while k < total_ops {
        points.push(run_point(scn, root, k, mode, &reference));
        k += stride;
    }
    CrashMatrix {
        mode,
        total_ops,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (total, _) = probe(&scn, &root);
        assert_eq!(total, 8, "two unique cells issue four I/O ops each");
        let matrix = enumerate(&scn, &root, total / 4, FaultMode::Crash);
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
        // Spot-check a reproducer detail: point 0 dies on the first
        // cache read, and its recorded op says so.
        let p0 = &matrix.points[0];
        assert_eq!(p0.index, 0);
        assert_eq!(p0.op.as_ref().map(|r| r.op), Some(IoOp::Read));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn defeated_rename_negative_control_is_detected() {
        let scn = CrashScenario::tiny(22);
        let root = root("defeat");
        let reference = reference_rows(&scn);
        let (_, log) = probe(&scn, &root);
        let entry_renames: Vec<u64> = log
            .iter()
            .filter(|r| r.op == IoOp::Rename && r.path.to_string_lossy().ends_with(".run"))
            .map(|r| r.index)
            .collect();
        assert!(
            !entry_renames.is_empty(),
            "the sweep must publish cache entries via rename"
        );
        let k = entry_renames[0];
        let p = run_point(&scn, &root, k, FaultMode::CrashDefeatRename, &reference);
        assert!(
            matches!(p.verdict, Verdict::Violation(ref why) if why.contains("torn cache entry")),
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
        let reference = reference_rows(&scn);
        let (total, log) = probe(&scn, &root);

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

        // Silent bitrot on the *last* cache-entry write: the corrupt
        // entry survives invocation A, and the restart must detect it
        // via the checksum, quarantine it and re-run the cell.
        let last_entry_write = log
            .iter()
            .filter(|r| r.op == IoOp::Write && r.path.to_string_lossy().contains(".run"))
            .map(|r| r.index)
            .next_back()
            .expect("the sweep writes cache entries");
        let p = run_point(
            &scn,
            &root,
            last_entry_write,
            FaultMode::CorruptWrite,
            &reference,
        );
        match &p.verdict {
            Verdict::Degraded(why) => assert!(
                why.contains("corrupt cache misses"),
                "bitrot on a cache entry must surface in the degradation notes: {why}"
            ),
            other => panic!("corrupt entry write must degrade, not {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
