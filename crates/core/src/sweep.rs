//! Resilient sweep runner: crash-safe checkpointing, bounded retry, and
//! resumable manifests for multi-job experiment sweeps.
//!
//! [`run_many_resilient`] drives a batch of [`Job`]s across a worker
//! pool like [`crate::experiment::run_many_checked`], but each job is
//! steered through explicit span boundaries (see
//! [`crate::replay::span_boundaries`]) so it can periodically persist a
//! [`Checkpoint`]. A job that dies — panic, transient checkpoint I/O
//! fault — is retried up to [`SweepOptions::max_retries`] times,
//! resuming from its last on-disk checkpoint rather than from scratch;
//! a job that keeps dying is *quarantined* so the rest of the sweep
//! completes.
//! Deterministic failures (invalid config, empty workload, OOM, DRAM
//! faults, watchdog trips) are never retried: re-running a
//! deterministic simulator reproduces them bit for bit.
//!
//! When a sweep directory is configured, a human-readable manifest
//! records per-job status (`pending`/`done`/`failed <why>`), finished
//! jobs' metrics are persisted, and a later invocation with the same
//! jobs picks up exactly where the previous one stopped — the
//! "kill -9 the sweep, rerun the command" recovery story.
//!
//! Determinism note: segmentation is part of the bit-identity contract.
//! `checkpoint_every: None` steers each job through exactly the
//! boundaries [`System::try_run`] uses, so this runner with default
//! options is bit-compatible with the plain checked sweep.
//!
//! # Deduplication and the run cache
//!
//! Identical `(config, mix)` cells among the pending jobs share one
//! execution: the first occurrence (the *leader*) runs, and its outcome
//! — success or typed error — fans out to every duplicate, preserving
//! output order and per-cell error semantics. Soundness rests on the
//! canonical fingerprint ([`crate::runcache::job_fingerprint`]) covering
//! *every* semantic knob, so equal fingerprints mean deterministic
//! duplicates by the replay-proof contract. Dedup is therefore always
//! on. The *persistent* cache ([`SweepOptions::cache`]) additionally
//! serves leaders from prior processes' results — except for cells
//! [`crate::runcache::bypass_reason`] names, which always execute.
//! With [`SweepOptions::verify_sampled`] set (the default), the first
//! cache hit of each sweep is re-executed and compared bit-for-bit
//! (metrics *and* final replay hash) against the stored entry, turning
//! every warm sweep into a standing audit of the cache's soundness.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use refsim_dram::time::Ps;

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::codec::{self, to_bytes, Dec, Enc};
use crate::error::RefsimError;
use crate::executor::{self, default_threads, ExecItem, ExecutorStats, Verdict};
use crate::experiment::Job;
use crate::metrics::RunMetrics;
use crate::replay::{span_boundaries, StateHashes};
use crate::runcache::{
    bypass_reason, job_fingerprint, CacheEntry, CacheLookup, CacheStats, RunCache,
};
use crate::system::System;
use crate::vfs::{self, std_vfs, Vfs, VfsErrorKind};

/// Options for a resilient sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Directory for the manifest, per-job checkpoints, and persisted
    /// metrics. `None` disables all persistence (in-memory retry only).
    pub dir: Option<PathBuf>,
    /// Interval between mid-run checkpoints. `None` checkpoints only at
    /// the warm-up boundary and run end — the exact segmentation of
    /// [`System::try_run`], preserving bit-identity with plain sweeps.
    pub checkpoint_every: Option<Ps>,
    /// Additional attempts after the first failure of a retryable job.
    pub max_retries: u32,
    /// Test-only fault injection: panic a chosen job mid-run. Injection
    /// targets a job *index*; a duplicate cell deduped onto another
    /// leader never runs and so never fires its injection.
    pub inject: Option<PanicInjection>,
    /// Persistent content-addressed run cache. `None` (the default)
    /// disables persistence; in-process dedup is active regardless.
    pub cache: Option<RunCache>,
    /// Re-execute the first cache hit of the sweep and require the
    /// fresh run to reproduce the entry's metrics and replay hash
    /// bit-for-bit. On by default; a mismatch is counted in
    /// [`CacheStats::verify_failures`] and the fresh result wins.
    pub verify_sampled: bool,
    /// Filesystem every persistence surface of the sweep goes through.
    /// Defaults to the real filesystem; the crash-matrix harness swaps
    /// in a [`crate::vfs::FaultVfs`].
    pub vfs: Arc<dyn Vfs>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            dir: None,
            checkpoint_every: None,
            max_retries: 1,
            inject: None,
            cache: None,
            verify_sampled: true,
            vfs: std_vfs(),
        }
    }
}

/// Deterministic fault injection for testing the retry/resume path:
/// the chosen job panics after completing `after_spans` span
/// boundaries, on each of its first `attempts` attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicInjection {
    /// Index of the job to kill.
    pub job: usize,
    /// Number of attempts that die before one is allowed to finish.
    pub attempts: u32,
    /// Span boundaries the doomed attempt completes before panicking.
    pub after_spans: u64,
}

/// Outcome of a resilient sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-job results, in job order.
    pub results: Vec<Result<RunMetrics, RefsimError>>,
    /// Total retry attempts across all jobs.
    pub retries: u64,
    /// Jobs whose retryable failures exhausted the retry budget.
    pub quarantined: Vec<usize>,
    /// Attempts that resumed from an on-disk checkpoint.
    pub resumed: u64,
    /// Dedup and run-cache telemetry for this sweep.
    pub stats: CacheStats,
    /// Damaged on-disk files (checkpoints, metrics frames, the
    /// manifest) detected via typed errors and renamed to
    /// reproducer-grade `*.quarantine` siblings instead of being
    /// trusted or deleted.
    pub files_quarantined: u64,
    /// Mid-run checkpoint saves that failed (ENOSPC, torn write). A
    /// failed save is a lost safety net, not a lost result: the attempt
    /// keeps simulating and the previous checkpoint stays in place.
    pub ckpt_save_failures: u64,
    /// The sweep manifest was torn or corrupt and progress was rebuilt
    /// from the surviving checksummed per-job metrics frames.
    pub manifest_rebuilt: bool,
    /// Scheduling telemetry from the work-stealing executor (steals,
    /// requeues, tail-cell histogram).
    pub executor: ExecutorStats,
}

/// Degradation counters shared between the sweep driver and the
/// per-attempt code running on worker threads.
#[derive(Debug, Default)]
struct SweepTelemetry {
    files_quarantined: AtomicU64,
    ckpt_save_failures: AtomicU64,
}

/// Whether a failed attempt is worth retrying. Only nondeterministic
/// failure modes qualify: everything else reproduces identically.
/// Transient I/O interruptions qualify; ENOSPC and crash-point
/// failures do not (a full disk stays full, a dead disk stays dead).
fn is_retryable(e: &RefsimError) -> bool {
    match e {
        RefsimError::Panicked(_) | RefsimError::Checkpoint(_) => true,
        RefsimError::Io(io) => io.is_transient(),
        _ => false,
    }
}

/// Best-effort recovery of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

// ---- manifest ------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum JobStatus {
    Pending,
    Done,
    Failed(String),
}

#[derive(Debug)]
struct Manifest {
    fingerprints: Vec<u64>,
    status: Vec<JobStatus>,
}

impl Manifest {
    fn new(fingerprints: Vec<u64>) -> Self {
        let status = vec![JobStatus::Pending; fingerprints.len()];
        Manifest {
            fingerprints,
            status,
        }
    }

    fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "refsim-sweep v1");
        let _ = writeln!(s, "jobs {}", self.fingerprints.len());
        for (i, (fp, st)) in self.fingerprints.iter().zip(&self.status).enumerate() {
            let line = match st {
                JobStatus::Pending => format!("job {i} {fp:016x} pending"),
                JobStatus::Done => format!("job {i} {fp:016x} done"),
                JobStatus::Failed(why) => {
                    format!("job {i} {fp:016x} failed {}", why.replace('\n', " "))
                }
            };
            let _ = writeln!(s, "{line}");
        }
        // Trailer: FNV-1a over everything above it. A truncated manifest
        // would otherwise parse "successfully" with zeroed rows.
        let sum = codec::fnv64(s.as_bytes());
        let _ = writeln!(s, "checksum {sum:016x}");
        s
    }

    pub(crate) fn parse(text: &str) -> Result<Self, String> {
        let trimmed = text
            .strip_suffix('\n')
            .ok_or("manifest is truncated (no trailing newline)")?;
        let (body, last) = match trimmed.rfind('\n') {
            Some(p) => (&text[..p + 1], &trimmed[p + 1..]),
            None => return Err("manifest is missing its checksum trailer".to_owned()),
        };
        let sum = last
            .strip_prefix("checksum ")
            .ok_or("manifest is missing its checksum trailer")?;
        let sum =
            u64::from_str_radix(sum, 16).map_err(|e| format!("bad manifest checksum: {e}"))?;
        if codec::fnv64(body.as_bytes()) != sum {
            return Err("manifest checksum mismatch (torn or corrupt)".to_owned());
        }
        let mut lines = body.lines();
        if lines.next() != Some("refsim-sweep v1") {
            return Err("manifest header is not `refsim-sweep v1`".to_owned());
        }
        let n: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("jobs "))
            .and_then(|v| v.parse().ok())
            .ok_or("manifest is missing the job count")?;
        let mut m = Manifest::new(vec![0; n]);
        for (i, line) in lines.enumerate() {
            let rest = line
                .strip_prefix(&format!("job {i} "))
                .ok_or_else(|| format!("manifest line {i} is malformed: `{line}`"))?;
            let (fp, st) = rest
                .split_once(' ')
                .ok_or_else(|| format!("manifest line {i} is missing a status"))?;
            *m.fingerprints
                .get_mut(i)
                .ok_or_else(|| format!("manifest has more rows than its job count {n}"))? =
                u64::from_str_radix(fp, 16).map_err(|e| format!("bad fingerprint: {e}"))?;
            m.status[i] = match st.split_once(' ') {
                None if st == "pending" => JobStatus::Pending,
                None if st == "done" => JobStatus::Done,
                Some(("failed", why)) => JobStatus::Failed(why.to_owned()),
                _ => return Err(format!("unknown job status `{st}`")),
            };
        }
        if m.status.len() != n {
            return Err(format!(
                "manifest declares {n} jobs but lists {}",
                m.status.len()
            ));
        }
        Ok(m)
    }

    /// Atomically persists the manifest ([`crate::vfs::write_atomic`]).
    fn store(&self, vfs: &dyn Vfs, dir: &Path) -> Result<(), RefsimError> {
        vfs::write_atomic(vfs, &manifest_path(dir), self.render().as_bytes())
            .map_err(RefsimError::Io)
    }
}

/// Validates manifest text end to end (checksum trailer, header, rows)
/// without exposing the manifest type — the crash-matrix scan's check
/// that an on-disk manifest is consumable.
pub(crate) fn validate_manifest(text: &str) -> Result<(), String> {
    Manifest::parse(text).map(|_| ())
}

pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("sweep.manifest")
}

pub(crate) fn ckpt_path(dir: &Path, job: usize) -> PathBuf {
    dir.join(format!("job-{job}.ckpt"))
}

pub(crate) fn metrics_path(dir: &Path, job: usize) -> PathBuf {
    dir.join(format!("job-{job}.metrics"))
}

/// Reproducer-grade quarantine name: the damaged file's own name plus
/// `.quarantine`, in place, so the bytes survive for triage.
pub(crate) fn quarantine_path(p: &Path) -> PathBuf {
    let mut os = p.as_os_str().to_owned();
    os.push(".quarantine");
    PathBuf::from(os)
}

// ---- per-job metrics frames ---------------------------------------------
//
// Raw codec bytes would decode a bit-flipped RunMetrics into different
// numbers without complaint; the frame adds a magic, a version, the
// job's canonical fingerprint (so a frame can never be attributed to
// the wrong cell, even after a manifest rebuild), and an FNV-1a
// checksum over everything.

/// Magic opening every per-job metrics frame.
pub(crate) const METRICS_MAGIC: [u8; 4] = *b"RFMM";
/// Current metrics-frame format version.
pub(crate) const METRICS_VERSION: u32 = 1;

pub(crate) fn encode_metrics(fingerprint: u64, m: &RunMetrics) -> Vec<u8> {
    let payload = to_bytes(m);
    let mut e = Enc::new();
    e.put_bytes(&METRICS_MAGIC);
    e.put_u32(METRICS_VERSION);
    e.put_u64(fingerprint);
    e.put_u64(payload.len() as u64);
    e.put_bytes(&payload);
    let mut bytes = e.into_bytes();
    bytes.extend_from_slice(&codec::fnv64(&bytes).to_le_bytes());
    bytes
}

/// Parses a metrics frame; any damage (truncation, bitrot, version
/// skew) reads as `None`, never as different numbers.
pub(crate) fn decode_metrics(bytes: &[u8]) -> Option<(u64, RunMetrics)> {
    if bytes.len() < 8 {
        return None;
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    if codec::fnv64(body) != u64::from_le_bytes(tail.try_into().ok()?) {
        return None;
    }
    let mut d = Dec::new(body);
    if d.get_bytes(4).ok()? != METRICS_MAGIC {
        return None;
    }
    if d.get_u32().ok()? != METRICS_VERSION {
        return None;
    }
    let fingerprint = d.get_u64().ok()?;
    let n = d.get_u64().ok()?;
    if n != d.remaining() as u64 {
        return None;
    }
    let metrics = codec::from_bytes::<RunMetrics>(d.get_bytes(n as usize).ok()?).ok()?;
    Some((fingerprint, metrics))
}

/// Loads job `job`'s persisted metrics, requiring the frame's embedded
/// fingerprint to match `expected_fp`. Damaged or misattributed frames
/// are quarantined and read as absent.
fn load_metrics(
    vfs: &dyn Vfs,
    dir: &Path,
    job: usize,
    expected_fp: u64,
    tel: &SweepTelemetry,
) -> Option<RunMetrics> {
    let path = metrics_path(dir, job);
    let bytes = match vfs.read(&path) {
        Ok(b) => b,
        Err(_) => return None, // absent or unreadable: the job re-runs
    };
    match decode_metrics(&bytes) {
        Some((fp, m)) if fp == expected_fp => Some(m),
        _ => {
            let _ = vfs.rename(&path, &quarantine_path(&path));
            tel.files_quarantined.fetch_add(1, Ordering::Relaxed);
            None
        }
    }
}

// ---- per-attempt driver --------------------------------------------------

/// Everything one finished attempt yields.
struct AttemptOutcome {
    metrics: RunMetrics,
    /// The attempt resumed from an on-disk checkpoint.
    resumed: bool,
    /// Final replay state hash, computed only when `want_hash` (i.e.
    /// the result is destined for a cache entry or a verification).
    hash: Option<u64>,
    /// Wall-clock nanoseconds this attempt took.
    wall_nanos: u64,
}

/// Runs one attempt of `job`, checkpointing at each span boundary when a
/// sweep directory is configured, resuming from an existing checkpoint
/// when one is present and importable.
fn run_attempt(
    job: &Job,
    job_idx: usize,
    attempt: u32,
    opts: &SweepOptions,
    want_hash: bool,
    tel: &SweepTelemetry,
) -> Result<AttemptOutcome, RefsimError> {
    let t0 = Instant::now();
    let cfg = &job.cfg;
    let vfs = &*opts.vfs;
    let boundaries = span_boundaries(cfg, opts.checkpoint_every);
    let mut resumed = false;
    let mut sys = None;
    if let Some(dir) = &opts.dir {
        // A stale, corrupt, or mismatched checkpoint must never poison a
        // retry — quarantine it and fall back to a fresh run. Only a
        // crashed (frozen) disk aborts the attempt: there is no point
        // simulating when nothing can be persisted or delivered.
        let path = ckpt_path(dir, job_idx);
        match Checkpoint::load_with(vfs, &path) {
            Ok(cp) => match System::restore(cfg.clone(), &job.mix, &cp) {
                Ok(s) => {
                    resumed = true;
                    sys = Some(s);
                }
                Err(_) => {
                    let _ = vfs.rename(&path, &quarantine_path(&path));
                    tel.files_quarantined.fetch_add(1, Ordering::Relaxed);
                }
            },
            Err(CheckpointError::Io(e)) => {
                if e.kind == VfsErrorKind::Crashed {
                    return Err(RefsimError::Io(e));
                }
                // Not found: a cold start. Transient or other read
                // failures: also a cold start — strictly more work,
                // never wrong.
            }
            Err(_) => {
                // Torn or corrupt image: typed detection, quarantine,
                // fresh run.
                let _ = vfs.rename(&path, &quarantine_path(&path));
                tel.files_quarantined.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let mut sys = match sys {
        Some(s) => s,
        None => {
            let mut s = System::try_new(cfg.clone(), &job.mix)?;
            if cfg.warmup == Ps::ZERO {
                s.begin_measure();
            }
            s
        }
    };
    for (s_idx, &b) in boundaries.iter().enumerate() {
        if b <= sys.now() {
            continue; // already covered by the restored checkpoint
        }
        sys.try_run_until(b)?;
        if b == cfg.warmup {
            sys.begin_measure();
        }
        if let Some(dir) = &opts.dir {
            if let Err(e) = sys
                .checkpoint(&job.mix)
                .save_with(vfs, &ckpt_path(dir, job_idx))
            {
                match e {
                    CheckpointError::Io(io) if io.kind == VfsErrorKind::Crashed => {
                        return Err(RefsimError::Io(io));
                    }
                    // A failed mid-run checkpoint (ENOSPC, torn write)
                    // is a lost safety net, not a lost result: the
                    // previous checkpoint stays valid on disk and the
                    // attempt keeps simulating.
                    _ => {
                        tel.ckpt_save_failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        if let Some(inj) = &opts.inject {
            if inj.job == job_idx && attempt < inj.attempts && s_idx as u64 == inj.after_spans {
                panic!("injected sweep fault (job {job_idx}, attempt {attempt})");
            }
        }
    }
    sys.audit_retention();
    // Invariant violations become a typed per-job error row rather than
    // a crashed sweep; they are deterministic, so `is_retryable` keeps
    // them out of the retry loop.
    sys.finish_audit()?;
    let hash = want_hash.then(|| StateHashes::of(&sys.export_state()).combined());
    Ok(AttemptOutcome {
        metrics: sys.collect(),
        resumed,
        hash,
        wall_nanos: t0.elapsed().as_nanos() as u64,
    })
}

// ---- the runner ----------------------------------------------------------

/// Error-tolerant, crash-safe sweep: runs every job to a `Result` in job
/// order, retrying retryable failures from their last checkpoint and
/// quarantining jobs that keep failing. With
/// `opts.dir` set, progress survives process death: rerun with the same
/// jobs and options to resume from the manifest.
///
/// # Errors
///
/// Fails only on sweep-level corruption: an existing manifest whose job
/// count or config fingerprints do not match `jobs`, or a manifest that
/// cannot be written. Per-job failures are *data* — they land in
/// [`SweepReport::results`], never abort the sweep.
pub fn run_many_resilient(
    jobs: &[Job],
    threads: usize,
    opts: &SweepOptions,
) -> Result<SweepReport, RefsimError> {
    let n = jobs.len();
    let fingerprints: Vec<u64> = jobs
        .iter()
        .map(|j| job_fingerprint(&j.cfg, &j.mix))
        .collect();

    let vfs = &*opts.vfs;
    let tel = SweepTelemetry::default();
    let mut manifest_rebuilt = false;
    let mut manifest = Manifest::new(fingerprints.clone());
    let mut results: Vec<Option<Result<RunMetrics, RefsimError>>> = (0..n).map(|_| None).collect();

    if let Some(dir) = &opts.dir {
        vfs.create_dir_all(dir).map_err(RefsimError::Io)?;
        // Sweep away temp litter from a previous crashed invocation:
        // under the atomic-publish convention every `*.tmp` file is
        // garbage by definition.
        if let Ok(entries) = vfs.read_dir(dir) {
            for p in entries {
                if p.extension().is_some_and(|e| e == "tmp") {
                    let _ = vfs.remove(&p);
                }
            }
        }
        match vfs::read_to_string(vfs, &manifest_path(dir)) {
            Ok(text) => match Manifest::parse(&text) {
                Ok(prior) => {
                    if prior.fingerprints != fingerprints {
                        return Err(RefsimError::Checkpoint(
                            "sweep manifest does not match this job list; \
                             point --sweep-dir at a fresh directory"
                                .to_owned(),
                        ));
                    }
                }
                Err(_) => {
                    // Torn or corrupt manifest: quarantine it and
                    // rebuild progress from the surviving checksummed
                    // per-job metrics frames below.
                    let path = manifest_path(dir);
                    let _ = vfs.rename(&path, &quarantine_path(&path));
                    tel.files_quarantined.fetch_add(1, Ordering::Relaxed);
                    manifest_rebuilt = true;
                }
            },
            Err(e) if e.kind == VfsErrorKind::NotFound => {}
            Err(e) if e.kind == VfsErrorKind::Crashed => return Err(RefsimError::Io(e)),
            Err(e)
                if matches!(&e.kind, VfsErrorKind::Other(msg)
                    if msg.starts_with("invalid utf-8")) =>
            {
                // The read succeeded but bitrot broke the text encoding
                // itself — the same torn-manifest class as a checksum
                // failure, just caught one layer earlier: quarantine
                // the bytes and rebuild from the metrics frames.
                let path = manifest_path(dir);
                let _ = vfs.rename(&path, &quarantine_path(&path));
                tel.files_quarantined.fetch_add(1, Ordering::Relaxed);
                manifest_rebuilt = true;
            }
            Err(_) => {
                // Unreadable manifest (transient read fault): start from
                // the metrics frames, which carry their own fingerprints
                // and checksums.
            }
        }
        // Absorb every finished job whose framed metrics survive. The
        // frame — not the manifest row — is the authority: its checksum
        // and embedded fingerprint make misattribution impossible, so
        // this also recovers jobs that finished after the manifest's
        // last successful store.
        for i in 0..n {
            if results[i].is_none() {
                if let Some(m) = load_metrics(vfs, dir, i, fingerprints[i], &tel) {
                    manifest.status[i] = JobStatus::Done;
                    results[i] = Some(Ok(m));
                }
            }
        }
        manifest.store(vfs, dir)?;
    }

    let pending: Vec<usize> = (0..n).filter(|&i| results[i].is_none()).collect();

    // In-flight dedup: group pending cells by canonical fingerprint.
    // The first pending index of each group is its *leader* and the
    // only cell that executes; the group's outcome fans out to all.
    let mut leaders: Vec<usize> = Vec::new();
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for &i in &pending {
        let g = groups.entry(fingerprints[i]).or_default();
        if g.is_empty() {
            leaders.push(i);
        }
        g.push(i);
    }

    let mut stats = CacheStats {
        requested: n as u64,
        deduped: (pending.len() - leaders.len()) as u64,
        ..CacheStats::default()
    };

    let results = Mutex::new(results);
    let manifest = Mutex::new(manifest);
    let retries = AtomicU64::new(0);
    let resumed_count = AtomicU64::new(0);
    let quarantined = Mutex::new(Vec::new());
    let stats_mx = Mutex::new(&mut stats);
    // One sampled verification per sweep: the first hit claims it.
    let verify_claimed = AtomicBool::new(false);
    let workers = if threads == 0 {
        default_threads()
    } else {
        threads
    };

    // Cost-model estimates for dispatch ordering: a cached wall from a
    // prior process, read without lookup side effects. Bypassed cells
    // and cold caches have no estimate and run in submission order.
    let items: Vec<ExecItem> = leaders
        .iter()
        .enumerate()
        .map(|(p, &i)| ExecItem {
            id: p,
            estimate_nanos: opts.cache.as_ref().and_then(|c| {
                bypass_reason(&jobs[i].cfg)
                    .is_none()
                    .then(|| c.peek_wall_nanos(fingerprints[i]))
                    .flatten()
            }),
        })
        .collect();

    // Per-leader state that must survive executor requeues: the sweep —
    // not the executor — owns the retry budget (so `PanicInjection`
    // attempt counting is unchanged), and the cache decision is made
    // exactly once per leader no matter how many dispatches it takes.
    let attempts: Vec<AtomicU32> = leaders.iter().map(|_| AtomicU32::new(0)).collect();
    let prepared: Vec<OnceLock<Prepared>> = leaders.iter().map(|_| OnceLock::new()).collect();

    let bump = |f: &dyn Fn(&mut CacheStats)| {
        f(&mut stats_mx.lock().expect("poisoned"));
    };

    // The cache decision for one leader: serve a hit outright, or
    // execute (optionally verifying against the held entry). The
    // persistent cache applies only to cacheable cells; audited /
    // fault-injected / debug-knob runs must execute for real.
    let prepare = |i: usize, fp: u64| -> Prepared {
        let cache = match &opts.cache {
            Some(c) => match bypass_reason(&jobs[i].cfg) {
                None => Some(c),
                Some(_) => {
                    bump(&|st| st.bypassed += 1);
                    None
                }
            },
            None => None,
        };
        let Some(cache) = cache else {
            bump(&|st| st.executed += 1);
            return Prepared::Execute {
                verify: None,
                verify_sz: 0,
                use_cache: false,
            };
        };
        let lookup = cache.lookup(fp);
        match &lookup {
            CacheLookup::Hit(_, _) => {}
            CacheLookup::Absent => bump(&|st| {
                st.misses += 1;
                st.misses_absent += 1;
            }),
            CacheLookup::Corrupt => bump(&|st| {
                st.misses += 1;
                st.misses_corrupt += 1;
            }),
            CacheLookup::Io(_) => bump(&|st| {
                st.misses += 1;
                st.misses_io += 1;
            }),
        }
        if let CacheLookup::Hit(entry, sz) = lookup {
            if opts.verify_sampled && !verify_claimed.swap(true, Ordering::Relaxed) {
                // Sampled audit: re-run the cell and hold the entry to
                // bit-identity on metrics and the final replay hash.
                bump(&|st| st.executed += 1);
                Prepared::Execute {
                    verify: Some(entry),
                    verify_sz: sz,
                    use_cache: true,
                }
            } else {
                bump(&|st| {
                    st.hits += 1;
                    st.bytes_read += sz;
                    st.saved_nanos += entry.wall_nanos;
                });
                Prepared::Serve(Box::new(entry.metrics))
            }
        } else {
            bump(&|st| st.executed += 1);
            Prepared::Execute {
                verify: None,
                verify_sz: 0,
                use_cache: true,
            }
        }
    };

    // Fans one leader's terminal outcome out to every cell of its group
    // (the leader included), preserving per-cell manifest rows, metrics
    // files, and error clones.
    let finish = |fp: u64, outcome: Result<RunMetrics, RefsimError>, cell_quarantined: bool| {
        let group = &groups[&fp];
        if let Some(dir) = &opts.dir {
            let mut mf = manifest.lock().expect("poisoned");
            for &j in group {
                mf.status[j] = match &outcome {
                    Ok(m) => {
                        // Persist metrics first so `done` is never
                        // recorded without its payload.
                        let frame = encode_metrics(fp, m);
                        let ok = vfs::write_atomic(vfs, &metrics_path(dir, j), &frame).is_ok();
                        let _ = vfs.remove(&ckpt_path(dir, j));
                        if ok {
                            JobStatus::Done
                        } else {
                            JobStatus::Failed("metrics not persisted".to_owned())
                        }
                    }
                    Err(e) => JobStatus::Failed(e.to_string()),
                };
            }
            let _ = mf.store(vfs, dir);
        }
        if cell_quarantined {
            quarantined.lock().expect("poisoned").extend(group.iter());
        }
        let mut res = results.lock().expect("poisoned");
        for &j in group {
            res.as_mut_slice()[j] = Some(outcome.clone());
        }
    };

    // One executor dispatch of one leader: a single attempt, with the
    // verdict routing retries (requeue) and terminal outcomes (fan-out).
    let exec_run = |p: usize| -> Verdict {
        let i = leaders[p];
        let fp = fingerprints[i];
        let prep = prepared[p].get_or_init(|| prepare(i, fp));
        let (verify, verify_sz, use_cache) = match prep {
            Prepared::Serve(m) => {
                finish(fp, Ok((**m).clone()), false);
                return Verdict::Done;
            }
            Prepared::Execute {
                verify,
                verify_sz,
                use_cache,
            } => (verify, *verify_sz, *use_cache),
        };
        let attempt = attempts[p].load(Ordering::Relaxed);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_attempt(&jobs[i], i, attempt, opts, use_cache, &tel)
        }))
        .unwrap_or_else(|payload| Err(RefsimError::Panicked(panic_message(payload.as_ref()))));
        match r {
            Ok(out) => {
                if out.resumed {
                    resumed_count.fetch_add(1, Ordering::Relaxed);
                }
                let outcome = if let Some(entry) = verify {
                    let clean = out.metrics == entry.metrics && out.hash == Some(entry.replay_hash);
                    if clean {
                        bump(&|st| {
                            st.hits += 1;
                            st.verified += 1;
                            st.bytes_read += verify_sz;
                        });
                    } else {
                        // The fresh run wins; the stale entry is
                        // overwritten.
                        bump(&|st| st.verify_failures += 1);
                        if let Some(cache) = &opts.cache {
                            store_entry(cache, fp, &out, &stats_mx);
                        }
                    }
                    Ok(out.metrics)
                } else {
                    if use_cache {
                        if let Some(cache) = &opts.cache {
                            store_entry(cache, fp, &out, &stats_mx);
                        }
                    }
                    Ok(out.metrics)
                };
                finish(fp, outcome, false);
                Verdict::Done
            }
            Err(e) => {
                let retryable = is_retryable(&e);
                if retryable && attempt < opts.max_retries {
                    retries.fetch_add(1, Ordering::Relaxed);
                    attempts[p].fetch_add(1, Ordering::Relaxed);
                    Verdict::Requeue
                } else {
                    finish(fp, Err(e), retryable);
                    Verdict::Done
                }
            }
        }
    };

    let exec_stats = executor::execute(&items, workers, exec_run);

    let mut quarantined = quarantined.into_inner().expect("poisoned");
    quarantined.sort_unstable();
    let results = results
        .into_inner()
        .expect("poisoned")
        .into_iter()
        .map(|r| r.expect("every job produced a result"))
        .collect();
    Ok(SweepReport {
        results,
        retries: retries.into_inner(),
        quarantined,
        resumed: resumed_count.into_inner(),
        stats,
        files_quarantined: tel.files_quarantined.into_inner(),
        ckpt_save_failures: tel.ckpt_save_failures.into_inner(),
        manifest_rebuilt,
        executor: exec_stats,
    })
}

/// The once-per-leader cache decision, cached across executor requeues
/// so a retried dispatch never re-probes (or re-counts) the cache.
#[derive(Debug)]
enum Prepared {
    /// Serve the cached metrics without executing.
    Serve(Box<RunMetrics>),
    /// Execute the cell.
    Execute {
        /// Sampled-audit entry the fresh run must reproduce bit-for-bit.
        verify: Option<Box<CacheEntry>>,
        /// On-disk size of the verify entry (for `bytes_read`).
        verify_sz: u64,
        /// Hash the result and store it back into the persistent cache.
        use_cache: bool,
    },
}

/// Persists a freshly executed result as a cache entry, folding byte
/// counts into the sweep's stats. Store failures are non-fatal but
/// counted: the result is already in hand, the cache just stays cold.
fn store_entry(
    cache: &RunCache,
    fingerprint: u64,
    out: &AttemptOutcome,
    stats_mx: &Mutex<&mut CacheStats>,
) {
    let Some(hash) = out.hash else { return };
    let entry = CacheEntry {
        fingerprint,
        replay_hash: hash,
        wall_nanos: out.wall_nanos,
        metrics: out.metrics.clone(),
    };
    let mut st = stats_mx.lock().expect("poisoned");
    match cache.store(&entry) {
        Ok(written) => {
            st.stores += 1;
            st.bytes_written += written;
        }
        Err(_) => st.store_failures += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use refsim_workloads::mix::WorkloadMix;
    use refsim_workloads::profiles::Benchmark;
    use std::fs;

    fn tiny_job(seed: u64) -> Job {
        let mut cfg = SystemConfig::table1().with_time_scale(512).with_seed(seed);
        cfg.warmup = cfg.trefw() / 8;
        cfg.measure = cfg.trefw() / 2;
        Job {
            cfg,
            mix: WorkloadMix::from_groups(
                "tiny",
                &[(Benchmark::Stream, 2), (Benchmark::Povray, 2)],
                "M + L",
            ),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("refsim-sweep-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn manifest_roundtrips_and_rejects_garbage() {
        let mut m = Manifest::new(vec![0xdead_beef, 0x1234]);
        m.status[0] = JobStatus::Done;
        m.status[1] = JobStatus::Failed("watchdog: no progress".to_owned());
        let back = Manifest::parse(&m.render()).expect("roundtrip");
        assert_eq!(back.fingerprints, m.fingerprints);
        assert_eq!(back.status, m.status);
        assert!(Manifest::parse("not a manifest").is_err());
        assert!(Manifest::parse("refsim-sweep v1\njobs 2\njob 0 zz pending").is_err());
    }

    #[test]
    fn default_options_match_the_plain_checked_sweep() {
        let jobs = [tiny_job(1), tiny_job(2)];
        let plain = crate::experiment::run_many_checked(&jobs, 2);
        let resilient = run_many_resilient(&jobs, 2, &SweepOptions::default()).expect("sweep");
        assert_eq!(resilient.retries, 0);
        for (a, b) in plain.iter().zip(&resilient.results) {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "resilient sweep must be bit-compatible with the plain sweep"
            );
        }
    }

    #[test]
    fn injected_panic_resumes_from_checkpoint_bit_identical() {
        let jobs = [tiny_job(3), tiny_job(4)];
        let every = jobs[0].cfg.effective_timeslice() * 8;

        // Reference: same segmentation, no faults, no persistence dir.
        let clean = run_many_resilient(
            &jobs,
            1,
            &SweepOptions {
                checkpoint_every: Some(every),
                ..SweepOptions::default()
            },
        )
        .expect("clean sweep");

        // Faulted: job 0 dies once mid-run, retries, resumes from disk.
        let dir = tmp_dir("resume");
        let faulted = run_many_resilient(
            &jobs,
            1,
            &SweepOptions {
                dir: Some(dir.clone()),
                checkpoint_every: Some(every),
                max_retries: 1,
                inject: Some(PanicInjection {
                    job: 0,
                    attempts: 1,
                    after_spans: 2,
                }),
                ..SweepOptions::default()
            },
        )
        .expect("faulted sweep");
        assert_eq!(
            faulted.retries, 1,
            "the injected panic must trigger a retry"
        );
        assert_eq!(
            faulted.resumed, 1,
            "the retry must resume from the checkpoint"
        );
        assert!(faulted.quarantined.is_empty());
        for (i, (a, b)) in clean.results.iter().zip(&faulted.results).enumerate() {
            let (a, b) = (a.as_ref().expect("clean"), b.as_ref().expect("faulted"));
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "job {i}: resumed run must be bit-identical to the uninterrupted run"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_failures_are_quarantined_and_the_sweep_completes() {
        let jobs = [tiny_job(5), tiny_job(6)];
        let report = run_many_resilient(
            &jobs,
            2,
            &SweepOptions {
                checkpoint_every: Some(jobs[0].cfg.effective_timeslice() * 8),
                max_retries: 1,
                inject: Some(PanicInjection {
                    job: 0,
                    attempts: 5, // outlives the retry budget
                    after_spans: 1,
                }),
                ..SweepOptions::default()
            },
        )
        .expect("sweep");
        assert_eq!(report.quarantined, vec![0]);
        assert!(
            matches!(
                report.results[0],
                Err(RefsimError::Panicked(ref m)) if m.contains("injected")
            ),
            "unexpected job-0 result: {:?}",
            report.results[0]
        );
        assert!(report.results[1].is_ok(), "healthy jobs must still finish");
    }

    #[test]
    fn deterministic_errors_fail_fast_without_retry() {
        let mut bad = tiny_job(7);
        bad.cfg.measure = Ps::ZERO; // rejected by SystemConfig::validate
        let report = run_many_resilient(&[bad], 1, &SweepOptions::default()).expect("sweep");
        assert_eq!(report.retries, 0);
        assert!(matches!(
            report.results[0],
            Err(RefsimError::InvalidConfig(_))
        ));
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn second_invocation_resumes_from_manifest() {
        let jobs = [tiny_job(8), tiny_job(9)];
        let every = jobs[0].cfg.effective_timeslice() * 8;
        let dir = tmp_dir("manifest");

        // First invocation: job 1 keeps dying and ends up `failed`.
        let first = run_many_resilient(
            &jobs,
            1,
            &SweepOptions {
                dir: Some(dir.clone()),
                checkpoint_every: Some(every),
                max_retries: 0,
                inject: Some(PanicInjection {
                    job: 1,
                    attempts: 9,
                    after_spans: 1,
                }),
                ..SweepOptions::default()
            },
        )
        .expect("first invocation");
        assert!(first.results[0].is_ok());
        assert!(first.results[1].is_err());

        // Second invocation: no faults. Job 0 is loaded from its
        // persisted metrics (not re-run); job 1 resumes from its
        // checkpoint and must match a never-interrupted run.
        let second = run_many_resilient(
            &jobs,
            1,
            &SweepOptions {
                dir: Some(dir.clone()),
                checkpoint_every: Some(every),
                ..SweepOptions::default()
            },
        )
        .expect("second invocation");
        assert!(second.resumed >= 1, "job 1 must resume from its checkpoint");
        let clean = run_many_resilient(
            &jobs,
            1,
            &SweepOptions {
                checkpoint_every: Some(every),
                ..SweepOptions::default()
            },
        )
        .expect("clean reference");
        for (i, (a, b)) in clean.results.iter().zip(&second.results).enumerate() {
            let (a, b) = (a.as_ref().expect("clean"), b.as_ref().expect("second"));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "job {i}");
        }
        // Job 0's persisted metrics must also round-trip exactly.
        assert_eq!(
            format!("{:?}", first.results[0].as_ref().expect("first")),
            format!("{:?}", second.results[0].as_ref().expect("second")),
        );

        // A different job list must be rejected, not silently mixed in.
        let err = run_many_resilient(
            &[tiny_job(10)],
            1,
            &SweepOptions {
                dir: Some(dir.clone()),
                ..SweepOptions::default()
            },
        )
        .expect_err("mismatched manifest");
        assert!(matches!(err, RefsimError::Checkpoint(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
