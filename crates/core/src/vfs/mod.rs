//! Object-safe filesystem abstraction with deterministic fault
//! injection.
//!
//! Every file the workspace persists — run-cache entries
//! ([`crate::runcache`], the only thing a sweep stores) and bench
//! artifacts — is written through the [`Vfs`] trait. Production code
//! uses the passthrough [`StdVfs`]; tests and the crash-point
//! enumeration harness ([`crashtest`], `bench --bin crashmat`) swap in a
//! [`FaultVfs`] that injects seed-driven faults from a
//! [`FaultSchedule`]: torn/short writes, rename failures, ENOSPC,
//! EINTR-style transients, silent byte corruption, and a hard crash
//! point that freezes the disk at the Nth I/O operation.
//!
//! # The crash model
//!
//! A "crash" here is *not* a panic: panicking inside the sweep runner
//! would be caught by its own retry machinery and would tear through
//! `std::thread::scope` with an opaque payload. Instead, the crashing
//! operation applies a **partial effect** (a seeded prefix of the bytes
//! for a write; all-or-nothing for a rename) and then every operation —
//! including the crashing one — returns [`VfsErrorKind::Crashed`]. The
//! disk is frozen exactly as a `kill -9` between syscalls would leave
//! it, while the invocation unwinds through ordinary typed-error paths.
//! A restart with a clean [`StdVfs`] over the same directory then
//! replays the real recovery story.
//!
//! # Atomic writes
//!
//! [`write_atomic`] is the one blessed way to publish a file: bytes land
//! in a uniquely named `.tmp` sibling and are renamed into place.
//! The durability contract (see DESIGN.md) follows from rename
//! atomicity: a reader either sees the complete old file, the complete
//! new file, or no file — never a prefix. `FaultVfs` exists to prove
//! that every surface actually inherits this property.

pub mod crashtest;

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::codec;

/// The filesystem operation a [`VfsError`] arose from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Whole-file read.
    Read,
    /// Whole-file write.
    Write,
    /// Atomic rename.
    Rename,
    /// Recursive directory creation.
    CreateDirAll,
    /// File removal.
    Remove,
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Rename => "rename",
            IoOp::CreateDirAll => "create_dir_all",
            IoOp::Remove => "remove",
        };
        f.write_str(s)
    }
}

/// Classified failure cause, so callers can choose a recovery path
/// (retry a transient, treat a missing file as a cold start, stop on a
/// crashed disk) instead of string-matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsErrorKind {
    /// The file or directory does not exist.
    NotFound,
    /// The device is out of space (ENOSPC).
    NoSpace,
    /// A transient, retryable interruption (EINTR-style).
    Interrupted,
    /// The process model died at a crash point: this and every later
    /// operation on the same [`FaultVfs`] fails, freezing the disk.
    Crashed,
    /// Any other OS-level failure, with its message.
    Other(String),
}

impl fmt::Display for VfsErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsErrorKind::NotFound => f.write_str("not found"),
            VfsErrorKind::NoSpace => f.write_str("no space left on device"),
            VfsErrorKind::Interrupted => f.write_str("interrupted (transient)"),
            VfsErrorKind::Crashed => f.write_str("process crashed (injected crash point)"),
            VfsErrorKind::Other(msg) => f.write_str(msg),
        }
    }
}

/// A typed filesystem error: which operation, on which path, failed how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VfsError {
    /// The operation that failed.
    pub op: IoOp,
    /// The path it was applied to.
    pub path: PathBuf,
    /// The classified cause.
    pub kind: VfsErrorKind,
}

impl VfsError {
    fn new(op: IoOp, path: &Path, kind: VfsErrorKind) -> Self {
        VfsError {
            op,
            path: path.to_path_buf(),
            kind,
        }
    }
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path.display(), self.kind)
    }
}

impl std::error::Error for VfsError {}

/// Object-safe filesystem surface. Implementations must be shareable
/// across the sweep runner's worker threads.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Reads the entire file at `path`.
    ///
    /// # Errors
    ///
    /// [`VfsError`] with the classified cause.
    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError>;

    /// Writes `bytes` to `path`, truncating any existing file. Not
    /// atomic — publishers of consumable files use [`write_atomic`].
    ///
    /// # Errors
    ///
    /// [`VfsError`]; a failed write may leave a prefix on disk.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError>;

    /// Atomically renames `from` to `to` (same filesystem).
    ///
    /// # Errors
    ///
    /// [`VfsError`]; on failure `from` is untouched.
    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError>;

    /// Creates `path` and all missing parents.
    ///
    /// # Errors
    ///
    /// [`VfsError`] on filesystem failure.
    fn create_dir_all(&self, path: &Path) -> Result<(), VfsError>;

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// [`VfsError`] on filesystem failure.
    fn remove(&self, path: &Path) -> Result<(), VfsError>;
}

/// Monotonic discriminator folded into temp-file names so concurrent
/// [`write_atomic`] calls within one process never collide.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` crash-safely: the bytes land in a uniquely
/// named hidden `.tmp` sibling and are renamed into place, so a crash at
/// any I/O operation leaves either the old file, the new file, or
/// removable `.tmp` litter — never a torn file at `path`.
///
/// # Errors
///
/// [`VfsError`] from the failing write or rename; on a write failure the
/// temp file is removed best-effort.
pub fn write_atomic(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_owned());
    let tmp = path.with_file_name(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if let Err(e) = vfs.write(&tmp, bytes) {
        let _ = vfs.remove(&tmp);
        return Err(e);
    }
    vfs.rename(&tmp, path)
}

// ---- the real filesystem -------------------------------------------------

/// Passthrough [`Vfs`] over `std::fs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StdVfs;

/// A shared handle to the passthrough filesystem — the default for
/// every surface that takes an `Arc<dyn Vfs>`.
pub fn std_vfs() -> Arc<dyn Vfs> {
    Arc::new(StdVfs)
}

fn classify_io(e: &std::io::Error) -> VfsErrorKind {
    match e.kind() {
        std::io::ErrorKind::NotFound => VfsErrorKind::NotFound,
        std::io::ErrorKind::Interrupted => VfsErrorKind::Interrupted,
        // ENOSPC: matched by raw errno so the build does not depend on
        // `ErrorKind::StorageFull` stabilization.
        _ if e.raw_os_error() == Some(28) => VfsErrorKind::NoSpace,
        _ => VfsErrorKind::Other(e.to_string()),
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        std::fs::read(path).map_err(|e| VfsError::new(IoOp::Read, path, classify_io(&e)))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        std::fs::write(path, bytes).map_err(|e| VfsError::new(IoOp::Write, path, classify_io(&e)))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        std::fs::rename(from, to).map_err(|e| VfsError::new(IoOp::Rename, from, classify_io(&e)))
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), VfsError> {
        std::fs::create_dir_all(path)
            .map_err(|e| VfsError::new(IoOp::CreateDirAll, path, classify_io(&e)))
    }

    fn remove(&self, path: &Path) -> Result<(), VfsError> {
        std::fs::remove_file(path).map_err(|e| VfsError::new(IoOp::Remove, path, classify_io(&e)))
    }
}

// ---- fault injection -----------------------------------------------------

/// A deterministic, seed-driven fault plan for a [`FaultVfs`]. Every
/// field addresses operations by their global 0-based index on that
/// `FaultVfs` instance; the `seed` drives every byte-level decision
/// (torn-prefix lengths, corrupted byte positions), so a schedule is a
/// complete reproducer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed for every byte-level decision the schedule makes.
    pub seed: u64,
    /// Freeze the disk at this operation index: the operation applies a
    /// partial effect and this plus every later operation fails with
    /// [`VfsErrorKind::Crashed`].
    pub crash_at: Option<u64>,
    /// From this operation index on, every space-consuming operation
    /// (write, create_dir_all) fails with [`VfsErrorKind::NoSpace`];
    /// failing writes leave a seeded prefix, as a filling disk does.
    pub enospc_from: Option<u64>,
    /// Operations that fail once with [`VfsErrorKind::Interrupted`] and
    /// no on-disk effect.
    pub interrupt_at: Vec<u64>,
    /// Writes that persist only a seeded strict prefix and report
    /// failure — a short write the caller must treat as fatal.
    pub torn_write_at: Vec<u64>,
    /// Writes that silently succeed with one seeded byte flipped —
    /// bitrot that only content checksums can catch.
    pub corrupt_write_at: Vec<u64>,
    /// Renames that fail with no effect.
    pub fail_rename_at: Vec<u64>,
    /// Negative control: destination-path substring whose renames lose
    /// atomicity — a crash landing on a matching rename leaves a torn
    /// copy at the *destination*, which the post-crash scan must flag.
    pub defeat_rename: Option<String>,
}

impl FaultSchedule {
    /// A schedule that injects nothing (still counts operations).
    pub fn clean(seed: u64) -> Self {
        FaultSchedule {
            seed,
            ..FaultSchedule::default()
        }
    }

    /// A schedule that crashes the process model at operation `op`.
    pub fn crash_at(seed: u64, op: u64) -> Self {
        FaultSchedule {
            seed,
            crash_at: Some(op),
            ..FaultSchedule::default()
        }
    }

    /// A schedule where the disk fills up permanently at operation `op`.
    pub fn enospc_from(seed: u64, op: u64) -> Self {
        FaultSchedule {
            seed,
            enospc_from: Some(op),
            ..FaultSchedule::default()
        }
    }
}

/// One recorded operation, for crash-point reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord {
    /// Global 0-based operation index.
    pub index: u64,
    /// Operation kind.
    pub op: IoOp,
    /// Primary path operated on (destination path for renames).
    pub path: PathBuf,
}

#[derive(Debug, Default)]
struct FaultState {
    ops: u64,
    crashed: bool,
    log: Vec<OpRecord>,
}

/// A [`Vfs`] decorator that counts operations and injects the faults a
/// [`FaultSchedule`] prescribes. Deterministic: the same schedule over
/// the same operation sequence produces the same outcomes and the same
/// bytes on disk.
#[derive(Debug)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    schedule: FaultSchedule,
    state: Mutex<FaultState>,
}

impl FaultVfs {
    /// Wraps `inner` with `schedule`.
    pub fn new(inner: Arc<dyn Vfs>, schedule: FaultSchedule) -> Self {
        FaultVfs {
            inner,
            schedule,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// A fault layer over the real filesystem.
    pub fn over_std(schedule: FaultSchedule) -> Self {
        FaultVfs::new(std_vfs(), schedule)
    }

    /// Operations issued so far (including failed ones).
    pub fn ops(&self) -> u64 {
        self.state.lock().expect("poisoned").ops
    }

    /// Whether the crash point has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("poisoned").crashed
    }

    /// The full operation log (index, kind, path), for reproducer-grade
    /// crash-point reports.
    pub fn log(&self) -> Vec<OpRecord> {
        self.state.lock().expect("poisoned").log.clone()
    }

    /// Seeded 64-bit decision value for operation `idx`.
    fn mix(&self, idx: u64, salt: u64) -> u64 {
        let mut b = [0u8; 24];
        b[..8].copy_from_slice(&self.schedule.seed.to_le_bytes());
        b[8..16].copy_from_slice(&idx.to_le_bytes());
        b[16..].copy_from_slice(&salt.to_le_bytes());
        codec::fnv64(&b)
    }

    /// Seeded strict-prefix length for a torn write of `len` bytes.
    fn torn_len(&self, idx: u64, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            (self.mix(idx, 1) % len as u64) as usize
        }
    }

    /// Counts the operation, records it, and applies the state-level
    /// gates (already-crashed, crash-point trip, transient). Returns the
    /// operation's index, or the error that preempts it. `Ok` means the
    /// per-op fault logic (ENOSPC, torn, corrupt) still gets its say.
    fn begin(&self, op: IoOp, path: &Path) -> Result<u64, VfsError> {
        let mut st = self.state.lock().expect("poisoned");
        let idx = st.ops;
        st.ops += 1;
        st.log.push(OpRecord {
            index: idx,
            op,
            path: path.to_path_buf(),
        });
        if st.crashed {
            return Err(VfsError::new(op, path, VfsErrorKind::Crashed));
        }
        if self.schedule.crash_at == Some(idx) {
            st.crashed = true;
            // The caller applies the partial effect for mutating ops.
            drop(st);
            return Ok(idx);
        }
        drop(st);
        if self.schedule.interrupt_at.contains(&idx) {
            return Err(VfsError::new(op, path, VfsErrorKind::Interrupted));
        }
        Ok(idx)
    }

    fn crash_tripped(&self, idx: u64) -> bool {
        self.schedule.crash_at == Some(idx)
    }

    fn enospc(&self, idx: u64) -> bool {
        self.schedule.enospc_from.is_some_and(|k| idx >= k)
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, VfsError> {
        let idx = self.begin(IoOp::Read, path)?;
        if self.crash_tripped(idx) {
            return Err(VfsError::new(IoOp::Read, path, VfsErrorKind::Crashed));
        }
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), VfsError> {
        let idx = self.begin(IoOp::Write, path)?;
        if self.crash_tripped(idx) {
            // The kill lands mid-write: a seeded prefix reaches disk.
            let _ = self
                .inner
                .write(path, &bytes[..self.torn_len(idx, bytes.len())]);
            return Err(VfsError::new(IoOp::Write, path, VfsErrorKind::Crashed));
        }
        if self.enospc(idx) {
            // A filling disk also tears the write before failing it.
            let _ = self
                .inner
                .write(path, &bytes[..self.torn_len(idx, bytes.len())]);
            return Err(VfsError::new(IoOp::Write, path, VfsErrorKind::NoSpace));
        }
        if self.schedule.torn_write_at.contains(&idx) {
            let _ = self
                .inner
                .write(path, &bytes[..self.torn_len(idx, bytes.len())]);
            return Err(VfsError::new(
                IoOp::Write,
                path,
                VfsErrorKind::Other("injected short write".to_owned()),
            ));
        }
        if self.schedule.corrupt_write_at.contains(&idx) && !bytes.is_empty() {
            // Silent bitrot: full write, one seeded byte flipped, Ok.
            let mut corrupted = bytes.to_vec();
            let pos = (self.mix(idx, 2) % bytes.len() as u64) as usize;
            let flip = (self.mix(idx, 3) % 255) as u8 + 1; // never a no-op xor
            corrupted[pos] ^= flip;
            return self.inner.write(path, &corrupted);
        }
        self.inner.write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), VfsError> {
        let idx = self.begin(IoOp::Rename, to)?;
        if self.crash_tripped(idx) {
            let defeated = self
                .schedule
                .defeat_rename
                .as_ref()
                .is_some_and(|pat| to.to_string_lossy().contains(pat.as_str()));
            if defeated {
                // Non-atomic rename under crash: a torn copy of the
                // source lands at the destination.
                if let Ok(bytes) = self.inner.read(from) {
                    let _ = self
                        .inner
                        .write(to, &bytes[..self.torn_len(idx, bytes.len())]);
                }
            } else if self.mix(idx, 4) & 1 == 0 {
                // Atomic rename: the kill leaves it either fully applied
                // (seeded coin) or not at all — never a torn file.
                let _ = self.inner.rename(from, to);
            }
            return Err(VfsError::new(IoOp::Rename, to, VfsErrorKind::Crashed));
        }
        if self.schedule.fail_rename_at.contains(&idx) {
            return Err(VfsError::new(
                IoOp::Rename,
                to,
                VfsErrorKind::Other("injected rename failure".to_owned()),
            ));
        }
        // Renames consume no data blocks; they pass through under ENOSPC.
        self.inner.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> Result<(), VfsError> {
        let idx = self.begin(IoOp::CreateDirAll, path)?;
        if self.crash_tripped(idx) {
            return Err(VfsError::new(
                IoOp::CreateDirAll,
                path,
                VfsErrorKind::Crashed,
            ));
        }
        if self.enospc(idx) {
            return Err(VfsError::new(
                IoOp::CreateDirAll,
                path,
                VfsErrorKind::NoSpace,
            ));
        }
        self.inner.create_dir_all(path)
    }

    fn remove(&self, path: &Path) -> Result<(), VfsError> {
        let idx = self.begin(IoOp::Remove, path)?;
        if self.crash_tripped(idx) {
            // Removal is atomic in the model: seeded coin on whether the
            // unlink made it to disk before the kill.
            if self.mix(idx, 5) & 1 == 0 {
                let _ = self.inner.remove(path);
            }
            return Err(VfsError::new(IoOp::Remove, path, VfsErrorKind::Crashed));
        }
        // Removal frees space: allowed under ENOSPC.
        self.inner.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("refsim-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    /// The directory's entries, sorted.
    fn listing(d: &Path) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(d)
            .expect("read_dir")
            .map(|e| e.expect("entry").path())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn std_vfs_roundtrip_and_classification() {
        let d = tmp_dir("std");
        let v = StdVfs;
        let p = d.join("a.bin");
        v.write(&p, b"hello").expect("write");
        assert_eq!(v.read(&p).expect("read"), b"hello");
        let q = d.join("b.bin");
        v.rename(&p, &q).expect("rename");
        assert_eq!(
            v.read(&p).expect_err("moved away").kind,
            VfsErrorKind::NotFound
        );
        assert_eq!(listing(&d), vec![q.clone()]);
        v.remove(&q).expect("remove");
        assert_eq!(listing(&d), Vec::<PathBuf>::new());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn write_atomic_publishes_without_litter() {
        let d = tmp_dir("atomic");
        let v = StdVfs;
        let p = d.join("out.bin");
        write_atomic(&v, &p, b"payload").expect("write_atomic");
        assert_eq!(v.read(&p).expect("read"), b"payload");
        assert_eq!(listing(&d).len(), 1, "no temp litter after a clean publish");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_freezes_the_disk_and_tears_the_inflight_write() {
        let d = tmp_dir("crash");
        let v = FaultVfs::over_std(FaultSchedule::crash_at(7, 1));
        v.write(&d.join("first.bin"), b"first").expect("op 0 clean");
        let e = v
            .write(&d.join("second.bin"), b"0123456789")
            .expect_err("op 1 crashes");
        assert_eq!(e.kind, VfsErrorKind::Crashed);
        assert!(v.crashed());
        // The torn prefix is a strict prefix.
        let torn = std::fs::read(d.join("second.bin")).expect("prefix exists");
        assert!(torn.len() < 10, "torn write must be a strict prefix");
        assert_eq!(torn, b"0123456789"[..torn.len()].to_vec());
        // Every later op fails too, with no effect.
        let e = v.read(&d.join("first.bin")).expect_err("disk is dead");
        assert_eq!(e.kind, VfsErrorKind::Crashed);
        let e = v
            .write(&d.join("third.bin"), b"x")
            .expect_err("disk is dead");
        assert_eq!(e.kind, VfsErrorKind::Crashed);
        assert!(!d.join("third.bin").exists());
        assert_eq!(v.ops(), 4, "failed ops still count");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn crash_on_write_atomic_never_tears_the_final_path() {
        // Whatever op index the crash lands on, the final path holds
        // either nothing or the complete payload.
        let payload = vec![0xAB; 64];
        for k in 0..4 {
            let d = tmp_dir(&format!("pub{k}"));
            let v = FaultVfs::over_std(FaultSchedule::crash_at(k + 100, k));
            let p = d.join("final.bin");
            let r = write_atomic(&v, &p, &payload);
            match std::fs::read(&p) {
                Ok(bytes) => assert_eq!(bytes, payload, "crash at {k} tore the final path"),
                Err(_) => assert!(r.is_err(), "no file implies a reported failure"),
            }
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn defeat_rename_tears_the_destination() {
        let d = tmp_dir("defeat");
        let mut sched = FaultSchedule::crash_at(3, 1);
        sched.defeat_rename = Some("final".to_owned());
        let v = FaultVfs::over_std(sched);
        let tmp = d.join("x.tmp");
        let dst = d.join("final.bin");
        v.write(&tmp, b"0123456789").expect("op 0");
        let e = v.rename(&tmp, &dst).expect_err("op 1 crashes");
        assert_eq!(e.kind, VfsErrorKind::Crashed);
        let torn = std::fs::read(&dst).expect("defeated rename leaves a destination file");
        assert!(
            torn.len() < 10,
            "defeated rename must leave a strict prefix, got {} bytes",
            torn.len()
        );
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn enospc_interrupt_torn_and_corrupt_faults() {
        let d = tmp_dir("faults");
        let sched = FaultSchedule {
            seed: 11,
            interrupt_at: vec![0],
            torn_write_at: vec![1],
            corrupt_write_at: vec![2],
            enospc_from: Some(4),
            ..FaultSchedule::default()
        };
        let v = FaultVfs::over_std(sched);
        let p = d.join("f.bin");
        assert_eq!(
            v.write(&p, b"abc").expect_err("op 0").kind,
            VfsErrorKind::Interrupted
        );
        assert!(!p.exists(), "a transient leaves no effect");
        let e = v.write(&p, b"abcdef").expect_err("op 1 torn");
        assert!(matches!(e.kind, VfsErrorKind::Other(_)));
        v.write(&p, b"abcdef")
            .expect("op 2 corrupt write reports success");
        let on_disk = std::fs::read(&p).expect("read");
        assert_eq!(on_disk.len(), 6);
        assert_ne!(on_disk, b"abcdef", "exactly one byte must differ");
        assert_eq!(
            on_disk
                .iter()
                .zip(b"abcdef")
                .filter(|(a, b)| a != b)
                .count(),
            1
        );
        v.write(&p, b"ok").expect("op 3 clean");
        let e = v.write(&p, b"xx").expect_err("op 4 enospc");
        assert_eq!(e.kind, VfsErrorKind::NoSpace);
        let e = v.create_dir_all(&d.join("sub")).expect_err("op 5 enospc");
        assert_eq!(e.kind, VfsErrorKind::NoSpace);
        v.remove(&p).expect("op 6: removal frees space, allowed");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fault_injection_is_deterministic() {
        let run = || {
            let d = tmp_dir("det");
            let v = FaultVfs::over_std(FaultSchedule::crash_at(42, 3));
            let mut outcomes = Vec::new();
            for i in 0..6 {
                let r = v.write(&d.join(format!("{i}.bin")), &[i as u8; 32]);
                let on_disk = std::fs::read(d.join(format!("{i}.bin"))).unwrap_or_default();
                outcomes.push((r.map_err(|e| e.kind), on_disk));
            }
            let log = v.log();
            let _ = std::fs::remove_dir_all(&d);
            (outcomes, log)
        };
        assert_eq!(run(), run());
    }
}
