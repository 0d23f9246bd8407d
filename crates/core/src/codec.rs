//! Hand-rolled binary codec for run metrics, and the FNV-1a state hasher.
//!
//! The vendored `serde` stub cannot derive, so the run cache uses an
//! explicit little-endian wire format instead. The format is
//! deliberately simple — fixed-width little-endian integers, `u64`
//! length prefixes for sequences, one tag byte for options and enums —
//! so that the encoding of a given value is byte-deterministic.
//!
//! [`Encode`] writes a value into an [`Enc`]; [`Decode`] reads it back
//! from a [`Dec`]. Both exist for what a run-cache entry stores: the
//! primitives and containers, [`TaskId`], and the [`RunMetrics`] closure
//! ([`TaskMetrics`], [`ControllerStats`], [`SchedStats`]).
//!
//! Machine state is never encoded into a buffer. Each stateful type in
//! the component crates streams its own fields into a
//! [`std::hash::Hasher`] (a `hash_state` method) in the same wire
//! format, and [`Fnv64`] folds the stream as it arrives — the replay
//! auditor's per-component hashes (see [`crate::replay`]).
//!
//! Versioning happens at the container level: [`crate::runcache`]
//! frames a payload with a magic number, a format version, a schema
//! salt and a checksum. The codec itself is version-unaware.

use std::fmt;
use std::hash::Hasher;

use refsim_dram::stats::ControllerStats;
use refsim_dram::time::Ps;
use refsim_os::sched::SchedStats;
use refsim_os::task::TaskId;

use crate::metrics::{RunMetrics, TaskMetrics};

/// Decode failure: the byte stream does not describe a valid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the value was complete.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// A tag or length field held an impossible value.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "truncated stream: needed {need} bytes, had {have}")
            }
            CodecError::Invalid(why) => write!(f, "invalid encoding: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Byte-stream encoder (little-endian, append-only).
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Consumes the encoder, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no framing.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Byte-stream decoder over a borrowed buffer.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// A sequence length, bounds-checked against the remaining bytes so
    /// a corrupt length cannot trigger a huge allocation.
    fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_u64()?;
        let n = usize::try_from(n)
            .map_err(|_| CodecError::Invalid(format!("length {n} exceeds usize")))?;
        if min_elem_bytes > 0 && n > self.remaining() / min_elem_bytes {
            return Err(CodecError::Invalid(format!(
                "length {n} impossible with {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Binary serialization of the values a run-cache entry stores.
pub trait Encode {
    /// Writes `self` to the stream.
    fn encode(&self, e: &mut Enc);
}

/// Deserialization of the values a run-cache entry stores.
pub trait Decode: Sized {
    /// Reads a value back from the stream.
    ///
    /// # Errors
    ///
    /// [`CodecError`] when the stream is truncated or holds an invalid
    /// tag/length.
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value into a fresh byte vector.
pub fn to_bytes<T: Encode>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.encode(&mut e);
    e.into_bytes()
}

/// Decodes a value from `bytes`, requiring the buffer to be consumed
/// exactly.
///
/// # Errors
///
/// [`CodecError`] on truncation, invalid content, or trailing garbage.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut d = Dec::new(bytes);
    let v = T::decode(&mut d)?;
    if d.remaining() != 0 {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes after value",
            d.remaining()
        )));
    }
    Ok(v)
}

// ---- primitives -------------------------------------------------------

impl Encode for bool {
    fn encode(&self, e: &mut Enc) {
        e.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError::Invalid(format!("bool tag {v}"))),
        }
    }
}

impl Encode for u8 {
    fn encode(&self, e: &mut Enc) {
        e.put_u8(*self);
    }
}

impl Decode for u8 {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.get_u8()
    }
}

impl Encode for u32 {
    fn encode(&self, e: &mut Enc) {
        e.put_u32(*self);
    }
}

impl Decode for u32 {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.get_u32()
    }
}

impl Encode for u64 {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.get_u64()
    }
}

impl Encode for f64 {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(self.to_bits());
    }
}

impl Decode for f64 {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(d.get_u64()?))
    }
}

impl Encode for String {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(self.len() as u64);
        e.put_bytes(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.get_len(1)?;
        let bytes = d.get_bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::Invalid(format!("non-UTF-8 string: {e}")))
    }
}

impl Encode for Ps {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(self.as_ps());
    }
}

impl Decode for Ps {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Ps(d.get_u64()?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, e: &mut Enc) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.encode(e);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            v => Err(CodecError::Invalid(format!("option tag {v}"))),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(self.len() as u64);
        for v in self {
            v.encode(e);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.get_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
        self.2.encode(e);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(d)?, B::decode(d)?, C::decode(d)?))
    }
}

impl<T: Encode + Copy + Default, const N: usize> Encode for [T; N] {
    fn encode(&self, e: &mut Enc) {
        for v in self {
            v.encode(e);
        }
    }
}

impl<T: Decode + Copy + Default, const N: usize> Decode for [T; N] {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::decode(d)?;
        }
        Ok(out)
    }
}

// ---- component types a run-cache entry stores -----------------------

impl Encode for TaskId {
    fn encode(&self, e: &mut Enc) {
        e.put_u32(self.0);
    }
}

impl Decode for TaskId {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(TaskId(d.get_u32()?))
    }
}

impl Encode for SchedStats {
    fn encode(&self, e: &mut Enc) {
        self.picks.encode(e);
        self.refresh_dodges.encode(e);
        self.eta_fallbacks.encode(e);
        self.migrations.encode(e);
    }
}

impl Decode for SchedStats {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SchedStats {
            picks: Decode::decode(d)?,
            refresh_dodges: Decode::decode(d)?,
            eta_fallbacks: Decode::decode(d)?,
            migrations: Decode::decode(d)?,
        })
    }
}

impl Encode for ControllerStats {
    fn encode(&self, e: &mut Enc) {
        self.reads_enqueued.encode(e);
        self.writes_enqueued.encode(e);
        self.reads_completed.encode(e);
        self.writes_completed.encode(e);
        self.forwarded_reads.encode(e);
        self.row_hits.encode(e);
        self.row_misses.encode(e);
        self.row_conflicts.encode(e);
        self.refreshes_ab.encode(e);
        self.refreshes_pb.encode(e);
        self.refresh_postpone_total.encode(e);
        self.refresh_postpone_max.encode(e);
        self.read_latency_total.encode(e);
        self.read_latency_max.encode(e);
        self.refresh_blocked_reads.encode(e);
        self.data_bus_busy.encode(e);
        self.queue_reject_reads.encode(e);
        self.queue_reject_writes.encode(e);
        self.write_drains.encode(e);
        self.retention_violations.encode(e);
        self.injected_skip_faults.encode(e);
        self.injected_delay_faults.encode(e);
    }
}

impl Decode for ControllerStats {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(ControllerStats {
            reads_enqueued: Decode::decode(d)?,
            writes_enqueued: Decode::decode(d)?,
            reads_completed: Decode::decode(d)?,
            writes_completed: Decode::decode(d)?,
            forwarded_reads: Decode::decode(d)?,
            row_hits: Decode::decode(d)?,
            row_misses: Decode::decode(d)?,
            row_conflicts: Decode::decode(d)?,
            refreshes_ab: Decode::decode(d)?,
            refreshes_pb: Decode::decode(d)?,
            refresh_postpone_total: Decode::decode(d)?,
            refresh_postpone_max: Decode::decode(d)?,
            read_latency_total: Decode::decode(d)?,
            read_latency_max: Decode::decode(d)?,
            refresh_blocked_reads: Decode::decode(d)?,
            data_bus_busy: Decode::decode(d)?,
            queue_reject_reads: Decode::decode(d)?,
            queue_reject_writes: Decode::decode(d)?,
            write_drains: Decode::decode(d)?,
            retention_violations: Decode::decode(d)?,
            injected_skip_faults: Decode::decode(d)?,
            injected_delay_faults: Decode::decode(d)?,
        })
    }
}

// ---- core metrics (persisted by the run cache) ------------------------

impl Encode for TaskMetrics {
    fn encode(&self, e: &mut Enc) {
        self.task.encode(e);
        self.label.encode(e);
        self.instructions.encode(e);
        self.cpu_time.encode(e);
        self.stall_time.encode(e);
        self.llc_misses.encode(e);
        self.faults.encode(e);
        self.spilled_pages.encode(e);
        self.schedules.encode(e);
    }
}

impl Decode for TaskMetrics {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(TaskMetrics {
            task: Decode::decode(d)?,
            label: Decode::decode(d)?,
            instructions: Decode::decode(d)?,
            cpu_time: Decode::decode(d)?,
            stall_time: Decode::decode(d)?,
            llc_misses: Decode::decode(d)?,
            faults: Decode::decode(d)?,
            spilled_pages: Decode::decode(d)?,
            schedules: Decode::decode(d)?,
        })
    }
}

impl Encode for RunMetrics {
    fn encode(&self, e: &mut Enc) {
        self.tasks.encode(e);
        self.sim_time.encode(e);
        self.controller.encode(e);
        self.sched.encode(e);
        self.cpu_period.encode(e);
        self.dram_period.encode(e);
    }
}

impl Decode for RunMetrics {
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(RunMetrics {
            tasks: Decode::decode(d)?,
            sim_time: Decode::decode(d)?,
            controller: Decode::decode(d)?,
            sched: Decode::decode(d)?,
            cpu_period: Decode::decode(d)?,
            dram_period: Decode::decode(d)?,
        })
    }
}

// ---- hashing ----------------------------------------------------------

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over byte streams — the state digest the
/// deterministic-replay auditor samples each quantum.
///
/// As a [`Hasher`] it writes integers as explicit little-endian bytes,
/// so a state stream hashes the same on any host and equals the FNV-1a
/// of the matching [`Enc`] bytes. Stream lengths with `write_u64`, never
/// `write_usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// One-shot FNV-1a of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).expect("roundtrip decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0xA5u8);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&1.5f64);
        roundtrip(&f64::NAN.to_bits()); // NaN via bits stays exact
        roundtrip(&String::from("refsim"));
        roundtrip(&Ps::from_ns(7_800));
        roundtrip(&Some(42u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&(Ps::from_us(1), TaskId(3)));
        roundtrip(&[Ps::from_ns(1), Ps::from_ns(2), Ps::from_ns(3), Ps::ZERO]);
    }

    #[test]
    fn f64_bit_pattern_is_exact() {
        let v = 0.1f64 + 0.2f64;
        let back: f64 = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let bytes = to_bytes(&0xDEAD_BEEF_CAFEu64);
        let r: Result<u64, _> = from_bytes(&bytes[..5]);
        assert!(matches!(r, Err(CodecError::Truncated { .. })), "{r:?}");
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let mut bytes = to_bytes(&1u64);
        bytes.push(0);
        let r: Result<u64, _> = from_bytes(&bytes);
        assert!(matches!(r, Err(CodecError::Invalid(_))), "{r:?}");
    }

    #[test]
    fn corrupt_length_cannot_allocate_absurdly() {
        // A Vec<u64> claiming 2^60 elements with 8 bytes of payload.
        let mut e = Enc::new();
        e.put_u64(1 << 60);
        e.put_u64(7);
        let r: Result<Vec<u64>, _> = from_bytes(&e.into_bytes());
        assert!(matches!(r, Err(CodecError::Invalid(_))), "{r:?}");
    }

    #[test]
    fn bad_tags_are_errors() {
        let r: Result<bool, _> = from_bytes(&[7]);
        assert!(r.is_err());
        let r: Result<Option<u8>, _> = from_bytes(&[2, 0]);
        assert!(r.is_err());
    }

    /// The component-crate types a run-cache entry stores decode back
    /// to the value that was encoded.
    #[test]
    fn run_metrics_types_roundtrip() {
        roundtrip(&ControllerStats {
            reads_completed: 10,
            read_latency_total: Ps::from_us(5),
            ..Default::default()
        });
        roundtrip(&SchedStats {
            picks: 7,
            refresh_dodges: 3,
            eta_fallbacks: 1,
            migrations: 2,
        });
        roundtrip(&RunMetrics {
            tasks: vec![TaskMetrics {
                task: 0,
                label: String::from("mcf"),
                instructions: 1_000,
                cpu_time: Ps::from_us(4),
                stall_time: Ps::from_us(1),
                llc_misses: 9,
                faults: 2,
                spilled_pages: 0,
                schedules: 3,
            }],
            sim_time: Ps::from_us(4),
            controller: ControllerStats::default(),
            sched: SchedStats::default(),
            cpu_period: Ps::from_ps(312),
            dram_period: Ps::from_ps(1_250),
        });
    }

    /// Records a state stream as raw bytes.
    #[derive(Default)]
    struct Bytes(Vec<u8>);

    impl Hasher for Bytes {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }
    }

    /// A live retention tracker, with refreshes, a weak row and a
    /// violation on record, streams the same bytes every time, and
    /// [`Fnv64`] hashes exactly those bytes.
    #[test]
    fn encoding_is_byte_deterministic() {
        use refsim_dram::integrity::{IntegrityConfig, RetentionTracker, WeakRow};

        let mut t = RetentionTracker::new(
            2,
            256,
            IntegrityConfig {
                limit: Ps::from_us(64),
                slack: Ps::ZERO,
            },
        );
        t.set_weak_rows(&[WeakRow {
            flat_bank: 1,
            row: 5,
            limit: Ps::from_us(10),
        }]);
        t.on_refresh(0, 128, Ps::from_us(20)).expect("refresh");
        t.finalize(Ps::from_us(200));
        assert!(t.total_violations() > 0, "the stream covers violations");
        let stream = || {
            let mut b = Bytes::default();
            t.hash_state(&mut b);
            b.0
        };
        let bytes = stream();
        assert_eq!(bytes, stream());
        let mut h = Fnv64::new();
        t.hash_state(&mut h);
        assert_eq!(h.finish(), fnv64(&bytes));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_incremental_equals_oneshot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }
}
