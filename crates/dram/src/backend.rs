//! The pluggable memory-backend interface.
//!
//! A [`MemoryBackend`] is a per-channel DRAM timing model with
//! *execute-and-stall* semantics: the system hands it transactions
//! ([`MemoryBackend::enqueue`]), advances it through simulated time
//! ([`MemoryBackend::try_advance_to`]), and collects read completions;
//! when a queue is full the caller stalls and retries after the model
//! makes progress. Two independently written models implement the trait:
//!
//! * [`crate::controller::MemoryController`] — the primary FR-FCFS
//!   command-level model, and
//! * [`crate::shadow::ShadowController`] — a deliberately simpler,
//!   table-driven transaction-level model used as a differential
//!   cross-validation anchor.
//!
//! # Geometry handshake
//!
//! Integrating external DRAM models has a classic failure mode: the host
//! and the model silently disagree about topology or address mapping and
//! every downstream number is subtly wrong. To prevent it, a backend
//! *self-reports* its internal topology via
//! [`MemoryBackend::descriptor`]; the host must check the report against
//! its own expectation with [`BackendDescriptor::validate_geometry`]
//! before the first transaction, and reject the backend on any mismatch
//! rather than reconcile silently.
//!
//! # Determinism contract
//!
//! Backends must be bit-deterministic: the same construction parameters
//! and the same transaction sequence must produce identical statistics,
//! completions, traces and state streams, regardless of the granularity of
//! `try_advance_to` calls used to cover the same span. The replay
//! auditor and the differential harness in `refsim-core` both rely on
//! this.

use std::fmt;
use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use crate::controller::{ControllerConfig, MemoryController, QueueFull, TraceEntry};
use crate::error::{ControllerSnapshot, DramError};
use crate::geometry::{BankId, Geometry};
use crate::integrity::{IntegrityConfig, RefreshFaults, RetentionTracker};
use crate::mapping::AddressMapping;
use crate::refresh::{BusyForecast, RefreshPolicyKind};
use crate::request::{Completion, MemRequest};
use crate::shadow::{ShadowConfig, ShadowController};
use crate::stats::ControllerStats;
use crate::time::Ps;
use crate::timing::{RefreshTiming, TimingParams};

/// Selects which DRAM timing model backs a channel.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackendKind {
    /// The primary FR-FCFS command-level controller
    /// ([`MemoryController`]).
    #[default]
    Primary,
    /// The independent table-driven shadow model
    /// ([`ShadowController`]).
    Shadow,
}

impl BackendKind {
    /// Both backends, primary first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Primary, BackendKind::Shadow];
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendKind::Primary => write!(f, "primary"),
            BackendKind::Shadow => write!(f, "shadow"),
        }
    }
}

/// A backend's self-reported identity and topology, exchanged in the
/// geometry handshake before any transaction flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendDescriptor {
    /// Which model this is.
    pub kind: BackendKind,
    /// Human-readable model name for reports and errors.
    pub model: &'static str,
    /// The topology the model actually simulates (not the one the host
    /// asked for — the whole point is catching a disagreement).
    pub geometry: Geometry,
}

impl BackendDescriptor {
    /// Checks the self-reported geometry against the host's expectation.
    ///
    /// # Errors
    ///
    /// A description naming the backend and both geometries when they
    /// differ in any field.
    pub fn validate_geometry(&self, expected: &Geometry) -> Result<(), String> {
        if self.geometry == *expected {
            Ok(())
        } else {
            Err(format!(
                "geometry handshake failed for {} backend ({}): backend simulates \
                 {:?} but the host expects {:?}",
                self.kind, self.model, self.geometry, expected
            ))
        }
    }
}

/// A per-channel DRAM timing model (see the module docs for the
/// execute-and-stall, handshake and determinism contracts).
///
/// The trait is object-safe; the system owns channels as
/// `Box<dyn MemoryBackend>`.
pub trait MemoryBackend: fmt::Debug + Send {
    /// The backend's self-reported identity and topology (see the
    /// geometry-handshake contract in the module docs).
    fn descriptor(&self) -> BackendDescriptor;

    /// The address mapping of this channel.
    fn mapping(&self) -> &AddressMapping;

    /// The refresh timing in effect.
    fn refresh_timing(&self) -> &RefreshTiming;

    /// Statistics accumulated so far.
    fn stats(&self) -> &ControllerStats;

    /// Zeroes statistics (measurement-phase boundary).
    fn reset_stats(&mut self);

    /// Whether a read can be accepted right now.
    fn can_accept_read(&self) -> bool;

    /// Whether a write can be accepted right now.
    fn can_accept_write(&self) -> bool;

    /// Current queue occupancy `(reads, writes)`.
    fn queue_depths(&self) -> (usize, usize);

    /// Submits a transaction.
    ///
    /// # Errors
    ///
    /// [`QueueFull`] if the target queue is at capacity; the caller
    /// stalls and retries after the backend makes progress.
    fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull>;

    /// Appends all read completions produced since the last drain to
    /// `out` and clears the internal buffer.
    fn drain_completions_into(&mut self, out: &mut Vec<Completion>);

    /// Whether undrained read completions are buffered.
    fn has_completions(&self) -> bool;

    /// Advances the model, executing everything that happens at or
    /// before `target`.
    ///
    /// # Errors
    ///
    /// A [`DramError`] on time regression, livelock, or a broken
    /// internal invariant.
    fn try_advance_to(&mut self, target: Ps) -> Result<(), DramError>;

    /// Advances like [`try_advance_to`](Self::try_advance_to) but stops
    /// after the first event that produces a read completion, returning
    /// its instant; `None` after a full advance with no completion.
    ///
    /// # Errors
    ///
    /// Exactly those of [`try_advance_to`](Self::try_advance_to).
    fn try_advance_until_completion(&mut self, target: Ps) -> Result<Option<Ps>, DramError>;

    /// The instant of the backend's next internally scheduled action, or
    /// `None` when it is fully idle.
    fn next_event_time(&mut self) -> Option<Ps>;

    /// The furthest instant a single advance may target while remaining
    /// interleaving-equivalent to smaller steps, or `None` when the
    /// channel is inert and can be leapt arbitrarily far.
    fn advance_cap(&self) -> Option<Ps>;

    /// End of the current bandwidth-utilization epoch.
    fn next_epoch_roll(&self) -> Ps;

    /// The refresh-schedule forecast for `[start, end)` — the
    /// co-design's HW→SW interface.
    fn refresh_forecast(&self, start: Ps, end: Ps) -> BusyForecast;

    /// Next refresh-schedule boundary after `t`, for quantum alignment.
    fn refresh_boundary_after(&self, t: Ps) -> Option<Ps>;

    /// Per-bank activity summary: `(bank, activations, rows refreshed,
    /// time spent refreshing)` for every bank of the channel.
    fn bank_report(&self) -> Vec<(BankId, u64, u64, Ps)>;

    /// A diagnostic digest of current state (attached to errors).
    fn state_snapshot(&self) -> ControllerSnapshot;

    /// Starts recording every issued DRAM command.
    fn enable_trace(&mut self);

    /// Appends the commands recorded since the previous drain to `out`.
    fn drain_trace_into(&mut self, out: &mut Vec<TraceEntry>);

    /// Enables the retention-integrity oracle with an explicit
    /// configuration (replacing any existing tracker).
    fn enable_integrity(&mut self, cfg: IntegrityConfig);

    /// The retention oracle, if enabled.
    fn integrity(&self) -> Option<&RetentionTracker>;

    /// Installs a deterministic refresh fault plan.
    fn inject_faults(&mut self, faults: RefreshFaults);

    /// Runs the end-of-run retention audit at `now`; returns the total
    /// violation count (0 when tracking is disabled).
    fn audit_retention(&mut self, now: Ps) -> u64;

    /// Streams the backend's full dynamic state into `h`, for the replay
    /// auditor's state hashes. The stream opens with a tag byte naming
    /// the model — 0 for the primary controller, 1 for the shadow — so
    /// the two backends' states never hash alike.
    fn hash_state(&self, h: &mut dyn Hasher);
}

impl MemoryBackend for MemoryController {
    fn descriptor(&self) -> BackendDescriptor {
        BackendDescriptor {
            kind: BackendKind::Primary,
            model: "fr-fcfs command-level controller",
            geometry: *self.mapping().geometry(),
        }
    }

    fn mapping(&self) -> &AddressMapping {
        MemoryController::mapping(self)
    }

    fn refresh_timing(&self) -> &RefreshTiming {
        MemoryController::refresh_timing(self)
    }

    fn stats(&self) -> &ControllerStats {
        MemoryController::stats(self)
    }

    fn reset_stats(&mut self) {
        MemoryController::reset_stats(self);
    }

    fn can_accept_read(&self) -> bool {
        MemoryController::can_accept_read(self)
    }

    fn can_accept_write(&self) -> bool {
        MemoryController::can_accept_write(self)
    }

    fn queue_depths(&self) -> (usize, usize) {
        MemoryController::queue_depths(self)
    }

    fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull> {
        MemoryController::enqueue(self, req)
    }

    fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        MemoryController::drain_completions_into(self, out);
    }

    fn has_completions(&self) -> bool {
        MemoryController::has_completions(self)
    }

    fn try_advance_to(&mut self, target: Ps) -> Result<(), DramError> {
        MemoryController::try_advance_to(self, target)
    }

    fn try_advance_until_completion(&mut self, target: Ps) -> Result<Option<Ps>, DramError> {
        MemoryController::try_advance_until_completion(self, target)
    }

    fn next_event_time(&mut self) -> Option<Ps> {
        MemoryController::next_event_time(self)
    }

    fn advance_cap(&self) -> Option<Ps> {
        MemoryController::advance_cap(self)
    }

    fn next_epoch_roll(&self) -> Ps {
        MemoryController::next_epoch_roll(self)
    }

    fn refresh_forecast(&self, start: Ps, end: Ps) -> BusyForecast {
        MemoryController::refresh_forecast(self, start, end)
    }

    fn refresh_boundary_after(&self, t: Ps) -> Option<Ps> {
        MemoryController::refresh_boundary_after(self, t)
    }

    fn bank_report(&self) -> Vec<(BankId, u64, u64, Ps)> {
        MemoryController::bank_report(self)
    }

    fn state_snapshot(&self) -> ControllerSnapshot {
        MemoryController::state_snapshot(self)
    }

    fn enable_trace(&mut self) {
        MemoryController::enable_trace(self);
    }

    fn drain_trace_into(&mut self, out: &mut Vec<TraceEntry>) {
        MemoryController::drain_trace_into(self, out);
    }

    fn enable_integrity(&mut self, cfg: IntegrityConfig) {
        MemoryController::enable_integrity(self, cfg);
    }

    fn integrity(&self) -> Option<&RetentionTracker> {
        MemoryController::integrity(self)
    }

    fn inject_faults(&mut self, faults: RefreshFaults) {
        MemoryController::inject_faults(self, faults);
    }

    fn audit_retention(&mut self, now: Ps) -> u64 {
        MemoryController::audit_retention(self, now)
    }

    fn hash_state(&self, h: &mut dyn Hasher) {
        MemoryController::hash_state(self, h);
    }
}

/// Builds a boxed backend of `kind` for the channel described by
/// `mapping`. `shadow` carries shadow-only knobs and is ignored by the
/// primary model.
pub fn build_backend(
    kind: BackendKind,
    mapping: AddressMapping,
    timing: TimingParams,
    refresh_timing: RefreshTiming,
    policy: RefreshPolicyKind,
    cfg: ControllerConfig,
    shadow: ShadowConfig,
) -> Box<dyn MemoryBackend> {
    match kind {
        BackendKind::Primary => Box::new(MemoryController::new(
            mapping,
            timing,
            refresh_timing,
            policy,
            cfg,
        )),
        BackendKind::Shadow => Box::new(ShadowController::new(
            mapping,
            timing,
            refresh_timing,
            policy,
            cfg,
            shadow,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingScheme;
    use crate::timing::{Density, Retention};

    fn backend(kind: BackendKind) -> Box<dyn MemoryBackend> {
        let mapping = AddressMapping::new(Geometry::default(), MappingScheme::RowRankBankColumn);
        build_backend(
            kind,
            mapping,
            TimingParams::ddr3_1600(),
            RefreshTiming::new(Density::Gb32, Retention::Ms64),
            RefreshPolicyKind::PerBankSequential,
            ControllerConfig::default(),
            ShadowConfig::default(),
        )
    }

    #[test]
    fn factory_preserves_kind_and_geometry() {
        for kind in BackendKind::ALL {
            let b = backend(kind);
            let d = b.descriptor();
            assert_eq!(d.kind, kind);
            assert_eq!(d.geometry, Geometry::default());
            assert!(d.validate_geometry(&Geometry::default()).is_ok());
        }
    }

    #[test]
    fn handshake_rejects_geometry_mismatch() {
        let b = backend(BackendKind::Primary);
        let other = Geometry {
            ranks_per_channel: 4,
            ..Geometry::default()
        };
        let err = b.descriptor().validate_geometry(&other).unwrap_err();
        assert!(err.contains("geometry handshake failed"), "{err}");
        assert!(err.contains("primary"), "{err}");
    }

    #[test]
    fn kind_display_and_default() {
        assert_eq!(BackendKind::default(), BackendKind::Primary);
        assert_eq!(BackendKind::Primary.to_string(), "primary");
        assert_eq!(BackendKind::Shadow.to_string(), "shadow");
    }
}
