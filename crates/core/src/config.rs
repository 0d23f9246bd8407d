//! System configuration: Table 1 presets and experiment knobs.

use serde::{Deserialize, Serialize};

use refsim_cpu::core::CoreConfig;
use refsim_dram::backend::BackendKind;
use refsim_dram::controller::ControllerConfig;
use refsim_dram::geometry::Geometry;
use refsim_dram::mapping::MappingScheme;
use refsim_dram::refresh::RefreshPolicyKind;
use refsim_dram::shadow::ShadowConfig;
use refsim_dram::time::Ps;
use refsim_dram::timing::{Density, RefreshTiming, Retention, TimingParams};
use refsim_os::partition::PartitionPlan;
use refsim_os::sched::SchedPolicy;

use crate::error::RefsimError;
use crate::faults::FaultPlan;
use crate::sanitize::AuditLevel;

/// Default time-scale divisor: `tREFW` shrinks 32× (64 ms → 2 ms,
/// quantum 4 ms → 125 µs) so experiments complete quickly while every
/// refresh-overhead *ratio* is preserved (see DESIGN.md §2).
pub const DEFAULT_TIME_SCALE: u32 = 32;

/// Default advancement-step pitch: 250 ns. Completions that become
/// ready inside a step are delivered at its end, so the step is the
/// simulation's *temporal fidelity* — smaller steps deliver memory
/// completions (and thus unblock cores) closer to their true instants.
/// 250 ns trades fidelity for wall-clock cost under the fixed-step
/// engine; the event-horizon engine makes finer pitches affordable
/// because it only visits boundaries where something happens.
pub const DEFAULT_STEP: Ps = Ps(250_000);

fn default_step() -> Ps {
    DEFAULT_STEP
}

/// Simulation advancement engine (see DESIGN.md "Engine").
///
/// Both engines produce bit-identical state, metrics, and replay hashes;
/// `EventSkip` merely elides step boundaries at which no component can
/// act. `FixedStep` is retained for differential testing — the
/// engine-equivalence suite runs every configuration through both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// Crawl in fixed 250 ns steps (the original hot loop).
    FixedStep,
    /// Event-horizon engine: jump the clock to the earliest instant any
    /// core, scheduler quantum, or memory-controller completion can
    /// change system state.
    #[default]
    EventSkip,
}

/// Full system configuration.
///
/// Build one from a preset and adjust fields with the `with_*` helpers:
///
/// ```
/// use refsim_core::config::SystemConfig;
/// use refsim_dram::timing::Density;
///
/// let cfg = SystemConfig::table1()
///     .with_density(Density::Gb24)
///     .co_design();
/// assert_eq!(cfg.density, Density::Gb24);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of CPU cores.
    pub n_cores: u32,
    /// Memory channels.
    pub channels: u32,
    /// Ranks per channel (DIMMs/channel × ranks/DIMM; Table 1: 1 × 2).
    pub ranks_per_channel: u32,
    /// DRAM device density.
    pub density: Density,
    /// Retention window (64 ms below 85 °C, 32 ms above).
    pub retention: Retention,
    /// Refresh scheduling policy.
    pub refresh_policy: RefreshPolicyKind,
    /// Physical address mapping.
    pub mapping: MappingScheme,
    /// Memory partition plan (the software half of the co-design).
    pub partition: PartitionPlan,
    /// Process scheduling policy (the other software half).
    pub sched_policy: SchedPolicy,
    /// Time-scale divisor applied to `tREFW` and the OS quantum.
    pub time_scale: u32,
    /// OS scheduling quantum; `None` derives it from the refresh
    /// schedule: `tREFW / total_banks` (4 ms at full scale — §5.1).
    pub timeslice: Option<Ps>,
    /// Core model parameters.
    pub core: CoreConfig,
    /// Memory-controller queue parameters.
    pub controller: ControllerConfig,
    /// Context-switch cost charged to the incoming task.
    pub ctx_switch_cost: Ps,
    /// Minor page-fault service cost.
    pub fault_cost: Ps,
    /// Warm-up duration before statistics are measured.
    pub warmup: Ps,
    /// Measured duration (statistics window).
    pub measure: Ps,
    /// RNG seed for workload generation.
    pub seed: u64,
    /// Refresh-fault injection plan, expanded and installed into every
    /// memory controller at system construction. `None` injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Runtime invariant auditing level (`simsan`); `Off` by default so
    /// un-audited runs stay bit-identical to previous releases.
    #[serde(default)]
    pub audit: AuditLevel,
    /// Simulation advancement engine. `EventSkip` by default — proven
    /// bit-identical to `FixedStep` by the engine-equivalence suite.
    #[serde(default)]
    pub engine: EngineKind,
    /// Advancement-step pitch (see [`DEFAULT_STEP`]). Both engines pace
    /// the same boundary lattice `clock + k·step`, so results are
    /// bit-identical across engines *at a given pitch*; changing the
    /// pitch changes completion-delivery instants and is a fidelity
    /// knob, not a cosmetic one.
    #[serde(default = "default_step")]
    pub step: Ps,
    /// Deliberate event-skip horizon overshoot: the event-skip engine
    /// widens every jump by this much, quantum ends included (test-only
    /// negative control for the engine-equivalence harness). `ZERO` —
    /// the only sane value — by default. Non-zero values corrupt the
    /// run *on purpose*, so the run cache refuses to serve or store such
    /// runs.
    #[serde(default)]
    pub debug_skip_overshoot: Ps,
    /// Which DRAM timing model sits behind every channel's
    /// [`refsim_dram::backend::MemoryBackend`] slot. `Primary` — the
    /// FR-FCFS controller — by default; `Shadow` runs the independently
    /// written table-driven model used for differential validation.
    #[serde(default)]
    pub backend: BackendKind,
    /// Shadow-model knobs. The only current knob is the deliberate
    /// refresh-dropping perturbation used as the differential harness's
    /// negative control; runs with it set are never cached.
    #[serde(default)]
    pub shadow: ShadowConfig,
}

impl SystemConfig {
    /// The paper's Table 1 configuration at the default time scale:
    /// dual-core 3.2 GHz, 1 channel × 2 ranks × 8 banks, DDR3-1600,
    /// 32 Gb devices, 64 ms retention, all-bank refresh, bank-agnostic
    /// allocation, plain CFS — i.e. the *baseline* system.
    pub fn table1() -> Self {
        let scale = DEFAULT_TIME_SCALE;
        SystemConfig {
            n_cores: 2,
            channels: 1,
            ranks_per_channel: 2,
            density: Density::Gb32,
            retention: Retention::Ms64,
            refresh_policy: RefreshPolicyKind::AllBank,
            mapping: MappingScheme::RowRankBankColumn,
            partition: PartitionPlan::None,
            sched_policy: SchedPolicy::Cfs,
            time_scale: scale,
            timeslice: None,
            core: CoreConfig::table1(),
            controller: ControllerConfig::default(),
            ctx_switch_cost: Ps::from_ns(250),
            fault_cost: Ps::from_ns(150),
            warmup: Retention::Ms64.trefw() / u64::from(scale),
            measure: Retention::Ms64.trefw() / u64::from(scale) * 2,
            seed: 0x5EED,
            fault_plan: None,
            audit: AuditLevel::Off,
            engine: EngineKind::default(),
            step: default_step(),
            debug_skip_overshoot: Ps::ZERO,
            backend: BackendKind::Primary,
            shadow: ShadowConfig::default(),
        }
    }

    /// Switches on the full co-design: the proposed sequential per-bank
    /// refresh schedule, soft memory partitioning, and refresh-aware
    /// scheduling (§5).
    pub fn co_design(mut self) -> Self {
        self.refresh_policy = RefreshPolicyKind::PerBankSequential;
        self.partition = PartitionPlan::Soft;
        self.sched_policy = SchedPolicy::refresh_aware();
        self
    }

    /// Sets the refresh policy (leaving allocation/scheduling alone).
    pub fn with_refresh(mut self, policy: RefreshPolicyKind) -> Self {
        self.refresh_policy = policy;
        self
    }

    /// Sets the device density.
    pub fn with_density(mut self, density: Density) -> Self {
        self.density = density;
        self
    }

    /// Sets the retention window, rescaling warm-up/measure windows to
    /// keep covering the same number of retention windows.
    pub fn with_retention(mut self, retention: Retention) -> Self {
        let windows_warm = self.warmup / self.trefw();
        let windows_meas = (self.measure / self.trefw()).max(1);
        self.retention = retention;
        let w = self.trefw();
        self.warmup = w * windows_warm.max(1);
        self.measure = w * windows_meas;
        self
    }

    /// Sets the partition plan.
    pub fn with_partition(mut self, plan: PartitionPlan) -> Self {
        self.partition = plan;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_sched(mut self, policy: SchedPolicy) -> Self {
        self.sched_policy = policy;
        self
    }

    /// Sets core count.
    pub fn with_cores(mut self, n: u32) -> Self {
        self.n_cores = n;
        self
    }

    /// Sets ranks per channel (2 per DIMM; §6.6 scales DIMMs/channel).
    pub fn with_ranks(mut self, ranks: u32) -> Self {
        self.ranks_per_channel = ranks;
        self
    }

    /// Sets the memory-channel count. Channels are interleaved at page
    /// granularity by the address mapping; each channel gets its own
    /// independent controller running the same refresh policy, and the
    /// refresh-aware co-design generalizes across them (one busy bank
    /// per channel fed to Algorithm 3).
    pub fn with_channels(mut self, channels: u32) -> Self {
        self.channels = channels;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Turns on the retention-integrity oracle in every memory
    /// controller (per-row last-refresh tracking against `tREFW`).
    pub fn with_retention_tracking(mut self) -> Self {
        self.controller.track_retention = true;
        self
    }

    /// Installs a refresh-fault injection plan. Plans that drop refresh
    /// commands require retention tracking (see
    /// [`SystemConfig::validate`]): a skipped refresh without the oracle
    /// would be silent data loss.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the simulation advancement engine (see [`EngineKind`]).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the advancement-step pitch (see [`SystemConfig::step`]).
    /// Finer pitches raise temporal fidelity at higher fixed-step cost;
    /// the event-horizon engine absorbs most of that cost by skipping
    /// empty boundaries.
    pub fn with_step(mut self, step: Ps) -> Self {
        self.step = step;
        self
    }

    /// Sets the runtime invariant-audit level (see [`crate::sanitize`]).
    pub fn with_audit(mut self, level: AuditLevel) -> Self {
        self.audit = level;
        self
    }

    /// Sets the deliberate skip-overshoot amount (negative-control knob;
    /// see [`SystemConfig::debug_skip_overshoot`]).
    pub fn with_debug_skip_overshoot(mut self, extra: Ps) -> Self {
        self.debug_skip_overshoot = extra;
        self
    }

    /// Selects the DRAM timing model behind every channel (see
    /// [`SystemConfig::backend`]).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the deliberate shadow-model refresh-dropping perturbation
    /// (differential-harness negative control; see
    /// [`SystemConfig::shadow`]). Implies nothing unless the shadow
    /// backend is selected.
    pub fn with_shadow_drop_every(mut self, n: u64) -> Self {
        self.shadow.drop_refresh_every = n;
        self
    }

    /// Sets the time scale, rescaling warm-up/measure windows.
    pub fn with_time_scale(mut self, scale: u32) -> Self {
        assert!(scale >= 1);
        let windows_warm = (self.warmup / self.trefw()).max(1);
        let windows_meas = (self.measure / self.trefw()).max(1);
        self.time_scale = scale;
        let w = self.trefw();
        self.warmup = w * windows_warm;
        self.measure = w * windows_meas;
        self
    }

    /// The (scaled) retention window.
    pub fn trefw(&self) -> Ps {
        self.retention.trefw() / u64::from(self.time_scale)
    }

    /// DRAM geometry implied by this configuration.
    pub fn geometry(&self) -> Geometry {
        Geometry {
            channels: self.channels,
            ranks_per_channel: self.ranks_per_channel,
            banks_per_rank: 8,
            rows_per_bank: self.density.rows_per_bank(),
            row_bytes: 4096,
            line_bytes: 64,
        }
    }

    /// Refresh timing implied by this configuration.
    pub fn refresh_timing(&self) -> RefreshTiming {
        RefreshTiming::scaled(self.density, self.retention, self.time_scale)
    }

    /// DDR timing parameters (DDR3-1600 per Table 1).
    pub fn timing_params(&self) -> TimingParams {
        TimingParams::ddr3_1600()
    }

    /// The effective scheduling quantum: explicit `timeslice`, or the
    /// sequential refresh schedule's slice length — `tREFW / totalBanks`
    /// when the serial one-bank-at-a-time schedule is feasible (§5.1's
    /// 4 ms at 64 ms / 16 banks), else `tREFW / banksPerRank` for the
    /// parallel per-rank schedule used at 32 ms retention.
    pub fn effective_timeslice(&self) -> Ps {
        self.timeslice.unwrap_or_else(|| {
            let g = self.geometry();
            self.refresh_timing()
                .sequential_slice(g.banks_per_channel(), g.banks_per_rank)
        })
    }

    /// Total global banks.
    pub fn total_banks(&self) -> u32 {
        self.geometry().total_banks()
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`RefsimError::InvalidConfig`] describing the first
    /// inconsistency (zero cores, too many global banks for the
    /// bank-vector word, bad geometry…), so sweep harnesses record a
    /// typed error row instead of parsing strings.
    pub fn validate(&self) -> Result<(), RefsimError> {
        let bad = |why: String| Err(RefsimError::InvalidConfig(why));
        if self.n_cores == 0 {
            return bad("n_cores must be >= 1".to_owned());
        }
        self.geometry()
            .validate()
            .map_err(RefsimError::InvalidConfig)?;
        self.timing_params()
            .validate()
            .map_err(RefsimError::InvalidConfig)?;
        if self.total_banks() > 64 {
            // `BankVector` (task exclusion windows, busy-bank sets) is a
            // single u64 bitmask over *global* banks.
            return bad(format!(
                "{} global banks exceed the 64-bank BankVector word \
                 (channels × ranks × 8); shrink the geometry",
                self.total_banks()
            ));
        }
        if let PartitionPlan::Confine { banks_per_task } = self.partition {
            let bpr = self.geometry().banks_per_rank;
            if !(1..=bpr).contains(&banks_per_task) {
                return bad(format!(
                    "Confine width {banks_per_task} outside 1..={bpr} banks per rank"
                ));
            }
        }
        if self.measure == Ps::ZERO {
            return bad("measure window must be non-empty".to_owned());
        }
        if self.step == Ps::ZERO {
            return bad("advancement step must be positive".to_owned());
        }
        if self.effective_timeslice() == Ps::ZERO {
            return bad("timeslice must be positive".to_owned());
        }
        if let Some(plan) = &self.fault_plan {
            if plan.skip_ppm > 0 && plan.horizon > 0 && !self.controller.track_retention {
                return bad(
                    "fault plans that skip refreshes require retention tracking \
                     (silent data loss otherwise); enable with_retention_tracking()"
                        .to_owned(),
                );
            }
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_valid_baseline() {
        let c = SystemConfig::table1();
        assert!(c.validate().is_ok());
        assert_eq!(c.n_cores, 2);
        assert_eq!(c.total_banks(), 16);
        assert_eq!(c.refresh_policy, RefreshPolicyKind::AllBank);
        assert_eq!(c.partition, PartitionPlan::None);
    }

    #[test]
    fn timeslice_matches_refresh_slice() {
        // Full scale: 64 ms / 16 banks = 4 ms (§5.1 = the OS quantum).
        let c = SystemConfig::table1().with_time_scale(1);
        assert_eq!(c.effective_timeslice(), Ps::from_ms(4));
        // Default scale 32: 125 µs.
        let c = SystemConfig::table1();
        assert_eq!(c.effective_timeslice(), Ps::from_us(125));
    }

    #[test]
    fn timeslice_4ms_at_32ms_retention() {
        // At 32 ms retention the serial one-bank-at-a-time schedule is
        // infeasible (tREFIab/16 < tRFCpb), so the parallel per-rank
        // schedule is used: tREFW / banksPerRank = 4 ms slices. (The
        // paper's footnote 12 quotes 2 ms, but that command rate cannot
        // fit tRFCpb-long refreshes; see DESIGN.md.)
        let c = SystemConfig::table1()
            .with_retention(Retention::Ms32)
            .with_time_scale(1);
        assert_eq!(c.effective_timeslice(), Ps::from_ms(4));
    }

    #[test]
    fn co_design_flips_all_three_pieces() {
        let c = SystemConfig::table1().co_design();
        assert_eq!(c.refresh_policy, RefreshPolicyKind::PerBankSequential);
        assert_eq!(c.partition, PartitionPlan::Soft);
        assert!(matches!(c.sched_policy, SchedPolicy::RefreshAware { .. }));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn retention_change_rescales_windows() {
        let c = SystemConfig::table1();
        let w64 = c.trefw();
        assert_eq!(c.warmup, w64);
        assert_eq!(c.measure, w64 * 2);
        let c32 = c.with_retention(Retention::Ms32);
        assert_eq!(c32.warmup, c32.trefw());
        assert_eq!(c32.measure, c32.trefw() * 2);
        assert_eq!(c32.trefw(), w64 / 2);
    }

    #[test]
    fn more_dimms_mean_more_banks() {
        let c = SystemConfig::table1().with_ranks(4);
        assert_eq!(c.total_banks(), 32);
        // With 32 banks the serial schedule is infeasible (tREFIab/32 <
        // tRFCpb), so the parallel per-rank schedule's tREFW/8 slices
        // set the quantum.
        assert_eq!(c.effective_timeslice(), c.trefw() / 8);
    }

    #[test]
    fn validate_rejects_confine_widths_outside_the_rank() {
        let confine = |banks_per_task| {
            SystemConfig::table1()
                .with_partition(PartitionPlan::Confine { banks_per_task })
                .validate()
        };
        for k in [0, 9] {
            let e = confine(k).unwrap_err();
            assert!(matches!(e, RefsimError::InvalidConfig(_)), "{e:?}");
            assert!(e.to_string().contains("Confine width"), "{e}");
        }
        // Figure 4's widths.
        for k in 1..=8 {
            assert!(confine(k).is_ok(), "width {k}");
        }
    }

    #[test]
    fn validate_rejects_zero_step() {
        let c = SystemConfig::table1().with_step(Ps::ZERO);
        let e = c.validate().unwrap_err();
        assert!(matches!(e, RefsimError::InvalidConfig(_)), "{e:?}");
        assert!(e.to_string().contains("step"), "{e}");
        assert!(SystemConfig::table1()
            .with_step(Ps(1_250))
            .validate()
            .is_ok());
        assert_eq!(SystemConfig::table1().step, DEFAULT_STEP);
    }

    #[test]
    fn multichannel_refresh_aware_is_allowed() {
        // The co-design generalizes across channels (one busy bank per
        // channel); multi-channel geometries validate up to the 64-bank
        // BankVector word.
        for channels in [2u32, 4] {
            let c = SystemConfig::table1().co_design().with_channels(channels);
            assert!(c.validate().is_ok(), "channels = {channels}");
            assert_eq!(c.total_banks(), channels * 16);
        }
    }

    #[test]
    fn validate_rejects_geometries_past_the_bankvector_word() {
        // 8 channels × 2 ranks × 8 banks = 128 global banks > 64.
        let c = SystemConfig::table1().with_channels(8);
        let e = c.validate().unwrap_err();
        assert!(matches!(e, RefsimError::InvalidConfig(_)), "{e:?}");
        assert!(e.to_string().contains("64-bank"), "{e}");
        // 8 channels × 1 rank × 8 banks = 64 fits exactly.
        let c = SystemConfig::table1().with_channels(8).with_ranks(1);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn skip_faults_without_oracle_are_rejected() {
        let mut plan = FaultPlan::none(1);
        plan.skip_ppm = 1_000;
        plan.horizon = 100;
        let c = SystemConfig::table1().with_fault_plan(plan.clone());
        let e = c.validate().unwrap_err();
        assert!(matches!(e, RefsimError::InvalidConfig(_)), "{e:?}");
        assert!(e.to_string().contains("retention tracking"), "{e}");
        let c = SystemConfig::table1()
            .with_retention_tracking()
            .with_fault_plan(plan);
        assert!(c.validate().is_ok());
        assert!(c.controller.track_retention);
    }

    #[test]
    fn geometry_scales_with_density() {
        let c = SystemConfig::table1().with_density(Density::Gb16);
        assert_eq!(c.geometry().rows_per_bank, 256 * 1024);
        assert_eq!(c.geometry().total_bytes(), 16 << 30);
    }
}
