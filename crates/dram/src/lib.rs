//! # refsim-dram
//!
//! Cycle-level DDR3/DDR4 DRAM substrate for the refsim project: bank and
//! rank timing state machines, an FR-FCFS memory controller with batched
//! write draining, and the full set of refresh scheduling policies
//! evaluated by *"Hardware-Software Co-design to Mitigate DRAM Refresh
//! Overheads"* (ASPLOS'17) — including the paper's proposed sequential
//! per-bank schedule (Algorithm 1).
//!
//! ## Layout
//!
//! * [`time`] — picosecond time base shared by the whole simulator.
//! * [`geometry`] / [`mapping`] — topology and physical-address decode
//!   (the co-design's hardware→OS exposure).
//! * [`timing`] — JEDEC parameters, densities, retention, FGR modes.
//! * [`bank`] — per-bank / per-rank timing state machines.
//! * [`refresh`] — the refresh policies and the [`refresh::BusyForecast`]
//!   interface the OS scheduler consumes.
//! * [`controller`] — the per-channel memory controller.
//! * [`integrity`] — the retention-integrity oracle and refresh fault
//!   injection (skipped/delayed commands, weak rows).
//! * [`error`] — typed diagnostic errors with state snapshots.
//! * [`stats`] — controller counters.
//!
//! ## Example
//!
//! ```
//! use refsim_dram::prelude::*;
//!
//! // A 32 Gb, 2-rank channel with the proposed refresh schedule.
//! let mapping = AddressMapping::new(Geometry::default(), MappingScheme::RowRankBankColumn);
//! let timing = RefreshTiming::new(Density::Gb32, Retention::Ms64);
//! let mut mc = MemoryController::new(
//!     mapping,
//!     TimingParams::ddr3_1600(),
//!     timing,
//!     RefreshPolicyKind::PerBankSequential,
//!     ControllerConfig::default(),
//! );
//!
//! // The OS can ask which bank refreshes during an upcoming quantum:
//! let forecast = mc.refresh_forecast(Ps::ZERO, Ps::from_ms(4));
//! assert_eq!(forecast, BusyForecast::Bank(BankId::new(0, 0)));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod bank;
pub mod controller;
pub mod error;
pub mod geometry;
pub mod integrity;
pub mod mapping;
pub mod power;
pub mod refresh;
pub mod request;
pub mod shadow;
pub mod stats;
pub mod time;
pub mod timing;

/// Convenient glob-import of the crate's commonly used types.
pub mod prelude {
    pub use crate::backend::{build_backend, BackendDescriptor, BackendKind, MemoryBackend};
    pub use crate::controller::{ControllerConfig, MemoryController, QueueFull};
    pub use crate::error::{ControllerSnapshot, DramError};
    pub use crate::geometry::{BankId, Geometry, Location};
    pub use crate::integrity::{
        IntegrityConfig, RefreshFaults, RetentionTracker, RetentionViolation, ViolationKind,
        WeakRow,
    };
    pub use crate::mapping::{AddressMapping, MappingScheme};
    pub use crate::power::{energy, EnergyBreakdown, PowerParams};
    pub use crate::refresh::{BusyForecast, RefreshPolicyKind};
    pub use crate::request::{Completion, MemRequest, ReqId, ReqKind};
    pub use crate::shadow::{ShadowConfig, ShadowController};
    pub use crate::stats::ControllerStats;
    pub use crate::time::Ps;
    pub use crate::timing::{Density, FgrMode, RefreshTiming, Retention, TimingParams};
}
