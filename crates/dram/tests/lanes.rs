//! Differential proof obligations for the controller's tick path.
//!
//! The plan memo lets the event-skip engine ask `next_event_time` and
//! then advance without planning twice. That is only sound if probing
//! is observation-only: a controller probed before every step must
//! match an unprobed twin bit for bit — same completion stream, same
//! statistics, same state stream — for every refresh policy under
//! randomized request streams. A memo that some mutation fails to
//! invalidate shows up here as a divergence. (The system-level pins live
//! in `refsim-core`'s engine suite and behaviour digest.)

use std::hash::Hasher;

use proptest::prelude::*;
use refsim_dram::controller::{ControllerConfig, MemoryController};
use refsim_dram::geometry::Geometry;
use refsim_dram::mapping::{AddressMapping, MappingScheme};
use refsim_dram::refresh::RefreshPolicyKind;
use refsim_dram::request::{MemRequest, ReqId, ReqKind};
use refsim_dram::time::Ps;
use refsim_dram::timing::{Density, FgrMode, RefreshTiming, Retention, TimingParams};

const ALL_POLICIES: [RefreshPolicyKind; 8] = [
    RefreshPolicyKind::NoRefresh,
    RefreshPolicyKind::AllBank,
    RefreshPolicyKind::PerBankRoundRobin,
    RefreshPolicyKind::PerBankSequential,
    RefreshPolicyKind::OooPerBank,
    RefreshPolicyKind::Fgr(FgrMode::X2),
    RefreshPolicyKind::Adaptive,
    RefreshPolicyKind::Elastic,
];

fn controller(policy: RefreshPolicyKind) -> MemoryController {
    let mapping = AddressMapping::new(Geometry::default(), MappingScheme::RowRankBankColumn);
    MemoryController::new(
        mapping,
        TimingParams::ddr3_1600(),
        RefreshTiming::scaled(Density::Gb32, Retention::Ms64, 1024),
        policy,
        ControllerConfig::default(),
    )
}

/// Records a state stream as raw bytes, so two states compare byte for
/// byte.
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

fn state_bytes(mc: &MemoryController) -> Vec<u8> {
    let mut b = Bytes::default();
    mc.hash_state(&mut b);
    b.0
}

fn req(mc: &MemoryController, id: u64, raw: u64, write: bool, at: Ps) -> MemRequest {
    let paddr = raw.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((32u64 << 30) - 1) & !0x3f;
    MemRequest {
        id: ReqId(id),
        kind: if write { ReqKind::Write } else { ReqKind::Read },
        paddr,
        loc: mc.mapping().decode(paddr),
        arrival: at,
        core: 0,
        task: 0,
    }
}

/// Drives `a` (probed) and `b` (unprobed) in lockstep through the same
/// request stream and time grid, asserting observable equality at every
/// step. Before each step `a` alone answers a `next_event_time` probe —
/// the double-plan pattern the event-skip engine exhibits and the plan
/// memo exists to absorb — which must be observation-only.
fn drive_pair(
    a: &mut MemoryController,
    b: &mut MemoryController,
    stream: &[(u64, bool)],
    gap: Ps,
    end: Ps,
) {
    let mut t = Ps::ZERO;
    let mut id = 0u64;
    while t < end {
        let _ = a.next_event_time();
        a.advance_to(t);
        b.advance_to(t);
        let (raw, write) = stream[id as usize % stream.len()];
        let ra = req(a, id, raw, write, t);
        let rb = req(b, id, raw, write, t);
        assert_eq!(
            a.enqueue(ra).is_ok(),
            b.enqueue(rb).is_ok(),
            "accept at {t:?}"
        );
        assert_eq!(
            a.drain_completions(),
            b.drain_completions(),
            "completions diverged at {t:?}"
        );
        id += 1;
        t += gap;
    }
    a.advance_to(end);
    b.advance_to(end);
    assert_eq!(a.drain_completions(), b.drain_completions(), "final drain");
    assert_eq!(a.stats(), b.stats(), "statistics diverged");
    assert_eq!(state_bytes(a), state_bytes(b), "state stream diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline equivalence: for every refresh policy, a probed
    /// controller reproduces an unprobed one bit for bit under random
    /// request streams — completions, stats, and the full state stream.
    #[test]
    fn probing_is_observation_only_for_every_policy(
        stream in prop::collection::vec((any::<u64>(), any::<bool>()), 20..60),
    ) {
        let end = Ps::from_us(200);
        for policy in ALL_POLICIES {
            let mut probed = controller(policy);
            let mut plain = controller(policy);
            drive_pair(&mut probed, &mut plain, &stream, Ps::from_ns(350), end);
        }
    }
}

/// Deterministic long-haul pin over every policy — the configuration
/// most likely to expose a stale plan memo (every probe plans at the
/// cursor; every enqueue and execute must invalidate).
#[test]
fn probed_long_run_agrees_for_every_policy() {
    let stream: Vec<(u64, bool)> = (0..97)
        .map(|i: u64| {
            let x = i
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x, x & 0x100 != 0)
        })
        .collect();
    for policy in ALL_POLICIES {
        let mut probed = controller(policy);
        let mut plain = controller(policy);
        drive_pair(
            &mut probed,
            &mut plain,
            &stream,
            Ps::from_ns(280),
            Ps::from_us(400),
        );
    }
}
