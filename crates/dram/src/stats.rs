//! Memory-controller statistics.

use std::hash::Hasher;

use serde::{Deserialize, Serialize};

use crate::time::Ps;

/// Counters collected by a [`crate::controller::MemoryController`].
///
/// All counters are cumulative since construction or the last
/// [`ControllerStats::reset`]; the controller's warm-up handling calls
/// `reset` at the measurement boundary.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Read requests accepted into the read queue.
    pub reads_enqueued: u64,
    /// Write requests accepted into the write queue.
    pub writes_enqueued: u64,
    /// Reads whose data was returned.
    pub reads_completed: u64,
    /// Writes whose data was written to DRAM.
    pub writes_completed: u64,
    /// Reads served by forwarding from a queued write (no DRAM access).
    pub forwarded_reads: u64,
    /// Column accesses that hit the open row.
    pub row_hits: u64,
    /// Column accesses that required opening a closed row.
    pub row_misses: u64,
    /// Column accesses that required closing a different open row first.
    pub row_conflicts: u64,
    /// All-bank (rank-level) refresh commands issued.
    pub refreshes_ab: u64,
    /// Per-bank refresh commands issued.
    pub refreshes_pb: u64,
    /// Total lateness of refresh commands past their due instants.
    pub refresh_postpone_total: Ps,
    /// Worst single refresh postponement.
    pub refresh_postpone_max: Ps,
    /// Sum of read latencies (arrival → last data beat).
    pub read_latency_total: Ps,
    /// Worst single read latency.
    pub read_latency_max: Ps,
    /// Completed reads that were delayed by an in-progress refresh at
    /// some point while queued.
    pub refresh_blocked_reads: u64,
    /// Time the data bus carried data.
    pub data_bus_busy: Ps,
    /// Read enqueue attempts rejected because the queue was full.
    pub queue_reject_reads: u64,
    /// Write enqueue attempts rejected because the queue was full.
    pub queue_reject_writes: u64,
    /// Write-drain episodes entered (high-watermark crossings).
    pub write_drains: u64,
    /// Retention violations found by the integrity oracle. Unlike the
    /// other counters this mirrors the tracker's *run-cumulative* total
    /// (integrity is a property of the whole run, not the measurement
    /// window), so it survives the warm-up `reset`.
    pub retention_violations: u64,
    /// Refresh commands dropped by the active fault plan.
    pub injected_skip_faults: u64,
    /// Refresh commands delayed by the active fault plan.
    pub injected_delay_faults: u64,
}

impl ControllerStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Streams every counter, in declaration order, into `h` for state
    /// hashing.
    pub fn hash_state(&self, h: &mut dyn Hasher) {
        h.write_u64(self.reads_enqueued);
        h.write_u64(self.writes_enqueued);
        h.write_u64(self.reads_completed);
        h.write_u64(self.writes_completed);
        h.write_u64(self.forwarded_reads);
        h.write_u64(self.row_hits);
        h.write_u64(self.row_misses);
        h.write_u64(self.row_conflicts);
        h.write_u64(self.refreshes_ab);
        h.write_u64(self.refreshes_pb);
        h.write_u64(self.refresh_postpone_total.as_ps());
        h.write_u64(self.refresh_postpone_max.as_ps());
        h.write_u64(self.read_latency_total.as_ps());
        h.write_u64(self.read_latency_max.as_ps());
        h.write_u64(self.refresh_blocked_reads);
        h.write_u64(self.data_bus_busy.as_ps());
        h.write_u64(self.queue_reject_reads);
        h.write_u64(self.queue_reject_writes);
        h.write_u64(self.write_drains);
        h.write_u64(self.retention_violations);
        h.write_u64(self.injected_skip_faults);
        h.write_u64(self.injected_delay_faults);
    }

    /// Zeroes every counter (measurement-phase boundary).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Folds another channel's counters into this one for multi-channel
    /// aggregation: counts and time totals add, worst-case fields take
    /// the max. Accumulating a default (all-zero) value is the identity.
    pub fn accumulate(&mut self, other: &ControllerStats) {
        self.reads_enqueued += other.reads_enqueued;
        self.writes_enqueued += other.writes_enqueued;
        self.reads_completed += other.reads_completed;
        self.writes_completed += other.writes_completed;
        self.forwarded_reads += other.forwarded_reads;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.refreshes_ab += other.refreshes_ab;
        self.refreshes_pb += other.refreshes_pb;
        self.refresh_postpone_total += other.refresh_postpone_total;
        self.refresh_postpone_max = self.refresh_postpone_max.max(other.refresh_postpone_max);
        self.read_latency_total += other.read_latency_total;
        self.read_latency_max = self.read_latency_max.max(other.read_latency_max);
        self.refresh_blocked_reads += other.refresh_blocked_reads;
        self.data_bus_busy += other.data_bus_busy;
        self.queue_reject_reads += other.queue_reject_reads;
        self.queue_reject_writes += other.queue_reject_writes;
        self.write_drains += other.write_drains;
        self.retention_violations += other.retention_violations;
        self.injected_skip_faults += other.injected_skip_faults;
        self.injected_delay_faults += other.injected_delay_faults;
    }

    /// Average read latency, or `None` if no read completed.
    pub fn avg_read_latency(&self) -> Option<Ps> {
        let n = self.reads_completed.saturating_sub(self.forwarded_reads);
        if n == 0 {
            None
        } else {
            Some(self.read_latency_total / n)
        }
    }

    /// Average read latency in DRAM clock cycles of period `tck`.
    pub fn avg_read_latency_cycles(&self, tck: Ps) -> Option<f64> {
        self.avg_read_latency()
            .map(|l| l.as_ps() as f64 / tck.as_ps() as f64)
    }

    /// Row-buffer hit rate over all classified column accesses.
    pub fn row_hit_rate(&self) -> Option<f64> {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            None
        } else {
            Some(self.row_hits as f64 / total as f64)
        }
    }

    /// Total refresh commands of either granularity.
    pub fn refreshes_total(&self) -> u64 {
        self.refreshes_ab + self.refreshes_pb
    }

    /// Completed DRAM commands of every kind the controller retires —
    /// column accesses plus refreshes. The denominator for the
    /// `ns_per_command` benchmark metric (wall time spent per retired
    /// command), so the figure stays comparable across scenarios with
    /// different read/write/refresh mixes.
    pub fn commands_total(&self) -> u64 {
        self.reads_completed + self.writes_completed + self.refreshes_ab + self.refreshes_pb
    }

    /// Data-bus utilization over `elapsed` wall-clock simulation time.
    pub fn bus_utilization(&self, elapsed: Ps) -> f64 {
        if elapsed == Ps::ZERO {
            0.0
        } else {
            self.data_bus_busy.as_ps() as f64 / elapsed.as_ps() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_empty_are_none() {
        let s = ControllerStats::new();
        assert_eq!(s.avg_read_latency(), None);
        assert_eq!(s.row_hit_rate(), None);
        assert_eq!(s.bus_utilization(Ps::ZERO), 0.0);
    }

    #[test]
    fn averages_and_rates() {
        let s = ControllerStats {
            reads_completed: 4,
            read_latency_total: Ps::from_ns(400),
            row_hits: 3,
            row_misses: 1,
            row_conflicts: 0,
            data_bus_busy: Ps::from_ns(50),
            ..Default::default()
        };
        assert_eq!(s.avg_read_latency(), Some(Ps::from_ns(100)));
        assert_eq!(s.row_hit_rate(), Some(0.75));
        assert!((s.bus_utilization(Ps::from_ns(100)) - 0.5).abs() < 1e-12);
        let cycles = s.avg_read_latency_cycles(Ps::from_ps(1_250)).unwrap();
        assert!((cycles - 80.0).abs() < 1e-9);
    }

    #[test]
    fn forwarded_reads_excluded_from_latency_average() {
        let s = ControllerStats {
            reads_completed: 5,
            forwarded_reads: 1,
            read_latency_total: Ps::from_ns(400),
            ..Default::default()
        };
        assert_eq!(s.avg_read_latency(), Some(Ps::from_ns(100)));
    }

    #[test]
    fn commands_total_spans_column_and_refresh_commands() {
        let s = ControllerStats {
            reads_completed: 4,
            writes_completed: 3,
            refreshes_ab: 2,
            refreshes_pb: 5,
            ..Default::default()
        };
        assert_eq!(s.commands_total(), 14);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = ControllerStats {
            reads_completed: 9,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s, ControllerStats::new());
    }
}
