//! Per-run metrics: the reproduction's *work* metric and its breakdown.

use slider_cluster::SimReport;
use slider_core::PhaseWork;
use slider_dcache::{CacheStats, RepairStats};
use slider_trace::{visit_prefixed, Visit};

/// Work performed by one run, split by phase (the paper's Figure 9
/// breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkBreakdown {
    /// Map-phase compute work (including map-side combining).
    pub map: u64,
    /// Foreground contraction-phase work (combiner invocations on the
    /// critical path).
    pub contraction_fg: PhaseWork,
    /// Background pre-processing work (split mode).
    pub contraction_bg: PhaseWork,
    /// Reduce-phase compute work.
    pub reduce: u64,
    /// Work-unit equivalent of data movement (shuffle + memo reads),
    /// charged at [`crate::JobConfig::work_per_byte`].
    pub movement: u64,
}

impl WorkBreakdown {
    /// Total foreground work: what the paper's *work* metric counts for the
    /// incremental run itself.
    pub fn foreground_total(&self) -> u64 {
        self.map + self.contraction_fg.work + self.reduce + self.movement
    }

    /// Total including background pre-processing.
    pub fn grand_total(&self) -> u64 {
        self.foreground_total() + self.contraction_bg.work
    }
}

impl Visit for WorkBreakdown {
    fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        f("work.map", self.map);
        f("work.contraction_fg", self.contraction_fg.work);
        f("merges_fg", self.contraction_fg.merges);
        f("work.contraction_bg", self.contraction_bg.work);
        f("merges_bg", self.contraction_bg.merges);
        f("work.reduce", self.reduce);
        f("work.movement", self.movement);
    }
}

/// Recovery work of one run, metered separately from regular work so
/// fault overheads are visible (the paper's fault-tolerance evaluation):
/// lost memoized state degrades to extra foreground computation, never a
/// wrong answer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Reduce partitions whose memoized trees were lost and rebuilt.
    pub lost_partitions: usize,
    /// Work units spent rebuilding lost contraction state.
    pub rebuild_work: u64,
    /// Combiner merges performed during rebuilds.
    pub rebuild_merges: u64,
    /// Keys whose contraction state was recomputed only because of a loss.
    pub keys_recomputed: usize,
    /// Memo-cache reads that failed outright and degraded to
    /// recomputation (replica failover exhausted).
    pub cache_misses_recovered: u64,
    /// Failed cache reads whose object was missing from the index
    /// entirely — recomputation is the only way back.
    pub cache_not_found: u64,
    /// Failed cache reads whose object was indexed but unreachable — a
    /// node recovery or background repair can restore it without
    /// recomputation.
    pub cache_unavailable: u64,
    /// `Unavailable` cache reads retried after draining pending repairs.
    pub read_retries: u64,
    /// Simulated seconds spent backing off between read retries.
    pub backoff_seconds: f64,
}

impl RecoveryStats {
    /// True when this run performed no recovery work at all.
    pub fn is_zero(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

impl Visit for RecoveryStats {
    /// Every counter except `backoff_seconds` (simulated seconds).
    fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        f("lost_partitions", self.lost_partitions as u64);
        f("rebuild_work", self.rebuild_work);
        f("rebuild_merges", self.rebuild_merges);
        f("keys_recomputed", self.keys_recomputed as u64);
        f("cache_misses_recovered", self.cache_misses_recovered);
        f("cache_not_found", self.cache_not_found);
        f("cache_unavailable", self.cache_unavailable);
        f("read_retries", self.read_retries);
    }
}

/// Everything measured about one run of a windowed job.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Monotonic run index (0 = initial run).
    pub run: u64,
    /// Work breakdown.
    pub work: WorkBreakdown,
    /// Map tasks executed this run.
    pub map_tasks: usize,
    /// Splits whose map output was reused from memoization.
    pub map_reused: usize,
    /// Memoized contraction sub-computations reused.
    pub nodes_reused: u64,
    /// Keys whose output was recomputed by Reduce.
    pub keys_reduced: usize,
    /// Keys whose previous output was reused untouched.
    pub keys_reused: usize,
    /// Bytes of fresh map output shuffled to reducers.
    pub shuffle_bytes: u64,
    /// Bytes of memoized state read by the contraction phase.
    pub memo_read_bytes: u64,
    /// Total memoization footprint after the run (Figure 13(c)).
    pub memo_footprint_bytes: u64,
    /// Input bytes currently in the window.
    pub window_input_bytes: u64,
    /// Simulated cluster schedule (when simulation is configured).
    pub sim: Option<SimReport>,
    /// Simulated background-processing schedule, separate from the
    /// foreground makespan (split mode).
    pub sim_background: Option<SimReport>,
    /// Memoization-cache statistics delta for this run (when a cache is
    /// configured).
    pub cache: Option<CacheStats>,
    /// Recovery work of this run (all zero for fault-free runs).
    pub recovery: RecoveryStats,
    /// Background self-healing work of this run — re-replication, scrub,
    /// master rebuild (all zero for fault-free runs and whenever the cache
    /// has repair and scrubbing disabled).
    pub repair: RepairStats,
}

impl RunStats {
    /// End-to-end simulated runtime of the foreground run, if simulated.
    pub fn time_seconds(&self) -> Option<f64> {
        self.sim.as_ref().map(|s| s.makespan)
    }

    /// Simulated map-stage duration, if simulated.
    pub fn map_seconds(&self) -> Option<f64> {
        self.sim
            .as_ref()
            .and_then(|s| s.stages.first())
            .map(|s| s.duration)
    }

    /// Simulated contraction+reduce stage duration, if simulated.
    pub fn reduce_seconds(&self) -> Option<f64> {
        self.sim
            .as_ref()
            .and_then(|s| s.stages.get(1))
            .map(|s| s.duration)
    }

    /// Simulated background pre-processing duration (0 when none ran).
    pub fn background_seconds(&self) -> f64 {
        self.sim_background.as_ref().map_or(0.0, |s| s.makespan)
    }

    /// Simulated seconds the cluster spent on recovery (partial attempts
    /// killed by crashes plus losing speculative duplicates), if simulated.
    pub fn recovery_seconds(&self) -> Option<f64> {
        self.sim.as_ref().map(|s| s.recovery_seconds)
    }
}

/// The run's counters under the names of the layer that did the work:
/// `engine.*`, `recovery.*`, `dcache.*` (the run's cache traffic and
/// repair) and `cluster.*` (foreground and background schedules fold into
/// the same names). `run` is an index and the two footprints are
/// last-value gauges, so none of them is visited.
impl Visit for RunStats {
    fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        visit_prefixed(&self.work, "engine.", f);
        f("engine.map_tasks", self.map_tasks as u64);
        f("engine.map_reused", self.map_reused as u64);
        f("engine.nodes_reused", self.nodes_reused);
        f("engine.keys_reduced", self.keys_reduced as u64);
        f("engine.keys_reused", self.keys_reused as u64);
        f("engine.shuffle_bytes", self.shuffle_bytes);
        f("engine.memo_read_bytes", self.memo_read_bytes);
        for sim in self.sim.iter().chain(&self.sim_background) {
            visit_prefixed(sim, "cluster.", f);
        }
        if let Some(cache) = &self.cache {
            visit_prefixed(cache, "dcache.", f);
        }
        visit_prefixed(&self.recovery, "recovery.", f);
        visit_prefixed(&self.repair, "dcache.", f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut w = WorkBreakdown {
            map: 10,
            reduce: 5,
            movement: 2,
            ..Default::default()
        };
        w.contraction_fg.record(3);
        w.contraction_bg.record(4);
        assert_eq!(w.foreground_total(), 20);
        assert_eq!(w.grand_total(), 24);
    }

    /// Every integer field of `RunStats` and of the stats it nests is
    /// visited exactly once. The literals list every field (no
    /// `..Default::default()`), so a new field fails to build here until
    /// it is visited or exempted. Exempt: `run` (an index),
    /// `memo_footprint_bytes` and `window_input_bytes` (last-value
    /// gauges), `SimReport::stages` (the cluster track's stage spans) and
    /// every `f64` seconds field.
    #[test]
    fn visit_covers_every_counter_once() {
        use slider_cluster::SimReport;
        use slider_core::PhaseWork;

        let sim = |base: usize| SimReport {
            makespan: 1.5,
            stages: Vec::new(),
            tasks_run: base,
            busy_seconds: 2.5,
            migrations: base as u64 + 1,
            retried_tasks: base as u64 + 2,
            speculative_tasks: base as u64 + 3,
            recovery_seconds: 3.5,
            repair_network_bytes: base as u64 + 4,
            repair_seconds: 4.5,
        };
        let stats = RunStats {
            run: 1000,
            work: WorkBreakdown {
                map: 1,
                contraction_fg: PhaseWork { merges: 2, work: 3 },
                contraction_bg: PhaseWork { merges: 4, work: 5 },
                reduce: 6,
                movement: 7,
            },
            map_tasks: 8,
            map_reused: 9,
            nodes_reused: 10,
            keys_reduced: 11,
            keys_reused: 12,
            shuffle_bytes: 13,
            memo_read_bytes: 14,
            memo_footprint_bytes: 1001,
            window_input_bytes: 1002,
            sim: Some(sim(15)),
            sim_background: Some(sim(20)),
            cache: Some(CacheStats {
                memory_hits: 25,
                disk_reads: 26,
                not_found_reads: 27,
                unavailable_reads: 28,
                read_seconds: 5.5,
                bytes_read: 29,
                collected: 30,
                evictions: 31,
            }),
            recovery: RecoveryStats {
                lost_partitions: 32,
                rebuild_work: 33,
                rebuild_merges: 34,
                keys_recomputed: 35,
                cache_misses_recovered: 36,
                cache_not_found: 37,
                cache_unavailable: 38,
                read_retries: 39,
                backoff_seconds: 6.5,
            },
            repair: RepairStats {
                enqueued: 40,
                repaired_objects: 41,
                copies_restored: 42,
                repair_bytes: 43,
                repair_seconds: 7.5,
                scrub_passes: 44,
                scrubbed_copies: 45,
                scrub_bytes: 46,
                scrub_seconds: 8.5,
                corruptions_detected: 47,
                stale_copies_purged: 48,
                master_rebuilds: 49,
                objects_reindexed: 50,
            },
        };
        let mut values = Vec::new();
        stats.visit(&mut |_, v| values.push(v));
        values.sort_unstable();
        assert_eq!(values, (1..=50).collect::<Vec<u64>>());
    }

    #[test]
    fn time_accessors_handle_missing_sim() {
        let stats = RunStats::default();
        assert!(stats.time_seconds().is_none());
        assert_eq!(stats.background_seconds(), 0.0);
    }
}
