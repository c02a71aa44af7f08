//! Per-layer accumulation for the traced run: sums the public stats
//! structs over the timed updates and reports means per update.

use slider_mapreduce::{EventTimeStats, RunStats};

use crate::measure::Report;
use crate::spans::AppCounts;

/// Sums over the timed updates of one traced phase.
#[derive(Debug, Default)]
pub struct LayerAcc {
    pub updates: u64,
    update_ns: u64,
    self_ns: u64,
    merges: u64,
    nodes_reused: u64,
    work_units: u64,
    map_tasks: u64,
    map_reused: u64,
    keys_reduced: u64,
    keys_reused: u64,
    shuffle_bytes: u64,
    memo_read_bytes: u64,
    memo_footprint_bytes: u64,
    memory_hits: u64,
    disk_reads: u64,
    failed_reads: u64,
    bytes_read: u64,
    evictions: u64,
    tasks_run: u64,
    apps: AppCounts,
}

impl LayerAcc {
    /// Folds one engine run (an update may execute several).
    pub fn absorb_run(&mut self, run: &RunStats) {
        self.merges += run.work.contraction_fg.merges + run.work.contraction_bg.merges;
        self.nodes_reused += run.nodes_reused;
        self.work_units += run.work.foreground_total();
        self.map_tasks += run.map_tasks as u64;
        self.map_reused += run.map_reused as u64;
        self.keys_reduced += run.keys_reduced as u64;
        self.keys_reused += run.keys_reused as u64;
        self.shuffle_bytes += run.shuffle_bytes;
        self.memo_read_bytes += run.memo_read_bytes;
        if let Some(cache) = &run.cache {
            self.memory_hits += cache.memory_hits;
            self.disk_reads += cache.disk_reads;
            self.failed_reads += cache.failed_reads();
            self.bytes_read += cache.bytes_read;
            self.evictions += cache.evictions;
        }
        if let Some(sim) = &run.sim {
            self.tasks_run += sim.tasks_run as u64;
        }
    }

    /// Folds one update: its wall time, the part of it the app callbacks
    /// covered, and the callback counts.
    pub fn absorb_update(&mut self, update_ns: u64, covered_ns: u64, apps: AppCounts) {
        self.updates += 1;
        self.update_ns += update_ns;
        self.self_ns += update_ns.saturating_sub(covered_ns);
        self.apps.map_ns += apps.map_ns;
        self.apps.map_calls += apps.map_calls;
        self.apps.combine_calls += apps.combine_calls;
        self.apps.reduce_ns += apps.reduce_ns;
        self.apps.reduce_calls += apps.reduce_calls;
        self.apps.key_calls += apps.key_calls;
    }

    /// Records the memoization footprint at the end of the phase.
    pub fn set_footprint(&mut self, bytes: u64) {
        self.memo_footprint_bytes = bytes;
    }

    /// Mean map tasks per update, for shaping the cluster probe.
    pub fn mean_map_tasks(&self) -> f64 {
        self.map_tasks as f64 / self.updates.max(1) as f64
    }

    pub fn report(&self, r: &mut Report) {
        let n = self.updates.max(1) as f64;
        let mean = |v: u64| v as f64 / n;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        r.set("core.merges", mean(self.merges), "count");
        r.set("core.nodes_reused", mean(self.nodes_reused), "count");
        r.set(
            "core.memo_reuse_ratio",
            ratio(self.nodes_reused, self.nodes_reused + self.merges),
            "ratio",
        );
        r.set("mapreduce.update_ns", mean(self.update_ns), "ns");
        r.set("mapreduce.self_ns", mean(self.self_ns), "ns");
        r.set("mapreduce.work_units", mean(self.work_units), "count");
        r.set(
            "mapreduce.wall_ns_per_work_unit",
            ratio(self.update_ns, self.work_units),
            "ns",
        );
        r.set("mapreduce.map_tasks", mean(self.map_tasks), "count");
        r.set("mapreduce.map_reused", mean(self.map_reused), "count");
        r.set("mapreduce.keys_reduced", mean(self.keys_reduced), "count");
        r.set("mapreduce.keys_reused", mean(self.keys_reused), "count");
        r.set("mapreduce.shuffle_bytes", mean(self.shuffle_bytes), "bytes");
        r.set(
            "mapreduce.memo_read_bytes",
            mean(self.memo_read_bytes),
            "bytes",
        );
        r.set(
            "mapreduce.memo_footprint_bytes",
            self.memo_footprint_bytes as f64,
            "bytes",
        );
        r.set("dcache.memory_hits", mean(self.memory_hits), "count");
        r.set("dcache.disk_reads", mean(self.disk_reads), "count");
        r.set("dcache.bytes_read", mean(self.bytes_read), "bytes");
        r.set("dcache.evictions", mean(self.evictions), "count");
        r.set(
            "dcache.hit_ratio",
            ratio(
                self.memory_hits,
                self.memory_hits + self.disk_reads + self.failed_reads,
            ),
            "ratio",
        );
        r.set("cluster.tasks_run", mean(self.tasks_run), "count");
        r.set("apps.map_ns", mean(self.apps.map_ns), "ns");
        r.set("apps.map_calls", mean(self.apps.map_calls), "count");
        r.set("apps.combine_calls", mean(self.apps.combine_calls), "count");
        r.set("apps.reduce_ns", mean(self.apps.reduce_ns), "ns");
        r.set("apps.reduce_calls", mean(self.apps.reduce_calls), "count");
        r.set("apps.key_calls", mean(self.apps.key_calls), "count");
    }
}

/// Reports the event-time counters accrued over `updates` updates as
/// means per update (zero for workloads without a feeder).
pub fn report_event(r: &mut Report, delta: EventTimeStats, updates: u64) {
    let n = updates.max(1) as f64;
    r.set(
        "mapreduce.event.late_admitted",
        delta.late_admitted as f64 / n,
        "count",
    );
    r.set(
        "mapreduce.event.splice_runs",
        delta.splice_runs as f64 / n,
        "count",
    );
    r.set(
        "mapreduce.event.epochs_closed",
        delta.epochs_closed as f64 / n,
        "count",
    );
}

/// `after - before`, field by field.
pub fn event_delta(before: EventTimeStats, after: EventTimeStats) -> EventTimeStats {
    zip_event(after, before, |a, b| a - b)
}

/// Field-by-field sum of two feeders' counters.
pub fn event_sum(a: EventTimeStats, b: EventTimeStats) -> EventTimeStats {
    zip_event(a, b, |a, b| a + b)
}

fn zip_event(a: EventTimeStats, b: EventTimeStats, f: fn(u64, u64) -> u64) -> EventTimeStats {
    EventTimeStats {
        ingested: f(a.ingested, b.ingested),
        late_admitted: f(a.late_admitted, b.late_admitted),
        late_dropped: f(a.late_dropped, b.late_dropped),
        epochs_closed: f(a.epochs_closed, b.epochs_closed),
        epochs_evicted: f(a.epochs_evicted, b.epochs_evicted),
        splice_runs: f(a.splice_runs, b.splice_runs),
    }
}
