//! Component probes for the layers the engine only calls internally.
//! Each times direct calls into a crate's public API, at the shape the
//! traced workload reported. They are reported as metrics only.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use slider_cluster::{simulate, ClusterSpec, SchedulerPolicy, Task};
use slider_core::{build_tree, FnCombiner, TreeCx, TreeKind, UpdateStats};
use slider_dcache::{CacheConfig, DistributedCache, NodeId, ObjectId};
use slider_mapreduce::Runtime;

use crate::measure::{median_call_ns, median_f64, Report};

/// The aggregators the core probe races, with their metric names.
const CORE_KINDS: [(TreeKind, &str); 5] = [
    (TreeKind::Folding, "folding"),
    (TreeKind::RandomizedFolding, "randomized"),
    (TreeKind::Daba, "daba"),
    (TreeKind::DabaLite, "daba_lite"),
    (TreeKind::Strawman, "strawman"),
];

/// The shape of the traced workload the probes copy.
#[derive(Debug, Clone, Copy)]
pub struct ProbeShape {
    /// Worker threads of the workload's runtime.
    pub threads: usize,
    /// Reduce partitions per job.
    pub partitions: usize,
    /// Mean map tasks per update, as the traced run reported.
    pub map_tasks: f64,
    /// Probe sizes are divided by this (1 at full size).
    pub shrink: usize,
}

/// Runs every probe and records its metric.
pub fn run_all(r: &mut Report, shape: ProbeShape) {
    for (kind, name) in CORE_KINDS {
        for window in [256usize, 4096] {
            let ns = core_ns_per_merge(kind, window, shape.shrink);
            r.set(
                &format!("core.probe.{name}.ns_per_merge.w{window}"),
                ns,
                "ns",
            );
        }
    }
    r.set(
        "mapreduce.probe.runtime_map_ns",
        runtime_map_ns(shape.threads, shape.partitions, 2000 / shape.shrink),
        "ns",
    );
    r.set(
        "cluster.probe.simulate_ns",
        simulate_ns(shape.map_tasks, shape.partitions, 200 / shape.shrink),
        "ns",
    );
    let (put, read) = dcache_ns(shape.partitions, 4096 / shape.shrink);
    r.set("dcache.probe.put_ns", put, "ns");
    r.set("dcache.probe.read_ns", read, "ns");
}

/// Wall nanoseconds per modeled merge of single-leaf slides on a
/// `window`-leaf aggregator of `kind` (`build_tree` + `advance`), median
/// of five rounds.
pub fn core_ns_per_merge(kind: TreeKind, window: usize, shrink: usize) -> f64 {
    let combiner = FnCombiner::new(|_: &u8, a: &u64, b: &u64| a.wrapping_add(*b));
    let key = 0u8;
    let mut tree = build_tree::<u8, u64>(kind, window);
    let mut fill = UpdateStats::default();
    tree.rebuild(
        &mut TreeCx::new(&combiner, &key, &mut fill),
        (0..window as u64).map(|v| Some(Arc::new(v))).collect(),
    );
    let mut next = window as u64;
    let mut slide = |stats: &mut UpdateStats| {
        let mut cx = TreeCx::new(&combiner, &key, stats);
        tree.advance(&mut cx, 1, vec![Some(Arc::new(next))])
            .expect("a single-leaf slide stays within the window");
        next += 1;
    };
    for _ in 0..32 {
        slide(&mut UpdateStats::default());
    }
    let budget = Duration::from_millis(20 / shrink as u64);
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let mut stats = UpdateStats::default();
            let start = Instant::now();
            let mut slides = 0;
            while slides < 64 || start.elapsed() < budget {
                slide(&mut stats);
                slides += 1;
            }
            let ns = start.elapsed().as_nanos() as f64;
            ns / stats.foreground.merges.max(1) as f64
        })
        .collect();
    median_f64(&rounds)
}

/// One `Runtime::map` over `partitions` no-op items at `threads` threads.
pub fn runtime_map_ns(threads: usize, partitions: usize, reps: usize) -> f64 {
    let runtime = Runtime::new(threads);
    let items: Vec<u64> = (0..partitions as u64).collect();
    median_call_ns(reps.max(10), || {
        black_box(runtime.map(&items, |i, x| black_box(*x + i as u64)));
    })
}

/// One `simulate` on the paper's cluster with the workload's map-task and
/// partition counts.
pub fn simulate_ns(map_tasks: f64, partitions: usize, reps: usize) -> f64 {
    let maps = (map_tasks.round() as u64).max(1);
    let stages = vec![
        (0..maps).map(|i| Task::map(i, 1_000)).collect::<Vec<_>>(),
        (0..partitions as u64)
            .map(|i| Task::reduce(maps + i, 1_000))
            .collect(),
    ];
    let spec = ClusterSpec::paper_cluster();
    median_call_ns(reps.max(10), || {
        black_box(simulate(&spec, SchedulerPolicy::hybrid_default(), &stages));
    })
}

/// Mean `DistributedCache::put` and `read` times over `objects` objects on
/// a `nodes`-node cache with the paper's defaults, median of five rounds.
pub fn dcache_ns(nodes: usize, objects: usize) -> (f64, f64) {
    let objects = objects.max(16) as u64;
    let mut puts = Vec::new();
    let mut reads = Vec::new();
    for round in 0..5u64 {
        let mut cache = DistributedCache::new(CacheConfig::paper_defaults(nodes));
        let start = Instant::now();
        for i in 0..objects {
            cache.put(ObjectId(i), 4096, NodeId(i as usize % nodes), round);
        }
        puts.push(start.elapsed().as_nanos() as f64 / objects as f64);
        let start = Instant::now();
        for i in 0..objects {
            let reader = NodeId((i as usize + 1) % nodes);
            black_box(
                cache
                    .read(ObjectId(i), reader)
                    .expect("every object was just stored"),
            );
        }
        reads.push(start.elapsed().as_nanos() as f64 / objects as f64);
    }
    (median_f64(&puts), median_f64(&reads))
}
