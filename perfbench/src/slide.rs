//! `slide-hct-5pct`: one `WindowedJob<Hct>` on folding trees, a 200-split
//! variable-width window sliding by 10 splits (5%) per update, one
//! thread, no simulation and no cache, in a closed loop.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use slider_apps::Hct;
use slider_mapreduce::{ExecMode, JobConfig, MapReduceApp, Split, TraceSink, WindowedJob};
use slider_workloads::text::{generate_documents, TextConfig};

use crate::layers::report_event;
use crate::measure::{peak_rss_mib, repeat_set_up, updates_room, Report, SetUps, Timeline, Update};
use crate::spans::Timed;
use crate::{digest, same_output, trace_counter, Args, Tracing};

/// An app with HCT's types: the plain app or its [`Timed`] decorator.
pub trait HctLike: MapReduceApp<Input = String, Key = String, Value = u64, Output = u64> {}
impl<A: MapReduceApp<Input = String, Key = String, Value = u64, Output = u64>> HctLike for A {}

const PARTITIONS: usize = 8;

/// Workload geometry; `full` is the benchmark, `toy` the self-test size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    vocabulary: usize,
    records_per_split: usize,
    window_splits: usize,
    slide_splits: usize,
    /// Distinct splits of generated text the feed cycles through.
    pool_splits: usize,
    warmup_slides: usize,
    set_ups: SetUps,
    /// A recompute twin checks the output every this many slides.
    check_every: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            vocabulary: 1_500,
            records_per_split: 12,
            window_splits: 200,
            slide_splits: 10,
            pool_splits: 600,
            warmup_slides: 40,
            set_ups: SetUps {
                min_reps: 9,
                seconds: 2.0,
            },
            check_every: 500,
        }
    }

    pub fn toy() -> Self {
        Scale {
            vocabulary: 60,
            records_per_split: 4,
            window_splits: 20,
            slide_splits: 1,
            pool_splits: 60,
            warmup_slides: 2,
            set_ups: SetUps {
                min_reps: 2,
                seconds: 0.0,
            },
            check_every: 20,
        }
    }
}

fn config() -> JobConfig {
    JobConfig::new(ExecMode::slider_folding())
        .with_partitions(PARTITIONS)
        .with_threads(1)
}

/// Generated text, cut into splits; slides cycle through it with fresh
/// split ids, so the window's content stays statistically steady.
pub struct Feed {
    pool: Arc<Vec<Vec<String>>>,
    next_pool: usize,
    next_id: u64,
    /// The splits currently in the job's window, oldest first.
    pub window: VecDeque<Split<String>>,
}

impl Feed {
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let text = TextConfig {
            vocabulary: scale.vocabulary,
            zipf_exponent: 1.05,
            words_per_doc: 30,
        };
        let docs = generate_documents(seed, scale.pool_splits * scale.records_per_split, &text);
        let pool = docs
            .chunks(scale.records_per_split)
            .map(<[String]>::to_vec)
            .collect();
        Feed {
            pool: Arc::new(pool),
            next_pool: 0,
            next_id: 0,
            window: VecDeque::new(),
        }
    }

    /// A fresh feed over the same text, starting from an empty window.
    fn restart(&self) -> Self {
        Feed {
            pool: Arc::clone(&self.pool),
            next_pool: 0,
            next_id: 0,
            window: VecDeque::new(),
        }
    }

    /// The window of `len` splits that was current when the feed had taken
    /// `end` splits, rebuilt from the pool.
    fn window_ending_at(&self, end: usize, len: usize) -> VecDeque<Split<String>> {
        (end - len..end)
            .map(|i| Split::from_records(i as u64 + 1, self.pool[i % self.pool.len()].clone()))
            .collect()
    }

    /// The next `n` splits; the oldest `evict` leave the tracked window.
    fn take(&mut self, n: usize, evict: usize) -> Vec<Split<String>> {
        self.window.drain(..evict);
        let splits: Vec<Split<String>> = (0..n)
            .map(|_| {
                let records = self.pool[self.next_pool % self.pool.len()].clone();
                self.next_pool += 1;
                self.next_id += 1;
                Split::from_records(self.next_id, records)
            })
            .collect();
        self.window.extend(splits.iter().cloned());
        splits
    }
}

/// The window's output recounted from scratch with HCT's own `map` and
/// `reduce`.
pub fn brute_force(window: &VecDeque<Split<String>>) -> BTreeMap<String, u64> {
    let app = Hct::new();
    let mut parts: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for split in window {
        for record in split.records() {
            app.map(record, &mut |k, v| parts.entry(k).or_default().push(v));
        }
    }
    parts
        .into_iter()
        .map(|(k, vs)| {
            let refs: Vec<&u64> = vs.iter().collect();
            let out = app.reduce(&k, &refs);
            (k, out)
        })
        .collect()
}

/// The window's output from a `Recompute` twin job.
pub fn recompute_twin(window: &VecDeque<Split<String>>) -> Result<BTreeMap<String, u64>, String> {
    let mut twin = WindowedJob::new(
        Hct::new(),
        JobConfig::new(ExecMode::Recompute)
            .with_partitions(PARTITIONS)
            .with_threads(1),
    )
    .map_err(|e| e.to_string())?;
    twin.initial_run(window.iter().cloned().collect())
        .map_err(|e| e.to_string())?;
    Ok(twin.output().clone())
}

/// What one phase measured.
struct Phase {
    timeline: Timeline,
    setup_s: Vec<f64>,
    /// Peak resident memory when the timed loop ended, before the output
    /// checks.
    peak_rss_mib: f64,
}

/// Builds the job and fills its window as often as `set_ups` says (each
/// timed as set-up; the last one is kept), warms it up, slides in a closed
/// loop for `seconds`, sets up as often again when untraced, then checks
/// the output.
fn phase<A: HctLike>(
    app: impl Fn() -> A,
    base: &Feed,
    scale: &Scale,
    seconds: f64,
    set_ups: SetUps,
    mut tracing: Option<&mut Tracing>,
    r: &mut Report,
) -> Phase {
    let set_up = || {
        let mut feed = base.restart();
        let mut job = WindowedJob::new(app(), config()).expect("the job config is valid");
        job.initial_run(feed.take(scale.window_splits, 0))
            .expect("the initial run succeeds");
        (job, feed)
    };
    let ((mut job, mut feed), mut setup_s) = repeat_set_up(set_ups, &set_up);
    for _ in 0..scale.warmup_slides {
        let added = feed.take(scale.slide_splits, scale.slide_splits);
        job.advance(scale.slide_splits, added)
            .expect("warm-up slides succeed");
    }
    if let Some(t) = tracing.as_deref_mut() {
        t.meter.take();
        t.meter.take_intervals();
    }

    let mut timeline = Timeline::for_seconds(seconds);
    let mut checking = Duration::ZERO;
    let mut footprint = Vec::with_capacity(updates_room(seconds));
    // Window positions and output digests at sampled slides, checked
    // against a recompute twin after the timed loop so that neither the
    // twins nor copies of the window count toward the peak memory.
    let mut sampled = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut update = 0u64;
    while start.elapsed().saturating_sub(checking) < budget {
        let added = feed.take(scale.slide_splits, scale.slide_splits);
        let count: usize = added.iter().map(Split::len).sum();
        let t0 = Instant::now();
        let result = job.advance(scale.slide_splits, added);
        let t1 = Instant::now();
        r.attempted += 1;
        update += 1;
        let mut records = 0;
        match result {
            Ok(stats) => {
                records = count as u64;
                footprint.push([stats.window_input_bytes, stats.memo_footprint_bytes]);
                if let Some(t) = tracing.as_deref_mut() {
                    let id = t.spans.record("mapreduce.advance", t0, t1, None, update);
                    let covered = t.spans.record_apps(id, &t.meter);
                    t.acc.absorb_update(
                        u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX),
                        covered,
                        t.meter.take(),
                    );
                    t.acc.absorb_run(&stats);
                }
            }
            Err(e) => {
                r.failed += 1;
                r.note(format!("slide {update} failed: {e}"));
            }
        }
        timeline.push(Update {
            at: (t1 - start).saturating_sub(checking),
            latency: t1 - t0,
            busy: t1 - t0,
            records,
        });
        if update.is_multiple_of(scale.check_every as u64) {
            let c0 = Instant::now();
            sampled.push((update, feed.next_pool, digest(job.output())));
            checking += c0.elapsed();
        }
    }
    timeline.finish(start.elapsed().saturating_sub(checking));
    let peak_rss_mib = peak_rss_mib();
    if tracing.is_none() {
        // More set-ups, now that the host may run faster or slower than
        // when the run began (see `Report::set_end_to_end`).
        setup_s.extend(repeat_set_up(set_ups, &set_up).1);
    }

    for (slide, end, output) in sampled {
        let window = feed.window_ending_at(end, scale.window_splits);
        let result = recompute_twin(&window).and_then(|want| {
            if digest(&want) == output {
                Ok(())
            } else {
                Err(format!(
                    "slide {slide}: output differs from the recompute twin"
                ))
            }
        });
        r.check("recompute twin at a sampled slide", result);
    }
    r.check(
        "final output equals a brute-force recount",
        same_output(job.output(), &brute_force(&feed.window)),
    );
    r.check(
        "final output equals a recompute twin",
        recompute_twin(&feed.window).and_then(|want| same_output(job.output(), &want)),
    );
    r.check("window and memo footprint stay flat", flat(&footprint));
    if let Some(t) = tracing {
        t.acc.set_footprint(job.memo_footprint_bytes());
    }
    Phase {
        timeline,
        setup_s,
        peak_rss_mib,
    }
}

/// Steady-state guard: the window's input bytes and the memoization
/// footprint over the last tenth of the timed slides are within 2% of
/// their values over the first tenth.
fn flat(footprint: &[[u64; 2]]) -> Result<(), String> {
    let tenth = footprint.len() / 10;
    if tenth == 0 {
        return Ok(());
    }
    let head = &footprint[..tenth];
    let tail = &footprint[footprint.len() - tenth..];
    for (col, what) in ["window bytes", "memo footprint"].into_iter().enumerate() {
        let mean =
            |part: &[[u64; 2]]| part.iter().map(|p| p[col]).sum::<u64>() as f64 / part.len() as f64;
        let (a, b) = (mean(head), mean(tail));
        if (b - a).abs() > 0.02 * a.max(1.0) {
            return Err(format!("{what} drifted from {a:.0} to {b:.0}"));
        }
    }
    Ok(())
}

/// Runtime batches per slide, read from the engine's own trace counter
/// on a separate, traced twin (kept out of every timed phase).
fn runtime_batches(base: &Feed, scale: &Scale) -> f64 {
    let sink = TraceSink::enabled();
    let mut feed = base.restart();
    let mut job = WindowedJob::new(Hct::new(), config().with_trace(sink.clone()))
        .expect("the job config is valid");
    job.initial_run(feed.take(scale.window_splits, 0))
        .expect("the initial run succeeds");
    let before = trace_counter(&sink, "runtime.batches");
    let slides = 20;
    for _ in 0..slides {
        let added = feed.take(scale.slide_splits, scale.slide_splits);
        job.advance(scale.slide_splits, added)
            .expect("slides succeed");
    }
    (trace_counter(&sink, "runtime.batches") - before) as f64 / slides as f64
}

pub fn run(args: &Args, r: &mut Report) {
    let scale = if args.toy {
        Scale::toy()
    } else {
        Scale::full()
    };
    let feed = Feed::new(args.seed, &scale);
    if !args.trace {
        let p = phase(
            Hct::new,
            &feed,
            &scale,
            args.seconds,
            scale.set_ups,
            None,
            r,
        );
        r.set_end_to_end(&p.timeline, &p.setup_s, p.peak_rss_mib);
        return;
    }
    let untraced = phase(
        Hct::new,
        &feed,
        &scale,
        args.seconds * 0.25,
        SetUps::ONCE,
        None,
        r,
    );
    let mut tracing = Tracing::default();
    let meter = Arc::clone(&tracing.meter);
    let app = || Timed::new(Hct::new(), &meter);
    let seconds = args.seconds * 0.75;
    let traced = phase(
        app,
        &feed,
        &scale,
        seconds,
        SetUps::ONCE,
        Some(&mut tracing),
        r,
    );
    report_event(r, Default::default(), tracing.acc.updates);
    r.set(
        "mapreduce.runtime_batches",
        runtime_batches(&feed, &scale),
        "count",
    );
    let overhead = traced.timeline.p50_ms() / untraced.timeline.p50_ms();
    tracing.finish(args, r, 1, PARTITIONS, overhead);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slid_job() -> (WindowedJob<Hct>, Feed) {
        let scale = Scale::toy();
        let mut feed = Feed::new(7, &scale);
        let mut job = WindowedJob::new(Hct::new(), config()).unwrap();
        job.initial_run(feed.take(scale.window_splits, 0)).unwrap();
        for _ in 0..5 {
            let added = feed.take(scale.slide_splits, scale.slide_splits);
            job.advance(scale.slide_splits, added).unwrap();
        }
        (job, feed)
    }

    #[test]
    fn output_checks_accept_the_real_output_and_reject_an_altered_one() {
        let (job, feed) = slid_job();
        let brute = brute_force(&feed.window);
        let twin = recompute_twin(&feed.window).unwrap();
        assert_eq!(same_output(job.output(), &brute), Ok(()));
        assert_eq!(same_output(job.output(), &twin), Ok(()));

        let mut altered = job.output().clone();
        *altered.values_mut().next().unwrap() += 1;
        assert!(same_output(&altered, &brute).is_err());
        assert!(same_output(&altered, &twin).is_err());
        let mut missing = job.output().clone();
        missing.pop_last();
        assert!(same_output(&missing, &brute).is_err());
        let mut extra = job.output().clone();
        extra.insert("not-a-word".into(), 1);
        assert!(same_output(&extra, &twin).is_err());
    }

    #[test]
    fn a_rebuilt_window_equals_the_tracked_one() {
        let (job, feed) = slid_job();
        let rebuilt = feed.window_ending_at(feed.next_pool, feed.window.len());
        let ids = |w: &VecDeque<Split<String>>| w.iter().map(Split::id).collect::<Vec<_>>();
        assert_eq!(ids(&rebuilt), ids(&feed.window));
        assert_eq!(
            recompute_twin(&rebuilt).unwrap(),
            recompute_twin(&feed.window).unwrap()
        );
        assert_eq!(
            digest(&recompute_twin(&rebuilt).unwrap()),
            digest(job.output())
        );
    }

    #[test]
    fn steady_state_guard_rejects_a_growing_footprint() {
        let steady: Vec<[u64; 2]> = (0..100).map(|i| [1000 + i % 3, 500]).collect();
        assert_eq!(flat(&steady), Ok(()));
        let growing: Vec<[u64; 2]> = (0..100).map(|i| [1000, 500 + 10 * i]).collect();
        assert!(flat(&growing).is_err());
    }
}
