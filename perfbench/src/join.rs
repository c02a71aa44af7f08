//! `join-followpost`: one `JoinedJob<FollowPostJoin>` over the twitter
//! generator (follow events ⋈ URL posts), 64-tick epochs, a 32-epoch
//! window, lateness 4, folding side indexes on one thread, polled once
//! per epoch in a closed loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use slider_apps::FollowPostJoin;
use slider_join::{JoinApp, JoinConfig, JoinedJob};
use slider_mapreduce::{EngineShared, EventTimeConfig, ExecMode, Stamped, TraceSink};
use slider_workloads::twitter::{follow_stream, generate, FollowEvent, Tweet, TwitterConfig};

use crate::layers::{event_delta, event_sum, report_event};
use crate::measure::{peak_rss_mib, repeat_set_up, Report, SetUps, Timeline, Update};
use crate::spans::Timed;
use crate::{trace_counter, Args, Tracing};

const PARTITIONS: usize = 4;
const EPOCH: u64 = 64;

/// An app with `FollowPostJoin`'s types: the plain app or its decorator.
pub trait FollowPostLike: JoinApp<Key = u32, Left = FollowEvent, Right = Tweet> {}
impl<J: JoinApp<Key = u32, Left = FollowEvent, Right = Tweet>> FollowPostLike for J {}

/// Workload geometry; `full` is the benchmark, `toy` the self-test size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    users: u32,
    tweets: usize,
    window_epochs: usize,
    set_ups: SetUps,
    check_every: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            users: 2_000,
            tweets: 50_000,
            window_epochs: 32,
            set_ups: SetUps {
                min_reps: 9,
                seconds: 2.0,
            },
            check_every: 250,
        }
    }

    pub fn toy() -> Self {
        Scale {
            users: 100,
            tweets: 2_000,
            window_epochs: 4,
            set_ups: SetUps {
                min_reps: 2,
                seconds: 0.0,
            },
            check_every: 10,
        }
    }
}

fn event(scale: &Scale) -> EventTimeConfig {
    EventTimeConfig {
        epoch_len: EPOCH,
        records_per_split: 64,
        window_epochs: Some(scale.window_epochs),
        lateness: 4,
    }
}

/// The generated streams, replayed pass after pass with event times
/// shifted by `span` so that polling never runs out of input.
pub struct Streams {
    follows: Vec<FollowEvent>,
    tweets: Vec<Tweet>,
    /// One pass, a whole number of epochs.
    span: u64,
    /// Per epoch of a pass: index ranges into `follows` and `tweets`.
    epochs: Vec<(std::ops::Range<usize>, std::ops::Range<usize>)>,
}

impl Streams {
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let config = TwitterConfig {
            users: scale.users,
            ..TwitterConfig::default()
        };
        let dataset = generate(seed, &config, scale.tweets);
        let last = dataset.tweets.last().map_or(0, |t| t.time);
        let span = (last + 1).div_ceil(EPOCH) * EPOCH;
        let follows = follow_stream(seed ^ 0xf011, &dataset.graph, 4 * scale.tweets, span);
        let tweets = dataset.tweets;
        let epochs = (0..span / EPOCH)
            .map(|e| {
                let (lo, hi) = (e * EPOCH, (e + 1) * EPOCH);
                (
                    follows.partition_point(|f| f.time < lo)
                        ..follows.partition_point(|f| f.time < hi),
                    tweets.partition_point(|t| t.time < lo)
                        ..tweets.partition_point(|t| t.time < hi),
                )
            })
            .collect();
        Streams {
            follows,
            tweets,
            span,
            epochs,
        }
    }

    /// The records of virtual epoch `k`, stamped with shifted times and
    /// sequence numbers unique across passes.
    fn epoch(&self, k: u64) -> (Vec<Stamped<FollowEvent>>, Vec<Stamped<Tweet>>) {
        let per_pass = self.epochs.len() as u64;
        let (pass, e) = (k / per_pass, k % per_pass);
        let shift = pass * self.span;
        let (fr, tr) = &self.epochs[usize::try_from(e).expect("epoch index fits")];
        let left = fr
            .clone()
            .map(|i| {
                let ev = &self.follows[i];
                let seq = pass * self.follows.len() as u64 + i as u64;
                let time = ev.time + shift;
                Stamped::new(time, seq, FollowEvent { time, ..ev.clone() })
            })
            .collect();
        let right = tr
            .clone()
            .map(|i| {
                let tw = &self.tweets[i];
                let seq = pass * self.tweets.len() as u64 + i as u64;
                let time = tw.time + shift;
                Stamped::new(time, seq, Tweet { time, ..tw.clone() })
            })
            .collect();
        (left, right)
    }
}

fn job<J: FollowPostLike>(app: J, shared: &EngineShared, scale: &Scale) -> JoinedJob<J> {
    let config = JoinConfig::new(event(scale))
        .with_partitions(PARTITIONS)
        .with_exec(ExecMode::slider_folding());
    JoinedJob::new(app, config, shared).expect("the join config is valid")
}

fn engine(trace: TraceSink) -> EngineShared {
    EngineShared::builder().threads(1).trace(trace).build()
}

/// The incremental view equals the brute-force cross product of the
/// current windows.
pub fn check_view<J: FollowPostLike>(job: &JoinedJob<J>) -> Result<(), String> {
    crate::same_output(job.view(), &job.reference_view())
}

/// Builds the job and fills the window, polling once per epoch.
fn fill<J: FollowPostLike>(
    app: J,
    streams: &Streams,
    scale: &Scale,
    trace: TraceSink,
) -> (JoinedJob<J>, u64) {
    let shared = engine(trace);
    let mut job = job(app, &shared, scale);
    let epochs = scale.window_epochs as u64 + 2;
    for k in 0..epochs {
        let (left, right) = streams.epoch(k);
        job.ingest_left(left);
        job.ingest_right(right);
        job.poll().expect("fill polls succeed");
    }
    (job, epochs)
}

struct Phase {
    timeline: Timeline,
    poll: Duration,
    setup_s: Vec<f64>,
    /// Peak resident memory when the timed loop ended, before the final
    /// check.
    peak_rss_mib: f64,
}

/// Builds the job and fills the window as often as `set_ups` says (each
/// timed as set-up; the last one is kept), polls an epoch at a time in a
/// closed loop for `seconds`, sets up as often again when untraced, then
/// checks the view.
fn phase<J: FollowPostLike>(
    app: impl Fn() -> J,
    streams: &Streams,
    scale: &Scale,
    seconds: f64,
    set_ups: SetUps,
    mut tracing: Option<&mut Tracing>,
    r: &mut Report,
) -> Phase {
    let set_up = || fill(app(), streams, scale, TraceSink::disabled());
    let ((mut job, mut k), mut setup_s) = repeat_set_up(set_ups, &set_up);
    if let Some(t) = tracing.as_deref_mut() {
        t.meter.take();
    }
    let events = |job: &JoinedJob<J>| event_sum(job.left_event_stats(), job.right_event_stats());
    let event_before = events(&job);

    let mut timeline = Timeline::for_seconds(seconds);
    let mut poll = Duration::ZERO;
    let mut checking = Duration::ZERO;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut update = 0u64;
    while start.elapsed().saturating_sub(checking) < budget {
        let (left, right) = streams.epoch(k);
        k += 1;
        let count = (left.len() + right.len()) as u64;
        let t0 = Instant::now();
        job.ingest_left(left);
        job.ingest_right(right);
        let tp = Instant::now();
        let result = job.poll();
        let t1 = Instant::now();
        poll += t1 - tp;
        r.attempted += 1;
        update += 1;
        let mut records = 0;
        match result {
            Ok(run) => {
                records = count;
                if let Some(t) = tracing.as_deref_mut() {
                    let id = t.spans.record("join.update", t0, t1, None, update);
                    t.spans.record("join.ingest", t0, tp, Some(id), update);
                    let poll_id = t.spans.record("join.poll", tp, t1, Some(id), update);
                    let covered = t.spans.record_apps(poll_id, &t.meter);
                    t.acc.absorb_update(
                        u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX),
                        covered,
                        t.meter.take(),
                    );
                    for side in &run.side_runs {
                        t.acc.absorb_run(side);
                    }
                    t.join.absorb(&run.stats);
                }
            }
            Err(e) => {
                r.failed += 1;
                r.note(format!("poll {update} failed: {e:?}"));
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
            r.check(
                "view equals the reference at a sampled poll",
                check_view(&job),
            );
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
    r.check("final view equals the reference", check_view(&job));
    if let Some(t) = tracing {
        let delta = event_delta(event_before, events(&job));
        report_event(r, delta, update);
        t.acc.set_footprint(
            job.left_job().memo_footprint_bytes() + job.right_job().memo_footprint_bytes(),
        );
    }
    Phase {
        timeline,
        poll,
        setup_s,
        peak_rss_mib,
    }
}

/// Runtime batches per poll, read from the engine's own trace counter on
/// a separate, traced job (kept out of every timed phase).
fn runtime_batches(streams: &Streams, scale: &Scale) -> f64 {
    let sink = TraceSink::enabled();
    let (mut job, mut k) = fill(FollowPostJoin, streams, scale, sink.clone());
    let before = trace_counter(&sink, "runtime.batches");
    let polls = 20;
    for _ in 0..polls {
        let (left, right) = streams.epoch(k);
        k += 1;
        job.ingest_left(left);
        job.ingest_right(right);
        job.poll().expect("polls succeed");
    }
    (trace_counter(&sink, "runtime.batches") - before) as f64 / polls as f64
}

/// Join metrics for workloads that do not use the join.
pub fn report_idle(r: &mut Report) {
    r.set("join.poll_ns", 0.0, "ns");
    for name in [
        "join.probes",
        "join.probe_work",
        "join.side_work",
        "join.pairs_changed",
    ] {
        r.set(name, 0.0, "count");
    }
}

pub fn run(args: &Args, r: &mut Report) {
    let scale = if args.toy {
        Scale::toy()
    } else {
        Scale::full()
    };
    let streams = Streams::new(args.seed, &scale);
    let app = || FollowPostJoin;
    if !args.trace {
        let p = phase(app, &streams, &scale, args.seconds, scale.set_ups, None, r);
        r.set_end_to_end(&p.timeline, &p.setup_s, p.peak_rss_mib);
        return;
    }
    let untraced = phase(
        app,
        &streams,
        &scale,
        args.seconds * 0.25,
        SetUps::ONCE,
        None,
        r,
    );
    let mut tracing = Tracing::default();
    let meter = Arc::clone(&tracing.meter);
    let app = || Timed::new(FollowPostJoin, &meter);
    let seconds = args.seconds * 0.75;
    let p = phase(
        app,
        &streams,
        &scale,
        seconds,
        SetUps::ONCE,
        Some(&mut tracing),
        r,
    );
    r.set(
        "mapreduce.runtime_batches",
        runtime_batches(&streams, &scale),
        "count",
    );
    let polls = p.timeline.len().max(1) as f64;
    let j = tracing.join;
    r.set("join.poll_ns", p.poll.as_nanos() as f64 / polls, "ns");
    r.set("join.probes", j.probes as f64 / polls, "count");
    r.set("join.probe_work", j.probe_work as f64 / polls, "count");
    r.set("join.side_work", j.side_work as f64 / polls, "count");
    r.set(
        "join.pairs_changed",
        (j.pairs_added + j.pairs_removed) as f64 / polls,
        "count",
    );
    let overhead = p.timeline.p50_ms() / untraced.timeline.p50_ms();
    tracing.finish(args, r, 1, PARTITIONS, overhead);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_check_accepts_the_real_view_and_rejects_an_altered_one() {
        let scale = Scale::toy();
        let streams = Streams::new(3, &scale);
        let (mut job, mut k) = fill(FollowPostJoin, &streams, &scale, TraceSink::disabled());
        for _ in 0..10 {
            let (left, right) = streams.epoch(k);
            k += 1;
            job.ingest_left(left);
            job.ingest_right(right);
            job.poll().unwrap();
        }
        assert_eq!(check_view(&job), Ok(()));
        let reference = job.reference_view();
        let mut altered = job.view().clone();
        let cell = altered.values_mut().next().expect("the view is not empty");
        cell.weight += 1;
        assert!(crate::same_output(&altered, &reference).is_err());
    }

    #[test]
    fn replayed_passes_shift_times_and_keep_sequence_numbers_unique() {
        let scale = Scale::toy();
        let streams = Streams::new(3, &scale);
        let per_pass = streams.epochs.len() as u64;
        let (a, _) = streams.epoch(1);
        let (b, _) = streams.epoch(1 + per_pass);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(y.time, x.time + streams.span);
            assert_ne!(y.seq, x.seq);
        }
    }
}
