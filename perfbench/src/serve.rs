//! `serve-6tenant`: one `ServiceRuntime<Hct>` on one `EngineShared` with
//! two runtime threads, the paper's cache and a shared clock, six tenants
//! (one per mode, the randomized one hot) fed by `multitenant_stream` in
//! an open loop at a fixed offered rate, with periodic snapshots.

use std::sync::Arc;
use std::time::{Duration, Instant};

use slider_apps::Hct;
use slider_dcache::CacheConfig;
use slider_mapreduce::{
    EngineShared, EventFeeder, EventTimeConfig, EventTimeStats, ExecMode, JobConfig,
    SimulationConfig, Stamped, TraceSink, WindowedJob,
};
use slider_serve::{ServiceRuntime, TenantId, TenantSpec};
use slider_workloads::disorder::DisorderConfig;
use slider_workloads::multitenant::{multitenant_stream, MultiTenantConfig, TenantRequest};

use crate::layers::{event_delta, event_sum, report_event};
use crate::measure::{
    median_f64, peak_rss_mib, repeat_set_up, wait_until, Report, Samples, SetUps, Timeline, Update,
};
use crate::slide::HctLike;
use crate::spans::Timed;
use crate::{same_output, trace_counter, Args, Tracing};

const PARTITIONS: usize = 4;
const THREADS: usize = 2;
/// Offered load, in requests per second (also in `workloads.json`): a
/// sixth of the rate the service sustained without a growing send lag
/// (about 1800 per second on a 2-vCPU virtual machine).
pub const OFFERED_RATE: f64 = 300.0;

/// A tenant's name and execution mode.
type Mode = (&'static str, fn() -> ExecMode);

/// The six tenants: one per mode; tenant 1 (randomized) is the hot one.
const MODES: [Mode; 6] = [
    ("folding", ExecMode::slider_folding),
    ("randomized", ExecMode::slider_randomized),
    ("daba", ExecMode::slider_daba),
    ("daba_lite", ExecMode::slider_daba_lite),
    ("strawman", || ExecMode::Strawman),
    ("recompute", || ExecMode::Recompute),
];
/// A sender that wakes up this much later than due, while it was idle, was
/// paused by its host (see `phase`).
const HOST_PAUSE: Duration = Duration::from_millis(1);
const HOT_TENANT: usize = 1;
/// The hot tenant sends this many times the others' requests.
const HOT_FACTOR: usize = 3;

/// Workload geometry; `full` is the benchmark, `toy` the self-test size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    rate: f64,
    fill_requests: usize,
    set_ups: SetUps,
    snapshot_every: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            rate: OFFERED_RATE,
            fill_requests: 400,
            set_ups: SetUps {
                min_reps: 9,
                seconds: 2.0,
            },
            snapshot_every: 250,
        }
    }

    pub fn toy() -> Self {
        Scale {
            rate: 400.0,
            fill_requests: 40,
            set_ups: SetUps {
                min_reps: 2,
                seconds: 0.0,
            },
            snapshot_every: 25,
        }
    }
}

fn event() -> EventTimeConfig {
    EventTimeConfig {
        epoch_len: 24,
        records_per_split: 4,
        window_epochs: Some(8),
        lateness: 8,
    }
}

/// Traffic with arrival jitter (24 ticks) beyond the tenants' lateness
/// (8), so some records take the late-splice path.
///
/// `multitenant_stream` gives every tenant the same mean arrival gap, so
/// the hot tenant's extra requests would all arrive after the others'
/// last ones. Its arrival ticks are divided by the hot factor, which
/// spreads them over the same span: throughout the stream the hot tenant
/// sends 3 of every 8 requests and each other tenant 1 of 8. The order of
/// each tenant's own requests is unchanged.
fn traffic(seed: u64, requests: usize) -> Vec<TenantRequest> {
    let weight = MODES.len() - 1 + HOT_FACTOR;
    let config = MultiTenantConfig {
        tenants: MODES.len(),
        requests_per_tenant: requests.div_ceil(weight),
        records_per_request: 6,
        stream: DisorderConfig {
            records: 0,
            mean_step: 2,
            lateness: 24,
            vocabulary: 30,
        },
        hot_tenant: Some(HOT_TENANT),
        hot_factor: HOT_FACTOR,
        mean_arrival_gap: 4,
    };
    let mut stream = multitenant_stream(seed, &config);
    for request in stream.iter_mut().filter(|r| r.tenant == HOT_TENANT) {
        request.arrival /= HOT_FACTOR as u64;
    }
    stream.sort_by_key(|r| (r.arrival, r.tenant, r.index));
    stream
}

fn stamp(request: &TenantRequest) -> Vec<Stamped<String>> {
    request
        .records
        .iter()
        .map(|(t, s, line)| Stamped::new(*t, *s, line.clone()))
        .collect()
}

fn engine(trace: TraceSink) -> EngineShared {
    EngineShared::builder()
        .threads(THREADS)
        .cache(CacheConfig::paper_defaults(PARTITIONS))
        .clock()
        .trace(trace)
        .build()
}

/// Builds the service and registers the six tenants.
fn service<A: HctLike>(
    app: &impl Fn() -> A,
    trace: TraceSink,
) -> (ServiceRuntime<A>, Vec<TenantId>) {
    let mut service = ServiceRuntime::new(engine(trace));
    let ids = MODES
        .iter()
        .map(|(name, mode)| {
            let spec = TenantSpec::new(*name, mode(), event())
                .with_partitions(PARTITIONS)
                .with_simulation(SimulationConfig::paper_defaults());
            service
                .register(app(), spec)
                .expect("tenant specs are valid")
        })
        .collect();
    (service, ids)
}

fn event_total<A: HctLike>(service: &ServiceRuntime<A>, ids: &[TenantId]) -> EventTimeStats {
    ids.iter().fold(EventTimeStats::default(), |acc, id| {
        event_sum(acc, service.query(*id).expect("registered").event)
    })
}

/// Each tenant's output equals a standalone `EventFeeder` twin fed the
/// same requests in the same chunks.
pub fn check_twins<A: HctLike>(
    service: &ServiceRuntime<A>,
    ids: &[TenantId],
    sent: &[&TenantRequest],
) -> Result<(), String> {
    for (tenant, (name, mode)) in MODES.iter().enumerate() {
        let config = JobConfig::new(mode())
            .with_partitions(PARTITIONS)
            .with_threads(1);
        let job = WindowedJob::new(Hct::new(), config).map_err(|e| e.to_string())?;
        let mut twin = EventFeeder::new(job, event()).map_err(|e| e.to_string())?;
        for request in sent.iter().filter(|r| r.tenant == tenant) {
            twin.ingest(stamp(request));
            twin.flush().map_err(|e| format!("twin {name}: {e}"))?;
        }
        let served = service.query(ids[tenant]).map_err(|e| e.to_string())?;
        same_output(served.output, twin.output()).map_err(|e| format!("tenant {name}: {e}"))?;
    }
    Ok(())
}

/// What one phase measured.
struct Phase {
    timeline: Timeline,
    lag: Samples,
    /// Time inside `ingest` alone.
    ingest: Duration,
    setup_s: Vec<f64>,
    /// Peak resident memory when the timed loop ended, before the twin
    /// check.
    peak_rss_mib: f64,
    snapshot_ns: Vec<f64>,
    runs: u64,
    admitted: u64,
    event: EventTimeStats,
}

/// Builds the service and sends the fill requests as often as `set_ups`
/// says (each timed as set-up; the last one is kept), sends requests at
/// the offered rate for `seconds` of schedule, sets up as often again when
/// untraced, then checks every tenant against its twin.
fn phase<A: HctLike>(
    app: impl Fn() -> A,
    traffic: &[TenantRequest],
    scale: &Scale,
    seconds: f64,
    set_ups: SetUps,
    mut tracing: Option<&mut Tracing>,
    r: &mut Report,
) -> Phase {
    let fill = scale.fill_requests.min(traffic.len());
    let set_up = || {
        let (mut svc, ids) = service(&app, TraceSink::disabled());
        for request in &traffic[..fill] {
            svc.ingest(ids[request.tenant], request.arrival, stamp(request))
                .expect("fill requests are served");
        }
        (svc, ids)
    };
    let ((mut svc, ids), mut setup_s) = repeat_set_up(set_ups, &set_up);
    if let Some(t) = tracing.as_deref_mut() {
        t.meter.take();
        t.meter.take_intervals();
    }
    let event_before = event_total(&svc, &ids);

    let mut timeline = Timeline::for_seconds(seconds);
    let mut lag = Samples::default();
    let mut ingest = Duration::ZERO;
    let mut snapshot_ns = Vec::new();
    let (mut runs, mut admitted) = (0u64, 0u64);
    let mut sent: Vec<&TenantRequest> = traffic[..fill].iter().collect();
    let gap = Duration::from_secs_f64(1.0 / scale.rate);
    let budget = Duration::from_secs_f64(seconds);
    // Time taken out of the schedule because the host paused the sender.
    let mut paused = Duration::ZERO;
    let mut pauses = 0u32;
    let start = Instant::now();
    for (i, request) in traffic[fill..].iter().enumerate() {
        let slot = gap * u32::try_from(i).expect("request count fits u32");
        if slot >= budget {
            break;
        }
        let due = start + paused + slot;
        let batch = stamp(request);
        let ready = Instant::now().max(due);
        wait_until(due);
        let t0 = Instant::now();
        // Waking up later than `ready` is not queueing: the sender was idle
        // and the host did not run it. The sender and the service share
        // one virtual machine, which stalls for up to hundreds of
        // milliseconds at times; a stretch longer than `HOST_PAUSE` is
        // taken out of the schedule, as if the clock had stopped.
        let overslept = t0 - ready;
        let due = if overslept > HOST_PAUSE {
            paused += overslept;
            pauses += 1;
            due + overslept
        } else {
            due
        };
        let outcome = svc.ingest(ids[request.tenant], request.arrival, batch);
        let t1 = Instant::now();
        lag.push(t0 - due);
        ingest += t1 - t0;
        r.attempted += 1;
        sent.push(request);
        let mut records = 0;
        match outcome {
            Ok(outcome) if outcome.decision.is_admitted() => {
                admitted += 1;
                records = request.records.len() as u64;
                runs += outcome.runs.len() as u64;
                if let Some(t) = tracing.as_deref_mut() {
                    let id = t.spans.record("serve.ingest", t0, t1, None, i as u64);
                    let covered = t.spans.record_apps(id, &t.meter);
                    t.acc.absorb_update(
                        u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX),
                        covered,
                        t.meter.take(),
                    );
                    for run in &outcome.runs {
                        t.acc.absorb_run(run);
                    }
                }
            }
            Ok(outcome) => {
                r.failed += 1;
                r.note(format!("request {i} refused: {:?}", outcome.decision));
            }
            Err(e) => {
                r.failed += 1;
                r.note(format!("request {i} failed: {e}"));
            }
        }
        let mut busy = t1 - t0;
        if (i + 1) % scale.snapshot_every == 0 {
            let s0 = Instant::now();
            std::hint::black_box(svc.snapshot());
            let s1 = Instant::now();
            busy += s1 - s0;
            snapshot_ns.push((s1 - s0).as_nanos() as f64);
            if let Some(t) = tracing.as_deref_mut() {
                t.spans.record("serve.snapshot", s0, s1, None, i as u64);
            }
        }
        timeline.push(Update {
            at: (t1 - start).saturating_sub(paused),
            latency: t1 - due,
            busy,
            records,
        });
    }
    timeline.finish(start.elapsed().saturating_sub(paused));
    r.note(format!(
        "host pauses taken out of the schedule: {pauses}, {:.1} ms in all",
        paused.as_secs_f64() * 1e3
    ));
    let peak_rss_mib = peak_rss_mib();
    if tracing.is_none() {
        // More set-ups, now that the host may run faster or slower than
        // when the run began (see `Report::set_end_to_end`).
        setup_s.extend(repeat_set_up(set_ups, &set_up).1);
    }
    let event = event_delta(event_before, event_total(&svc, &ids));
    r.check(
        "every tenant equals its standalone twin",
        check_twins(&svc, &ids, &sent),
    );
    if let Some(t) = tracing {
        let footprint = ids
            .iter()
            .map(|id| svc.tenant_stats(*id).map_or(0, |s| s.memo_footprint_bytes))
            .sum();
        t.acc.set_footprint(footprint);
    }
    Phase {
        timeline,
        lag,
        ingest,
        setup_s,
        peak_rss_mib,
        snapshot_ns,
        runs,
        admitted,
        event,
    }
}

/// The `q` quantile of the send lag, in milliseconds, over the first and
/// the last tenth of the timed requests: a backlog shows as a growing lag.
fn lag_ends(lag: &Samples, q: f64) -> (f64, f64) {
    let tenth = (lag.len() / 10).max(1);
    let end = lag.len().saturating_sub(tenth);
    (
        lag.slice(0, tenth).percentile_ms(q),
        lag.slice(end, lag.len()).percentile_ms(q),
    )
}

/// Runtime batches per request, read from the engine's own trace counter
/// on a separate, traced service (kept out of every timed phase).
fn runtime_batches(traffic: &[TenantRequest], scale: &Scale) -> f64 {
    let sink = TraceSink::enabled();
    let (mut svc, ids) = service(&Hct::new, sink.clone());
    let fill = scale.fill_requests.min(traffic.len());
    let sample = &traffic[fill..(fill + 50).min(traffic.len())];
    for request in &traffic[..fill] {
        svc.ingest(ids[request.tenant], request.arrival, stamp(request))
            .expect("fill requests are served");
    }
    let before = trace_counter(&sink, "runtime.batches");
    for request in sample {
        svc.ingest(ids[request.tenant], request.arrival, stamp(request))
            .expect("requests are served");
    }
    (trace_counter(&sink, "runtime.batches") - before) as f64 / sample.len().max(1) as f64
}

/// Serve metrics for workloads that do not use the service.
pub fn report_idle(r: &mut Report) {
    for name in [
        "serve.ingest_ns",
        "serve.runs_per_request",
        "serve.admitted_ratio",
        "serve.snapshot_ns",
    ] {
        let unit = match name {
            "serve.runs_per_request" => "count",
            "serve.admitted_ratio" => "ratio",
            _ => "ns",
        };
        r.set(name, 0.0, unit);
    }
    for name in [
        "serve.send_lag_ms_p99",
        "serve.send_lag_ms_start",
        "serve.send_lag_ms_end",
    ] {
        r.set(name, 0.0, "ms");
    }
}

pub fn run(args: &Args, r: &mut Report) {
    let mut scale = if args.toy {
        Scale::toy()
    } else {
        Scale::full()
    };
    if let Some(rate) = args.rate {
        scale.rate = rate;
    }
    // Enough requests for the fill and the whole timed phase at the
    // offered rate, with headroom.
    let wanted = scale.fill_requests + (scale.rate * args.seconds * 1.1) as usize + 64;
    let traffic = traffic(args.seed, wanted);
    r.note(format!(
        "offered rate {} req/s, {} tenants, {} requests generated",
        scale.rate,
        MODES.len(),
        traffic.len()
    ));
    if !args.trace {
        let p = phase(
            Hct::new,
            &traffic,
            &scale,
            args.seconds,
            scale.set_ups,
            None,
            r,
        );
        let (lag_start, lag_end) = lag_ends(&p.lag, 0.99);
        r.note(format!(
            "send lag p99: {lag_start:.3} ms at the start, {lag_end:.3} ms at the end"
        ));
        let (median_start, median_end) = lag_ends(&p.lag, 0.5);
        if median_end > 1.0 && median_end > 10.0 * median_start {
            r.note(format!(
                "send lag is growing (median {median_start:.3} ms at the start, \
                 {median_end:.3} ms at the end): the offered rate is not sustained"
            ));
        }
        r.set_end_to_end(&p.timeline, &p.setup_s, p.peak_rss_mib);
        return;
    }
    let untraced = phase(
        Hct::new,
        &traffic,
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
    let p = phase(
        app,
        &traffic,
        &scale,
        seconds,
        SetUps::ONCE,
        Some(&mut tracing),
        r,
    );
    let requests = p.timeline.len().max(1) as f64;
    report_event(r, p.event, p.timeline.len() as u64);
    r.set(
        "mapreduce.runtime_batches",
        runtime_batches(&traffic, &scale),
        "count",
    );
    r.set(
        "serve.ingest_ns",
        p.ingest.as_nanos() as f64 / requests,
        "ns",
    );
    r.set("serve.runs_per_request", p.runs as f64 / requests, "count");
    r.set(
        "serve.admitted_ratio",
        p.admitted as f64 / requests,
        "ratio",
    );
    r.set("serve.snapshot_ns", median_f64(&p.snapshot_ns), "ns");
    r.set("serve.send_lag_ms_p99", p.lag.percentile_ms(0.99), "ms");
    let (lag_start, lag_end) = lag_ends(&p.lag, 0.99);
    r.set("serve.send_lag_ms_start", lag_start, "ms");
    r.set("serve.send_lag_ms_end", lag_end, "ms");
    let overhead = p.timeline.p50_ms() / untraced.timeline.p50_ms();
    tracing.finish(args, r, THREADS, PARTITIONS, overhead);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twin_check_accepts_the_served_output_and_rejects_an_altered_one() {
        let traffic = traffic(5, 120);
        let (mut svc, ids) = service(&Hct::new, TraceSink::disabled());
        let (sent, rest) = traffic.split_at(100);
        for request in sent {
            let outcome = svc
                .ingest(ids[request.tenant], request.arrival, stamp(request))
                .unwrap();
            assert!(outcome.decision.is_admitted());
        }
        let sent: Vec<&TenantRequest> = sent.iter().collect();
        assert_eq!(check_twins(&svc, &ids, &sent), Ok(()));

        // One request the twins never see alters the served outputs.
        let extra = rest
            .iter()
            .find(|r| !r.records.is_empty())
            .expect("the stream has more requests");
        for _ in 0..40 {
            svc.ingest(ids[extra.tenant], extra.arrival, stamp(extra))
                .unwrap();
        }
        assert!(check_twins(&svc, &ids, &sent).is_err());
    }

    #[test]
    fn hot_tenant_sends_three_of_eight_requests_throughout() {
        let requests = 8_000;
        let stream = traffic(3, requests);
        // The timed phase never reaches the last tenth (it generates 10%
        // more requests than it sends).
        for part in stream[..requests * 9 / 10].chunks(requests / 10) {
            let hot = part.iter().filter(|r| r.tenant == HOT_TENANT).count();
            let share = hot as f64 / part.len() as f64;
            assert!((0.32..0.43).contains(&share), "hot share {share}");
            for tenant in (0..MODES.len()).filter(|t| *t != HOT_TENANT) {
                let n = part.iter().filter(|r| r.tenant == tenant).count();
                let share = n as f64 / part.len() as f64;
                assert!(
                    (0.09..0.16).contains(&share),
                    "tenant {tenant} share {share}"
                );
            }
        }
        for tenant in 0..MODES.len() {
            let indexes: Vec<usize> = stream
                .iter()
                .filter(|r| r.tenant == tenant)
                .map(|r| r.index)
                .collect();
            assert!(indexes.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn offered_rate_matches_workloads_json() {
        let json = include_str!("../workloads.json");
        assert!(json.contains(&format!("\"offered_rate_per_s\": {OFFERED_RATE}")));
    }
}
