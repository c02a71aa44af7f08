//! Crash-resilience integration: the service under chaos.
//!
//! Three pillars, each proved by bit-identical-twin comparison:
//!
//! 1. **Checkpoint/restore** — crash the service at *every* ingest
//!    boundary of a seeded 3-tenant run, restore from the
//!    [`ServiceSnapshot`] onto a fresh engine, replay the rest: outputs,
//!    decisions, stats, metrics, health and the final snapshot manifest
//!    are bit-identical to an uninterrupted twin, at 1, 2 and 4 worker
//!    threads.
//! 2. **Tenant fault domains** — a tenant whose scripted dispatch faults
//!    trip its circuit breaker leaves every sibling bit-identical to the
//!    no-bad-tenant twin.
//! 3. **Overload shedding** — an arrival burst sheds deterministically,
//!    lowest priority first, with counters that reconcile exactly.
//!
//! The adversarial schedules come from the seeded chaos harness
//! (`slider_workloads::chaos`), so every crash point, burst and fault is
//! reproducible by construction.

use std::collections::BTreeMap;

use slider_apps::Hct;
use slider_dcache::CacheConfig;
use slider_mapreduce::{EngineShared, EventTimeConfig, ExecMode, JobError, Stamped};
use slider_serve::{
    BreakerConfig, DispatchFaultPlan, OverloadConfig, RateLimit, ServeError, ServiceRuntime,
    TenantId, TenantSpec, SNAPSHOT_VERSION,
};
use slider_workloads::chaos::{chaos_plan, ChaosConfig, ChaosEvent};
use slider_workloads::disorder::DisorderConfig;
use slider_workloads::multitenant::{multitenant_stream, MultiTenantConfig};

const PARTITIONS: usize = 4;
const TENANTS: usize = 3;
const SEED: u64 = 0x9e5d;

fn traffic_config() -> MultiTenantConfig {
    MultiTenantConfig {
        tenants: TENANTS,
        requests_per_tenant: 5,
        records_per_request: 4,
        stream: DisorderConfig {
            records: 0, // per-tenant sizes decide
            mean_step: 2,
            lateness: 8,
            vocabulary: 20,
        },
        hot_tenant: None,
        hot_factor: 1,
        mean_arrival_gap: 4,
    }
}

fn event() -> EventTimeConfig {
    EventTimeConfig {
        epoch_len: 16,
        records_per_split: 3,
        window_epochs: Some(3),
        lateness: 8,
    }
}

fn name_of(tenant: usize) -> String {
    format!("tenant{tenant}")
}

/// A mixed-limit tenant population, so snapshots capture non-trivial
/// admission state: tenant 1 carries a rate limiter's DGIM buckets,
/// tenant 2 a quota ledger.
fn spec_of(tenant: usize) -> TenantSpec {
    let spec = TenantSpec::new(name_of(tenant), ExecMode::slider_folding(), event())
        .with_partitions(PARTITIONS);
    match tenant {
        1 => spec.with_rate_limit(RateLimit::new(6, 40)),
        2 => spec.with_record_quota(60),
        _ => spec,
    }
}

fn engine(threads: usize) -> EngineShared {
    EngineShared::builder()
        .threads(threads)
        .cache(CacheConfig::paper_defaults(PARTITIONS))
        .clock()
        .build()
}

fn stamp(records: &[(u64, u64, String)]) -> Vec<Stamped<String>> {
    records
        .iter()
        .map(|(t, s, line)| Stamped::new(*t, *s, line.clone()))
        .collect()
}

/// Everything one run leaves behind, rendered deterministically — the
/// unit of every twin comparison in this file.
fn fingerprint(service: &ServiceRuntime<Hct>, log: &str) -> String {
    let mut out = format!("log:{log}\n");
    for (id, name) in service.tenants() {
        let view = service.query(id).expect("query");
        out.push_str(&format!(
            "tenant {name}: out={:?} event={:?} stats={:?}\n",
            view.output,
            view.event,
            service.tenant_stats(id).expect("stats")
        ));
    }
    out.push_str(&format!("serve:{:?}\n", service.serve_stats()));
    out.push_str(&service.health());
    out.push_str(&service.metrics());
    out.push_str(&service.snapshot().describe());
    out
}

/// Crash/restore driver for pillar 1: serves the whole stream, crashing
/// (snapshot → drop → restore onto a fresh engine) right before request
/// `crash_at` — `None` never crashes, `Some(len)` crashes after the last
/// request.
fn run_with_crash(threads: usize, crash_at: Option<usize>) -> String {
    let traffic = multitenant_stream(SEED, &traffic_config());
    let mut service: ServiceRuntime<Hct> = ServiceRuntime::new(engine(threads));
    let ids: Vec<TenantId> = (0..TENANTS)
        .map(|t| service.register(Hct::new(), spec_of(t)).expect("register"))
        .collect();
    let mut log = String::new();
    for (at, request) in traffic.iter().enumerate() {
        if crash_at == Some(at) {
            let snapshot = service.snapshot();
            drop(service);
            service = ServiceRuntime::restore(engine(threads), &snapshot).expect("restore");
        }
        let outcome = service
            .ingest(
                ids[request.tenant],
                request.arrival,
                stamp(&request.records),
            )
            .expect("ingest");
        log.push_str(&format!("{};{:?};", outcome.decision, outcome.runs));
    }
    if crash_at == Some(traffic.len()) {
        let snapshot = service.snapshot();
        drop(service);
        service = ServiceRuntime::restore(engine(threads), &snapshot).expect("restore");
    }
    fingerprint(&service, &log)
}

/// Pillar 1: crash at every ingest boundary, at every thread count — the
/// restored service is indistinguishable from one that never crashed.
#[test]
fn crash_at_any_boundary_restores_bit_identically() {
    let boundaries = multitenant_stream(SEED, &traffic_config()).len();
    let reference = run_with_crash(1, None);
    assert!(reference.contains("admitted"), "traffic actually flowed");
    for threads in [1, 2, 4] {
        assert_eq!(
            run_with_crash(threads, None),
            reference,
            "uninterrupted, threads={threads}"
        );
        for at in 0..=boundaries {
            assert_eq!(
                run_with_crash(threads, Some(at)),
                reference,
                "crash before request {at}, threads={threads}"
            );
        }
    }
}

/// A snapshot is a value: one capture can seed many twins, and restoring
/// twice from the same capture yields the same service.
#[test]
fn one_snapshot_seeds_many_identical_twins() {
    let traffic = multitenant_stream(SEED, &traffic_config());
    let mut service: ServiceRuntime<Hct> = ServiceRuntime::new(engine(1));
    let ids: Vec<TenantId> = (0..TENANTS)
        .map(|t| service.register(Hct::new(), spec_of(t)).expect("register"))
        .collect();
    for request in traffic.iter().take(traffic.len() / 2) {
        service
            .ingest(
                ids[request.tenant],
                request.arrival,
                stamp(&request.records),
            )
            .expect("ingest");
    }
    let snapshot = service.snapshot();
    let resume = |threads: usize| {
        let mut twin = ServiceRuntime::restore(engine(threads), &snapshot).expect("restore");
        let mut log = String::new();
        for request in traffic.iter().skip(traffic.len() / 2) {
            let outcome = twin
                .ingest(
                    ids[request.tenant],
                    request.arrival,
                    stamp(&request.records),
                )
                .expect("ingest");
            log.push_str(&format!("{};{:?};", outcome.decision, outcome.runs));
        }
        fingerprint(&twin, &log)
    };
    let first = resume(1);
    assert_eq!(resume(1), first, "same capture, same resumed service");
    assert_eq!(resume(4), first, "thread count cannot leak into a resume");
}

/// Restoring a snapshot from a different format version fails with the
/// typed error, before any state is touched.
#[test]
fn version_mismatch_is_a_typed_error() {
    let mut service: ServiceRuntime<Hct> = ServiceRuntime::new(engine(1));
    service.register(Hct::new(), spec_of(0)).expect("register");
    let snapshot = service.snapshot().with_version(SNAPSHOT_VERSION + 1);
    match ServiceRuntime::<Hct>::restore(engine(1), &snapshot) {
        Err(ServeError::SnapshotVersion { expected, got }) => {
            assert_eq!(expected, SNAPSHOT_VERSION);
            assert_eq!(got, SNAPSHOT_VERSION + 1);
        }
        Err(other) => panic!("expected SnapshotVersion error, got {other:?}"),
        Ok(_) => panic!("restore accepted a mismatched snapshot version"),
    }
}

/// Breaker-isolation driver for pillar 2. The bad tenant (1) carries a
/// breaker and, when `faulty`, a scripted fault plan that fails whole
/// dispatches (attempts > the retry budget). The no-bad-tenant twin
/// registers the *same* tenants with an empty fault plan, so namespaces
/// and registration order stay aligned.
fn run_with_bad_tenant(threads: usize, faulty: bool) -> (BTreeMap<usize, String>, String) {
    let traffic = multitenant_stream(SEED, &traffic_config());
    let mut service: ServiceRuntime<Hct> = ServiceRuntime::new(engine(threads));
    let breaker = BreakerConfig {
        failure_threshold: 2,
        cooldown_ticks: 6,
        ..BreakerConfig::default()
    };
    let faults = if faulty {
        // 9 attempts ≫ the default 2-retry budget: dispatches 0–2 fail
        // outright, tripping the threshold-2 breaker.
        DispatchFaultPlan::new().fail(0, 9).fail(1, 9).fail(2, 9)
    } else {
        DispatchFaultPlan::new()
    };
    let ids: Vec<TenantId> = (0..TENANTS)
        .map(|t| {
            let mut spec = spec_of(t);
            if t == 1 {
                spec = spec
                    .with_breaker(breaker.clone())
                    .with_dispatch_faults(faults.clone());
            }
            service.register(Hct::new(), spec).expect("register")
        })
        .collect();
    let mut logs: BTreeMap<usize, String> = (0..TENANTS).map(|t| (t, String::new())).collect();
    for request in &traffic {
        let line = match service.ingest(
            ids[request.tenant],
            request.arrival,
            stamp(&request.records),
        ) {
            Ok(outcome) => format!("{};{:?};", outcome.decision, outcome.runs),
            Err(ServeError::Job(JobError::Injected(msg))) => format!("fail:{msg};"),
            Err(e) => panic!("unexpected error: {e}"),
        };
        logs.get_mut(&request.tenant).unwrap().push_str(&line);
        // Sibling queries between every request: isolation must hold
        // mid-stream, not just at the end.
        for t in (0..TENANTS).filter(|&t| t != 1) {
            let view = service.query(ids[t]).expect("query");
            logs.get_mut(&t).unwrap().push_str(&format!(
                "q:{:?},{};",
                view.watermark,
                view.output.len()
            ));
        }
    }
    let bad = format!(
        "{:?}|{}",
        service.tenant_stats(ids[1]).expect("stats"),
        logs[&1]
    );
    (logs.into_iter().filter(|(t, _)| *t != 1).collect(), bad)
}

/// Pillar 2: the faulted tenant trips its breaker and is quarantined;
/// its siblings are bit-identical to the twin where no tenant was bad.
#[test]
fn breaker_quarantines_without_touching_siblings() {
    let (clean_siblings, clean_bad) = run_with_bad_tenant(1, false);
    let (faulty_siblings, faulty_bad) = run_with_bad_tenant(1, true);
    assert_eq!(
        faulty_siblings, clean_siblings,
        "siblings of the bad tenant must match the no-bad-tenant twin"
    );
    assert_ne!(faulty_bad, clean_bad, "the bad tenant itself diverged");
    // Two trips: the threshold-2 trip on dispatch 1, then the failed
    // half-open probe (dispatch 2, still scripted to fail) re-opening it.
    assert!(
        faulty_bad.contains("breaker_trips: 2"),
        "breaker tripped: {faulty_bad}"
    );
    assert!(
        faulty_bad.contains("breaker-open"),
        "open breaker bounced requests: {faulty_bad}"
    );
    assert!(faulty_bad.contains("fail:dispatch"), "dispatches failed");
    // The whole faulty run is thread-invariant too.
    for threads in [2, 4] {
        assert_eq!(
            run_with_bad_tenant(threads, true),
            (faulty_siblings.clone(), faulty_bad.clone()),
            "faulty run, threads={threads}"
        );
    }
}

/// Faults inside the retry budget recover transparently: the tenant's
/// observable behavior equals the fault-free twin's everywhere but the
/// retry counters and the backoff charged to the clock.
#[test]
fn recoverable_faults_are_invisible_in_outputs() {
    let run = |faults: DispatchFaultPlan| {
        let traffic = multitenant_stream(SEED, &traffic_config());
        let mut service: ServiceRuntime<Hct> = ServiceRuntime::new(engine(1));
        let id = service
            .register(
                Hct::new(),
                spec_of(0)
                    .with_breaker(BreakerConfig::default())
                    .with_dispatch_faults(faults),
            )
            .expect("register");
        for request in traffic.iter().filter(|r| r.tenant == 0) {
            service
                .ingest(id, request.arrival, stamp(&request.records))
                .expect("recoverable faults never fail the dispatch");
        }
        let view = service.query(id).expect("query");
        let stats = *service.tenant_stats(id).expect("stats");
        (format!("{:?}|{:?}", view.output, view.event), stats)
    };
    // Two failing attempts = exactly the default retry budget.
    let (clean, clean_stats) = run(DispatchFaultPlan::new());
    let (faulted, faulted_stats) = run(DispatchFaultPlan::new().fail(0, 2).fail(2, 1));
    assert_eq!(faulted, clean, "recovered dispatches change nothing");
    assert_eq!(faulted_stats.dispatch_retries, 3);
    assert_eq!(faulted_stats.dispatch_failures, 0);
    assert_eq!(clean_stats.dispatch_retries, 0);
    assert_eq!(
        (faulted_stats.admitted, faulted_stats.runs),
        (clean_stats.admitted, clean_stats.runs)
    );
}

/// Overload driver for pillar 3: a tight service-wide record limit, a
/// priority ladder, and an arrival burst from the chaos harness.
fn run_overloaded(threads: usize) -> (Vec<String>, slider_serve::ServeStats, String) {
    let config = ChaosConfig {
        traffic: MultiTenantConfig {
            mean_arrival_gap: 12,
            ..traffic_config()
        },
        crashes: 0,
        churn_cycles: 0,
        bursts: 2,
        burst_len: 5,
        faulty_tenant: None,
        ..ChaosConfig::default()
    };
    let plan = chaos_plan(SEED, &config);
    let mut service: ServiceRuntime<Hct> = ServiceRuntime::new(engine(threads))
        .with_overload(OverloadConfig::new(12, 24))
        .expect("overload config");
    // Priority ladder: tenant 0 sheds first, tenant 2 never sheds but
    // carries a deadline budget that bounces big requests under pressure.
    let ids: Vec<TenantId> = (0..TENANTS)
        .map(|t| {
            let spec = TenantSpec::new(name_of(t), ExecMode::slider_folding(), event())
                .with_partitions(PARTITIONS)
                .with_priority(match t {
                    0 => 0,
                    1 => 5,
                    _ => 255,
                });
            let spec = if t == 2 {
                spec.with_pressure_budget(3)
            } else {
                spec
            };
            service.register(Hct::new(), spec).expect("register")
        })
        .collect();
    let mut decisions = Vec::new();
    let mut records_sent = 0u64;
    for request in plan.requests() {
        records_sent += request.records.len() as u64;
        let outcome = service
            .ingest(
                ids[request.tenant],
                request.arrival,
                stamp(&request.records),
            )
            .expect("ingest");
        decisions.push(format!("t{} {}", request.tenant, outcome.decision));
    }
    let stats = service.serve_stats();
    assert_eq!(
        stats.records_admitted + stats.records_rejected,
        records_sent,
        "every record is accounted admitted or rejected"
    );
    (decisions, stats, service.metrics())
}

/// Pillar 3: the burst drives the service over its record limit; shedding
/// hits the lowest-priority tenant, deadline budgets bounce oversized
/// requests, counters reconcile exactly, and the whole degradation is
/// deterministic across reruns and thread counts.
#[test]
fn overload_sheds_deterministically_with_reconciling_counters() {
    let (decisions, stats, metrics) = run_overloaded(1);
    assert!(stats.shed > 0, "the burst shed someone: {decisions:?}");
    assert!(
        decisions.iter().any(|d| d.starts_with("t0 shed")),
        "the lowest-priority tenant was shed: {decisions:?}"
    );
    assert!(
        !decisions.iter().any(|d| d.starts_with("t2 shed")),
        "priority 255 always clears the overflow: {decisions:?}"
    );
    assert_eq!(
        stats.requests,
        stats.admitted
            + stats.rate_limited
            + stats.over_quota
            + stats.too_large
            + stats.breaker_open
            + stats.shed
            + stats.deadline_exceeded,
        "every request lands in exactly one counter"
    );
    assert!(metrics.contains(&format!("shed={}", stats.shed)));
    for threads in [1, 2, 4] {
        assert_eq!(
            run_overloaded(threads),
            (decisions.clone(), stats, metrics.clone()),
            "threads={threads}"
        );
    }
}

/// The full chaos gauntlet: crashes, tenant churn, bursts and dispatch
/// faults in one seeded schedule, bit-identical at every thread count.
#[test]
fn chaos_schedule_is_bit_identical_across_thread_counts() {
    let config = ChaosConfig {
        traffic: traffic_config(),
        crashes: 2,
        churn_cycles: 1,
        bursts: 1,
        burst_len: 4,
        faulty_tenant: Some(1),
        faults: 2,
        max_fault_attempts: 9,
    };
    let plan = chaos_plan(SEED ^ 0xc4a0, &config);
    assert!(plan.events.iter().any(|e| matches!(e, ChaosEvent::Crash)));

    let run = |threads: usize| {
        let mut service: ServiceRuntime<Hct> = ServiceRuntime::new(engine(threads))
            .with_overload(OverloadConfig::new(40, 32))
            .expect("overload config");
        let breaker = BreakerConfig {
            failure_threshold: 1,
            cooldown_ticks: 8,
            ..BreakerConfig::default()
        };
        let spec_for = |t: usize| {
            let mut spec = spec_of(t).with_priority(u8::try_from(t * 40).unwrap_or(u8::MAX));
            if Some(t) == config.faulty_tenant {
                let mut faults = DispatchFaultPlan::new();
                for f in &plan.faults {
                    faults = faults.fail(f.request, f.attempts);
                }
                spec = spec
                    .with_breaker(breaker.clone())
                    .with_dispatch_faults(faults);
            }
            spec
        };
        let mut ids: BTreeMap<usize, TenantId> = (0..TENANTS)
            .map(|t| {
                (
                    t,
                    service.register(Hct::new(), spec_for(t)).expect("register"),
                )
            })
            .collect();
        let mut log = String::new();
        for event in &plan.events {
            match event {
                ChaosEvent::Crash => {
                    let snapshot = service.snapshot();
                    drop(service);
                    service = ServiceRuntime::restore(engine(threads), &snapshot).expect("restore");
                    log.push_str("crash;");
                }
                ChaosEvent::Deregister(t) => {
                    if let Some(id) = ids.remove(t) {
                        let report = service.deregister(id).expect("deregister");
                        log.push_str(&format!("dereg t{t}:{:?};", report.stats));
                    }
                }
                ChaosEvent::Register(t) => {
                    if !ids.contains_key(t) {
                        let id = service.register(Hct::new(), spec_for(*t)).expect("rejoin");
                        ids.insert(*t, id);
                        log.push_str(&format!("rejoin t{t};"));
                    }
                }
                ChaosEvent::Request(request) => {
                    let Some(&id) = ids.get(&request.tenant) else {
                        log.push_str("skip;");
                        continue;
                    };
                    match service.ingest(id, request.arrival, stamp(&request.records)) {
                        Ok(outcome) => {
                            log.push_str(&format!("{};{:?};", outcome.decision, outcome.runs));
                        }
                        Err(ServeError::Job(JobError::Injected(msg))) => {
                            log.push_str(&format!("fail:{msg};"));
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
        }
        fingerprint(&service, &log)
    };
    let reference = run(1);
    assert!(reference.contains("crash;"), "the schedule crashed");
    assert_eq!(run(1), reference, "rerun is bit-identical");
    for threads in [2, 4] {
        assert_eq!(run(threads), reference, "threads={threads}");
    }
}
