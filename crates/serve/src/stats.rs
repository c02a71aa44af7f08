//! Service-side statistics: per-tenant and service-wide counters that
//! reconcile bit-exactly with the per-run [`RunStats`] the engine
//! returns.
//!
//! Every request fact is written once, into its tenant's [`TenantStats`],
//! which folds the *deterministic* subset of [`RunStats`] — work, task and
//! key counts, byte counters — with plain integer addition, so
//! `sum(per-run) == folded` is an exact invariant, not an approximation.
//! The service-wide [`ServeStats`] is derived: the registry counters plus
//! the sum of the live tenants' stats and the retired fold of
//! deregistered ones.

use slider_mapreduce::RunStats;
use slider_trace::Visit;

use crate::admission::Decision;

/// Folded statistics for one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests seen at the front door.
    pub requests: u64,
    /// Requests admitted and dispatched.
    pub admitted: u64,
    /// Requests bounced by the DGIM rate limiter.
    pub rate_limited: u64,
    /// Requests bounced by the lifetime record quota.
    pub over_quota: u64,
    /// Requests bounced by the per-request record cap.
    pub too_large: u64,
    /// Requests bounced by an open circuit breaker.
    pub breaker_open: u64,
    /// Requests shed under service-wide overload.
    pub shed: u64,
    /// Requests bounced by the under-pressure record budget.
    pub deadline_exceeded: u64,
    /// Admitted dispatches that failed after exhausting their retries.
    pub dispatch_failures: u64,
    /// Dispatch retries performed (backoff charged to the shared clock).
    pub dispatch_retries: u64,
    /// Times the circuit breaker tripped (Closed → Open, or a failed
    /// half-open probe re-opening it).
    pub breaker_trips: u64,
    /// Records carried by admitted requests.
    pub records_admitted: u64,
    /// Records carried by rejected requests.
    pub records_rejected: u64,
    /// Runs the tenant's job executed.
    pub runs: u64,
    /// Total foreground work across all runs.
    pub work_foreground: u64,
    /// Total work including background pre-processing.
    pub work_grand: u64,
    /// Map tasks executed.
    pub map_tasks: u64,
    /// Splits whose map output was reused from memoization.
    pub map_reused: u64,
    /// Keys recomputed by Reduce.
    pub keys_reduced: u64,
    /// Keys whose previous output was reused untouched.
    pub keys_reused: u64,
    /// Bytes of fresh map output shuffled.
    pub shuffle_bytes: u64,
    /// Bytes of memoized state read.
    pub memo_read_bytes: u64,
    /// Memoization footprint after the most recent run.
    pub memo_footprint_bytes: u64,
}

impl TenantStats {
    /// Folds one run's metrics in.
    pub fn absorb(&mut self, run: &RunStats) {
        self.runs += 1;
        self.work_foreground += run.work.foreground_total();
        self.work_grand += run.work.grand_total();
        self.map_tasks += run.map_tasks as u64;
        self.map_reused += run.map_reused as u64;
        self.keys_reduced += run.keys_reduced as u64;
        self.keys_reused += run.keys_reused as u64;
        self.shuffle_bytes += run.shuffle_bytes;
        self.memo_read_bytes += run.memo_read_bytes;
        self.memo_footprint_bytes = run.memo_footprint_bytes;
    }

    /// Counts one front-door decision.
    pub(crate) fn count(&mut self, decision: &Decision, records: usize) {
        self.requests += 1;
        let records = records as u64;
        let rejected = match decision {
            Decision::Admitted { .. } => {
                self.admitted += 1;
                self.records_admitted += records;
                return;
            }
            Decision::RateLimited { .. } => &mut self.rate_limited,
            Decision::OverQuota { .. } => &mut self.over_quota,
            Decision::TooLarge { .. } => &mut self.too_large,
            Decision::BreakerOpen { .. } => &mut self.breaker_open,
            Decision::Shed { .. } => &mut self.shed,
            Decision::DeadlineExceeded { .. } => &mut self.deadline_exceeded,
        };
        *rejected += 1;
        self.records_rejected += records;
    }
}

/// Service-wide roll-up: the exact sum of every tenant's folded stats,
/// including tenants that have since deregistered. Derived on demand by
/// [`ServiceRuntime::serve_stats`](crate::ServiceRuntime::serve_stats);
/// nothing writes it request by request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Tenants ever registered.
    pub tenants_registered: u64,
    /// Tenants deregistered again.
    pub tenants_deregistered: u64,
    /// Requests seen at the front door.
    pub requests: u64,
    /// Requests admitted and dispatched.
    pub admitted: u64,
    /// Requests bounced by rate limiting.
    pub rate_limited: u64,
    /// Requests bounced by quota enforcement.
    pub over_quota: u64,
    /// Requests bounced by the per-request cap.
    pub too_large: u64,
    /// Requests bounced by open circuit breakers.
    pub breaker_open: u64,
    /// Requests shed under service-wide overload.
    pub shed: u64,
    /// Requests bounced by under-pressure record budgets.
    pub deadline_exceeded: u64,
    /// Admitted dispatches that failed after exhausting their retries.
    pub dispatch_failures: u64,
    /// Dispatch retries performed across all tenants.
    pub dispatch_retries: u64,
    /// Circuit-breaker trips across all tenants.
    pub breaker_trips: u64,
    /// Records carried by admitted requests.
    pub records_admitted: u64,
    /// Records carried by rejected requests.
    pub records_rejected: u64,
    /// Runs executed across all tenants.
    pub runs: u64,
    /// Total foreground work across all tenants' runs.
    pub work_foreground: u64,
    /// Total work including background pre-processing.
    pub work_grand: u64,
}

impl ServeStats {
    /// This roll-up plus every one of `tenants`' folded stats (the
    /// registry counters are the service's own).
    pub(crate) fn plus_tenants<'a>(
        mut self,
        tenants: impl IntoIterator<Item = &'a TenantStats>,
    ) -> ServeStats {
        for t in tenants {
            self.requests += t.requests;
            self.admitted += t.admitted;
            self.rate_limited += t.rate_limited;
            self.over_quota += t.over_quota;
            self.too_large += t.too_large;
            self.breaker_open += t.breaker_open;
            self.shed += t.shed;
            self.deadline_exceeded += t.deadline_exceeded;
            self.dispatch_failures += t.dispatch_failures;
            self.dispatch_retries += t.dispatch_retries;
            self.breaker_trips += t.breaker_trips;
            self.records_admitted += t.records_admitted;
            self.records_rejected += t.records_rejected;
            self.runs += t.runs;
            self.work_foreground += t.work_foreground;
            self.work_grand += t.work_grand;
        }
        self
    }
}

impl Visit for TenantStats {
    /// Every counter; `memo_footprint_bytes` is a last-value gauge.
    fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        f("requests", self.requests);
        f("admitted", self.admitted);
        f("rate_limited", self.rate_limited);
        f("over_quota", self.over_quota);
        f("too_large", self.too_large);
        f("breaker_open", self.breaker_open);
        f("shed", self.shed);
        f("deadline_exceeded", self.deadline_exceeded);
        f("dispatch_failures", self.dispatch_failures);
        f("dispatch_retries", self.dispatch_retries);
        f("breaker_trips", self.breaker_trips);
        f("records_admitted", self.records_admitted);
        f("records_rejected", self.records_rejected);
        f("runs", self.runs);
        f("work_foreground", self.work_foreground);
        f("work_grand", self.work_grand);
        f("map_tasks", self.map_tasks);
        f("map_reused", self.map_reused);
        f("keys_reduced", self.keys_reduced);
        f("keys_reused", self.keys_reused);
        f("shuffle_bytes", self.shuffle_bytes);
        f("memo_read_bytes", self.memo_read_bytes);
    }
}

/// Names are `line.field`: the `/metrics` endpoint renders one line per
/// group (`service`, `requests`, `dispatch`, `records`, `engine`).
impl Visit for ServeStats {
    fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        f("service.tenants_registered", self.tenants_registered);
        f("service.tenants_deregistered", self.tenants_deregistered);
        f("requests.total", self.requests);
        f("requests.admitted", self.admitted);
        f("requests.rate_limited", self.rate_limited);
        f("requests.over_quota", self.over_quota);
        f("requests.too_large", self.too_large);
        f("requests.breaker_open", self.breaker_open);
        f("requests.shed", self.shed);
        f("requests.deadline_exceeded", self.deadline_exceeded);
        f("dispatch.failures", self.dispatch_failures);
        f("dispatch.retries", self.dispatch_retries);
        f("dispatch.breaker_trips", self.breaker_trips);
        f("records.admitted", self.records_admitted);
        f("records.rejected", self.records_rejected);
        f("engine.runs", self.runs);
        f("engine.work_fg", self.work_foreground);
        f("engine.work_grand", self.work_grand);
    }
}

/// How far one tenant's counters grew between two points (a request, a
/// deregistration): the per-call fold the `serve.*` trace counters take,
/// derived from the single write to [`TenantStats`].
pub(crate) struct Growth<'a> {
    pub(crate) now: &'a TenantStats,
    pub(crate) before: &'a TenantStats,
}

impl Visit for Growth<'_> {
    fn visit(&self, f: &mut dyn FnMut(&str, u64)) {
        let mut before = Vec::new();
        self.before.visit(&mut |_, v| before.push(v));
        let mut before = before.into_iter();
        self.now
            .visit(&mut |name, v| f(name, v - before.next().unwrap_or(0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_folds_exactly() {
        let mut run = RunStats::default();
        run.work.map = 10;
        run.work.reduce = 5;
        run.work.movement = 1;
        run.work.contraction_bg.work = 4;
        run.map_tasks = 3;
        run.shuffle_bytes = 100;
        run.memo_footprint_bytes = 77;

        let mut tenant = TenantStats::default();
        tenant.absorb(&run);
        tenant.absorb(&run);
        assert_eq!(tenant.runs, 2);
        assert_eq!(tenant.work_foreground, 32);
        assert_eq!(tenant.work_grand, 40);
        assert_eq!(tenant.map_tasks, 6);
        assert_eq!(tenant.shuffle_bytes, 200);
        assert_eq!(tenant.memo_footprint_bytes, 77, "footprint is last-value");

        let serve = ServeStats::default().plus_tenants([&tenant, &tenant]);
        assert_eq!(
            (serve.runs, serve.work_foreground, serve.work_grand),
            (4, 64, 80),
            "the roll-up sums the tenants' folds"
        );
    }

    #[test]
    fn decisions_are_counted_by_kind() {
        let mut s = TenantStats::default();
        s.count(&Decision::Admitted { records: 4 }, 4);
        s.count(
            &Decision::RateLimited {
                limit: 1,
                estimate: 1,
            },
            2,
        );
        s.count(&Decision::OverQuota { quota: 1, used: 1 }, 3);
        s.count(&Decision::TooLarge { max: 1, got: 9 }, 9);
        assert_eq!(s.requests, 4);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.records_admitted, 4);
        assert_eq!(s.records_rejected, 14);
    }

    /// Every integer field is visited exactly once; the literals list every
    /// field so a new one fails to build here. Exempt:
    /// `TenantStats::memo_footprint_bytes` (a last-value gauge).
    #[test]
    fn visit_covers_every_counter_once() {
        let tenant = TenantStats {
            requests: 1,
            admitted: 2,
            rate_limited: 3,
            over_quota: 4,
            too_large: 5,
            breaker_open: 6,
            shed: 7,
            deadline_exceeded: 8,
            dispatch_failures: 9,
            dispatch_retries: 10,
            breaker_trips: 11,
            records_admitted: 12,
            records_rejected: 13,
            runs: 14,
            work_foreground: 15,
            work_grand: 16,
            map_tasks: 17,
            map_reused: 18,
            keys_reduced: 19,
            keys_reused: 20,
            shuffle_bytes: 21,
            memo_read_bytes: 22,
            memo_footprint_bytes: 1000,
        };
        let serve = ServeStats {
            tenants_registered: 1,
            tenants_deregistered: 2,
            requests: 3,
            admitted: 4,
            rate_limited: 5,
            over_quota: 6,
            too_large: 7,
            breaker_open: 8,
            shed: 9,
            deadline_exceeded: 10,
            dispatch_failures: 11,
            dispatch_retries: 12,
            breaker_trips: 13,
            records_admitted: 14,
            records_rejected: 15,
            runs: 16,
            work_foreground: 17,
            work_grand: 18,
        };
        let values = |stats: &dyn Visit| {
            let mut values = Vec::new();
            stats.visit(&mut |_, v| values.push(v));
            values.sort_unstable();
            values
        };
        assert_eq!(values(&tenant), (1..=22).collect::<Vec<u64>>());
        assert_eq!(values(&serve), (1..=18).collect::<Vec<u64>>());
    }

    #[test]
    fn growth_is_the_field_wise_difference() {
        let mut before = TenantStats::default();
        before.count(&Decision::Admitted { records: 2 }, 2);
        let mut now = before;
        now.count(
            &Decision::Shed {
                priority: 0,
                overflow: 1,
            },
            3,
        );
        let mut grown = Vec::new();
        Growth {
            now: &now,
            before: &before,
        }
        .visit(&mut |name, v| {
            if v > 0 {
                grown.push((name.to_string(), v));
            }
        });
        assert_eq!(
            grown,
            [("requests", 1), ("shed", 1), ("records_rejected", 3)]
                .map(|(k, v)| (k.to_string(), v))
        );
    }
}
