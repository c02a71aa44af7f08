//! Deterministic service checkpoints.
//!
//! A [`ServiceSnapshot`] is a deep, versioned capture of everything a
//! [`ServiceRuntime`](crate::ServiceRuntime) would need to resume after a
//! crash as if the crash never happened:
//!
//! * the shared engine's mutable state — the simulated clock, the
//!   memoization cache *contents* (a full [`DistributedCache`] image),
//!   and the cache-namespace watermark;
//! * every live tenant — its [`TenantSpec`], the event-time feeder's
//!   reorder buffer / late queue / window map, the job's aggregator
//!   trees cloned *exactly* (see
//!   [`WindowedJob::checkpoint`](slider_mapreduce::WindowedJob::checkpoint)),
//!   the admission gate's DGIM buckets and quota ledger, the circuit
//!   breaker's position, the dispatch sequence counter and the folded
//!   statistics;
//! * the registry counters and the retired fold of deregistered tenants
//!   (the service roll-up is derived from them plus the live tenants'
//!   stats), the overload gauge, and the tenant-id counter.
//!
//! The restore invariant (proved by `tests/integration_resilience.rs`):
//! crash at *any* ingest boundary, restore onto a fresh engine, replay
//! the remaining requests — and every output, query, and metrics render
//! is bit-identical to an uninterrupted twin, at any thread count.
//!
//! Snapshots are in-memory values (this reproduction models durability,
//! it does not serialize to disk — no serde in the dependency set), but
//! they are *byte-stable*: [`ServiceSnapshot::describe`] renders a
//! deterministic manifest, identical across twins, reruns and thread
//! counts, which is what an on-disk format would checksum.

use std::fmt::Write as _;

use slider_cluster::SimClock;
use slider_dcache::DistributedCache;
use slider_mapreduce::{FeederCheckpoint, MapReduceApp};

use crate::admission::{GateSnapshot, OverloadConfig};
use crate::breaker::BreakerState;
use crate::stats::{ServeStats, TenantStats};
use crate::tenant::{TenantId, TenantSpec};

/// The snapshot-format version this build writes and the only version
/// [`ServiceRuntime::restore`](crate::ServiceRuntime::restore) accepts;
/// a mismatch is the typed error
/// [`ServeError::SnapshotVersion`](crate::ServeError::SnapshotVersion),
/// never a panic.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Captured overload-gauge state.
pub(crate) struct OverloadSnapshot {
    pub(crate) config: OverloadConfig,
    pub(crate) gauge: slider_core::CounterSnapshot,
    pub(crate) last_arrival: u64,
}

/// One live tenant's captured state.
pub(crate) struct TenantSnapshot<A: MapReduceApp> {
    pub(crate) id: TenantId,
    pub(crate) name: String,
    pub(crate) spec: TenantSpec,
    pub(crate) feeder: FeederCheckpoint<A>,
    pub(crate) gate: GateSnapshot,
    pub(crate) breaker: Option<BreakerState>,
    pub(crate) dispatch_seq: u64,
    pub(crate) stats: TenantStats,
}

/// A versioned, deep checkpoint of a whole service (see the module
/// docs). Build with
/// [`ServiceRuntime::snapshot`](crate::ServiceRuntime::snapshot); resume
/// with [`ServiceRuntime::restore`](crate::ServiceRuntime::restore). A
/// snapshot is a value — restoring borrows it, so one capture can seed
/// any number of resumed twins.
pub struct ServiceSnapshot<A: MapReduceApp> {
    pub(crate) version: u32,
    pub(crate) clock: Option<SimClock>,
    pub(crate) cache: Option<DistributedCache>,
    pub(crate) namespace_watermark: u32,
    pub(crate) next_id: u64,
    pub(crate) base: ServeStats,
    pub(crate) overload: Option<OverloadSnapshot>,
    pub(crate) tenants: Vec<TenantSnapshot<A>>,
}

impl<A: MapReduceApp> ServiceSnapshot<A> {
    /// The snapshot-format version this capture carries.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Overrides the carried version — a forward-compatibility testing
    /// hook, used to prove that restoring a snapshot from a different
    /// format version fails with a typed error instead of corrupting
    /// state or panicking.
    #[must_use]
    pub fn with_version(mut self, version: u32) -> Self {
        self.version = version;
        self
    }

    /// Live tenants captured.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// A byte-stable manifest of the capture: every field that defines
    /// the resumed service's behavior, rendered deterministically. Two
    /// snapshots taken at the same logical point of twin services render
    /// identically — across reruns and worker-thread counts — so this is
    /// the string an on-disk checkpoint format would checksum.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# slider-serve snapshot v{}", self.version);
        match self.clock {
            Some(clock) => {
                let _ = writeln!(
                    out,
                    "clock seconds={:.6} advances={}",
                    clock.seconds, clock.advances
                );
            }
            None => {
                let _ = writeln!(out, "clock none");
            }
        }
        match &self.cache {
            Some(cache) => {
                let _ = writeln!(
                    out,
                    "cache objects={} indexed_bytes={}",
                    cache.len(),
                    cache.indexed_bytes()
                );
            }
            None => {
                let _ = writeln!(out, "cache none");
            }
        }
        let _ = writeln!(
            out,
            "service namespace_watermark={} next_tenant_id={} tenants={}",
            self.namespace_watermark,
            self.next_id,
            self.tenants.len()
        );
        let stats = self
            .base
            .plus_tenants(self.tenants.iter().map(|t| &t.stats));
        let _ = writeln!(out, "stats {stats:?}");
        match &self.overload {
            Some(o) => {
                let _ = writeln!(
                    out,
                    "overload limit={} window={} epsilon={} last_arrival={} gauge={:?}",
                    o.config.record_limit,
                    o.config.window,
                    o.config.epsilon,
                    o.last_arrival,
                    o.gauge
                );
            }
            None => {
                let _ = writeln!(out, "overload none");
            }
        }
        for t in &self.tenants {
            let breaker = match t.breaker {
                None => "none".to_string(),
                Some(BreakerState::Closed { failures }) => format!("closed:{failures}"),
                Some(BreakerState::Open { since }) => format!("open:{since}"),
                Some(BreakerState::HalfOpen) => "half-open".to_string(),
            };
            let _ = writeln!(
                out,
                "tenant id={} name={} ns={} runs={} window_splits={} buffered={} \
                 dispatch_seq={} gate_used={} breaker={}",
                t.id,
                t.name,
                t.feeder.job().cache_namespace(),
                t.feeder.job().run_index(),
                t.feeder.job().window_splits(),
                t.feeder.buffered_records(),
                t.dispatch_seq,
                t.gate.used,
                breaker
            );
            let _ = writeln!(out, "tenant id={} event={:?}", t.id, t.feeder.stats());
            if let Some(limiter) = &t.gate.limiter {
                let _ = writeln!(out, "tenant id={} limiter={limiter:?}", t.id);
            }
            let _ = writeln!(out, "tenant id={} stats={:?}", t.id, t.stats);
        }
        out
    }
}
