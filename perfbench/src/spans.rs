//! The traced run's instrumentation, all of it outside the engine: spans
//! the benchmark records around its own calls into each crate, and the
//! [`Timed`] decorator that counts and times the user callbacks.
//!
//! Spans stay in memory and are written out as JSON lines when the run
//! ends. Callback intervals are kept only until the update that contains
//! them ends; each update then gets one `apps` child span carrying the
//! part of the update those callbacks covered.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use slider_join::JoinApp;
use slider_mapreduce::MapReduceApp;

/// One recorded span: times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub update: u64,
    /// For `apps` spans: nanoseconds of the parent the callbacks covered.
    pub covered_ns: u64,
}

/// In-memory span store for one traced run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its id, for use as a child's parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        update: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            update,
            covered_ns: 0,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records the `apps` child of span `parent` from the callback
    /// intervals drained out of `meter`, and returns the nanoseconds of
    /// the parent they covered (their union clipped to the parent).
    pub fn record_apps(&mut self, parent: usize, meter: &AppMeter) -> u64 {
        let (lo, hi) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        let mut intervals = meter.take_intervals();
        let covered = covered_ns(&mut intervals, lo, hi);
        if let (Some(first), Some(last)) = (
            intervals.iter().map(|i| i.0).min(),
            intervals.iter().map(|i| i.1).max(),
        ) {
            self.spans.push(Span {
                name: "apps",
                start_ns: first.max(lo),
                end_ns: last.min(hi),
                parent: Some(parent),
                update: self.spans[parent].update,
                covered_ns: covered,
            });
        }
        covered
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"update\": {}, \"covered_ns\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.update,
                s.covered_ns
            )?;
        }
        out.flush()
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

/// Callback counts and times drained from an [`AppMeter`].
#[derive(Debug, Default, Clone, Copy)]
pub struct AppCounts {
    pub map_ns: u64,
    pub map_calls: u64,
    pub combine_calls: u64,
    pub reduce_ns: u64,
    pub reduce_calls: u64,
    pub key_calls: u64,
}

/// Shared counters behind every [`Timed`] copy of an app. Atomics,
/// because the runtime's workers call the app concurrently.
#[derive(Debug)]
pub struct AppMeter {
    origin: Instant,
    map_ns: AtomicU64,
    map_calls: AtomicU64,
    combine_calls: AtomicU64,
    reduce_ns: AtomicU64,
    reduce_calls: AtomicU64,
    key_calls: AtomicU64,
    intervals: Mutex<Vec<(u64, u64)>>,
}

impl AppMeter {
    pub fn new(origin: Instant) -> Arc<Self> {
        Arc::new(AppMeter {
            origin,
            map_ns: AtomicU64::new(0),
            map_calls: AtomicU64::new(0),
            combine_calls: AtomicU64::new(0),
            reduce_ns: AtomicU64::new(0),
            reduce_calls: AtomicU64::new(0),
            key_calls: AtomicU64::new(0),
            intervals: Mutex::new(Vec::new()),
        })
    }

    fn since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn timed(&self, start: Instant, ns: &AtomicU64, calls: &AtomicU64) {
        let end = Instant::now();
        let (s, e) = (self.since_origin(start), self.since_origin(end));
        ns.fetch_add(e - s, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
        self.intervals
            .lock()
            .expect("no callback panics while holding the interval list")
            .push((s, e));
    }

    /// Drains the counters accumulated since the last call.
    pub fn take(&self) -> AppCounts {
        AppCounts {
            map_ns: self.map_ns.swap(0, Ordering::Relaxed),
            map_calls: self.map_calls.swap(0, Ordering::Relaxed),
            combine_calls: self.combine_calls.swap(0, Ordering::Relaxed),
            reduce_ns: self.reduce_ns.swap(0, Ordering::Relaxed),
            reduce_calls: self.reduce_calls.swap(0, Ordering::Relaxed),
            key_calls: self.key_calls.swap(0, Ordering::Relaxed),
        }
    }

    /// Drains the callback intervals recorded since the last call.
    pub fn take_intervals(&self) -> Vec<(u64, u64)> {
        std::mem::take(
            &mut *self
                .intervals
                .lock()
                .expect("no callback panics while holding the interval list"),
        )
    }
}

/// Decorates an app so that its callbacks are counted and timed into a
/// shared [`AppMeter`]. `map` and `reduce` are timed; `combine` and the
/// join key extractors are only counted, since timing them would cost
/// more than they do.
pub struct Timed<A> {
    inner: A,
    meter: Arc<AppMeter>,
}

impl<A> Timed<A> {
    pub fn new(inner: A, meter: &Arc<AppMeter>) -> Self {
        Timed {
            inner,
            meter: Arc::clone(meter),
        }
    }
}

impl<A: MapReduceApp> MapReduceApp for Timed<A> {
    type Input = A::Input;
    type Key = A::Key;
    type Value = A::Value;
    type Output = A::Output;

    fn map(&self, input: &Self::Input, emit: &mut dyn FnMut(Self::Key, Self::Value)) {
        let start = Instant::now();
        self.inner.map(input, emit);
        self.meter
            .timed(start, &self.meter.map_ns, &self.meter.map_calls);
    }

    fn combine(&self, key: &Self::Key, a: &Self::Value, b: &Self::Value) -> Self::Value {
        self.meter.combine_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.combine(key, a, b)
    }

    fn is_commutative(&self) -> bool {
        self.inner.is_commutative()
    }

    fn reduce(&self, key: &Self::Key, parts: &[&Self::Value]) -> Self::Output {
        let start = Instant::now();
        let out = self.inner.reduce(key, parts);
        self.meter
            .timed(start, &self.meter.reduce_ns, &self.meter.reduce_calls);
        out
    }

    fn map_cost(&self, input: &Self::Input) -> u64 {
        self.inner.map_cost(input)
    }

    fn combine_cost(&self, key: &Self::Key, a: &Self::Value, b: &Self::Value) -> u64 {
        self.inner.combine_cost(key, a, b)
    }

    fn reduce_cost(&self, key: &Self::Key, parts: &[&Self::Value]) -> u64 {
        self.inner.reduce_cost(key, parts)
    }

    fn value_bytes(&self, key: &Self::Key, v: &Self::Value) -> u64 {
        self.inner.value_bytes(key, v)
    }

    fn record_bytes(&self, input: &Self::Input) -> u64 {
        self.inner.record_bytes(input)
    }
}

impl<J: JoinApp> JoinApp for Timed<J> {
    type Key = J::Key;
    type Left = J::Left;
    type Right = J::Right;

    fn left_key(&self, left: &Self::Left) -> Option<Self::Key> {
        self.meter.key_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.left_key(left)
    }

    fn right_key(&self, right: &Self::Right) -> Option<Self::Key> {
        self.meter.key_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.right_key(right)
    }

    fn pair_weight(&self, key: &Self::Key, left: &Self::Left, right: &Self::Right) -> u64 {
        self.inner.pair_weight(key, left, right)
    }

    fn left_record_bytes(&self) -> u64 {
        self.inner.left_record_bytes()
    }

    fn right_record_bytes(&self) -> u64 {
        self.inner.right_record_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_is_the_clipped_union() {
        let mut v = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered_ns(&mut v, 1, 25), 2 + 7 + 5);
    }
}
