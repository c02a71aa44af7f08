//! Measurement primitives: latency samples, percentiles, peak memory and
//! the metric report every workload fills in.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Most blocks the p99 is taken over (see [`Timeline::p99_ms`]).
pub const P99_BLOCKS: usize = 20;
/// Fewest samples in one p99 block: ten or more lie beyond its p99.
pub const P99_BLOCK_MIN: usize = 1000;
/// Length of one block of the timed phase for the per-block statistics
/// (see [`Timeline`]).
pub const BLOCK: Duration = Duration::from_millis(500);
/// The share of the blocks, counted from the calmest one, that a per-block
/// statistic is taken at (see [`Timeline`]).
pub const CALM: f64 = 0.1;

/// Latency samples of one timed phase, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns
            .push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile in milliseconds (`q` in `0..=1`).
    pub fn percentile_ms(&self, q: f64) -> f64 {
        percentile(&self.ns, q) as f64 / 1e6
    }

    /// The samples in `[from, to)` as a new set (for start/end comparisons).
    pub fn slice(&self, from: usize, to: usize) -> Samples {
        Samples {
            ns: self.ns[from.min(self.ns.len())..to.min(self.ns.len())].to_vec(),
        }
    }
}

/// One timed update.
#[derive(Debug, Clone, Copy)]
pub struct Update {
    /// When it ended, measured from the start of the timed phase with the
    /// output checks taken out.
    pub at: Duration,
    /// Its latency.
    pub latency: Duration,
    /// Time spent inside the measured calls on its behalf.
    pub busy: Duration,
    /// Input records it absorbed.
    pub records: u64,
}

/// The updates of one timed phase, cut into blocks of [`BLOCK`] by when
/// they ended.
///
/// The host's speed changes on a scale of seconds: the same update runs
/// up to twice as slowly while other machines on the host are busy, in
/// stretches of seconds to tens of seconds. So most end-to-end figures are
/// taken per block and summarised at the [`CALM`] quantile over the
/// blocks, counted from the better end: the run's figure in its calmest
/// tenth. A slow stretch covering less than 90% of the run does not move
/// it, while a change to the program moves every block.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    updates: Vec<Update>,
    /// Length of the timed phase, output checks taken out.
    elapsed: Duration,
}

impl Timeline {
    /// An empty timeline with room for one update per 100 µs of a phase of
    /// `seconds`. Pages of the room that stay unused are never touched, and
    /// a vector that never doubles keeps the peak memory from jumping with
    /// the number of updates a run happens to reach.
    pub fn for_seconds(seconds: f64) -> Timeline {
        Timeline {
            updates: Vec::with_capacity(updates_room(seconds)),
            elapsed: Duration::ZERO,
        }
    }

    pub fn push(&mut self, update: Update) {
        self.updates.push(update);
    }

    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Ends the phase after `elapsed`.
    pub fn finish(&mut self, elapsed: Duration) {
        self.elapsed = elapsed;
    }

    /// Every latency, in order.
    pub fn latency(&self) -> Samples {
        Samples {
            ns: self
                .updates
                .iter()
                .map(|u| u64::try_from(u.latency.as_nanos()).unwrap_or(u64::MAX))
                .collect(),
        }
    }

    /// The updates of each block with the block's length. A last block
    /// shorter than half a [`BLOCK`] is dropped unless it is the only one.
    fn blocks(&self) -> Vec<(&[Update], Duration)> {
        let whole = self.elapsed.as_nanos() / BLOCK.as_nanos();
        let count = usize::try_from(whole).unwrap_or(usize::MAX) + 1;
        let mut blocks = Vec::with_capacity(count);
        let mut from = 0;
        for b in 0..count {
            let end = BLOCK * u32::try_from(b + 1).unwrap_or(u32::MAX);
            let to = from + self.updates[from..].partition_point(|u| u.at < end);
            let to = if b + 1 == count {
                self.updates.len()
            } else {
                to
            };
            let length = end.min(self.elapsed) - BLOCK * u32::try_from(b).unwrap_or(u32::MAX);
            blocks.push((&self.updates[from..to], length));
            from = to;
        }
        if blocks.len() > 1 && blocks.last().is_some_and(|(_, len)| *len < BLOCK / 2) {
            blocks.pop();
        }
        blocks.retain(|(updates, _)| !updates.is_empty());
        blocks
    }

    /// [`CALM`] quantile over the blocks of each block's median latency,
    /// in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .blocks()
            .into_iter()
            .map(|(updates, _)| {
                let ns: Vec<f64> = updates
                    .iter()
                    .map(|u| u.latency.as_nanos() as f64)
                    .collect();
                quantile_f64(&ns, 0.5) / 1e6
            })
            .collect();
        quantile_f64(&medians, CALM)
    }

    /// Lower quartile of the 99th percentiles of up to [`P99_BLOCKS`]
    /// consecutive runs of at least [`P99_BLOCK_MIN`] updates each, in
    /// milliseconds, so that bursts of stalls from outside the process, and
    /// the heaviest stretches of one seed's input, move some of them, not
    /// the run. Also returns the number of runs.
    pub fn p99_ms(&self) -> (f64, usize) {
        let samples = self.latency();
        let n = samples.len();
        let blocks = (n / P99_BLOCK_MIN).clamp(1, P99_BLOCKS);
        let p99s: Vec<f64> = (0..blocks)
            .map(|b| {
                samples
                    .slice(b * n / blocks, (b + 1) * n / blocks)
                    .percentile_ms(0.99)
            })
            .collect();
        (quantile_f64(&p99s, 0.25), blocks)
    }

    /// 1 − [`CALM`] quantile over the blocks of the records absorbed per
    /// second spent inside the measured calls. In a closed loop that is nearly
    /// every second of the block; in an open loop it is the rate the
    /// program could absorb, not the rate it was offered.
    pub fn records_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .blocks()
            .into_iter()
            .map(|(updates, _)| {
                let busy: Duration = updates.iter().map(|u| u.busy).sum();
                updates.iter().map(|u| u.records).sum::<u64>() as f64 / busy.as_secs_f64()
            })
            .collect();
        quantile_f64(&rates, 1.0 - CALM)
    }

    /// [`CALM`] quantile over the blocks of the share of the block spent
    /// inside the measured calls.
    pub fn busy_fraction(&self) -> f64 {
        let shares: Vec<f64> = self
            .blocks()
            .into_iter()
            .map(|(updates, length)| {
                updates
                    .iter()
                    .map(|u| u.busy)
                    .sum::<Duration>()
                    .as_secs_f64()
                    / length.as_secs_f64()
            })
            .collect();
        quantile_f64(&shares, CALM)
    }
}

/// Room for one update per 100 µs of a phase of `seconds`.
pub fn updates_room(seconds: f64) -> usize {
    (seconds * 1e4).ceil() as usize
}

/// Nearest-rank percentile of `values`; 0 for an empty set.
fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values`; 0 for an empty set.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank quantile of `values` (`q` in `0..=1`); 0 for an empty set.
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How often a workload's set-up is repeated: at least `min_reps` times
/// and for at least `seconds`.
#[derive(Debug, Clone, Copy)]
pub struct SetUps {
    pub min_reps: usize,
    pub seconds: f64,
}

impl SetUps {
    /// A single set-up, for phases that do not report `setup_s`.
    pub const ONCE: SetUps = SetUps {
        min_reps: 1,
        seconds: 0.0,
    };
}

/// Builds with `set_up` again and again as `set_ups` says, dropping every
/// result but the last. Returns the last result and the wall time of each
/// set-up in seconds (a drop is not timed).
pub fn repeat_set_up<T>(set_ups: SetUps, mut set_up: impl FnMut() -> T) -> (T, Vec<f64>) {
    let begin = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let built = set_up();
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= set_ups.min_reps && begin.elapsed().as_secs_f64() >= set_ups.seconds {
            return (built, times);
        }
    }
}

/// Times `reps` calls of `f` and returns the median wall time per call in
/// nanoseconds. Used by the component probes.
pub fn median_call_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        ns.push(start.elapsed().as_nanos() as f64);
    }
    median_f64(&ns)
}

/// The process's peak resident set size (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Sleeps until `due`, spinning through the last 200 µs so an open-loop
/// sender is not late by the scheduler's wake-up slack. The spin stays
/// short: a virtual CPU that never idles is preempted by its host for
/// whole time slices, which showed as send lags of 5 to 20 ms.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports: its metrics and its operation tally.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    /// Operations attempted (timed updates plus output checks).
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong output.
    pub failed: u64,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets metric `name`; a value that is not finite (a ratio over
    /// nothing) is reported as 0.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records one output check: counts it as an operation and, when it
    /// failed, as a failure with its reason.
    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.note(format!("CHECK FAILED {name}: {why}"));
        }
    }

    /// Sets the end-to-end metrics of one timed phase: update latency,
    /// records absorbed per second and busy share (see [`Timeline`]), the
    /// set-up time at the [`CALM`] quantile of the set-ups, and the peak
    /// resident memory read when the timed phase ended. The set-ups are
    /// repeated before the timed phase and again after it: two seconds of
    /// set-ups at the start alone read whatever state the host was in then,
    /// and their figure moved by up to 37% between sets of runs whose timed
    /// figures moved by less than 8%.
    pub fn set_end_to_end(&mut self, timeline: &Timeline, setup_s: &[f64], peak_rss_mib: f64) {
        let (p99, runs) = timeline.p99_ms();
        let n = timeline.len();
        self.note(format!(
            "{n} timed updates in {} blocks of {} s; p99 is the lower quartile over {runs} \
             runs of {} or more updates, each with {} or more beyond its p99; {} set-ups",
            timeline.blocks().len(),
            BLOCK.as_secs_f64(),
            n / runs,
            n / runs / 100,
            setup_s.len()
        ));
        self.set("latency_ms_p50", timeline.p50_ms(), "ms");
        self.set("latency_ms_p99", p99, "ms");
        self.set("records_per_s", timeline.records_per_s(), "1/s");
        self.set("busy_fraction", timeline.busy_fraction(), "ratio");
        self.set("setup_s", quantile_f64(setup_s, CALM), "s");
        self.set("peak_rss_mib", peak_rss_mib, "MiB");
    }

    /// Renders the result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    fn update(at_ms: u64, latency_ms: u64, records: u64) -> Update {
        Update {
            at: Duration::from_millis(at_ms),
            latency: Duration::from_millis(latency_ms),
            busy: Duration::from_millis(latency_ms),
            records,
        }
    }

    #[test]
    fn block_statistics_take_the_calmest_blocks() {
        // Eight blocks of 0.5 s: four fast (100 ms updates), four with
        // updates two and a half times as slow; then a 0.2 s tail, which
        // is dropped.
        let mut t = Timeline::default();
        for at in (50..2000).step_by(100) {
            t.push(update(at, 100, 10));
        }
        for at in (2125..4000).step_by(250) {
            t.push(update(at, 250, 10));
        }
        t.push(update(4050, 100, 10));
        t.finish(Duration::from_millis(4200));
        assert_eq!(t.blocks().len(), 8);
        assert_eq!(t.p50_ms(), 100.0);
        assert_eq!(t.records_per_s(), 100.0);
        assert_eq!(t.busy_fraction(), 1.0);
        // The p99 runs over all 29 updates as one run of fewer than 1000.
        assert_eq!(t.p99_ms(), (250.0, 1));
    }

    #[test]
    fn a_short_phase_is_one_block() {
        let mut t = Timeline::default();
        t.push(update(100, 50, 3));
        t.push(update(300, 150, 3));
        t.finish(Duration::from_millis(400));
        assert_eq!(t.blocks().len(), 1);
        assert_eq!(t.records_per_s(), 30.0);
        assert_eq!(t.busy_fraction(), 0.5);
    }

    #[test]
    fn set_ups_repeat_at_least_min_reps_times_and_keep_the_last() {
        let mut n = 0;
        let (last, times) = repeat_set_up(
            SetUps {
                min_reps: 3,
                seconds: 0.0,
            },
            || {
                n += 1;
                n
            },
        );
        assert_eq!((last, times.len()), (3, 3));
        assert_eq!(repeat_set_up(SetUps::ONCE, || 7).0, 7);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("latency_ms_p50", 1.25, "ms");
        r.check("x", Err("bad".into()));
        let line = r.json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        assert!(line.contains("\"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}"));
    }
}
