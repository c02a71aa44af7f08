//! Wall-clock benchmark of slider-rs.
//!
//! ```text
//! slider-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--toy] [--spans <file>] [--rate <requests per second>]
//! ```
//!
//! Runs one workload in this process, checks its outputs, and prints
//! human-readable lines followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reruns the workload with
//! the benchmark's own spans and the [`spans::Timed`] app decorator and
//! reports the per-layer metrics. `--toy` shrinks every workload for the
//! self-tests. `--rate` replaces the offered rate of `serve-6tenant`, to
//! find the rate the service can sustain; the benchmark itself always
//! runs at the fixed rate. Workloads, parameters and seeds are listed in
//! `perfbench/workloads.json`.

mod join;
mod layers;
mod measure;
mod probes;
mod serve;
mod slide;
mod spans;

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use slider_join::JoinStats;
use slider_mapreduce::TraceSink;

use crate::layers::LayerAcc;
use crate::measure::Report;
use crate::spans::{AppMeter, Spans};

/// Workload names: those of `BENCHMARK.json` and `slide-hct-5pct`, which
/// runs the same way but is left out of it (see `workloads.json`).
pub const WORKLOADS: [&str; 3] = ["slide-hct-5pct", "serve-6tenant", "join-followpost"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub toy: bool,
    pub spans: Option<PathBuf>,
    pub rate: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        toy: false,
        spans: None,
        rate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            "--toy" => args.toy = true,
            "--rate" => {
                let rate: f64 = value()?.parse().map_err(|e| format!("--rate: {e}"))?;
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err("--rate must be positive".into());
                }
                args.rate = Some(rate);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// State of a traced phase: the span store, the app meter and the
/// per-layer sums.
pub struct Tracing {
    pub spans: Spans,
    pub meter: Arc<AppMeter>,
    pub acc: LayerAcc,
    pub join: JoinStats,
}

impl Default for Tracing {
    fn default() -> Self {
        let origin = std::time::Instant::now();
        Tracing {
            spans: Spans::new(origin),
            meter: AppMeter::new(origin),
            acc: LayerAcc::default(),
            join: JoinStats::default(),
        }
    }
}

impl Tracing {
    /// Reports the per-layer sums, the tracing overhead (traced over
    /// untraced p50) and the component probes at the workload's shape,
    /// and writes the spans out if a file was named.
    fn finish(self, args: &Args, r: &mut Report, threads: usize, partitions: usize, overhead: f64) {
        self.acc.report(r);
        r.set("trace.overhead_ratio", overhead, "ratio");
        let shape = probes::ProbeShape {
            threads,
            partitions,
            map_tasks: self.acc.mean_map_tasks(),
            shrink: if args.toy { 16 } else { 1 },
        };
        probes::run_all(r, shape);
        r.note(format!("spans recorded: {}", self.spans.len()));
        if let Some(path) = &args.spans {
            if let Err(e) = self.spans.write_jsonl(path) {
                r.note(format!("could not write spans to {}: {e}", path.display()));
            }
        }
    }
}

/// `Ok` when `got == want`, else the first key where they differ.
pub fn same_output<K: Ord + Debug, V: PartialEq + Debug>(
    got: &BTreeMap<K, V>,
    want: &BTreeMap<K, V>,
) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    for (k, v) in want {
        match got.get(k) {
            Some(g) if g == v => {}
            other => return Err(format!("key {k:?}: got {other:?}, want {v:?}")),
        }
    }
    let extra = got.keys().find(|k| !want.contains_key(*k));
    Err(format!("unexpected key {extra:?}"))
}

/// A fingerprint of `value`, for checking an output later without keeping
/// a copy of it.
pub fn digest<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// A counter of the engine's own trace registry (0 when absent).
pub fn trace_counter(sink: &TraceSink, name: &str) -> u64 {
    sink.with(|t| t.counters().get(name).copied().unwrap_or(0))
        .unwrap_or(0)
}

fn main() -> ExitCode {
    // The engine reads these at job construction; the benchmark fixes
    // thread counts and tracing itself.
    std::env::remove_var(slider_mapreduce::THREADS_ENV);
    std::env::remove_var(slider_mapreduce::TRACE_ENV);
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("slider-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "slide-hct-5pct" => slide::run(&args, &mut report),
        "serve-6tenant" => serve::run(&args, &mut report),
        _ => join::run(&args, &mut report),
    }
    if args.trace {
        // Per-layer metrics of the layers this workload does not use.
        if args.workload != "serve-6tenant" {
            serve::report_idle(&mut report);
        }
        if args.workload != "join-followpost" {
            join::report_idle(&mut report);
        }
    }
    let attempted = report.attempted.max(1);
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    println!(
        "  failed_ops_frac = {} ({} of {attempted})",
        report.failed as f64 / attempted as f64,
        report.failed
    );
    for (name, m) in &report.metrics {
        println!("  {name} = {} {}", m.value, m.unit);
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
