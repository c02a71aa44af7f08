//! Viewer and CI regression gate for `slider-bench-v1` reports.
//!
//! ```text
//! cargo run --example bench_gate -- BENCH_shootout.json
//! cargo run --example bench_gate -- --check BASELINE.json CANDIDATE.json
//! ```
//!
//! The first form prints the report's grid table: the per-structure cost
//! table of a `shootout` report, or the incremental-vs-recompute grid of
//! a `join` report. Output is a pure function of the file's bytes —
//! byte-identical across reruns and `SLIDER_THREADS` values — so CI can
//! diff two invocations with `cmp`.
//!
//! The second form compares a candidate report against a checked-in
//! baseline and exits non-zero if any grid point's gated modeled-work
//! metric regressed by more than 10%, or if a grid point disappeared. The
//! report's `"name"` picks the metric: `work_per_leaf` for `shootout`,
//! `inc_work` for `join`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use slider_bench::{fmt_f64, Table};
use slider_trace::json::JsonValue;
use slider_trace::parse_json;

/// Modeled-work regressions beyond this ratio fail the `--check` gate.
const MAX_WORK_REGRESSION: f64 = 1.10;

/// Grid rows keyed by `(kind, window, slide%)`, each with its metrics.
type Rows = BTreeMap<(String, u64, u64), BTreeMap<String, f64>>;

/// Loads a report's name and its flat summary metrics.
fn load(path: &str) -> Result<(String, BTreeMap<String, f64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(JsonValue::as_str) != Some("slider-bench-v1") {
        return Err(format!("{path}: not a slider-bench-v1 report"));
    }
    let Some(name) = doc.get("name").and_then(JsonValue::as_str) else {
        return Err(format!("{path}: missing report name"));
    };
    match doc.get("summary") {
        Some(JsonValue::Obj(map)) => Ok((
            name.to_string(),
            map.iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect(),
        )),
        _ => Err(format!("{path}: missing summary section")),
    }
}

/// The metric the `--check` gate bounds for a report named `name`.
fn gated_metric(name: &str) -> Result<&'static str, String> {
    match name {
        "shootout" => Ok("work_per_leaf"),
        "join" => Ok("inc_work"),
        other => Err(format!("no gated metric for report {other:?}")),
    }
}

/// Splits `daba-lite.w4096.p10.work_per_leaf` (or `join.w1024.p10.inc_work`)
/// into its grid coordinates `(kind, window, pct, metric)`.
fn parse_key(key: &str) -> Option<(String, u64, u64, String)> {
    let mut parts = key.split('.');
    let kind = parts.next()?.to_string();
    let window = parts.next()?.strip_prefix('w')?.parse().ok()?;
    let pct = parts.next()?.strip_prefix('p')?.parse().ok()?;
    let metric = parts.next()?.to_string();
    if parts.next().is_some() {
        return None;
    }
    Some((kind, window, pct, metric))
}

fn print_tables(name: &str, summary: &BTreeMap<String, f64>) -> Result<(), String> {
    gated_metric(name)?;
    // Regroup flat metrics into rows, sorted numerically (BTreeMap string
    // order would put w1024 before w256).
    let mut rows = Rows::new();
    let mut approx: BTreeMap<String, f64> = BTreeMap::new();
    for (key, value) in summary {
        if let Some((kind, window, pct, metric)) = parse_key(key) {
            rows.entry((kind, window, pct))
                .or_default()
                .insert(metric, *value);
        } else if key.starts_with("approx.") {
            approx.insert(key.clone(), *value);
        }
    }
    if name == "shootout" {
        print_shootout(&rows);
    } else {
        print_join(&rows, &approx);
    }
    Ok(())
}

fn print_shootout(rows: &Rows) {
    let mut table = Table::new(&[
        "structure",
        "window",
        "slide%",
        "merges/leaf",
        "work/leaf",
        "sim s/leaf",
    ]);
    let cell = |m: &BTreeMap<String, f64>, k: &str| m.get(k).map_or("-".into(), |v| fmt_f64(*v));
    for ((kind, window, pct), metrics) in rows {
        table.row(vec![
            kind.clone(),
            window.to_string(),
            pct.to_string(),
            cell(metrics, "merges_per_leaf"),
            cell(metrics, "work_per_leaf"),
            metrics
                .get("seconds_per_leaf")
                .map_or("-".into(), |v| format!("{v:.3e}")),
        ]);
    }
    print!("{}", table.render());
}

fn print_join(rows: &Rows, approx: &BTreeMap<String, f64>) {
    let mut table = Table::new(&["window", "slide%", "inc work", "rec work", "speedup"]);
    for ((_, window, pct), metrics) in rows {
        let inc = metrics.get("inc_work").copied().unwrap_or(f64::NAN);
        let rec = metrics.get("rec_work").copied().unwrap_or(f64::NAN);
        table.row(vec![
            window.to_string(),
            pct.to_string(),
            fmt_f64(inc),
            fmt_f64(rec),
            if inc > 0.0 {
                format!("{:.2}x", rec / inc)
            } else {
                "-".into()
            },
        ]);
    }
    print!("{}", table.render());
    if !approx.is_empty() {
        let mut atable = Table::new(&["metric", "value"]);
        for (k, v) in approx {
            atable.row(vec![k.clone(), fmt_f64(*v)]);
        }
        print!("{}", atable.render());
    }
}

fn check(baseline_path: &str, candidate_path: &str) -> Result<(), String> {
    let (name, baseline) = load(baseline_path)?;
    let (_, candidate) = load(candidate_path)?;
    let metric = gated_metric(&name)?;
    let gated: Vec<_> = baseline
        .iter()
        .filter(|(key, _)| key.ends_with(&format!(".{metric}")))
        .collect();
    let mut failures = Vec::new();
    for &(key, &base) in &gated {
        match candidate.get(key) {
            None => failures.push(format!("{key}: missing from candidate")),
            Some(cand) if base > 0.0 && cand / base > MAX_WORK_REGRESSION => {
                failures.push(format!(
                    "{key}: {} -> {} (+{:.1}%, limit 10%)",
                    fmt_f64(base),
                    fmt_f64(*cand),
                    (cand / base - 1.0) * 100.0
                ));
            }
            _ => {}
        }
    }
    if failures.is_empty() {
        let n = gated.len();
        println!("{name} check OK: {n} {metric} metrics within 10% of baseline");
        Ok(())
    } else {
        Err(format!(
            "modeled-work regression vs {baseline_path}:\n  {}",
            failures.join("\n  ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [path] => load(path).and_then(|(name, summary)| print_tables(&name, &summary)),
        [flag, baseline, candidate] if flag == "--check" => check(baseline, candidate),
        _ => Err(
            "usage: bench_gate <report.json> | --check <baseline.json> <candidate.json>"
                .to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bench_gate: {message}");
            ExitCode::FAILURE
        }
    }
}
