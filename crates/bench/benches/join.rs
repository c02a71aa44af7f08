//! Incremental-vs-recompute windowed-join sweep (slider-join), plus the
//! approximate-windows error-vs-space rows.
//!
//! Run with `cargo bench -p slider-bench --bench join`; set
//! `BENCH_JSON_DIR` to also write `BENCH_join.json` (the file CI diffs
//! against the checked-in baseline via `bench_gate --check`).

use slider_bench::{
    approx_table, banner, join_report, join_table, run_approx_rows, run_join_bench,
};

fn main() {
    banner("Windowed join: incremental delta probing vs cross-product recompute");
    let points = run_join_bench();
    print!("{}", join_table(&points).render());
    println!(
        "expected: the incremental operator's advantage widens as the slide\n\
         fraction shrinks — delta probes scale with churn, recompute with\n\
         the whole window."
    );
    banner("Approximate windows: per-key DGIM counters vs exact retention");
    let approx = run_approx_rows();
    print!("{}", approx_table(&approx).render());
    if let Some(path) = join_report(&points, &approx).write_if_configured() {
        println!("wrote {}", path.display());
    }
}
