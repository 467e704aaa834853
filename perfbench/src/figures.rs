//! `figures`: regenerate the 12 paper tables and 10 of the 13 extension
//! tables.
//!
//! One op is one regeneration at batch 1 under the default
//! [`AccelConfig`], rendered; its output is checked table by table against
//! the digests in `reference/tables.fnv`. The inputs are fixed by the
//! paper, so the seed selects nothing here.
//!
//! Ext 1, Ext 3 and Ext 7 are left out: their GoogLeNet rows change from
//! call to call (see [`LEFT_OUT`]), so no digest can check them.

use std::time::Instant;

use sm_accel::tiling::plan_cache_clear;
use sm_accel::AccelConfig;
use sm_bench::experiments::{
    all_tables, ext_architecture_comparison, ext_bandwidth_sweep, ext_batch_schedule,
    ext_bcu_overhead, ext_bound_breakdown, ext_datatype, ext_ddr_bandwidth,
    ext_pipeline_validation, ext_spill_order, fig10_traffic_reduction, fig13_throughput,
    retry_budget_sweep, DEFAULT_RETRY_BUDGETS,
};
use sm_bench::paper;
use sm_bench::report::Table;
use sm_core::hash::fnv64;

use crate::util::{ms_since, timed_jobs};
use crate::{Outcome, SETUP_REPS};

/// Regenerations per fixed job; `wall_s` is the median job time.
pub const REGENS_PER_JOB: usize = 5;

const REFERENCE: &str = include_str!("../reference/tables.fnv");

/// The extension tables the op leaves out, and why. Printed on every run.
pub const LEFT_OUT: &str = "Ext 1, Ext 3 and Ext 7 are left out of the figures op: \
    ShortcutMiner picks GoogLeNet spill victims in HashMap order when their next uses tie \
    (spill_for_banks in crates/core/src/simulator.rs), so those tables change from call to call";

/// The extension tables, in the order the `ext_experiments` binary prints
/// them, without the ones in [`LEFT_OUT`].
pub fn ext_tables(cfg: AccelConfig) -> Vec<Table> {
    vec![
        ext_bandwidth_sweep(cfg, 1).table,
        ext_spill_order(cfg, 1).table,
        ext_datatype(cfg, 1).table,
        ext_pipeline_validation(cfg, 1),
        ext_batch_schedule(cfg).table,
        ext_bound_breakdown(cfg, 1).table,
        ext_ddr_bandwidth(cfg, 1).table,
        ext_bcu_overhead(cfg),
        ext_architecture_comparison(cfg, 1).table,
        retry_budget_sweep(
            &sm_model::zoo::resnet34(1),
            cfg,
            42,
            0.05,
            &DEFAULT_RETRY_BUDGETS,
        )
        .table(),
    ]
}

/// One op: every paper and extension table, rendered.
pub fn regenerate(cfg: AccelConfig) -> Vec<String> {
    let mut tables = all_tables(cfg);
    tables.extend(ext_tables(cfg));
    tables.iter().map(Table::render).collect()
}

fn digests(rendered: &[String]) -> Vec<u64> {
    rendered.iter().map(|t| fnv64(t.as_bytes())).collect()
}

/// Whether one regeneration's tables match `reference/tables.fnv`.
pub fn matches_reference(rendered: &[String]) -> bool {
    digests(rendered) == reference()
}

fn reference() -> Vec<u64> {
    REFERENCE
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .map(|hex| u64::from_str_radix(hex, 16).expect("reference digests are hex"))
        .collect()
}

/// Prints `<digest> <first line of the table>` per table.
pub fn print_digests() {
    let rendered = regenerate(AccelConfig::default());
    for (t, d) in rendered.iter().zip(digests(&rendered)) {
        println!("{d:016x} {}", t.lines().next().unwrap_or_default());
    }
}

/// Accuracy against the abstract: the mean absolute gap in percentage
/// points between the simulated Fig. 10 reductions and 53.3/58/43%, and
/// |Fig. 13 geomean speedup − 1.93|.
pub fn paper_gaps() -> (f64, f64) {
    let cfg = AccelConfig::default();
    let rows = fig10_traffic_reduction(cfg, 1).rows;
    let gaps: Vec<f64> = paper::TRAFFIC_REDUCTION
        .iter()
        .map(|(name, want)| {
            let got = rows.iter().find(|r| r.0 == *name).map_or(0.0, |r| r.3);
            (got - want).abs() * 100.0
        })
        .collect();
    let gap_pp = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let speedup = fig13_throughput(cfg, 1).geomean_speedup;
    (gap_pp, (speedup - paper::THROUGHPUT_GAIN).abs())
}

/// Set-up: empty the tiling-plan memo, then one (cold) regeneration.
fn setup(cfg: AccelConfig) -> f64 {
    plan_cache_clear();
    let t0 = Instant::now();
    std::hint::black_box(regenerate(cfg));
    t0.elapsed().as_secs_f64()
}

pub fn run(seconds: f64) -> Outcome {
    let cfg = AccelConfig::default();
    let want = reference();
    let mut out = Outcome {
        setup_s: (0..SETUP_REPS).map(|_| setup(cfg)).collect(),
        ..Outcome::default()
    };
    let mut failed = 0;
    let mut op_ms = Vec::new();
    out.job_s = timed_jobs(seconds, 3, |_| {
        let job = Instant::now();
        for _ in 0..REGENS_PER_JOB {
            let t0 = Instant::now();
            let rendered = regenerate(cfg);
            op_ms.push(ms_since(t0));
            if digests(&rendered) != want {
                failed += 1;
            }
        }
        job.elapsed().as_secs_f64()
    });
    out.op_ms = op_ms;
    out.failed = failed;
    out
}
