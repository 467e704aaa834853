//! Regenerates the extension experiments (beyond the paper's evaluation).
//!
//! Usage: `ext_experiments [--csv <dir>] [--threads <n>]`

use sm_accel::AccelConfig;
use sm_bench::cas::SweepCtx;
use sm_bench::experiments::*;
use sm_bench::report::Table;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match sm_core::parallel::parse_threads_flag(&mut args) {
        Ok(n) => sm_core::parallel::set_threads(n),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    let cfg = AccelConfig::default();
    let tables: Vec<Table> = vec![
        ext_new_workloads(cfg, 1).table,
        ext_bandwidth_sweep(cfg, 1).table,
        ext_capacity_requirements(cfg, 1),
        ext_spill_order(cfg, 1).table,
        ext_datatype(cfg, 1).table,
        ext_pipeline_validation(cfg, 1),
        ext_share_vs_benefit(cfg, 1).table,
        ext_batch_schedule(cfg).table,
        ext_bound_breakdown(cfg, 1).table,
        ext_ddr_bandwidth(cfg, 1).table,
        ext_bcu_overhead(cfg),
        ext_architecture_comparison(cfg, 1).table,
        retry_budget(
            &sm_model::zoo::resnet34(1),
            cfg,
            42,
            0.05,
            &DEFAULT_RETRY_BUDGETS,
            SweepCtx::default(),
        )
        .expect("a sweep without a cancel source cannot be cancelled")
        .table(),
    ];
    for t in &tables {
        println!("{}", t.render());
        sm_bench::report::maybe_csv(t);
    }
}
