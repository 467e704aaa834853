//! Parallel sweeps must be byte-identical to serial ones.
//!
//! `sm_core::parallel::par_map` preserves input order, so the rendered
//! tables and serialized JSON of every parallelized experiment are required
//! to match exactly between `--threads 1` and `--threads N`. A single test
//! function owns the whole comparison because the thread count is a
//! process-global setting.

use shortcut_mining::accel::AccelConfig;
use shortcut_mining::bench::cas::SweepCtx;
use shortcut_mining::bench::experiments::{
    chaos_curve, chaos_grid, chaos_grid3, control_path, ext_bandwidth_sweep, ext_datatype,
    ext_ddr_bandwidth, fig10_traffic_reduction, fig11_traffic_breakdown, fig13_throughput,
    fig14_capacity_sweep, fig15_batch_sweep, retry_budget, CONTROL_PATH_POLICIES,
    DEFAULT_CONTROL_PATH_RATES, DEFAULT_FRACTIONS, DEFAULT_GRID_FRACTIONS, DEFAULT_GRID_RATES,
    DEFAULT_GRID_SITE_RATES, DEFAULT_RETRY_BUDGETS,
};
use shortcut_mining::bench::json::to_json;
use shortcut_mining::core::parallel::set_threads;
use shortcut_mining::model::zoo;

/// Renders every parallelized experiment at the current thread setting.
fn render_all() -> String {
    let cfg = AccelConfig::default();
    let net = zoo::resnet_tiny(2, 1);
    let mut out = String::new();
    out.push_str(&fig10_traffic_reduction(cfg, 1).table.render());
    out.push_str(&fig11_traffic_breakdown(cfg, 1).table.render());
    out.push_str(&fig13_throughput(cfg, 1).table.render());
    out.push_str(&fig14_capacity_sweep(cfg, 1).table.render());
    out.push_str(&fig15_batch_sweep(cfg).table.render());
    out.push_str(&ext_bandwidth_sweep(cfg, 1).table.render());
    out.push_str(&ext_datatype(cfg, 1).table.render());
    out.push_str(&ext_ddr_bandwidth(cfg, 1).table.render());
    let curve = chaos_curve(
        &net,
        cfg,
        9,
        &DEFAULT_FRACTIONS,
        0.05,
        None,
        SweepCtx::default(),
    );
    let curve = curve.unwrap();
    out.push_str(&curve.table().render());
    out.push_str(&to_json(&curve).expect("curve serializes"));
    let study = retry_budget(
        &net,
        cfg,
        9,
        0.2,
        &DEFAULT_RETRY_BUDGETS,
        SweepCtx::default(),
    );
    let study = study.unwrap();
    out.push_str(&study.table().render());
    out.push_str(&to_json(&study).expect("study serializes"));
    let grid = chaos_grid(
        &net,
        cfg,
        9,
        &DEFAULT_GRID_FRACTIONS,
        &DEFAULT_GRID_RATES,
        Some(8),
        SweepCtx::default(),
    )
    .unwrap();
    out.push_str(&grid.table().render());
    out.push_str(&to_json(&grid).expect("grid serializes"));
    let grid3 = chaos_grid3(
        &net,
        cfg,
        9,
        &DEFAULT_GRID_FRACTIONS,
        &DEFAULT_GRID_RATES,
        &DEFAULT_GRID_SITE_RATES,
        Some(8),
        SweepCtx::default(),
    )
    .unwrap();
    for t in grid3.tables() {
        out.push_str(&t.render());
    }
    out.push_str(&to_json(&grid3).expect("grid3 serializes"));
    let control = control_path(
        &net,
        cfg,
        9,
        &CONTROL_PATH_POLICIES,
        &DEFAULT_CONTROL_PATH_RATES,
        None,
        SweepCtx::default(),
    )
    .unwrap();
    out.push_str(&control.table().render());
    out.push_str(&to_json(&control).expect("control-path study serializes"));
    out
}

#[test]
fn one_thread_and_many_threads_render_identical_bytes() {
    set_threads(Some(1));
    let serial = render_all();
    set_threads(Some(4));
    let parallel = render_all();
    set_threads(None);
    assert_eq!(
        serial, parallel,
        "parallel sweep output diverged from serial output"
    );
}
