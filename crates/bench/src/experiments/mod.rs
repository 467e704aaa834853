//! Experiment implementations, one per paper table/figure.
//!
//! | Experiment | Function | Regenerates |
//! |---|---|---|
//! | Fig. 2 | [`fig2_shortcut_share`] | shortcut share of FM data (~40%) |
//! | Table 1 | [`table1_networks`] | network characteristics |
//! | Table 2 | [`table2_config`] | accelerator configuration |
//! | Fig. 10 | [`fig10_traffic_reduction`] | headline FM traffic reduction |
//! | Fig. 11 | [`fig11_traffic_breakdown`] | per-category traffic breakdown |
//! | Fig. 12 | [`fig12_per_block`] | per-block traffic (ResNet-34) |
//! | Fig. 13 | [`fig13_throughput`] | throughput gain (1.93×) |
//! | Fig. 14 | [`fig14_capacity_sweep`] | sensitivity to on-chip capacity |
//! | Fig. 15 | [`fig15_batch_sweep`] | sensitivity to batch size |
//! | Fig. 16 | [`fig16_energy`] | DRAM / total energy reduction |
//! | Table 3 | [`table3_ablation`] | procedure ablation |
//! | Fig. 17 | [`fig17_intermediate_layers`] | retention across N layers |
//! | Ext. 1 | [`ext_new_workloads`] | GoogLeNet / DenseNet (beyond the paper) |
//! | Ext. 2 | [`ext_bandwidth_sweep`] | speedup vs FM bandwidth |
//! | Ext. 3 | [`ext_capacity_requirements`] | capacity planning bounds |
//! | Ext. 4 | [`ext_spill_order`] | spill-victim order ablation |
//! | Ext. 5 | [`ext_datatype`] | 8/16/32-bit datatype sensitivity |
//! | Ext. 6 | [`chaos_curve`] | graceful degradation under injected faults |
//! | Ext. 7 | [`retry_budget`] | retry-budget sensitivity under DRAM faults |
//! | Ext. 8 | [`chaos_grid`] | 2-D bank-failure × DRAM-fault degradation grid |
//! | Ext. 14 | [`control_path`] | BCU-strike recovery-policy ladder |
//! | Ext. 15 | [`scheduler`] | scheduler-state strikes vs four recovery tiers |

mod ablation;
mod chaos;
mod energy;
mod extensions;
mod headline;
mod motivation;
mod per_block;
mod retention;
mod sensitivity;

pub use ablation::{table3_ablation, AblationResult};
pub use chaos::{
    chaos_curve, chaos_degradation_with_budget_cached, chaos_grid, chaos_grid3, chaos_grid_cached,
    control_path, control_path_sweep_cached, retry_budget, retry_budget_sweep,
    retry_budget_sweep_cached, scheduler, scheduler_sweep_cached, ChaosCurve, ChaosGrid,
    ChaosGrid3, ChaosGrid3Cell, ChaosGridCell, ChaosPoint, ControlPathPoint, ControlPathStudy,
    RetryBudgetPoint, RetryBudgetStudy, SchedulerPoint, SchedulerStudy, CONTROL_PATH_DOUBLE_RATE,
    CONTROL_PATH_POLICIES, CONTROL_PATH_TRIPLE_RATE, DEFAULT_CONTROL_PATH_RATES, DEFAULT_FRACTIONS,
    DEFAULT_GRID_FRACTIONS, DEFAULT_GRID_RATES, DEFAULT_GRID_SITE_RATES, DEFAULT_RETRY_BUDGETS,
    DEFAULT_SCHEDULER_RATES, SCHEDULER_DOUBLE_RATE, SCHEDULER_POLICIES, SCHEDULER_TRIPLE_RATE,
};
pub use energy::{fig16_energy, EnergyResult};
pub use extensions::{
    ext_architecture_comparison, ext_bandwidth_sweep, ext_batch_schedule, ext_bcu_overhead,
    ext_bound_breakdown, ext_capacity_requirements, ext_datatype, ext_ddr_bandwidth,
    ext_new_workloads, ext_pipeline_validation, ext_share_vs_benefit, ext_spill_order,
    ExtSweepResult,
};
pub use headline::{
    compare, compare_cells, fig10_traffic_reduction, fig11_traffic_breakdown, fig13_throughput,
    BreakdownResult, ComparisonCell, ThroughputResult, TrafficResult,
};
pub use motivation::{fig2_shortcut_share, table1_networks, table2_config, ShareResult};
pub use per_block::{fig12_per_block, PerBlockResult};
pub use retention::{fig17_intermediate_layers, RetentionResult};
pub use sensitivity::{fig14_capacity_sweep, fig15_batch_sweep, SweepResult};

/// Every table of the full evaluation at batch 1, in figure order.
///
/// The twelve builders are independent, so they run concurrently on the
/// worker pool ([`sm_core::parallel`]); the returned order (and therefore
/// any rendering of it) is the same at every thread count. This is the
/// workload behind both the `all_experiments` binary and the `smctl bench`
/// timing harness.
pub fn all_tables(cfg: sm_accel::AccelConfig) -> Vec<crate::report::Table> {
    type Job = Box<dyn Fn() -> crate::report::Table + Sync>;
    let jobs: Vec<Job> = vec![
        Box::new(move || fig2_shortcut_share(1).table),
        Box::new(move || table1_networks(1)),
        Box::new(move || table2_config(cfg)),
        Box::new(move || fig10_traffic_reduction(cfg, 1).table),
        Box::new(move || fig11_traffic_breakdown(cfg, 1).table),
        Box::new(move || fig12_per_block(cfg, 1).table),
        Box::new(move || fig13_throughput(cfg, 1).table),
        Box::new(move || fig14_capacity_sweep(cfg, 1).table),
        Box::new(move || fig15_batch_sweep(cfg).table),
        Box::new(move || fig16_energy(cfg, 1).table),
        Box::new(move || table3_ablation(cfg, 1).table),
        Box::new(move || fig17_intermediate_layers(cfg, 1).table),
    ];
    sm_core::parallel::par_map(&jobs, sm_core::parallel::threads(), |job| job())
}
