//! Graceful-degradation studies: traffic and throughput as hardware fails.
//!
//! Robustness extension beyond the paper, in six sweeps, each named after
//! its `smctl serve` kind:
//!
//! * [`chaos_curve`] — bank-failure fractions on one network;
//! * [`chaos_grid`] — bank-failure fraction × DRAM fault rate (2-D);
//! * [`chaos_grid3`] — the 3-D volume adding a weight-SRAM/PE-array
//!   site-strike axis under parity protection;
//! * [`control_path`] — BCU mapping-table strikes under SECDED ECC
//!   with a multi-bit width distribution, comparing the
//!   [`RecoveryPolicy`] ladder (abort / refetch / recompute);
//! * [`scheduler`] — scheduler-metadata strikes (retention table,
//!   pin set, spill queue) comparing all four recovery tiers including
//!   checkpoint/rollback;
//! * [`retry_budget`] — the DRAM retry budget at a fixed fault rate.
//!
//! Every run executes in checked mode under a deterministic [`FaultPlan`],
//! so an accounting violation would surface as a typed error in the report
//! rather than a wrong number. Every sweep builds its cells and hands them
//! to the one dispatcher, [`cached_cells`], under the caller's [`SweepCtx`]
//! (result cache, cancel check, per-cell stream), so each fans out over
//! [`sm_core::parallel`] as one flattened batch — byte-identical at any
//! thread count, cached or not.

use serde::{Deserialize, Serialize};

use sm_accel::{AccelConfig, RunStats};
use sm_core::parallel::Cancelled;
use sm_core::{FaultPlan, Policy, Protection, RecoveryPolicy, SimOptions};
use sm_mem::TrafficClass;
use sm_model::Network;

use crate::cas::{cached_cells, cell_key, content_fingerprint, CacheSession, SweepCtx};
use crate::report::{pct, Table};

/// Everything a chaos cell's result is a function of, serialized
/// canonically for [`cell_key`]: the network (by content fingerprint), the
/// accelerator config, the (fixed) policy, and the cell's complete fault
/// plan — seed, rates, budgets, and recovery settings included. Any single
/// differing field changes the key.
#[derive(Serialize)]
struct ChaosKeyInputs {
    network: String,
    net_fingerprint: String,
    config: AccelConfig,
    policy: Policy,
    plan: FaultPlan,
}

/// Applies the `--retry-budget` override, keeping the plan's first-retry
/// stall; `None` keeps the [`FaultPlan`] default.
fn with_budget(plan: FaultPlan, budget: Option<u32>) -> FaultPlan {
    match budget {
        Some(budget) => {
            let stall = plan.retry_stall_cycles;
            plan.with_retry_budget(budget, stall)
        }
        None => plan,
    }
}

/// Every `(a, b)` pair, `a`-major (row-major over a 2-D sweep).
fn cross<A: Copy, B: Copy>(a: &[A], b: &[B]) -> Vec<(A, B)> {
    a.iter()
        .flat_map(|&x| b.iter().map(move |&y| (x, y)))
        .collect()
}

/// The body every chaos sweep shares: one checked Shortcut Mining run of
/// `net` per cell under `plan_for(cell)`, dispatched by [`cached_cells`]
/// with `kind`-tagged cell keys. `fold` turns a cell and its run (the
/// stats, or the display form of the [`sm_core::SimError`]) into the cell
/// result.
fn chaos_cells<T, U>(
    kind: &str,
    net: &Network,
    config: AccelConfig,
    cells: &[T],
    plan_for: impl Fn(&T) -> FaultPlan + Sync,
    fold: impl Fn(&T, Result<&RunStats, String>) -> U + Sync,
    ctx: SweepCtx<'_, U>,
) -> Result<Vec<U>, Cancelled>
where
    T: Sync,
    U: Serialize + Deserialize + Send,
{
    let exp = sm_core::Experiment::new(config);
    // One network fingerprint per sweep, shared by every cell key.
    let keys = || {
        let net_fingerprint = content_fingerprint(net).expect("networks serialize");
        let key = |c| ChaosKeyInputs {
            network: net.name().to_string(),
            net_fingerprint: net_fingerprint.clone(),
            config,
            policy: Policy::shortcut_mining(),
            plan: plan_for(c),
        };
        cells
            .iter()
            .map(|c| cell_key(kind, &key(c)).expect("chaos cell inputs serialize"))
            .collect()
    };
    // Every cell replays the same network, so the MAC count is the
    // per-cell cost estimate.
    cached_cells(
        ctx,
        cells,
        keys,
        |_| net.total_macs(),
        |c| {
            let options = SimOptions::with_faults(plan_for(c));
            let run = exp.run_checked(net, Policy::shortcut_mining(), &options);
            fold(c, run.as_ref().map(|r| &r.stats).map_err(|e| e.to_string()))
        },
    )
}

/// One point on a degradation curve.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosPoint {
    /// Requested fraction of pool banks to fail.
    pub fail_fraction: f64,
    /// Banks actually revoked (rounded from the fraction).
    pub banks_failed: usize,
    /// Whether the run completed (vs. refusing with a typed error).
    pub completed: bool,
    /// Display form of the [`sm_core::SimError`] when not completed.
    pub error: Option<String>,
    /// Off-chip feature-map bytes (fault-recovery spills included).
    pub fm_bytes: u64,
    /// All off-chip bytes.
    pub total_bytes: u64,
    /// Bytes re-transferred after injected DRAM failures.
    pub retry_bytes: u64,
    /// Bytes evacuated to DRAM while revoking owned banks.
    pub evicted_bytes: u64,
    /// End-to-end cycles (0 when the run did not complete).
    pub total_cycles: u64,
    /// Sustained throughput in GOP/s (0 when the run did not complete).
    pub throughput_gops: f64,
}

/// Degradation curve for one network under one fault configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosCurve {
    /// Network name.
    pub network: String,
    /// Fault-plan seed shared by every point.
    pub seed: u64,
    /// Per-attempt DRAM failure probability shared by every point.
    pub dram_fault_rate: f64,
    /// Retry budget (max re-attempts per failed DRAM transfer) shared by
    /// every point.
    pub max_retries: u32,
    /// One point per swept bank-failure fraction, in sweep order.
    pub points: Vec<ChaosPoint>,
}

impl ChaosCurve {
    /// Renders the curve as an aligned text table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("chaos degradation — {}", self.network),
            &[
                "banks failed",
                "status",
                "fm MiB",
                "retry MiB",
                "evicted MiB",
                "GOP/s",
            ],
        );
        let mib = |b: u64| format!("{:.2}", b as f64 / (1 << 20) as f64);
        for p in &self.points {
            t.row(&[
                format!("{} ({})", pct(p.fail_fraction), p.banks_failed),
                if p.completed {
                    "ok".to_string()
                } else {
                    p.error.clone().unwrap_or_else(|| "error".into())
                },
                mib(p.fm_bytes),
                mib(p.retry_bytes),
                mib(p.evicted_bytes),
                format!("{:.1}", p.throughput_gops),
            ]);
        }
        t
    }
}

/// Sweeps bank-failure fractions on one network, running Shortcut Mining in
/// checked mode under a deterministic fault plan at each point.
///
/// `fractions` are clamped to `[0, 1]`; the first point is conventionally
/// `0.0` so the curve anchors at fault-free behavior. `retry_budget`
/// overrides the [`FaultPlan`] default when `Some` (the `--retry-budget`
/// knob). Points are independent and keep sweep order.
///
/// # Errors
///
/// Returns [`Cancelled`] when `ctx.cancel` fired before the sweep completed.
pub fn chaos_curve(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    fractions: &[f64],
    dram_fault_rate: f64,
    retry_budget: Option<u32>,
    ctx: SweepCtx<'_, ChaosPoint>,
) -> Result<ChaosCurve, Cancelled> {
    let base_plan = with_budget(
        FaultPlan::new(seed).with_dram_faults(dram_fault_rate),
        retry_budget,
    );
    let points = chaos_cells(
        "chaos-point",
        net,
        config,
        fractions,
        |&f| base_plan.clone().with_bank_failures(f),
        |&fail_fraction, run| match run {
            Ok(s) => ChaosPoint {
                fail_fraction,
                banks_failed: s.faults.banks_failed,
                completed: true,
                error: None,
                fm_bytes: s.fm_traffic_bytes(),
                total_bytes: s.total_traffic_bytes(),
                retry_bytes: s.ledger.class_bytes(TrafficClass::Retry),
                evicted_bytes: s.faults.evicted_bytes,
                total_cycles: s.total_cycles,
                throughput_gops: s.throughput_gops(),
            },
            Err(e) => ChaosPoint {
                fail_fraction,
                error: Some(e),
                ..ChaosPoint::default()
            },
        },
        ctx,
    )?;
    Ok(ChaosCurve {
        network: net.name().to_string(),
        seed,
        dram_fault_rate,
        max_retries: base_plan.max_retries,
        points,
    })
}

/// Kept with this signature for the `perfbench` harness, which calls it;
/// everything else calls [`chaos_curve`].
#[allow(clippy::too_many_arguments)]
pub fn chaos_degradation_with_budget_cached(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    fractions: &[f64],
    dram_fault_rate: f64,
    retry_budget: Option<u32>,
    cache: Option<&CacheSession<'_>>,
    on_cell: impl FnMut(usize, bool, &ChaosPoint),
) -> ChaosCurve {
    chaos_curve(
        net,
        config,
        seed,
        fractions,
        dram_fault_rate,
        retry_budget,
        SweepCtx {
            cache,
            cancel: None,
            on_cell: Box::new(on_cell),
        },
    )
    .expect("a sweep without a cancel source cannot be cancelled")
}

/// The default sweep: fault-free anchor plus five escalating fractions.
pub const DEFAULT_FRACTIONS: [f64; 6] = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5];

/// Default bank-failure fractions of the 2-D grid (`smctl chaos --grid`).
pub const DEFAULT_GRID_FRACTIONS: [f64; 3] = [0.0, 0.1, 0.3];

/// Default DRAM fault rates of the 2-D grid (`smctl chaos --grid`).
pub const DEFAULT_GRID_RATES: [f64; 3] = [0.0, 0.05, 0.2];

/// One cell of the 2-D degradation grid: one checked run at a
/// (bank-failure fraction, DRAM fault rate) pair.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosGridCell {
    /// Requested fraction of pool banks to fail.
    pub bank_fail_fraction: f64,
    /// Per-attempt DRAM failure probability.
    pub dram_fault_rate: f64,
    /// Whether the run completed (vs. refusing with a typed error).
    pub completed: bool,
    /// Display form of the [`sm_core::SimError`] when not completed.
    pub error: Option<String>,
    /// Off-chip feature-map bytes (fault-recovery spills included).
    pub fm_bytes: u64,
    /// All off-chip bytes.
    pub total_bytes: u64,
    /// Bytes re-transferred after injected DRAM failures.
    pub retry_bytes: u64,
    /// End-to-end cycles (0 when the run did not complete).
    pub total_cycles: u64,
}

/// 2-D degradation surface for one network: bank-failure fraction ×
/// DRAM fault rate (ext. experiment 8, `smctl chaos --grid`).
///
/// `cells` is row-major: all rates for `fractions[0]` first. Every cell is
/// an independent checked run fanned out over [`sm_core::parallel`] as one
/// flattened batch, so the grid is byte-identical at any thread count.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosGrid {
    /// Network name.
    pub network: String,
    /// Fault-plan seed shared by every cell.
    pub seed: u64,
    /// Swept bank-failure fractions (grid rows).
    pub fractions: Vec<f64>,
    /// Swept DRAM fault rates (grid columns).
    pub rates: Vec<f64>,
    /// Row-major cells (`fractions.len() * rates.len()`).
    pub cells: Vec<ChaosGridCell>,
}

impl ChaosGrid {
    /// The cell at (fraction index, rate index).
    pub fn cell(&self, fraction_idx: usize, rate_idx: usize) -> &ChaosGridCell {
        &self.cells[fraction_idx * self.rates.len() + rate_idx]
    }

    /// Renders the grid as an aligned text table: one row per bank-failure
    /// fraction, one column per DRAM fault rate, each cell total off-chip
    /// MiB (or the error for refused runs).
    pub fn table(&self) -> Table {
        let headers: Vec<String> = std::iter::once("banks failed".to_string())
            .chain(self.rates.iter().map(|r| format!("dram {r}")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            format!("chaos degradation grid — {} (total MiB)", self.network),
            &header_refs,
        );
        for (fi, &f) in self.fractions.iter().enumerate() {
            let mut row = vec![pct(f)];
            for ri in 0..self.rates.len() {
                let c = self.cell(fi, ri);
                row.push(if c.completed {
                    format!("{:.2}", c.total_bytes as f64 / (1 << 20) as f64)
                } else {
                    c.error.clone().unwrap_or_else(|| "error".into())
                });
            }
            t.row(&row);
        }
        t
    }
}

/// Sweeps the full cross product of bank-failure fractions × DRAM fault
/// rates on one network, one checked Shortcut Mining run per cell.
///
/// `retry_budget` overrides the [`FaultPlan`] default when `Some` (the
/// `--retry-budget` knob). All cells share `seed`, so a cell's fault
/// stream depends only on its own (fraction, rate) pair and the grid is
/// deterministic for a fixed seed.
///
/// # Errors
///
/// Returns [`Cancelled`] when `ctx.cancel` fired before the sweep completed.
pub fn chaos_grid(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    fractions: &[f64],
    rates: &[f64],
    retry_budget: Option<u32>,
    ctx: SweepCtx<'_, ChaosGridCell>,
) -> Result<ChaosGrid, Cancelled> {
    let cells = chaos_cells(
        "chaos-grid-cell",
        net,
        config,
        &cross(fractions, rates),
        |&(f, r)| {
            let plan = FaultPlan::new(seed)
                .with_bank_failures(f)
                .with_dram_faults(r);
            with_budget(plan, retry_budget)
        },
        |&(f, r), run| match run {
            Ok(s) => ChaosGridCell {
                bank_fail_fraction: f,
                dram_fault_rate: r,
                completed: true,
                error: None,
                fm_bytes: s.fm_traffic_bytes(),
                total_bytes: s.total_traffic_bytes(),
                retry_bytes: s.ledger.class_bytes(TrafficClass::Retry),
                total_cycles: s.total_cycles,
            },
            Err(e) => ChaosGridCell {
                bank_fail_fraction: f,
                dram_fault_rate: r,
                error: Some(e),
                ..ChaosGridCell::default()
            },
        },
        ctx,
    )?;
    Ok(ChaosGrid {
        network: net.name().to_string(),
        seed,
        fractions: fractions.to_vec(),
        rates: rates.to_vec(),
        cells,
    })
}

/// Kept with this signature for the `perfbench` harness, which calls it;
/// everything else calls [`chaos_grid`].
#[allow(clippy::too_many_arguments)]
pub fn chaos_grid_cached(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    fractions: &[f64],
    rates: &[f64],
    retry_budget: Option<u32>,
    cache: Option<&CacheSession<'_>>,
    on_cell: impl FnMut(usize, bool, &ChaosGridCell),
) -> ChaosGrid {
    chaos_grid(
        net,
        config,
        seed,
        fractions,
        rates,
        retry_budget,
        SweepCtx {
            cache,
            cancel: None,
            on_cell: Box::new(on_cell),
        },
    )
    .expect("a sweep without a cancel source cannot be cancelled")
}

/// Default site-strike rates of the 3-D grid (`smctl chaos --grid
/// --site-rate`): the fault-free anchor plus one moderate rate.
pub const DEFAULT_GRID_SITE_RATES: [f64; 2] = [0.0, 0.3];

/// One cell of the 3-D degradation grid: one checked run at a
/// (bank-failure fraction, DRAM fault rate, site-strike rate) triple.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChaosGrid3Cell {
    /// Requested fraction of pool banks to fail.
    pub bank_fail_fraction: f64,
    /// Per-attempt DRAM failure probability.
    pub dram_fault_rate: f64,
    /// Per-layer weight-SRAM/PE-array strike probability.
    pub site_fault_rate: f64,
    /// Whether the run completed (vs. refusing with a typed error).
    pub completed: bool,
    /// Display form of the [`sm_core::SimError`] when not completed.
    pub error: Option<String>,
    /// Off-chip feature-map bytes (fault-recovery spills included).
    pub fm_bytes: u64,
    /// All off-chip bytes.
    pub total_bytes: u64,
    /// Bytes re-transferred after injected faults (DRAM retries plus
    /// parity-detected weight refetches).
    pub retry_bytes: u64,
    /// End-to-end cycles (0 when the run did not complete).
    pub total_cycles: u64,
}

/// 3-D degradation volume for one network: bank-failure fraction × DRAM
/// fault rate × site-strike rate (`smctl chaos --grid --site-rate`).
///
/// Site strikes run at [`Protection::Parity`] on both the weight SRAM and
/// the PE array, so they are value-safe — every strike is detected and
/// surfaces as `Retry` traffic or stall cycles, never silent corruption —
/// and the volume isolates the *cost* of control/datapath protection from
/// the bank and DRAM axes. `cells` is laid out fraction-major, then rate,
/// then site rate; every cell is an independent checked run fanned out over
/// [`sm_core::parallel`] as one flattened batch, so the volume is
/// byte-identical at any thread count.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosGrid3 {
    /// Network name.
    pub network: String,
    /// Fault-plan seed shared by every cell.
    pub seed: u64,
    /// Swept bank-failure fractions (outermost axis).
    pub fractions: Vec<f64>,
    /// Swept DRAM fault rates (middle axis).
    pub rates: Vec<f64>,
    /// Swept site-strike rates (innermost axis).
    pub site_rates: Vec<f64>,
    /// Flattened cells (`fractions.len() * rates.len() * site_rates.len()`).
    pub cells: Vec<ChaosGrid3Cell>,
}

impl ChaosGrid3 {
    /// The cell at (fraction index, rate index, site-rate index).
    pub fn cell(&self, fraction_idx: usize, rate_idx: usize, site_idx: usize) -> &ChaosGrid3Cell {
        let idx = (fraction_idx * self.rates.len() + rate_idx) * self.site_rates.len() + site_idx;
        &self.cells[idx]
    }

    /// Renders the volume as one 2-D table per site-strike rate, each in the
    /// [`ChaosGrid::table`] layout (rows = bank-failure fractions, columns =
    /// DRAM fault rates, cells = total off-chip MiB).
    pub fn tables(&self) -> Vec<Table> {
        let headers: Vec<String> = std::iter::once("banks failed".to_string())
            .chain(self.rates.iter().map(|r| format!("dram {r}")))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        self.site_rates
            .iter()
            .enumerate()
            .map(|(si, &s)| {
                let mut t = Table::new(
                    format!(
                        "chaos degradation grid — {} @ site rate {s} (total MiB)",
                        self.network
                    ),
                    &header_refs,
                );
                for (fi, &f) in self.fractions.iter().enumerate() {
                    let mut row = vec![pct(f)];
                    for ri in 0..self.rates.len() {
                        let c = self.cell(fi, ri, si);
                        row.push(if c.completed {
                            format!("{:.2}", c.total_bytes as f64 / (1 << 20) as f64)
                        } else {
                            c.error.clone().unwrap_or_else(|| "error".into())
                        });
                    }
                    t.row(&row);
                }
                t
            })
            .collect()
    }
}

/// Sweeps the full cross product of bank-failure fractions × DRAM fault
/// rates × site-strike rates on one network, one checked Shortcut Mining
/// run per cell as a single flattened parallel batch.
///
/// Each cell's site strikes hit the weight SRAM and PE array under parity
/// protection (detected, value-safe); `retry_budget` overrides the
/// [`FaultPlan`] default when `Some`. All cells share `seed`, so a cell
/// depends only on its own triple and the volume is deterministic.
///
/// # Errors
///
/// Returns [`Cancelled`] when `ctx.cancel` fired before the sweep completed.
#[allow(clippy::too_many_arguments)]
pub fn chaos_grid3(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    fractions: &[f64],
    rates: &[f64],
    site_rates: &[f64],
    retry_budget: Option<u32>,
    ctx: SweepCtx<'_, ChaosGrid3Cell>,
) -> Result<ChaosGrid3, Cancelled> {
    let cells = chaos_cells(
        "chaos-grid3-cell",
        net,
        config,
        &cross(&cross(fractions, rates), site_rates),
        |&((f, r), s)| {
            let plan = FaultPlan::new(seed)
                .with_bank_failures(f)
                .with_dram_faults(r)
                .with_weight_faults(s, Protection::Parity)
                .with_pe_faults(s, Protection::Parity);
            with_budget(plan, retry_budget)
        },
        |&((f, r), s), run| match run {
            Ok(stats) => ChaosGrid3Cell {
                bank_fail_fraction: f,
                dram_fault_rate: r,
                site_fault_rate: s,
                completed: true,
                error: None,
                fm_bytes: stats.fm_traffic_bytes(),
                total_bytes: stats.total_traffic_bytes(),
                retry_bytes: stats.ledger.class_bytes(TrafficClass::Retry),
                total_cycles: stats.total_cycles,
            },
            Err(e) => ChaosGrid3Cell {
                bank_fail_fraction: f,
                dram_fault_rate: r,
                site_fault_rate: s,
                error: Some(e),
                ..ChaosGrid3Cell::default()
            },
        },
        ctx,
    )?;
    Ok(ChaosGrid3 {
        network: net.name().to_string(),
        seed,
        fractions: fractions.to_vec(),
        rates: rates.to_vec(),
        site_rates: site_rates.to_vec(),
        cells,
    })
}

/// Default BCU strike rates of the control-path sweep (`smctl chaos
/// --control-path`): the fault-free anchor plus an escalating ladder.
pub const DEFAULT_CONTROL_PATH_RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

/// Multi-bit width distribution of the control-path sweep: 40% double-bit
/// strikes (detected-uncorrectable under SECDED) …
pub const CONTROL_PATH_DOUBLE_RATE: f64 = 0.4;

/// … and 10% triple-plus strikes (silently aliasing past SECDED).
pub const CONTROL_PATH_TRIPLE_RATE: f64 = 0.1;

/// The recovery-policy ladder compared by [`control_path`].
pub const CONTROL_PATH_POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Abort,
    RecoveryPolicy::RefetchTile,
    RecoveryPolicy::RecomputeLayer,
];

/// One point of the control-path degradation study: one checked run at a
/// (recovery policy, BCU strike rate) pair.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControlPathPoint {
    /// Recovery policy the run's fault plan used.
    pub policy: RecoveryPolicy,
    /// Per-layer BCU mapping-table strike probability.
    pub bcu_fault_rate: f64,
    /// Whether the run completed (Abort refuses at the first DUE).
    pub completed: bool,
    /// Display form of the [`sm_core::SimError`] when not completed.
    pub error: Option<String>,
    /// BCU mapping-table strikes that landed.
    pub bcu_faults: u64,
    /// Detected-uncorrectable (multi-bit) ECC events.
    pub due_events: u64,
    /// DUEs recovered by re-fetching from DRAM.
    pub recovered_refetch: u64,
    /// DUEs recovered by recomputing from still-resident inputs.
    pub recovered_recompute: u64,
    /// Strikes that defeated the protection silently (3+-bit aliasing).
    pub silent_faults: u64,
    /// Bytes re-transferred for fault recovery (`TrafficClass::Retry`).
    pub retry_bytes: u64,
    /// All off-chip bytes.
    pub total_bytes: u64,
    /// End-to-end cycles (0 when the run did not complete).
    pub total_cycles: u64,
    /// Sustained throughput in GOP/s (0 when the run did not complete).
    pub throughput_gops: f64,
}

/// Control-path degradation study for one network: how each recovery policy
/// degrades as the BCU mapping-table strike rate rises
/// (`smctl chaos --control-path`, EXPERIMENTS Ext-14).
///
/// The fault plan puts the mapping table under SECDED ECC with a non-trivial
/// multi-bit width distribution ([`CONTROL_PATH_DOUBLE_RATE`] /
/// [`CONTROL_PATH_TRIPLE_RATE`]), so single-bit strikes are corrected in
/// place, double-bit strikes become DUEs routed to the policy under test,
/// and triple-plus strikes alias silently (caught by value replay in
/// checked runs that consume the misrouted buffer).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ControlPathStudy {
    /// Network name.
    pub network: String,
    /// Fault-plan seed shared by every point.
    pub seed: u64,
    /// Compared recovery policies (outer axis).
    pub policies: Vec<RecoveryPolicy>,
    /// Swept BCU strike rates (inner axis).
    pub rates: Vec<f64>,
    /// Row-major points (`policies.len() * rates.len()`).
    pub points: Vec<ControlPathPoint>,
}

impl ControlPathStudy {
    /// The point at (policy index, rate index).
    pub fn point(&self, policy_idx: usize, rate_idx: usize) -> &ControlPathPoint {
        &self.points[policy_idx * self.rates.len() + rate_idx]
    }

    /// Renders the study as an aligned text table: one row per
    /// (policy, strike rate) pair.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("control-path degradation — {}", self.network),
            &[
                "policy",
                "bcu rate",
                "status",
                "strikes",
                "DUEs",
                "refetched",
                "recomputed",
                "silent",
                "retry MiB",
                "GOP/s",
            ],
        );
        for p in &self.points {
            t.row(&[
                format!("{:?}", p.policy),
                format!("{}", p.bcu_fault_rate),
                if p.completed {
                    "ok".to_string()
                } else {
                    p.error.clone().unwrap_or_else(|| "error".into())
                },
                p.bcu_faults.to_string(),
                p.due_events.to_string(),
                p.recovered_refetch.to_string(),
                p.recovered_recompute.to_string(),
                p.silent_faults.to_string(),
                format!("{:.3}", p.retry_bytes as f64 / (1 << 20) as f64),
                format!("{:.1}", p.throughput_gops),
            ]);
        }
        t
    }
}

/// Sweeps the recovery-policy ladder against an escalating BCU strike rate
/// on one network, one checked Shortcut Mining run per (policy, rate) pair
/// as a single flattened parallel batch.
///
/// Only the mapping table is struck (no weight or PE faults), so every DUE
/// has a live on-chip producer and the `RecomputeLayer` policy can exploit
/// residency: its recovery traffic is bounded by what the layer streamed
/// from DRAM anyway, while `RefetchTile` conservatively re-DMAs every
/// operand. `retry_budget` overrides the [`FaultPlan`] default when `Some`.
///
/// # Errors
///
/// Returns [`Cancelled`] when `ctx.cancel` fired before the sweep completed.
pub fn control_path(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    policies: &[RecoveryPolicy],
    rates: &[f64],
    retry_budget: Option<u32>,
    ctx: SweepCtx<'_, ControlPathPoint>,
) -> Result<ControlPathStudy, Cancelled> {
    let points = chaos_cells(
        "control-path-point",
        net,
        config,
        &cross(policies, rates),
        |&(policy, rate)| {
            let plan = FaultPlan::new(seed)
                .with_bcu_faults(rate, Protection::Ecc)
                .with_multi_bit(CONTROL_PATH_DOUBLE_RATE, CONTROL_PATH_TRIPLE_RATE)
                .with_recovery(policy);
            with_budget(plan, retry_budget)
        },
        |&(policy, rate), run| match run {
            Ok(s) => ControlPathPoint {
                policy,
                bcu_fault_rate: rate,
                completed: true,
                error: None,
                bcu_faults: s.faults.bcu_faults,
                due_events: s.faults.due_events,
                recovered_refetch: s.faults.recovered_refetch,
                recovered_recompute: s.faults.recovered_recompute,
                silent_faults: s.faults.silent_faults,
                retry_bytes: s.ledger.class_bytes(TrafficClass::Retry),
                total_bytes: s.total_traffic_bytes(),
                total_cycles: s.total_cycles,
                throughput_gops: s.throughput_gops(),
            },
            Err(e) => ControlPathPoint {
                policy,
                bcu_fault_rate: rate,
                error: Some(e),
                ..ControlPathPoint::default()
            },
        },
        ctx,
    )?;
    Ok(ControlPathStudy {
        network: net.name().to_string(),
        seed,
        policies: policies.to_vec(),
        rates: rates.to_vec(),
        points,
    })
}

/// Kept with this signature for the `perfbench` harness, which calls it;
/// everything else calls [`control_path`].
#[allow(clippy::too_many_arguments)]
pub fn control_path_sweep_cached(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    policies: &[RecoveryPolicy],
    rates: &[f64],
    retry_budget: Option<u32>,
    cache: Option<&CacheSession<'_>>,
    on_cell: impl FnMut(usize, bool, &ControlPathPoint),
) -> ControlPathStudy {
    control_path(
        net,
        config,
        seed,
        policies,
        rates,
        retry_budget,
        SweepCtx {
            cache,
            cancel: None,
            on_cell: Box::new(on_cell),
        },
    )
    .expect("a sweep without a cancel source cannot be cancelled")
}

/// Default scheduler-state strike rates of the scheduler sweep (`smctl
/// chaos --scheduler`): the fault-free anchor plus an escalating ladder.
pub const DEFAULT_SCHEDULER_RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

/// Multi-bit width distribution of the scheduler sweep: 40% double-bit
/// strikes (detected-uncorrectable under SECDED) …
pub const SCHEDULER_DOUBLE_RATE: f64 = 0.4;

/// … and 10% triple-plus strikes (silently aliasing past SECDED).
pub const SCHEDULER_TRIPLE_RATE: f64 = 0.1;

/// The full recovery-tier ladder compared by [`scheduler`],
/// including the checkpoint/rollback rung.
pub const SCHEDULER_POLICIES: [RecoveryPolicy; 4] = [
    RecoveryPolicy::Abort,
    RecoveryPolicy::RefetchTile,
    RecoveryPolicy::RecomputeLayer,
    RecoveryPolicy::Checkpoint,
];

/// One point of the scheduler-state degradation study: one checked run at
/// a (recovery policy, scheduler strike rate) pair.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerPoint {
    /// Recovery policy the run's fault plan used.
    pub policy: RecoveryPolicy,
    /// Per-boundary scheduler-state strike probability.
    pub scheduler_fault_rate: f64,
    /// Whether the run completed (Abort refuses at the first DUE).
    pub completed: bool,
    /// Display form of the [`sm_core::SimError`] when not completed.
    pub error: Option<String>,
    /// Scheduler-state strikes that landed (retention table, pin set,
    /// spill queue).
    pub scheduler_faults: u64,
    /// Detected-uncorrectable (multi-bit) ECC events.
    pub due_events: u64,
    /// DUEs recovered by re-fetching from DRAM.
    pub recovered_refetch: u64,
    /// DUEs recovered by recomputing from still-resident inputs.
    pub recovered_recompute: u64,
    /// DUEs recovered by rolling back to the last layer-boundary
    /// checkpoint and replaying forward.
    pub recovered_rollback: u64,
    /// Strikes that defeated the protection silently (3+-bit aliasing).
    pub silent_faults: u64,
    /// Bytes re-transferred for fault recovery (`TrafficClass::Retry`).
    pub retry_bytes: u64,
    /// All off-chip bytes.
    pub total_bytes: u64,
    /// End-to-end cycles (0 when the run did not complete).
    pub total_cycles: u64,
    /// Sustained throughput in GOP/s (0 when the run did not complete).
    pub throughput_gops: f64,
}

/// Scheduler-state degradation study for one network: how each recovery
/// tier degrades as the scheduler-metadata strike rate rises
/// (`smctl chaos --scheduler`, EXPERIMENTS Ext-15).
///
/// The fault plan puts the scheduler's retention table, pin set, and spill
/// queue under SECDED ECC with a non-trivial multi-bit width distribution
/// ([`SCHEDULER_DOUBLE_RATE`] / [`SCHEDULER_TRIPLE_RATE`]), so single-bit
/// strikes are corrected in place, double-bit strikes become DUEs routed
/// to the policy under test, and triple-plus strikes alias silently
/// (caught by the boundary consistency hash in checked value replay). The
/// `Checkpoint` rung rolls back to the last consistent layer-boundary
/// snapshot of scheduler metadata and replays forward, charging only the
/// operands that were not kept resident — strictly no more than
/// `RecomputeLayer` pays.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SchedulerStudy {
    /// Network name.
    pub network: String,
    /// Fault-plan seed shared by every point.
    pub seed: u64,
    /// Compared recovery policies (outer axis).
    pub policies: Vec<RecoveryPolicy>,
    /// Swept scheduler strike rates (inner axis).
    pub rates: Vec<f64>,
    /// Row-major points (`policies.len() * rates.len()`).
    pub points: Vec<SchedulerPoint>,
}

impl SchedulerStudy {
    /// The point at (policy index, rate index).
    pub fn point(&self, policy_idx: usize, rate_idx: usize) -> &SchedulerPoint {
        &self.points[policy_idx * self.rates.len() + rate_idx]
    }

    /// Renders the study as an aligned text table: one row per
    /// (policy, strike rate) pair.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("scheduler-state degradation — {}", self.network),
            &[
                "policy",
                "sched rate",
                "status",
                "strikes",
                "DUEs",
                "refetched",
                "recomputed",
                "rolled back",
                "silent",
                "retry MiB",
                "GOP/s",
            ],
        );
        for p in &self.points {
            t.row(&[
                format!("{:?}", p.policy),
                format!("{}", p.scheduler_fault_rate),
                if p.completed {
                    "ok".to_string()
                } else {
                    p.error.clone().unwrap_or_else(|| "error".into())
                },
                p.scheduler_faults.to_string(),
                p.due_events.to_string(),
                p.recovered_refetch.to_string(),
                p.recovered_recompute.to_string(),
                p.recovered_rollback.to_string(),
                p.silent_faults.to_string(),
                format!("{:.3}", p.retry_bytes as f64 / (1 << 20) as f64),
                format!("{:.1}", p.throughput_gops),
            ]);
        }
        t
    }
}

/// Sweeps the four-tier recovery ladder against an escalating
/// scheduler-state strike rate on one network, one checked Shortcut Mining
/// run per (policy, rate) pair as a single flattened parallel batch.
///
/// Only scheduler metadata is struck (no bank, DRAM, weight, PE, or BCU
/// faults), so the study isolates what each rung pays to survive a
/// corrupted retention record: `RefetchTile` conservatively re-DMAs every
/// operand, `RecomputeLayer` replays from still-resident inputs, and
/// `Checkpoint` restores the last consistent metadata snapshot and pays
/// only for the operands it could not keep resident. `retry_budget`
/// overrides the [`FaultPlan`] default when `Some`.
///
/// # Errors
///
/// Returns [`Cancelled`] when `ctx.cancel` fired before the sweep completed.
pub fn scheduler(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    policies: &[RecoveryPolicy],
    rates: &[f64],
    retry_budget: Option<u32>,
    ctx: SweepCtx<'_, SchedulerPoint>,
) -> Result<SchedulerStudy, Cancelled> {
    let points = chaos_cells(
        "scheduler-point",
        net,
        config,
        &cross(policies, rates),
        |&(policy, rate)| {
            let plan = FaultPlan::new(seed)
                .with_scheduler_faults(rate, Protection::Ecc)
                .with_multi_bit(SCHEDULER_DOUBLE_RATE, SCHEDULER_TRIPLE_RATE)
                .with_recovery(policy);
            with_budget(plan, retry_budget)
        },
        |&(policy, rate), run| match run {
            Ok(s) => SchedulerPoint {
                policy,
                scheduler_fault_rate: rate,
                completed: true,
                error: None,
                scheduler_faults: s.faults.scheduler_faults,
                due_events: s.faults.due_events,
                recovered_refetch: s.faults.recovered_refetch,
                recovered_recompute: s.faults.recovered_recompute,
                recovered_rollback: s.faults.recovered_rollback,
                silent_faults: s.faults.silent_faults,
                retry_bytes: s.ledger.class_bytes(TrafficClass::Retry),
                total_bytes: s.total_traffic_bytes(),
                total_cycles: s.total_cycles,
                throughput_gops: s.throughput_gops(),
            },
            Err(e) => SchedulerPoint {
                policy,
                scheduler_fault_rate: rate,
                error: Some(e),
                ..SchedulerPoint::default()
            },
        },
        ctx,
    )?;
    Ok(SchedulerStudy {
        network: net.name().to_string(),
        seed,
        policies: policies.to_vec(),
        rates: rates.to_vec(),
        points,
    })
}

/// Kept with this signature for the `perfbench` harness, which calls it;
/// everything else calls [`scheduler`].
#[allow(clippy::too_many_arguments)]
pub fn scheduler_sweep_cached(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    policies: &[RecoveryPolicy],
    rates: &[f64],
    retry_budget: Option<u32>,
    cache: Option<&CacheSession<'_>>,
    on_cell: impl FnMut(usize, bool, &SchedulerPoint),
) -> SchedulerStudy {
    scheduler(
        net,
        config,
        seed,
        policies,
        rates,
        retry_budget,
        SweepCtx {
            cache,
            cancel: None,
            on_cell: Box::new(on_cell),
        },
    )
    .expect("a sweep without a cancel source cannot be cancelled")
}

/// The default retry budgets swept by [`retry_budget`].
pub const DEFAULT_RETRY_BUDGETS: [u32; 5] = [0, 1, 2, 4, 8];

/// One point of the retry-budget sensitivity study.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RetryBudgetPoint {
    /// Max re-attempts per failed DRAM transfer.
    pub max_retries: u32,
    /// Whether the run completed (a tight budget can exhaust and abort).
    pub completed: bool,
    /// Display form of the error when not completed.
    pub error: Option<String>,
    /// Injected DRAM failures that were retried.
    pub dram_retries: u64,
    /// Bytes re-transferred by those retries.
    pub retry_bytes: u64,
    /// Cycles spent stalled waiting on retries.
    pub retry_stall_cycles: u64,
    /// End-to-end cycles (0 when the run did not complete).
    pub total_cycles: u64,
    /// Sustained throughput in GOP/s (0 when the run did not complete).
    pub throughput_gops: f64,
}

/// Retry-budget sensitivity study for one network: how large a per-transfer
/// retry budget must be before a given DRAM fault rate stops aborting runs,
/// and what the surviving runs pay in stall cycles.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RetryBudgetStudy {
    /// Network name.
    pub network: String,
    /// Fault-plan seed shared by every point.
    pub seed: u64,
    /// Per-attempt DRAM failure probability shared by every point.
    pub dram_fault_rate: f64,
    /// One point per swept budget, in sweep order.
    pub points: Vec<RetryBudgetPoint>,
}

impl RetryBudgetStudy {
    /// Renders the study as an aligned text table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "retry-budget sensitivity — {} (DRAM fault rate {})",
                self.network, self.dram_fault_rate
            ),
            &[
                "budget",
                "status",
                "retries",
                "retry MiB",
                "stall cycles",
                "GOP/s",
            ],
        );
        for p in &self.points {
            t.row(&[
                p.max_retries.to_string(),
                if p.completed {
                    "ok".to_string()
                } else {
                    p.error.clone().unwrap_or_else(|| "error".into())
                },
                p.dram_retries.to_string(),
                format!("{:.2}", p.retry_bytes as f64 / (1 << 20) as f64),
                p.retry_stall_cycles.to_string(),
                format!("{:.1}", p.throughput_gops),
            ]);
        }
        t
    }
}

/// Sweeps the DRAM retry budget on one network at a fixed fault rate
/// (ROADMAP: retry-budget sensitivity). Each budget is an independent
/// checked run, fanned out over [`sm_core::parallel`] in sweep order.
///
/// # Errors
///
/// Returns [`Cancelled`] when `ctx.cancel` fired before the sweep completed.
pub fn retry_budget(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    dram_fault_rate: f64,
    budgets: &[u32],
    ctx: SweepCtx<'_, RetryBudgetPoint>,
) -> Result<RetryBudgetStudy, Cancelled> {
    let points = chaos_cells(
        "retry-budget-point",
        net,
        config,
        budgets,
        |&budget| {
            let plan = FaultPlan::new(seed).with_dram_faults(dram_fault_rate);
            with_budget(plan, Some(budget))
        },
        |&max_retries, run| match run {
            Ok(s) => RetryBudgetPoint {
                max_retries,
                completed: true,
                error: None,
                dram_retries: s.faults.dram_retries,
                retry_bytes: s.ledger.class_bytes(TrafficClass::Retry),
                retry_stall_cycles: s.faults.retry_stall_cycles,
                total_cycles: s.total_cycles,
                throughput_gops: s.throughput_gops(),
            },
            Err(e) => RetryBudgetPoint {
                max_retries,
                error: Some(e),
                ..RetryBudgetPoint::default()
            },
        },
        ctx,
    )?;
    Ok(RetryBudgetStudy {
        network: net.name().to_string(),
        seed,
        dram_fault_rate,
        points,
    })
}

/// Kept with this signature for the `perfbench` harness, which calls it;
/// everything else calls [`retry_budget`].
pub fn retry_budget_sweep(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    dram_fault_rate: f64,
    budgets: &[u32],
) -> RetryBudgetStudy {
    retry_budget(
        net,
        config,
        seed,
        dram_fault_rate,
        budgets,
        SweepCtx::default(),
    )
    .expect("a sweep without a cancel source cannot be cancelled")
}

/// Kept with this signature for the `perfbench` harness, which calls it;
/// everything else calls [`retry_budget`].
pub fn retry_budget_sweep_cached(
    net: &Network,
    config: AccelConfig,
    seed: u64,
    dram_fault_rate: f64,
    budgets: &[u32],
    cache: Option<&CacheSession<'_>>,
    on_cell: impl FnMut(usize, bool, &RetryBudgetPoint),
) -> RetryBudgetStudy {
    retry_budget(
        net,
        config,
        seed,
        dram_fault_rate,
        budgets,
        SweepCtx {
            cache,
            cancel: None,
            on_cell: Box::new(on_cell),
        },
    )
    .expect("a sweep without a cancel source cannot be cancelled")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_model::zoo;

    fn plain<U>() -> SweepCtx<'static, U> {
        SweepCtx::default()
    }

    #[test]
    fn curve_degrades_monotonically_in_traffic() {
        let net = zoo::resnet_tiny(2, 1);
        let curve = chaos_curve(
            &net,
            AccelConfig::default(),
            9,
            &DEFAULT_FRACTIONS,
            0.0,
            None,
            plain(),
        )
        .unwrap();
        assert_eq!(curve.points.len(), DEFAULT_FRACTIONS.len());
        let base = &curve.points[0];
        assert!(base.completed && base.banks_failed == 0 && base.retry_bytes == 0);
        for p in &curve.points[1..] {
            if p.completed {
                assert!(
                    p.fm_bytes >= base.fm_bytes,
                    "faults must never reduce traffic: {} < {}",
                    p.fm_bytes,
                    base.fm_bytes
                );
            } else {
                assert!(p.error.is_some());
            }
        }
    }

    #[test]
    fn dram_faults_show_up_as_retry_traffic() {
        let net = zoo::toy_residual(1);
        let curve = chaos_curve(
            &net,
            AccelConfig::default(),
            3,
            &[0.0, 0.0],
            0.4,
            None,
            plain(),
        )
        .unwrap();
        // Same plan seed at both points: identical outcomes.
        assert_eq!(curve.points[0], curve.points[1]);
        let p = &curve.points[0];
        assert!(p.completed, "{:?}", p.error);
        assert!(p.retry_bytes > 0, "rate 0.4 must produce retries");
    }

    #[test]
    fn tight_retry_budget_aborts_and_larger_budget_recovers() {
        let net = zoo::toy_residual(1);
        let study = retry_budget(&net, AccelConfig::default(), 3, 0.4, &[0, 8], plain()).unwrap();
        assert_eq!(study.points.len(), 2);
        let (tight, roomy) = (&study.points[0], &study.points[1]);
        // Budget 0 at rate 0.4 exhausts immediately; budget 8 survives and
        // pays for it in stall cycles.
        assert!(!tight.completed, "budget 0 should exhaust at rate 0.4");
        assert!(roomy.completed, "{:?}", roomy.error);
        assert!(roomy.dram_retries > 0 && roomy.retry_stall_cycles > 0);
        assert!(study.table().render().contains("retry-budget sensitivity"));
    }

    #[test]
    fn explicit_budget_flows_into_the_curve() {
        let net = zoo::toy_residual(1);
        let curve = chaos_curve(
            &net,
            AccelConfig::default(),
            3,
            &[0.0],
            0.4,
            Some(9),
            plain(),
        );
        let curve = curve.unwrap();
        assert_eq!(curve.max_retries, 9);
        assert!(curve.points[0].completed, "{:?}", curve.points[0].error);
    }

    #[test]
    fn grid_covers_the_cross_product_and_anchors_fault_free() {
        let net = zoo::toy_residual(1);
        let grid = chaos_grid(
            &net,
            AccelConfig::default(),
            5,
            &[0.0, 0.3],
            &[0.0, 0.4],
            Some(16),
            plain(),
        )
        .unwrap();
        assert_eq!(grid.cells.len(), 4);
        let anchor = grid.cell(0, 0);
        assert!(anchor.completed, "{:?}", anchor.error);
        assert_eq!(anchor.retry_bytes, 0);
        // DRAM faults alone add retry traffic; bank failures alone add
        // feature-map traffic (or abort, for which error is set).
        let dram_only = grid.cell(0, 1);
        assert!(dram_only.completed, "{:?}", dram_only.error);
        assert!(dram_only.retry_bytes > 0);
        for c in &grid.cells {
            assert_eq!(c.completed, c.error.is_none());
        }
        let t = grid.table();
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("chaos degradation grid"));
        assert!(t.render().contains("dram 0.4"));
    }

    #[test]
    fn grid_is_deterministic_for_a_fixed_seed() {
        let net = zoo::toy_residual(1);
        let a = chaos_grid(
            &net,
            AccelConfig::default(),
            7,
            &DEFAULT_GRID_FRACTIONS,
            &DEFAULT_GRID_RATES,
            Some(8),
            plain(),
        )
        .unwrap();
        let b = chaos_grid(
            &net,
            AccelConfig::default(),
            7,
            &DEFAULT_GRID_FRACTIONS,
            &DEFAULT_GRID_RATES,
            Some(8),
            plain(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn grid3_covers_the_volume_and_site_strikes_surface_as_retry() {
        let net = zoo::toy_residual(1);
        let g = chaos_grid3(
            &net,
            AccelConfig::default(),
            5,
            &[0.0, 0.3],
            &[0.0],
            &[0.0, 1.0],
            Some(16),
            plain(),
        )
        .unwrap();
        assert_eq!(g.cells.len(), 4);
        let anchor = g.cell(0, 0, 0);
        assert!(anchor.completed, "{:?}", anchor.error);
        assert_eq!(anchor.retry_bytes, 0);
        // Site strikes alone are value-safe (parity) but cost traffic:
        // detected weight strikes refetch the layer's weights as Retry.
        let site_only = g.cell(0, 0, 1);
        assert!(site_only.completed, "{:?}", site_only.error);
        assert!(site_only.retry_bytes > 0);
        assert!(site_only.total_bytes > anchor.total_bytes);
        let tables = g.tables();
        assert_eq!(tables.len(), 2);
        assert!(tables[1].render().contains("site rate 1"));
        // Determinism for a fixed seed.
        let again = chaos_grid3(
            &net,
            AccelConfig::default(),
            5,
            &[0.0, 0.3],
            &[0.0],
            &[0.0, 1.0],
            Some(16),
            plain(),
        )
        .unwrap();
        assert_eq!(g, again);
    }

    #[test]
    fn control_path_policies_diverge_under_bcu_strikes() {
        let net = zoo::resnet_tiny(2, 1);
        let study = control_path(
            &net,
            AccelConfig::default(),
            11,
            &CONTROL_PATH_POLICIES,
            &[0.0, 1.0],
            None,
            plain(),
        )
        .unwrap();
        assert_eq!(study.points.len(), 6);
        // Fault-free anchor completes under every policy with zero strikes.
        for pi in 0..CONTROL_PATH_POLICIES.len() {
            let p = study.point(pi, 0);
            assert!(p.completed, "{:?}: {:?}", p.policy, p.error);
            assert_eq!((p.bcu_faults, p.retry_bytes), (0, 0), "{:?}", p.policy);
        }
        let abort = study.point(0, 1);
        let refetch = study.point(1, 1);
        let recompute = study.point(2, 1);
        // At rate 1.0 with 40% double-bit strikes some DUE lands, and the
        // Abort policy refuses with the typed unrecoverable error.
        assert!(!abort.completed, "abort must refuse at the first DUE");
        assert!(
            abort
                .error
                .as_deref()
                .unwrap_or("")
                .contains("uncorrectable"),
            "{:?}",
            abort.error
        );
        // Both recovery policies survive the same strike stream.
        assert!(refetch.completed, "{:?}", refetch.error);
        assert!(recompute.completed, "{:?}", recompute.error);
        assert!(refetch.due_events > 0);
        assert_eq!(refetch.due_events, recompute.due_events, "same seed");
        assert_eq!(refetch.recovered_refetch, refetch.due_events);
        assert_eq!(recompute.recovered_recompute, recompute.due_events);
        // The shortcut-mining payoff: recomputing from still-resident
        // inputs moves strictly fewer DRAM bytes than re-fetching tiles.
        assert!(
            recompute.retry_bytes < refetch.retry_bytes,
            "recompute {} vs refetch {}",
            recompute.retry_bytes,
            refetch.retry_bytes
        );
        let rendered = study.table().render();
        assert!(rendered.contains("control-path degradation"));
        assert!(rendered.contains("RecomputeLayer"));
    }

    #[test]
    fn scheduler_tiers_diverge_and_checkpoint_beats_recompute() {
        let net = zoo::resnet_tiny(2, 1);
        let study = scheduler(
            &net,
            AccelConfig::default(),
            13,
            &SCHEDULER_POLICIES,
            &[0.0, 1.0],
            None,
            plain(),
        )
        .unwrap();
        assert_eq!(study.points.len(), 8);
        // Fault-free anchor completes under every tier with zero strikes
        // and zero retry traffic — the checkpoint plumbing is free.
        for pi in 0..SCHEDULER_POLICIES.len() {
            let p = study.point(pi, 0);
            assert!(p.completed, "{:?}: {:?}", p.policy, p.error);
            assert_eq!(
                (p.scheduler_faults, p.retry_bytes),
                (0, 0),
                "{:?}",
                p.policy
            );
        }
        let abort = study.point(0, 1);
        let refetch = study.point(1, 1);
        let recompute = study.point(2, 1);
        let rollback = study.point(3, 1);
        // At rate 1.0 with 40% double-bit strikes some DUE lands, and the
        // Abort tier refuses with the typed unrecoverable error.
        assert!(!abort.completed, "abort must refuse at the first DUE");
        assert!(
            abort
                .error
                .as_deref()
                .unwrap_or("")
                .contains("uncorrectable"),
            "{:?}",
            abort.error
        );
        // The surviving tiers see the same strike stream.
        for p in [refetch, recompute, rollback] {
            assert!(p.completed, "{:?}: {:?}", p.policy, p.error);
            assert!(p.due_events > 0, "{:?}", p.policy);
        }
        assert_eq!(refetch.due_events, recompute.due_events, "same seed");
        assert_eq!(recompute.due_events, rollback.due_events, "same seed");
        assert!(rollback.recovered_rollback > 0, "rollbacks must fire");
        // The tentpole ordering: rolling back to a consistent checkpoint
        // pays no more than recomputing, which pays no more than a full
        // tile refetch.
        assert!(
            rollback.retry_bytes <= recompute.retry_bytes,
            "rollback {} vs recompute {}",
            rollback.retry_bytes,
            recompute.retry_bytes
        );
        assert!(
            recompute.retry_bytes <= refetch.retry_bytes,
            "recompute {} vs refetch {}",
            recompute.retry_bytes,
            refetch.retry_bytes
        );
        let rendered = study.table().render();
        assert!(rendered.contains("scheduler-state degradation"));
        assert!(rendered.contains("Checkpoint"));
    }

    #[test]
    fn scheduler_sweep_is_deterministic_for_a_fixed_seed() {
        let net = zoo::toy_residual(1);
        let a = scheduler(
            &net,
            AccelConfig::default(),
            7,
            &SCHEDULER_POLICIES,
            &DEFAULT_SCHEDULER_RATES,
            Some(8),
            plain(),
        )
        .unwrap();
        let b = scheduler(
            &net,
            AccelConfig::default(),
            7,
            &SCHEDULER_POLICIES,
            &DEFAULT_SCHEDULER_RATES,
            Some(8),
            plain(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn table_renders_every_point() {
        let net = zoo::toy_residual(1);
        let curve = chaos_curve(
            &net,
            AccelConfig::default(),
            1,
            &[0.0, 0.5],
            0.1,
            None,
            plain(),
        )
        .unwrap();
        let t = curve.table();
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("chaos degradation"));
    }
}
