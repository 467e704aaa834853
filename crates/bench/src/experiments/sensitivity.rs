//! Sensitivity studies: Fig. 14 (on-chip capacity sweep) and Fig. 15
//! (batch-size sweep).
//!
//! Both sweeps fan their (x-value, network) grid out over
//! [`sm_core::parallel`]; the result tables are assembled serially from the
//! order-preserving map, so output is identical at any thread count. The
//! grids are strongly skewed — ResNet-152 at batch 8 costs ~400× what
//! SqueezeNet at batch 1 does — so dispatch is cost-aware by MAC count.

use sm_accel::AccelConfig;
use sm_model::zoo;

use super::headline::compare;
use crate::cas::SweepCtx;
use crate::report::{pct, Table};

/// Sweep result: reduction (and speedup) per (x-value, network).
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// `(x_value, network, traffic_reduction, speedup)` rows.
    pub rows: Vec<(u64, String, f64, f64)>,
    /// Rendered table.
    pub table: Table,
}

/// Fig. 14: feature-map traffic reduction as the feature-map SRAM capacity
/// sweeps from 64 KiB to 4 MiB (default config otherwise). Each
/// (capacity, network) cell is one [`compare`] cell under the
/// capacity-adjusted config.
pub fn fig14_capacity_sweep(base: AccelConfig, batch: usize) -> SweepResult {
    let nets = zoo::evaluated_networks(batch);
    let mut table = Table::new(
        "Fig 14 - traffic reduction vs on-chip feature-map capacity",
        &["capacity (KiB)", "network", "reduction", "speedup"],
    );
    let capacities = [64u64, 128, 256, 320, 512, 1024, 2048, 4096];
    let configs: Vec<AccelConfig> = capacities
        .iter()
        .map(|&kib| base.with_fm_capacity(kib * 1024))
        .collect();
    let cells = compare(&configs, &nets, SweepCtx::default())
        .expect("a sweep without a cancel source cannot be cancelled");
    let rows: Vec<(u64, String, f64, f64)> = capacities
        .iter()
        .flat_map(|&kib| std::iter::repeat_n(kib, nets.len()))
        .zip(cells)
        .map(|(kib, c)| (kib, c.network, c.traffic_reduction, c.speedup))
        .collect();
    for (kib, name, red, sp) in &rows {
        table.row(&[
            kib.to_string(),
            name.clone(),
            pct(*red),
            format!("{sp:.2}x"),
        ]);
    }
    SweepResult { rows, table }
}

/// Fig. 15: feature-map traffic reduction as the batch size sweeps 1–8.
/// The batch size is baked into each network's shapes, so the comparison
/// cells of different batches differ by network content.
pub fn fig15_batch_sweep(config: AccelConfig) -> SweepResult {
    let mut table = Table::new(
        "Fig 15 - traffic reduction vs batch size",
        &["batch", "network", "reduction", "speedup"],
    );
    let points: Vec<sm_model::Network> = [1usize, 2, 4, 8]
        .iter()
        .flat_map(|&batch| zoo::evaluated_networks(batch))
        .collect();
    let rows: Vec<(u64, String, f64, f64)> = compare(&[config], &points, SweepCtx::default())
        .expect("a sweep without a cancel source cannot be cancelled")
        .into_iter()
        .map(|c| (c.batch, c.network, c.traffic_reduction, c.speedup))
        .collect();
    for (batch, name, red, sp) in &rows {
        table.row(&[
            batch.to_string(),
            name.clone(),
            pct(*red),
            format!("{sp:.2}x"),
        ]);
    }
    SweepResult { rows, table }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_grows_with_capacity() {
        let r = fig14_capacity_sweep(AccelConfig::default(), 1);
        for net in ["resnet34", "resnet152"] {
            let series: Vec<f64> = r
                .rows
                .iter()
                .filter(|(_, n, ..)| n == net)
                .map(|(_, _, red, _)| *red)
                .collect();
            assert!(series.len() >= 6);
            // Monotone non-decreasing within noise: the largest capacity
            // must clearly beat the smallest.
            assert!(
                series.last().unwrap() > &(series.first().unwrap() + 0.2),
                "{net}: {series:?}"
            );
            for w in series.windows(2) {
                assert!(w[1] >= w[0] - 0.02, "{net} regressed: {series:?}");
            }
        }
    }

    #[test]
    fn reduction_shrinks_with_batch() {
        // Larger batches inflate working sets, so the fixed pool covers a
        // smaller fraction: reduction at batch 8 < reduction at batch 1.
        let r = fig15_batch_sweep(AccelConfig::default());
        for net in ["resnet34", "resnet152"] {
            let at = |b: u64| -> f64 {
                r.rows
                    .iter()
                    .find(|(batch, n, ..)| *batch == b && n == net)
                    .unwrap()
                    .2
            };
            assert!(at(8) < at(1), "{net}: batch8 {} !< batch1 {}", at(8), at(1));
            assert!(at(8) > 0.0, "{net} still reduces at batch 8");
        }
    }
}
