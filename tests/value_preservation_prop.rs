//! Property-based value preservation: random network topologies × random
//! hardware configurations × every policy must replay without losing a
//! single feature-map element.
//!
//! This is the strongest end-to-end statement the workspace makes: for an
//! arbitrary DAG of convolutions, poolings, residual additions and
//! concatenations, under arbitrary capacity pressure, the Shortcut Mining
//! schedule reconstructs every operand exactly and produces outputs
//! bit-identical to the golden model.

use proptest::prelude::*;

use shortcut_mining::accel::AccelConfig;
use shortcut_mining::core::functional::verify_value_preservation;
use shortcut_mining::core::Policy;
use shortcut_mining::model::{ConvSpec, DwConvSpec, Network, NetworkBuilder, PoolSpec};
use shortcut_mining::tensor::Shape4;

/// One step of the random network program.
#[derive(Debug, Clone)]
enum Step {
    Conv {
        channels: u8,
        kernel: bool,
        stride: bool,
    },
    Pool,
    /// Residual add with any earlier same-shaped feature map.
    Add {
        pick: u8,
    },
    /// Fork into 1x1 / 3x3 expands and concatenate.
    Fork {
        channels: u8,
    },
    /// Depthwise 3x3 convolution.
    Depthwise {
        stride: bool,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (1u8..4, any::<bool>(), any::<bool>())
            .prop_map(|(channels, kernel, stride)| Step::Conv { channels, kernel, stride }),
        1 => Just(Step::Pool),
        2 => (0u8..8).prop_map(|pick| Step::Add { pick }),
        1 => (1u8..3).prop_map(|channels| Step::Fork { channels }),
        1 => any::<bool>().prop_map(|stride| Step::Depthwise { stride }),
    ]
}

/// Materializes a random program into a valid network. Steps that would be
/// illegal in the current state (shape too small to pool, no matching
/// shape for an add) are skipped, so every program yields a network.
fn build_network(steps: &[Step]) -> Network {
    let mut b = NetworkBuilder::new("random", Shape4::new(1, 4, 12, 12));
    let mut cur = b.input_id();
    let mut history = vec![cur];
    let mut n = 0usize;
    for step in steps {
        let cur_shape = b.shape_of(cur).expect("live layer");
        match step {
            Step::Conv {
                channels,
                kernel,
                stride,
            } => {
                let k = if *kernel { 3 } else { 1 };
                let s = if *stride && cur_shape.h >= 6 { 2 } else { 1 };
                let pad = if k == 3 { 1 } else { 0 };
                let spec = ConvSpec::relu(*channels as usize * 4, k, s, pad);
                cur = b.conv(format!("conv{n}"), cur, spec).expect("conv fits");
            }
            Step::Pool => {
                if cur_shape.h < 4 {
                    continue;
                }
                cur = b
                    .pool(format!("pool{n}"), cur, PoolSpec::max(2, 2, 0))
                    .expect("pool fits");
            }
            Step::Add { pick } => {
                let candidates: Vec<_> = history
                    .iter()
                    .copied()
                    .filter(|&id| id != cur && b.shape_of(id).expect("live") == cur_shape)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let other = candidates[*pick as usize % candidates.len()];
                cur = b
                    .eltwise_add(format!("add{n}"), other, cur, true)
                    .expect("shapes match");
            }
            Step::Depthwise { stride } => {
                let s = if *stride && cur_shape.h >= 6 { 2 } else { 1 };
                cur = b
                    .depthwise_conv(format!("dw{n}"), cur, DwConvSpec::relu(3, s, 1))
                    .expect("depthwise fits");
            }
            Step::Fork { channels } => {
                let c = *channels as usize * 4;
                let e1 = b
                    .conv(format!("fork{n}/e1"), cur, ConvSpec::relu(c, 1, 1, 0))
                    .expect("e1");
                let e3 = b
                    .conv(format!("fork{n}/e3"), cur, ConvSpec::relu(c, 3, 1, 1))
                    .expect("e3");
                cur = b.concat(format!("fork{n}/cat"), &[e1, e3]).expect("concat");
            }
        }
        history.push(cur);
        n += 1;
    }
    if n == 0 {
        // Ensure at least one real layer.
        b.conv("fallback", cur, ConvSpec::relu(4, 3, 1, 1))
            .expect("conv");
    }
    b.finish().expect("random network builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_networks_preserve_values_under_full_policy(
        steps in prop::collection::vec(step_strategy(), 1..14),
        pool_kib in 4u64..64,
        seed in 0u64..1000,
    ) {
        let net = build_network(&steps);
        let cfg = AccelConfig::default().with_fm_capacity(pool_kib * 1024);
        verify_value_preservation(&net, cfg, Policy::shortcut_mining(), seed)
            .unwrap_or_else(|e| panic!("{e} on {} layers, pool {pool_kib} KiB", net.len()));
    }

    #[test]
    fn random_networks_preserve_values_under_every_policy(
        steps in prop::collection::vec(step_strategy(), 1..10),
        policy_tag in 0usize..4,
    ) {
        let net = build_network(&steps);
        let policy = [
            Policy::shortcut_mining(),
            Policy::swap_only(),
            Policy::mining_only(),
            Policy::reuse_disabled(),
        ][policy_tag];
        verify_value_preservation(&net, AccelConfig::default(), policy, 17)
            .unwrap_or_else(|e| panic!("{e} under {}", policy.label()));
    }
}

/// Paper scale, nightly only (`SM_NIGHTLY=1`): ResNet-34 under every
/// protected fault plan — parity, single-bit ECC, and multi-bit ECC with
/// refetch, recompute or checkpoint recovery, on the BCU table, the weight
/// and PE sites and the scheduler state — replays bit-exactly.
#[test]
fn nightly_resnet34_protected_fault_plans_preserve_values() {
    use shortcut_mining::core::functional::verify_value_preservation_with;
    use shortcut_mining::core::{FaultPlan, Protection, RecoveryPolicy, SimOptions};

    if std::env::var("SM_NIGHTLY").map_or(true, |v| v != "1") {
        eprintln!("skipping nightly ResNet-34 protected replay (set SM_NIGHTLY=1 to run)");
        return;
    }
    let net = shortcut_mining::model::zoo::resnet34(1);
    let multi = |plan: FaultPlan, recovery| plan.with_multi_bit(1.0, 0.0).with_recovery(recovery);
    let bcu = |p| FaultPlan::new(11).with_bcu_faults(1.0, p);
    let sched = |p| FaultPlan::new(11).with_scheduler_faults(1.0, p);
    let sites = |p| {
        FaultPlan::new(11)
            .with_weight_faults(0.8, p)
            .with_pe_faults(0.8, p)
    };
    let plans = [
        bcu(Protection::Parity),
        bcu(Protection::Ecc),
        multi(bcu(Protection::Ecc), RecoveryPolicy::RefetchTile),
        multi(bcu(Protection::Ecc), RecoveryPolicy::RecomputeLayer),
        sites(Protection::Parity),
        sites(Protection::Ecc),
        sched(Protection::Parity),
        sched(Protection::Ecc),
        multi(sched(Protection::Ecc), RecoveryPolicy::Checkpoint),
        multi(sched(Protection::Ecc), RecoveryPolicy::RecomputeLayer),
    ];
    for plan in plans {
        verify_value_preservation_with(
            &net,
            AccelConfig::default(),
            Policy::shortcut_mining(),
            5,
            &SimOptions::with_faults(plan.clone()),
        )
        .unwrap_or_else(|e| panic!("{plan:?}: {e}"));
    }
}
