//! Chaos properties: under *any* fault plan the simulator must either
//! complete with value preservation intact and no less off-chip
//! feature-map traffic than the fault-free run, or refuse with a typed
//! [`SimError`] — never a panic, never an under-reported figure.
//!
//! Determinism is part of the contract too: a fault plan plus its seed
//! fully determines the run, so two executions serialize byte-identically.

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

use shortcut_mining::accel::AccelConfig;
use shortcut_mining::core::functional::verify_value_preservation_with;
use shortcut_mining::core::{Experiment, FaultPlan, Policy, SimError, SimOptions};
use shortcut_mining::model::{zoo, Network};
use sm_bench::cas::SweepCtx;

fn tiny_nets() -> Vec<Network> {
    vec![
        zoo::toy_residual(1),
        zoo::resnet_tiny(2, 1),
        zoo::squeezenet_tiny(1),
        zoo::densenet_tiny(3, 1),
    ]
}

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..10_000,
        0.0f64..1.0,
        0.0f64..0.6,
        0u32..6,
        0u64..200,
        0.0f64..0.6,
    )
        .prop_map(|(seed, banks, dram, retries, stall, corruption)| {
            FaultPlan::new(seed)
                .with_bank_failures(banks)
                .with_dram_faults(dram)
                .with_retry_budget(retries, stall)
                .with_corruption(corruption)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The headline chaos property, on analytic (traffic-level) runs over
    /// small-but-real networks: complete gracefully or fail typed.
    #[test]
    fn any_fault_plan_completes_or_fails_typed(
        plan in plan_strategy(),
        net_tag in 0usize..4,
        pool_kib in 32u64..512,
    ) {
        let net = &tiny_nets()[net_tag];
        let cfg = AccelConfig::default().with_fm_capacity(pool_kib * 1024);
        let exp = Experiment::new(cfg);
        let clean = exp
            .run_checked(net, Policy::shortcut_mining(), &SimOptions::checked())
            .expect("fault-free checked run succeeds");
        // A plain function call: a panic anywhere in the faulty run fails
        // this test case with the generated plan in the report.
        match exp.run_checked(net, Policy::shortcut_mining(), &SimOptions::with_faults(plan.clone())) {
            Ok(run) => {
                prop_assert!(
                    run.stats.fm_traffic_bytes() >= clean.stats.fm_traffic_bytes(),
                    "faults reduced fm traffic: {} < {} under {plan:?}",
                    run.stats.fm_traffic_bytes(),
                    clean.stats.fm_traffic_bytes()
                );
                prop_assert!(
                    run.stats.total_cycles >= clean.stats.total_cycles,
                    "faults reduced cycles under {plan:?}"
                );
                if plan.is_active() {
                    // Counters must be consistent with the plan actually
                    // having been armed (they may still be zero by chance).
                    prop_assert!(run.stats.faults.banks_failed <= cfg.sram.fm_pool.bank_count);
                }
            }
            Err(e @ SimError::RetryExhausted { .. }) => {
                // Legitimate refusal: only possible with DRAM faults armed.
                prop_assert!(plan.dram_fault_rate > 0.0, "{e} without DRAM faults");
            }
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "unexpected error class {e} under {plan:?}"
                )));
            }
        }
    }

    /// Value preservation survives fault injection: every evicted or
    /// corrupted byte is recoverable from DRAM when the run completes.
    #[test]
    fn faulty_runs_remain_value_preserving(
        plan in plan_strategy(),
        net_tag in 0usize..4,
        seed in 0u64..1000,
    ) {
        let net = &tiny_nets()[net_tag];
        let options = SimOptions::with_faults(plan.clone());
        match verify_value_preservation_with(net, AccelConfig::default(), Policy::shortcut_mining(), seed, &options) {
            Ok(()) => {}
            Err(shortcut_mining::core::functional::CheckError::Sim(_)) => {
                // Typed refusal before a trace existed — acceptable.
            }
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "fault plan broke value preservation: {e} under {plan:?}"
                )));
            }
        }
    }
}

/// Same plan + same seed ⇒ byte-identical serialized `RunStats`, including
/// the fault counters — the reproducibility claim of the fault subsystem.
#[test]
fn fault_injection_is_deterministic() {
    let net = zoo::resnet_tiny(3, 1);
    let exp = Experiment::default_config();
    let plan = FaultPlan::new(0xDEAD_BEEF)
        .with_bank_failures(0.3)
        .with_dram_faults(0.2)
        .with_corruption(0.3);
    let run = |plan: &FaultPlan| {
        exp.run_checked(
            &net,
            Policy::shortcut_mining(),
            &SimOptions::with_faults(plan.clone()),
        )
        .map(|r| sm_bench::json::to_json(&r.stats).expect("serializable stats"))
    };
    let a = run(&plan);
    let b = run(&plan);
    assert_eq!(a, b, "identical plans must reproduce byte-identically");
    if let Ok(json) = &a {
        assert!(json.contains(r#""banks_failed":"#));
    }

    // A different seed must (for this aggressive plan) change the outcome.
    let other = FaultPlan { seed: 1, ..plan };
    assert_ne!(run(&other), a, "seed must steer the fault stream");
}

/// Nightly-only: the chaos contract holds on mid-size ImageNet networks
/// (ResNet-18, VGG-16), not just the CIFAR-scale graphs above. Analytic
/// (traffic-level) runs, so size is cheap; gated behind `SM_NIGHTLY=1`
/// because it still multiplies the suite's wall-clock.
#[test]
fn nightly_midsize_networks_degrade_gracefully() {
    if std::env::var("SM_NIGHTLY").map_or(true, |v| v != "1") {
        eprintln!("skipping nightly mid-size chaos check (set SM_NIGHTLY=1 to run)");
        return;
    }
    for net in [zoo::resnet18(1), zoo::vgg16(1)] {
        let curve = sm_bench::experiments::chaos_curve(
            &net,
            AccelConfig::default(),
            17,
            &sm_bench::experiments::DEFAULT_FRACTIONS,
            0.05,
            None,
            SweepCtx::default(),
        )
        .unwrap();
        let clean_fm = Experiment::default_config()
            .run(&net, Policy::shortcut_mining())
            .fm_traffic_bytes();
        assert!(curve.points[0].completed, "{}: clean point", net.name());
        for p in &curve.points {
            if p.completed {
                assert!(
                    p.fm_bytes >= clean_fm,
                    "{}: {} < {clean_fm}",
                    net.name(),
                    p.fm_bytes
                );
            } else {
                assert!(p.error.is_some(), "{}", net.name());
            }
        }
        let study = sm_bench::experiments::retry_budget(
            &net,
            AccelConfig::default(),
            17,
            0.2,
            &sm_bench::experiments::DEFAULT_RETRY_BUDGETS,
            SweepCtx::default(),
        )
        .unwrap();
        assert!(
            study.points.iter().any(|p| p.completed),
            "{}: some budget must survive rate 0.2",
            net.name()
        );
    }
}

/// Degradation is graceful across a whole sweep: every point either
/// completes with at least the fault-free traffic or reports a typed error.
#[test]
fn degradation_sweep_never_underreports() {
    let net = zoo::squeezenet_tiny(1);
    let curve = sm_bench::experiments::chaos_curve(
        &net,
        AccelConfig::default(),
        11,
        &sm_bench::experiments::DEFAULT_FRACTIONS,
        0.05,
        None,
        SweepCtx::default(),
    )
    .unwrap();
    let clean_fm = Experiment::default_config()
        .run(&net, Policy::shortcut_mining())
        .fm_traffic_bytes();
    for p in &curve.points {
        if p.completed {
            assert!(p.fm_bytes >= clean_fm, "{} < {clean_fm}", p.fm_bytes);
        } else {
            assert!(p.error.is_some());
        }
    }
}
