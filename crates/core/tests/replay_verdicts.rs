//! Pinned verdicts of the value-preservation replay.
//!
//! Runs `verify_value_preservation_with` over the tiny zoo networks under a
//! fixed set of plans and asserts the exact `Result` of every run, payload
//! included, so a refactor of the replay cannot change what it reports.

use sm_accel::AccelConfig;
use sm_core::functional::{verify_value_preservation_with, CheckError};
use sm_core::{FaultPlan, Policy, Protection, RecoveryPolicy, SchedStructure, SimOptions};
use sm_model::{zoo, Network};

fn networks() -> Vec<Network> {
    vec![
        zoo::toy_residual(1),
        zoo::resnet_tiny(2, 1),
        zoo::squeezenet_tiny(1),
        zoo::chain_tiny(4, 1),
        zoo::mobilenet_tiny(1),
        zoo::densenet_tiny(3, 1),
    ]
}

/// `(label, config, options, golden seed)` for every pinned run.
fn plans() -> Vec<(&'static str, AccelConfig, SimOptions, u64)> {
    let cfg = AccelConfig::default();
    let faults = |plan: FaultPlan| SimOptions::with_faults(plan);
    let ecc_multi =
        |plan: FaultPlan, recovery| plan.with_multi_bit(1.0, 0.0).with_recovery(recovery);
    vec![
        ("clean", cfg, SimOptions::default(), 7),
        (
            "pressure",
            cfg.with_fm_capacity(8 << 10),
            SimOptions::default(),
            11,
        ),
        (
            "silent-pe",
            cfg,
            faults(FaultPlan::new(3).with_pe_faults(1.0, Protection::None)),
            7,
        ),
        (
            "silent-bcu",
            cfg,
            faults(FaultPlan::new(3).with_bcu_faults(1.0, Protection::None)),
            7,
        ),
        (
            "silent-sched",
            cfg,
            faults(FaultPlan::new(3).with_scheduler_faults(1.0, Protection::None)),
            7,
        ),
        (
            "silent-pe-sparse",
            cfg,
            faults(FaultPlan::new(5).with_pe_faults(0.3, Protection::None)),
            9,
        ),
        (
            "silent-pe-pressure",
            cfg.with_fm_capacity(8 << 10),
            faults(FaultPlan::new(6).with_pe_faults(0.5, Protection::None)),
            9,
        ),
        (
            "silent-weight-sparse",
            cfg,
            faults(FaultPlan::new(8).with_weight_faults(0.4, Protection::None)),
            9,
        ),
        (
            "silent-bcu-sparse",
            cfg.with_fm_capacity(8 << 10),
            faults(FaultPlan::new(4).with_bcu_faults(0.3, Protection::None)),
            9,
        ),
        (
            "silent-pe-and-weight",
            cfg,
            faults(
                FaultPlan::new(3)
                    .with_pe_faults(1.0, Protection::None)
                    .with_weight_faults(1.0, Protection::None),
            ),
            7,
        ),
        (
            "bcu-parity",
            cfg,
            faults(FaultPlan::new(11).with_bcu_faults(1.0, Protection::Parity)),
            5,
        ),
        (
            "bcu-ecc",
            cfg,
            faults(FaultPlan::new(11).with_bcu_faults(1.0, Protection::Ecc)),
            5,
        ),
        (
            "bcu-ecc-refetch",
            cfg,
            faults(ecc_multi(
                FaultPlan::new(11).with_bcu_faults(1.0, Protection::Ecc),
                RecoveryPolicy::RefetchTile,
            )),
            5,
        ),
        (
            "bcu-ecc-recompute",
            cfg,
            faults(ecc_multi(
                FaultPlan::new(11).with_bcu_faults(1.0, Protection::Ecc),
                RecoveryPolicy::RecomputeLayer,
            )),
            5,
        ),
        (
            "site-parity",
            cfg,
            faults(
                FaultPlan::new(11)
                    .with_weight_faults(0.8, Protection::Parity)
                    .with_pe_faults(0.8, Protection::Parity),
            ),
            5,
        ),
        (
            "site-ecc",
            cfg,
            faults(
                FaultPlan::new(11)
                    .with_weight_faults(0.8, Protection::Ecc)
                    .with_pe_faults(0.8, Protection::Ecc),
            ),
            5,
        ),
        (
            "sched-parity",
            cfg,
            faults(FaultPlan::new(11).with_scheduler_faults(1.0, Protection::Parity)),
            5,
        ),
        (
            "sched-ecc",
            cfg,
            faults(FaultPlan::new(11).with_scheduler_faults(1.0, Protection::Ecc)),
            5,
        ),
        (
            "sched-ecc-checkpoint",
            cfg,
            faults(ecc_multi(
                FaultPlan::new(11).with_scheduler_faults(1.0, Protection::Ecc),
                RecoveryPolicy::Checkpoint,
            )),
            5,
        ),
        (
            "sched-ecc-recompute",
            cfg,
            faults(ecc_multi(
                FaultPlan::new(11).with_scheduler_faults(1.0, Protection::Ecc),
                RecoveryPolicy::RecomputeLayer,
            )),
            5,
        ),
    ]
}

/// A plain value mismatch.
fn mismatch(fm: usize, layer: &str, coord: [usize; 4], max_diff: f32) -> CheckError {
    CheckError::ValueMismatch {
        fm,
        layer: layer.into(),
        coord,
        max_diff,
    }
}

/// A mismatch attributed to a silent BCU mapping-table strike.
fn misroute(
    fm: usize,
    layer: &str,
    buffer: usize,
    distance: usize,
    coord: [usize; 4],
    max_diff: f32,
) -> CheckError {
    CheckError::BcuMisroute {
        fm,
        layer: layer.into(),
        buffer,
        distance,
        coord,
        max_diff,
    }
}

/// A silent strike on scheduler state.
fn sched(layer: usize, structure: SchedStructure) -> CheckError {
    CheckError::SchedulerCorrupt { layer, structure }
}

/// Every run that fails, by `(network, plan)`; every other run returns
/// `Ok(())`.
fn expected_errors() -> Vec<(&'static str, &'static str, CheckError)> {
    vec![
        (
            "toy_residual",
            "silent-pe",
            mismatch(1, "c1", [0, 0, 0, 0], 0.0625),
        ),
        (
            "toy_residual",
            "silent-bcu",
            misroute(1, "c1", 0, 1, [0, 0, 0, 0], 0.0625),
        ),
        (
            "toy_residual",
            "silent-sched",
            sched(1, SchedStructure::RetentionTable),
        ),
        (
            "toy_residual",
            "silent-pe-sparse",
            mismatch(4, "add", [0, 0, 0, 0], 0.0625),
        ),
        (
            "toy_residual",
            "silent-pe-pressure",
            mismatch(2, "c2", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "toy_residual",
            "silent-weight-sparse",
            mismatch(1, "c1", [0, 0, 0, 0], 0.03125),
        ),
        (
            "toy_residual",
            "silent-bcu-sparse",
            misroute(1, "c1", 0, 1, [0, 0, 0, 0], 0.03125),
        ),
        (
            "toy_residual",
            "silent-pe-and-weight",
            mismatch(4, "add", [0, 0, 0, 0], 0.0625),
        ),
        (
            "resnet_tiny14",
            "silent-pe",
            mismatch(1, "stem", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "resnet_tiny14",
            "silent-bcu",
            misroute(1, "stem", 0, 1, [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "resnet_tiny14",
            "silent-sched",
            sched(1, SchedStructure::RetentionTable),
        ),
        (
            "resnet_tiny14",
            "silent-pe-sparse",
            mismatch(4, "s0b0/add", [0, 0, 0, 0], 0.0625),
        ),
        (
            "resnet_tiny14",
            "silent-pe-pressure",
            mismatch(2, "s0b0/a", [0, 0, 0, 0], 0.03125),
        ),
        (
            "resnet_tiny14",
            "silent-weight-sparse",
            mismatch(1, "stem", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "resnet_tiny14",
            "silent-bcu-sparse",
            misroute(1, "stem", 0, 1, [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "resnet_tiny14",
            "silent-pe-and-weight",
            mismatch(4, "s0b0/add", [0, 0, 0, 0], 0.015625),
        ),
        (
            "squeezenet_tiny",
            "silent-pe",
            mismatch(1, "conv1", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "squeezenet_tiny",
            "silent-bcu",
            misroute(1, "conv1", 0, 1, [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "squeezenet_tiny",
            "silent-sched",
            sched(1, SchedStructure::RetentionTable),
        ),
        (
            "squeezenet_tiny",
            "silent-pe-sparse",
            mismatch(4, "fire2/expand1x1", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "squeezenet_tiny",
            "silent-pe-pressure",
            mismatch(2, "pool1", [0, 0, 0, 0], 0.25),
        ),
        (
            "squeezenet_tiny",
            "silent-weight-sparse",
            mismatch(1, "conv1", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "squeezenet_tiny",
            "silent-bcu-sparse",
            misroute(1, "conv1", 0, 1, [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "squeezenet_tiny",
            "silent-pe-and-weight",
            mismatch(2, "pool1", [0, 0, 0, 0], 0.125),
        ),
        (
            "chain4",
            "silent-pe",
            mismatch(1, "c0", [0, 0, 0, 0], 0.0625),
        ),
        (
            "chain4",
            "silent-bcu",
            misroute(1, "c0", 0, 1, [0, 0, 0, 0], 0.0625),
        ),
        (
            "chain4",
            "silent-sched",
            sched(1, SchedStructure::RetentionTable),
        ),
        (
            "chain4",
            "silent-pe-sparse",
            mismatch(4, "c3", [0, 0, 0, 0], 0.015625),
        ),
        (
            "chain4",
            "silent-pe-pressure",
            mismatch(2, "c1", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "chain4",
            "silent-weight-sparse",
            mismatch(1, "c0", [0, 0, 0, 0], 0.03125),
        ),
        (
            "chain4",
            "silent-bcu-sparse",
            misroute(1, "c0", 0, 1, [0, 0, 0, 0], 0.03125),
        ),
        (
            "mobilenet_tiny",
            "silent-pe",
            mismatch(1, "conv1", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "mobilenet_tiny",
            "silent-bcu",
            misroute(1, "conv1", 0, 1, [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "mobilenet_tiny",
            "silent-sched",
            sched(1, SchedStructure::RetentionTable),
        ),
        (
            "mobilenet_tiny",
            "silent-pe-sparse",
            mismatch(4, "ir1/add", [0, 0, 0, 0], 0.0625),
        ),
        (
            "mobilenet_tiny",
            "silent-pe-pressure",
            mismatch(2, "ir1/dw", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "mobilenet_tiny",
            "silent-weight-sparse",
            mismatch(1, "conv1", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "mobilenet_tiny",
            "silent-bcu-sparse",
            misroute(1, "conv1", 0, 1, [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "mobilenet_tiny",
            "silent-pe-and-weight",
            mismatch(4, "ir1/add", [0, 0, 0, 0], 0.015625),
        ),
        (
            "densenet_tiny3",
            "silent-pe",
            mismatch(1, "stem", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "densenet_tiny3",
            "silent-bcu",
            misroute(1, "stem", 0, 1, [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "densenet_tiny3",
            "silent-sched",
            sched(1, SchedStructure::RetentionTable),
        ),
        (
            "densenet_tiny3",
            "silent-pe-sparse",
            mismatch(6, "dense1/3x3", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "densenet_tiny3",
            "silent-pe-pressure",
            mismatch(2, "dense0/1x1", [0, 0, 0, 0], 5.877472e-39),
        ),
        (
            "densenet_tiny3",
            "silent-weight-sparse",
            mismatch(1, "stem", [0, 0, 0, 0], 0.0625),
        ),
        (
            "densenet_tiny3",
            "silent-bcu-sparse",
            misroute(1, "stem", 0, 1, [0, 0, 0, 0], 0.0625),
        ),
        (
            "densenet_tiny3",
            "silent-pe-and-weight",
            mismatch(11, "gap", [0, 0, 0, 0], 0.0625),
        ),
    ]
}

#[test]
fn replay_verdicts_are_pinned() {
    let errors = expected_errors();
    let mut runs = 0;
    for net in networks() {
        for (label, cfg, options, seed) in plans() {
            let got = verify_value_preservation_with(
                &net,
                cfg,
                Policy::shortcut_mining(),
                seed,
                &options,
            );
            let want = match errors
                .iter()
                .find(|(n, l, _)| *n == net.name() && *l == label)
            {
                Some((_, _, err)) => Err(err.clone()),
                None => Ok(()),
            };
            assert_eq!(got, want, "{} under {label}", net.name());
            runs += 1;
        }
    }
    assert_eq!(runs, 120);
    // Every pinned error names a real (network, plan) pair.
    for (n, l, _) in &errors {
        assert!(networks().iter().any(|net| net.name() == *n), "{n}");
        assert!(plans().iter().any(|(label, ..)| label == l), "{l}");
    }
}
