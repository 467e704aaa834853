//! Conformance properties of the scheduler-state fault plane and the
//! checkpoint/rollback recovery tier.
//!
//! The checkpoint engine makes externally checkable promises:
//!
//! * **Zero-fault identity** — arming the scheduler plane (checkpoints
//!   taken at every layer boundary) with a zero strike rate leaves the
//!   run's stats byte-identical to the fault-free checked run: the
//!   snapshots are metadata-only and charge no traffic, cycles, or energy.
//! * **Tier ordering** — for the same strike stream, rolling back to the
//!   last consistent checkpoint never moves more DRAM bytes than
//!   recomputing the layer, which never moves more than a full tile
//!   refetch.
//! * **Monotone escalation** — when a tier's per-run budget exhausts, the
//!   engine only ever moves *up* the ladder
//!   (`RefetchTile → RecomputeLayer → Checkpoint → Abort`), and the
//!   recorded recovery actions respect the configured allowances.
//! * **Determinism** — the same plan yields byte-identical stats on every
//!   run and at every thread count.

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

use shortcut_mining::core::{
    parallel, Experiment, FaultPlan, Policy, Protection, RecoveryAction, RecoveryBudget,
    RecoveryPolicy, SimOptions, TraceEvent,
};
use shortcut_mining::mem::TrafficClass;
use shortcut_mining::model::{zoo, Network};
use sm_bench::json::to_json;

fn tiny_nets() -> Vec<Network> {
    vec![
        zoo::toy_residual(1),
        zoo::resnet_tiny(2, 1),
        zoo::squeezenet_tiny(1),
        zoo::densenet_tiny(3, 1),
    ]
}

/// Every ledger class except `Retry`.
const NON_RETRY: [TrafficClass; 6] = [
    TrafficClass::IfmRead,
    TrafficClass::OfmWrite,
    TrafficClass::ShortcutRead,
    TrafficClass::SpillWrite,
    TrafficClass::SpillRead,
    TrafficClass::WeightRead,
];

/// A scheduler-plane plan where every strike is a double-bit DUE (no
/// silent aliasing, no correctable singles), routed to `policy`.
fn sched_due_plan(seed: u64, rate: f64, policy: RecoveryPolicy) -> FaultPlan {
    FaultPlan::new(seed)
        .with_scheduler_faults(rate, Protection::Ecc)
        .with_multi_bit(1.0, 0.0)
        .with_recovery(policy)
}

/// The escalation rank of a recovery action: refetch < recompute <
/// rollback, matching how far up the cost-saving ladder the engine went.
fn tier_rank(action: RecoveryAction) -> u8 {
    match action {
        RecoveryAction::Refetched => 0,
        RecoveryAction::Recomputed => 1,
        RecoveryAction::RolledBack => 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arming the scheduler fault plane with a zero strike rate — which
    /// still takes a metadata checkpoint at every layer boundary — leaves
    /// the run's stats byte-identical to the fault-free checked run.
    #[test]
    fn zero_rate_scheduler_plan_is_byte_identical_to_fault_free(
        seed in 0u64..10_000,
        net_tag in 0usize..4,
    ) {
        let net = &tiny_nets()[net_tag];
        let exp = Experiment::default_config();
        let clean = exp
            .run_checked(net, Policy::shortcut_mining(), &SimOptions::checked())
            .expect("fault-free checked run succeeds");
        let plan = FaultPlan::new(seed)
            .with_scheduler_faults(0.0, Protection::Ecc)
            .with_recovery(RecoveryPolicy::Checkpoint);
        let run = exp
            .run_checked(net, Policy::shortcut_mining(), &SimOptions::with_faults(plan.clone()))
            .expect("zero-rate runs never abort");
        prop_assert_eq!(
            to_json(&run.stats).expect("stats serialize"),
            to_json(&clean.stats).expect("stats serialize"),
            "checkpointing alone perturbed the stats under {:?}",
            &plan
        );
    }

    /// For the same strike stream, the recovery tiers are totally ordered
    /// in DRAM bytes: rollback ≤ recompute ≤ refetch, with identical DUE
    /// counts and untouched non-Retry traffic classes.
    #[test]
    fn rollback_traffic_never_exceeds_recompute_nor_refetch(
        seed in 0u64..10_000,
        rate in 0.0f64..1.0,
        net_tag in 0usize..4,
    ) {
        let net = &tiny_nets()[net_tag];
        let exp = Experiment::default_config();
        let run_with = |policy| {
            exp.run_checked(
                net,
                Policy::shortcut_mining(),
                &SimOptions::with_faults(sched_due_plan(seed, rate, policy)),
            )
            .expect("non-abort tiers survive scheduler DUEs")
        };
        let refetch = run_with(RecoveryPolicy::RefetchTile);
        let recompute = run_with(RecoveryPolicy::RecomputeLayer);
        let rollback = run_with(RecoveryPolicy::Checkpoint);
        // Same seed, same dedicated stream: identical strike sets.
        prop_assert_eq!(refetch.stats.faults.due_events, recompute.stats.faults.due_events);
        prop_assert_eq!(recompute.stats.faults.due_events, rollback.stats.faults.due_events);
        prop_assert_eq!(
            rollback.stats.faults.recovered_rollback
                + rollback.stats.faults.recovered_recompute,
            rollback.stats.faults.due_events,
            "every scheduler DUE under Checkpoint rolls back or recomputes"
        );
        for class in NON_RETRY {
            prop_assert_eq!(
                rollback.stats.ledger.class_bytes(class),
                refetch.stats.ledger.class_bytes(class),
                "{:?} must not depend on the recovery tier",
                class
            );
        }
        let (rf, rc, rb) = (
            refetch.stats.ledger.class_bytes(TrafficClass::Retry),
            recompute.stats.ledger.class_bytes(TrafficClass::Retry),
            rollback.stats.ledger.class_bytes(TrafficClass::Retry),
        );
        prop_assert!(rb <= rc, "rollback {} exceeded recompute {}", rb, rc);
        prop_assert!(rc <= rf, "recompute {} exceeded refetch {}", rc, rf);
    }

    /// The same plan yields byte-identical stats on every run: the
    /// scheduler stream is deterministic and checkpoint state carries no
    /// hidden nondeterminism.
    #[test]
    fn scheduler_fault_runs_are_deterministic(
        seed in 0u64..10_000,
        rate in 0.0f64..1.0,
        net_tag in 0usize..4,
    ) {
        let net = &tiny_nets()[net_tag];
        let exp = Experiment::default_config();
        let options =
            SimOptions::with_faults(sched_due_plan(seed, rate, RecoveryPolicy::Checkpoint));
        let a = exp
            .run_checked(net, Policy::shortcut_mining(), &options)
            .expect("checkpoint runs survive");
        let b = exp
            .run_checked(net, Policy::shortcut_mining(), &options)
            .expect("checkpoint runs survive");
        prop_assert_eq!(
            to_json(&a.stats).expect("stats serialize"),
            to_json(&b.stats).expect("stats serialize")
        );
    }
}

/// Exhausting a tier's budget escalates monotonically up the ladder: the
/// recorded recovery actions never step back down to a cheaper-traffic
/// tier once its allowance is spent, and each allowance is respected.
#[test]
fn budget_exhaustion_escalates_monotonically() {
    for net in tiny_nets() {
        let exp = Experiment::default_config();
        let plan = sched_due_plan(23, 1.0, RecoveryPolicy::RefetchTile).with_recovery_budget(
            RecoveryBudget {
                refetches: Some(1),
                recomputes: Some(1),
                rollbacks: None,
            },
        );
        let run = exp
            .run_checked(
                &net,
                Policy::shortcut_mining(),
                &SimOptions::with_faults(plan),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        let f = &run.stats.faults;
        assert!(
            f.due_events >= 3,
            "{}: rate 1.0 must land enough DUEs to exhaust both budgets (got {})",
            net.name(),
            f.due_events
        );
        assert_eq!(f.recovered_refetch, 1, "{}: refetch allowance", net.name());
        assert_eq!(
            f.recovered_recompute,
            1,
            "{}: recompute allowance",
            net.name()
        );
        assert_eq!(
            f.recovered_rollback,
            f.due_events - 2,
            "{}: the overflow lands on the unlimited checkpoint tier",
            net.name()
        );
        let actions: Vec<RecoveryAction> = run
            .trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Recovery { action, .. } => Some(*action),
                _ => None,
            })
            .collect();
        assert_eq!(actions.len() as u64, f.due_events, "{}", net.name());
        for w in actions.windows(2) {
            assert!(
                tier_rank(w[1]) >= tier_rank(w[0]),
                "{}: escalation stepped down from {:?} to {:?}",
                net.name(),
                w[0],
                w[1]
            );
        }
    }
}

/// The acceptance gate for the zero-overhead claim: scheduler-armed
/// zero-rate stats equal fault-free stats byte-for-byte at thread counts
/// 1 and 4, and a faulty sweep is byte-identical across thread counts.
/// (Process-global thread override: this must stay the only test in this
/// binary that calls `set_threads`.)
#[test]
fn scheduler_sweep_is_thread_count_invariant() {
    use shortcut_mining::accel::AccelConfig;
    use sm_bench::cas::SweepCtx;
    use sm_bench::experiments::{scheduler, DEFAULT_SCHEDULER_RATES, SCHEDULER_POLICIES};

    let net = zoo::resnet_tiny(2, 1);
    let exp = Experiment::default_config();
    let clean = exp
        .run_checked(&net, Policy::shortcut_mining(), &SimOptions::checked())
        .expect("fault-free run");
    let clean_json = to_json(&clean.stats).expect("stats serialize");

    let mut sweeps = Vec::new();
    for threads in [1usize, 4] {
        parallel::set_threads(Some(threads));
        let plan = FaultPlan::new(42)
            .with_scheduler_faults(0.0, Protection::Ecc)
            .with_recovery(RecoveryPolicy::Checkpoint);
        let run = exp
            .run_checked(
                &net,
                Policy::shortcut_mining(),
                &SimOptions::with_faults(plan),
            )
            .expect("zero-rate run");
        assert_eq!(
            to_json(&run.stats).expect("stats serialize"),
            clean_json,
            "zero-fault identity broke at {threads} thread(s)"
        );
        let sweep = scheduler(
            &net,
            AccelConfig::default(),
            42,
            &SCHEDULER_POLICIES,
            &DEFAULT_SCHEDULER_RATES,
            None,
            SweepCtx::default(),
        );
        sweeps.push(sweep.unwrap());
    }
    parallel::set_threads(None);
    assert_eq!(
        to_json(&sweeps[0]).expect("study serializes"),
        to_json(&sweeps[1]).expect("study serializes"),
        "scheduler sweep diverged between 1 and 4 threads"
    );
}

/// Nightly-only: the checkpoint contracts hold on a mid-size ImageNet
/// network — rollback beats recompute beats refetch under a full-rate
/// scheduler DUE storm, and at least one rollback actually fires.
#[test]
fn nightly_midsize_checkpoint_conformance() {
    if std::env::var("SM_NIGHTLY").map_or(true, |v| v != "1") {
        eprintln!("skipping nightly checkpoint conformance (set SM_NIGHTLY=1 to run)");
        return;
    }
    let net = zoo::resnet18(1);
    let exp = Experiment::default_config();
    let run_with = |policy| {
        exp.run_checked(
            &net,
            Policy::shortcut_mining(),
            &SimOptions::with_faults(sched_due_plan(99, 1.0, policy)),
        )
        .expect("non-abort tiers survive")
    };
    let refetch = run_with(RecoveryPolicy::RefetchTile);
    let recompute = run_with(RecoveryPolicy::RecomputeLayer);
    let rollback = run_with(RecoveryPolicy::Checkpoint);
    assert!(rollback.stats.faults.due_events > 0);
    assert!(rollback.stats.faults.recovered_rollback > 0);
    let (rf, rc, rb) = (
        refetch.stats.ledger.class_bytes(TrafficClass::Retry),
        recompute.stats.ledger.class_bytes(TrafficClass::Retry),
        rollback.stats.ledger.class_bytes(TrafficClass::Retry),
    );
    assert!(
        rb <= rc && rc <= rf,
        "tier ordering broke: {rb} / {rc} / {rf}"
    );
    assert!(
        rb < rf,
        "on ResNet-18 rollback must strictly beat refetch ({rb} vs {rf})"
    );
}
