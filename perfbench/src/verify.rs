//! `verify`: value-preservation replay of the abstract's two paper-scale
//! networks under the shortcut-mining policy with the default config.
//!
//! One op is one `sm_core::functional::verify_value_preservation` call and
//! passes when it returns `Ok`. A fixed job verifies ResNet-34 once and
//! SqueezeNet + simple bypass twice, each with its own golden seed drawn
//! from the workload seed, so the median op lands inside the SqueezeNet
//! cluster and the 90th percentile inside the ResNet-34 one.

use std::time::Instant;

use sm_accel::AccelConfig;
use sm_core::functional::verify_value_preservation;
use sm_core::Policy;
use sm_model::{zoo, Network};

use crate::util::{ms_since, timed_jobs, SplitMix64};
use crate::{Outcome, SETUP_REPS};

/// The abstract's networks, by zoo name.
pub const NETWORKS: [&str; 2] = ["resnet34", "squeezenet_v10_simple_bypass"];

/// Network index of each op of one job.
pub const JOB: [usize; 3] = [0, 1, 1];

pub fn networks() -> Vec<Network> {
    NETWORKS
        .iter()
        .map(|name| zoo::try_by_name(name, 1).expect("zoo network builds"))
        .collect()
}

/// Golden seed of op `slot` of job `job`.
pub fn golden_seed(seed: u64, job: usize, slot: usize) -> u64 {
    SplitMix64::new(seed ^ ((job * JOB.len() + slot) as u64).wrapping_mul(0xA24B_AED4_963E_E407))
        .next_u64()
}

pub fn verify(net: &Network, golden_seed: u64) -> bool {
    verify_value_preservation(
        net,
        AccelConfig::default(),
        Policy::shortcut_mining(),
        golden_seed,
    )
    .is_ok()
}

/// Set-up: build both networks and verify SqueezeNet once (warm-up, on
/// the workload seed itself, which no timed op uses as its golden seed).
fn setup(seed: u64) -> (f64, Vec<Network>) {
    let t0 = Instant::now();
    let nets = networks();
    std::hint::black_box(verify(&nets[1], seed));
    (t0.elapsed().as_secs_f64(), nets)
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut nets = Vec::new();
    for _ in 0..SETUP_REPS {
        let (s, n) = setup(seed);
        out.setup_s.push(s);
        nets = n;
    }
    let mut failed = 0;
    let mut op_ms = Vec::new();
    out.job_s = timed_jobs(seconds, 3, |job| {
        let t_job = Instant::now();
        for (slot, &net) in JOB.iter().enumerate() {
            let t0 = Instant::now();
            let ok = verify(&nets[net], golden_seed(seed, job, slot));
            op_ms.push(ms_since(t0));
            if !ok {
                failed += 1;
            }
        }
        t_job.elapsed().as_secs_f64()
    });
    out.op_ms = op_ms;
    out.failed = failed;
    out
}
