//! Shortcut Mining — the paper's contribution.
//!
//! This crate implements the logical-buffer procedure sequence that reuses
//! both shortcut and non-shortcut feature maps across layer boundaries:
//!
//! 1. **Prefetch** — only the non-resident portion of each operand is
//!    fetched from DRAM; resident prefixes are consumed in place.
//! 2. **Out–in swapping** — at a layer boundary the logical output buffer is
//!    relabelled as the next layer's input buffer (O(1), no copy), so the
//!    resident part of the output never round-trips through DRAM.
//! 3. **Shortcut storing** — when a feature map has a non-adjacent consumer
//!    (a residual junction, a fire-module fork, a projection), its banks are
//!    pinned as a shortcut logical buffer.
//! 4. **Shortcut reusing** — junctions consume pinned banks directly;
//!    element-wise additions take over the residual operand's banks in
//!    place, and concatenations absorb their operands' banks.
//! 5. **Bank reclaim** — under capacity pressure, pinned shortcut banks are
//!    spilled one at a time (write once, read once at the junction — never
//!    worse than the baseline's write-once-read-twice).
//!
//! The pinned data survives *any* number of intermediate layers without
//! dedicated buffer resources: intermediate layers allocate from the free
//! pool first and trigger spills only when the pool runs dry.
//!
//! Entry points:
//!
//! * [`ShortcutMiner`] — the simulator implementing the procedures.
//! * [`Policy`] — which procedures are active (for the ablation studies).
//! * [`Experiment`] — one-call comparison harness producing the paper's
//!   metrics (traffic reduction, speedup, energy).
//! * [`functional`] — the value-preservation checker: replays a simulated
//!   schedule at value level and proves outputs are bit-identical to the
//!   golden model.
//! * [`analysis`] — capacity planning: liveness lower bounds, ideal
//!   (topology-limited) reduction, and the smallest pool reaching a target
//!   fraction of it.
//! * [`Trace::check_well_formed`] — structural validation of any run's
//!   residency event stream.
//!
//! # Example
//!
//! ```
//! use sm_core::{Experiment, Policy};
//! use sm_model::zoo;
//!
//! let net = zoo::resnet34(1);
//! let exp = Experiment::default_config();
//! let baseline = exp.run(&net, Policy::baseline());
//! let mined = exp.run(&net, Policy::shortcut_mining());
//! let reduction = 1.0 - mined.fm_traffic_ratio(&baseline);
//! assert!(reduction > 0.3, "got {reduction}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod experiment;
mod fault;
mod policy;
mod simulator;
mod trace;

pub mod analysis;
pub mod functional;
pub mod hash;
pub mod parallel;

pub use error::SimError;
pub use experiment::{Comparison, Experiment};
pub use fault::{
    FaultInjector, FaultPlan, Protection, RecoveryBudget, RecoveryPolicy, SchedulerFaultDraw,
    SiteFaultDraw, SplitMix64, StrikeWidth,
};
pub use policy::{AllocPriority, Policy, SpillOrder};
pub use simulator::{ShortcutMiner, SimOptions, SmRun};
pub use trace::{
    FaultOutcome, FaultSite, RecoveryAction, RetentionRecord, SchedStructure, Trace, TraceEvent,
};
