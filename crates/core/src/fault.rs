//! Deterministic fault injection for the Shortcut Mining simulator.
//!
//! A [`FaultPlan`] describes *what* can go wrong — banks failing, DRAM
//! transfers dropping, residency metadata corrupting, weight-SRAM words and
//! PE MAC lanes being struck — and a [`FaultInjector`] turns the plan into a
//! reproducible event stream: the same plan and seed always produce the same
//! failures in the same order, so a faulty run's `RunStats` serializes
//! byte-identically across repetitions. The simulator responds by degrading
//! gracefully (evacuating revoked banks, retrying transfers with bounded
//! backoff, re-fetching corrupted residency from DRAM, repairing protected
//! site strikes per their [`Protection`] policy) rather than crashing; see
//! `ShortcutMiner::try_simulate`.
//!
//! Site faults (weight SRAM, PE array, BCU mapping table) draw from a
//! *dedicated* PRNG stream with a fixed draw count per layer, so at a fixed
//! seed the set of struck layers at a lower rate is a subset of the set at
//! any higher rate — the degradation metrics are monotone in the fault rate
//! by construction, and enabling site faults never perturbs the bank/DRAM
//! fault stream.
//!
//! Two control-path extensions ride on the same stream:
//!
//! * **BCU mapping-table upsets** strike the table entry that routes the
//!   current layer's output logical buffer. Under [`Protection::None`] the
//!   misroute is silent and only the value replay catches it (naming the
//!   buffer and the layer distance the corruption travelled); `Parity`
//!   rebuilds the entry from a shadow copy at a stall; `Ecc` scrubs the
//!   table each layer at the usual check tax.
//! * **Multi-bit strike widths** ([`StrikeWidth`]) model upsets wider than
//!   SECDED can correct: on ECC-protected *storage* (weight SRAM, BCU
//!   table) a single-bit strike is corrected (CE), a double-bit strike is
//!   detected but uncorrectable (DUE) and handed to the recovery policy
//!   ([`RecoveryPolicy`]), and a 3+-bit strike can alias to a valid
//!   codeword and slip through silently. The residue-checked PE array is
//!   unaffected by widths.

use serde::{Deserialize, Serialize};

use sm_buffer::BankId;

/// Seed salt separating the site-fault stream from the bank/DRAM stream.
const SITE_STREAM_SALT: u64 = 0x517E_FA17_0DD5_EED5;

/// Seed salt separating the scheduler-state stream from both the bank/DRAM
/// stream and the site stream, so enabling scheduler faults leaves every
/// pre-existing fault class byte-identical.
const SCHED_STREAM_SALT: u64 = 0x5C4E_DD1E_57A7_E5ED;

/// Deterministic pseudo-random source (SplitMix64), implemented here so a
/// fault stream never depends on an external RNG's version. Every seeded
/// fault plane in the workspace draws from it: the simulator's planes and
/// the result store's disk-fault injection.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; 0 for a zero bound.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            // Modulo bias is irrelevant at fault-injection scales.
            self.next_u64() % bound
        }
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    ///
    /// Consumes no draw at the degenerate rates so an inactive fault class
    /// never perturbs the stream of an active one.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.unit() < p
    }

    /// 53-bit uniform value in `[0, 1)`; always consumes exactly one draw.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Hardware protection policy applied to one fault site (weight SRAM or the
/// PE array).
///
/// The three policies span the cost/coverage trade-off measured by the
/// degradation studies:
///
/// * [`Protection::None`] — a strike silently corrupts the layer's output;
///   nothing is charged, and only the value-level functional checker
///   (`verify_value_preservation_with`) can catch it.
/// * [`Protection::Parity`] — a strike is *detected*; the simulator repairs
///   it by refetching the layer's weights from DRAM (charged as
///   `TrafficClass::Retry` traffic plus stall cycles) or recomputing the
///   struck lane's output share. Values stay correct.
/// * [`Protection::Ecc`] — a strike is *corrected in place*; no extra
///   traffic, but every protected access pays a per-byte / per-MAC
///   check tax in cycles (`sm_accel::cycles`) and energy
///   (`sm_mem::EnergyModel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Protection {
    /// Unprotected: strikes corrupt values silently.
    #[default]
    None,
    /// Detect-only codes: strikes are repaired by refetch/recompute.
    Parity,
    /// Correcting codes: strikes are absorbed at a per-access tax.
    Ecc,
}

/// How many bits one site strike flips.
///
/// Only ECC-protected *storage* sites (weight SRAM, BCU mapping table)
/// distinguish widths — SECDED corrects one bit, detects two, and can be
/// aliased by three or more. Parity stays detect-only at any width, `None`
/// stays silent at any width, and the PE array's residue check is
/// width-agnostic, so everywhere else the width is informational.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StrikeWidth {
    /// One bit flipped: SECDED corrects it in place (CE).
    Single,
    /// Two bits flipped: SECDED detects but cannot correct (DUE).
    Double,
    /// Three or more bits flipped: may alias to a valid codeword and pass
    /// SECDED silently.
    TriplePlus,
}

/// What the simulator does when an ECC-protected site reports a
/// detected-but-uncorrectable (DUE) strike.
///
/// The ladder trades availability for cost: `Abort` surfaces the DUE as a
/// typed error, `RefetchTile` conservatively re-streams the layer's source
/// data from DRAM, and `RecomputeLayer` re-executes the layer from its
/// still-resident inputs — paying compute but touching DRAM only for
/// operand bytes that were not resident, which is exactly the traffic the
/// shortcut-mining residency scheme avoids. Both recovery policies are
/// bounded by the plan's retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Fail the run with `SimError::Unrecoverable`.
    #[default]
    Abort,
    /// Re-DMA the layer's source data, charged as `TrafficClass::Retry`
    /// plus a stall.
    RefetchTile,
    /// Re-execute the producing layer from resident inputs, charging
    /// compute cycles and only the non-resident operand bytes as Retry
    /// traffic.
    RecomputeLayer,
    /// Roll back to the last layer-boundary checkpoint of scheduler
    /// metadata and replay forward. The checkpoint preserves the retention
    /// table, bank labels and pin set, so the replay serves every operand
    /// that was resident at the boundary from chip and re-streams only the
    /// layer's plain input bytes — at most what `RecomputeLayer` moves,
    /// and strictly less wherever shortcut mining kept operands resident.
    /// Falls back to `RecomputeLayer` when no checkpoint exists yet (a
    /// strike on the very first layer).
    Checkpoint,
}

/// Per-run allowances for the recovery tiers, enabling graceful budget
/// escalation instead of a cliff: when a tier's allowance is spent, the
/// next DUE escalates one rung along
/// `RefetchTile → RecomputeLayer → Checkpoint → Abort`. Every field
/// defaults to `None` (unlimited), which reproduces the pre-budget
/// behavior exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoveryBudget {
    /// Tile refetches allowed per run (`None` = unlimited).
    #[serde(default)]
    pub refetches: Option<u32>,
    /// Layer recomputes allowed per run (`None` = unlimited).
    #[serde(default)]
    pub recomputes: Option<u32>,
    /// Checkpoint rollbacks allowed per run (`None` = unlimited).
    #[serde(default)]
    pub rollbacks: Option<u32>,
}

/// One layer's site-fault outcome, drawn from the dedicated site stream.
///
/// The raw `weight_word` / `pe_lane` / `bcu_entry` selectors are full-width
/// draws; the simulator reduces them modulo the layer's word count / lane
/// count / table size so the draw count stays independent of layer
/// geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteFaultDraw {
    /// Whether a weight-SRAM word is struck while this layer's weights are
    /// live.
    pub weight_struck: bool,
    /// Raw selector for the struck weight word.
    pub weight_word: u64,
    /// Bit width of the weight-SRAM strike.
    pub weight_width: StrikeWidth,
    /// Whether a PE MAC lane is struck during this layer's compute.
    pub pe_struck: bool,
    /// Raw selector for the struck lane.
    pub pe_lane: u64,
    /// Whether a BCU mapping-table entry is struck while this layer holds
    /// an output logical buffer (layers that allocate no output are
    /// immune).
    pub bcu_struck: bool,
    /// Raw selector for the struck table entry.
    pub bcu_entry: u64,
    /// Bit width of the BCU table strike.
    pub bcu_width: StrikeWidth,
}

/// One layer boundary's scheduler-state strike outcome, drawn from the
/// dedicated scheduler stream.
///
/// The raw `target` / `index` selectors are full-width draws; the simulator
/// reduces `target` modulo the number of scheduler structures (retention
/// table, pin set, spill queue) and `index` modulo the struck structure's
/// entry count, so the draw count stays independent of run geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerFaultDraw {
    /// Whether scheduler state is struck at this layer boundary.
    pub struck: bool,
    /// Raw selector for the struck structure.
    pub target: u64,
    /// Raw selector for the struck entry within that structure.
    pub index: u64,
    /// Bit width of the strike.
    pub width: StrikeWidth,
}

/// A seedable, serializable description of the faults to inject into one
/// simulation run. All rates are probabilities in `[0, 1]`; the default
/// plan injects nothing.
///
/// The site-fault fields (`weight_*`, `pe_*`) and the control-path fields
/// (`bcu_*`, the multi-bit widths, `recovery`) were added after the first
/// stored plans shipped, so they deserialize with their defaults when
/// absent — pre-existing JSON plans keep loading unchanged. The multi-bit
/// and recovery fields serialize under longer wire names
/// (`multi_bit_double_rate`, `multi_bit_triple_rate`, `recovery_policy`)
/// via `#[serde(rename)]` so the JSON stays self-describing while the Rust
/// fields stay terse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Fraction of the pool's physical banks to revoke over the run.
    /// Failures are spread across layer boundaries (including before the
    /// first layer).
    pub bank_fail_fraction: f64,
    /// Per-attempt probability that a DRAM transfer fails and must retry.
    pub dram_fault_rate: f64,
    /// Retries allowed per transfer before the run aborts with
    /// `SimError::RetryExhausted`.
    pub max_retries: u32,
    /// Stall cycles charged for the first retry of a transfer; each further
    /// retry backs off linearly (second retry stalls twice this, and so on).
    pub retry_stall_cycles: u64,
    /// Per-layer probability that one live feature map's residency
    /// metadata is corrupted (the DRAM-backed part of its on-chip prefix
    /// is invalidated and later re-fetched).
    pub corruption_rate: f64,
    /// Per-layer probability that a weight-SRAM word is struck while the
    /// layer's weights are live (layers that read no weights are immune).
    #[serde(default)]
    pub weight_fault_rate: f64,
    /// Protection policy on the weight SRAM.
    #[serde(default)]
    pub weight_protection: Protection,
    /// Per-layer probability that one PE MAC lane is struck during the
    /// layer's compute (layers with no arithmetic are immune).
    #[serde(default)]
    pub pe_fault_rate: f64,
    /// Protection policy on the PE array.
    #[serde(default)]
    pub pe_protection: Protection,
    /// Per-layer probability that a BCU mapping-table entry is struck
    /// while the layer holds an output logical buffer (layers that
    /// allocate no output are immune).
    #[serde(default)]
    pub bcu_fault_rate: f64,
    /// Protection policy on the BCU mapping table.
    #[serde(default)]
    pub bcu_protection: Protection,
    /// Probability that a storage-site strike flips exactly two bits
    /// (SECDED detects but cannot correct).
    #[serde(default, rename = "multi_bit_double_rate")]
    pub mbu_double_rate: f64,
    /// Probability that a storage-site strike flips three or more bits
    /// (may alias past SECDED silently). The remaining mass is single-bit.
    #[serde(default, rename = "multi_bit_triple_rate")]
    pub mbu_triple_rate: f64,
    /// What to do when an ECC-protected site reports a DUE.
    #[serde(default, rename = "recovery_policy")]
    pub recovery: RecoveryPolicy,
    /// Per-layer probability that the scheduler's own state — a retention
    /// record, a pin label, or a spill-queue entry — is struck at the
    /// layer boundary.
    #[serde(default)]
    pub scheduler_fault_rate: f64,
    /// Protection policy on the scheduler-state storage.
    #[serde(default)]
    pub scheduler_protection: Protection,
    /// Per-run recovery-tier allowances; exhaustion escalates along the
    /// ladder.
    #[serde(default, rename = "recovery_budget")]
    pub budget: RecoveryBudget,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            bank_fail_fraction: 0.0,
            dram_fault_rate: 0.0,
            max_retries: 3,
            retry_stall_cycles: 64,
            corruption_rate: 0.0,
            weight_fault_rate: 0.0,
            weight_protection: Protection::None,
            pe_fault_rate: 0.0,
            pe_protection: Protection::None,
            bcu_fault_rate: 0.0,
            bcu_protection: Protection::None,
            mbu_double_rate: 0.0,
            mbu_triple_rate: 0.0,
            recovery: RecoveryPolicy::Abort,
            scheduler_fault_rate: 0.0,
            scheduler_protection: Protection::None,
            budget: RecoveryBudget::default(),
        }
    }
}

impl FaultPlan {
    /// An inject-nothing plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the fraction of pool banks that fail over the run.
    pub fn with_bank_failures(mut self, fraction: f64) -> Self {
        self.bank_fail_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-attempt DRAM failure probability.
    pub fn with_dram_faults(mut self, rate: f64) -> Self {
        self.dram_fault_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the retry budget and first-retry stall.
    pub fn with_retry_budget(mut self, max_retries: u32, stall_cycles: u64) -> Self {
        self.max_retries = max_retries;
        self.retry_stall_cycles = stall_cycles;
        self
    }

    /// Sets the per-layer residency-corruption probability.
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corruption_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-layer weight-SRAM strike probability and the protection
    /// policy guarding it.
    pub fn with_weight_faults(mut self, rate: f64, protection: Protection) -> Self {
        self.weight_fault_rate = rate.clamp(0.0, 1.0);
        self.weight_protection = protection;
        self
    }

    /// Sets the per-layer PE-lane strike probability and the protection
    /// policy guarding it.
    pub fn with_pe_faults(mut self, rate: f64, protection: Protection) -> Self {
        self.pe_fault_rate = rate.clamp(0.0, 1.0);
        self.pe_protection = protection;
        self
    }

    /// Sets the per-layer BCU mapping-table strike probability and the
    /// protection policy guarding the table.
    pub fn with_bcu_faults(mut self, rate: f64, protection: Protection) -> Self {
        self.bcu_fault_rate = rate.clamp(0.0, 1.0);
        self.bcu_protection = protection;
        self
    }

    /// Sets the multi-bit strike width distribution: `double` is the
    /// probability a strike flips exactly two bits, `triple_plus` that it
    /// flips three or more. The pair is clamped so the two together never
    /// exceed probability one; the remainder is single-bit.
    pub fn with_multi_bit(mut self, double: f64, triple_plus: f64) -> Self {
        self.mbu_triple_rate = triple_plus.clamp(0.0, 1.0);
        self.mbu_double_rate = double.clamp(0.0, 1.0 - self.mbu_triple_rate);
        self
    }

    /// Sets the DUE recovery policy.
    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Sets the per-layer scheduler-state strike probability and the
    /// protection policy guarding that storage.
    pub fn with_scheduler_faults(mut self, rate: f64, protection: Protection) -> Self {
        self.scheduler_fault_rate = rate.clamp(0.0, 1.0);
        self.scheduler_protection = protection;
        self
    }

    /// Sets the per-run recovery-tier budgets.
    pub fn with_recovery_budget(mut self, budget: RecoveryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Whether the plan can inject anything at all. ECC protection alone
    /// also activates the plan: its per-access tax must be charged even
    /// when no strike lands. (Scheduler-state ECC carries no tax — the
    /// metadata is a few hundred bytes and its scrub hides in the layer
    /// turnaround — but it still activates the plan so layer-boundary
    /// checkpoints are taken.)
    pub fn is_active(&self) -> bool {
        self.bank_fail_fraction > 0.0
            || self.dram_fault_rate > 0.0
            || self.corruption_rate > 0.0
            || self.weight_fault_rate > 0.0
            || self.pe_fault_rate > 0.0
            || self.bcu_fault_rate > 0.0
            || self.scheduler_fault_rate > 0.0
            || self.weight_protection == Protection::Ecc
            || self.pe_protection == Protection::Ecc
            || self.bcu_protection == Protection::Ecc
            || self.scheduler_protection == Protection::Ecc
    }
}

/// The per-run fault event source instantiated from a [`FaultPlan`].
///
/// Construction fixes the bank-failure schedule; the remaining draws
/// (transfer failures, corruption picks) are consumed in simulation order,
/// which is itself deterministic, so the whole stream reproduces exactly.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SplitMix64,
    /// Dedicated stream for weight-SRAM / PE-array strikes; fixed draw
    /// count per layer keeps strike sets monotone in the rates.
    site_rng: SplitMix64,
    /// Dedicated stream for scheduler-state strikes; same fixed-draw
    /// discipline, so all prior streams stay byte-identical.
    sched_rng: SplitMix64,
    dram_fault_rate: f64,
    max_retries: u32,
    retry_stall_cycles: u64,
    corruption_rate: f64,
    weight_fault_rate: f64,
    weight_protection: Protection,
    pe_fault_rate: f64,
    pe_protection: Protection,
    bcu_fault_rate: f64,
    bcu_protection: Protection,
    mbu_double_rate: f64,
    mbu_triple_rate: f64,
    recovery: RecoveryPolicy,
    scheduler_fault_rate: f64,
    scheduler_protection: Protection,
    budget: RecoveryBudget,
    /// `(layer, bank)` revocations, sorted by layer; consumed front to back.
    schedule: Vec<(usize, BankId)>,
    next_failure: usize,
}

impl FaultInjector {
    /// Builds the injector for a run over `layer_count` schedulable layers
    /// (schedule indices `1..=layer_count`) and a pool of `bank_count`
    /// banks.
    pub fn new(plan: &FaultPlan, bank_count: usize, layer_count: usize) -> Self {
        let mut rng = SplitMix64::new(plan.seed);
        let to_fail =
            ((plan.bank_fail_fraction * bank_count as f64).round() as usize).min(bank_count);
        // Choose distinct victim banks, then spread them over the layer
        // boundaries (layer 1 = before any work happens).
        let mut victims: Vec<usize> = (0..bank_count).collect();
        for i in 0..to_fail {
            let j = i + rng.below((bank_count - i) as u64) as usize;
            victims.swap(i, j);
        }
        let mut schedule: Vec<(usize, BankId)> = victims[..to_fail]
            .iter()
            .map(|&bank| {
                let layer = 1 + rng.below(layer_count.max(1) as u64) as usize;
                (layer, BankId(bank))
            })
            .collect();
        schedule.sort();
        FaultInjector {
            rng,
            site_rng: SplitMix64::new(plan.seed ^ SITE_STREAM_SALT),
            sched_rng: SplitMix64::new(plan.seed ^ SCHED_STREAM_SALT),
            dram_fault_rate: plan.dram_fault_rate,
            max_retries: plan.max_retries,
            retry_stall_cycles: plan.retry_stall_cycles,
            corruption_rate: plan.corruption_rate,
            weight_fault_rate: plan.weight_fault_rate,
            weight_protection: plan.weight_protection,
            pe_fault_rate: plan.pe_fault_rate,
            pe_protection: plan.pe_protection,
            bcu_fault_rate: plan.bcu_fault_rate,
            bcu_protection: plan.bcu_protection,
            mbu_double_rate: plan.mbu_double_rate,
            mbu_triple_rate: plan.mbu_triple_rate,
            recovery: plan.recovery,
            scheduler_fault_rate: plan.scheduler_fault_rate,
            scheduler_protection: plan.scheduler_protection,
            budget: plan.budget,
            schedule,
            next_failure: 0,
        }
    }

    /// Banks scheduled to fail at (or before) `layer` that have not been
    /// reported yet. Each bank is reported exactly once.
    pub fn banks_failing_at(&mut self, layer: usize) -> Vec<BankId> {
        let mut out = Vec::new();
        while self.next_failure < self.schedule.len() && self.schedule[self.next_failure].0 <= layer
        {
            out.push(self.schedule[self.next_failure].1);
            self.next_failure += 1;
        }
        out
    }

    /// Total banks the plan will fail over the whole run.
    pub fn planned_bank_failures(&self) -> usize {
        self.schedule.len()
    }

    /// Plays out one DRAM transfer: the number of failed attempts before
    /// success (`Ok`) or `Err(attempts)` when the retry budget is spent.
    /// Also returns the stall cycles accumulated by linear backoff.
    pub fn transfer_attempts(&mut self) -> Result<(u32, u64), (u32, u64)> {
        let mut failed = 0u32;
        let mut stall = 0u64;
        while self.rng.chance(self.dram_fault_rate) {
            failed += 1;
            stall = stall.saturating_add(self.retry_stall_cycles.saturating_mul(failed as u64));
            if failed > self.max_retries {
                return Err((failed, stall));
            }
        }
        Ok((failed, stall))
    }

    /// Whether this layer boundary corrupts a feature map's residency.
    pub fn corruption_strikes(&mut self) -> bool {
        self.rng.chance(self.corruption_rate)
    }

    /// Picks an index below `len` for corruption targeting.
    pub fn pick(&mut self, len: usize) -> usize {
        self.rng.below(len as u64) as usize
    }

    /// Maps one unit draw to a strike width. `TriplePlus` occupies the low
    /// end of the unit interval and `Double` the band above it, so at a
    /// fixed seed raising `mbu_triple_rate` only ever widens strikes —
    /// silent-aliasing counts are monotone in the 3+-bit rate.
    fn width_from_unit(&self, w: f64) -> StrikeWidth {
        if w < self.mbu_triple_rate {
            StrikeWidth::TriplePlus
        } else if w < self.mbu_triple_rate + self.mbu_double_rate {
            StrikeWidth::Double
        } else {
            StrikeWidth::Single
        }
    }

    /// Draws one layer's weight-SRAM, PE-array, and BCU-table strike
    /// outcomes from the dedicated site stream.
    ///
    /// Exactly eight draws are consumed regardless of the rates or
    /// outcomes — in order: weight strike, weight word, weight width, PE
    /// strike, PE lane, BCU strike, BCU entry, BCU width — so at a fixed
    /// seed the struck layers at rate `p₁` are a subset of the struck
    /// layers at any rate `p₂ ≥ p₁`: Retry traffic and repair work are
    /// monotone in the fault rate by construction.
    pub fn layer_site_faults(&mut self) -> SiteFaultDraw {
        let weight_unit = self.site_rng.unit();
        let weight_word = self.site_rng.next_u64();
        let weight_width_unit = self.site_rng.unit();
        let pe_unit = self.site_rng.unit();
        let pe_lane = self.site_rng.next_u64();
        let bcu_unit = self.site_rng.unit();
        let bcu_entry = self.site_rng.next_u64();
        let bcu_width_unit = self.site_rng.unit();
        let weight_width = self.width_from_unit(weight_width_unit);
        let bcu_width = self.width_from_unit(bcu_width_unit);
        SiteFaultDraw {
            weight_struck: weight_unit < self.weight_fault_rate,
            weight_word,
            weight_width,
            pe_struck: pe_unit < self.pe_fault_rate,
            pe_lane,
            bcu_struck: bcu_unit < self.bcu_fault_rate,
            bcu_entry,
            bcu_width,
        }
    }

    /// Draws one layer boundary's scheduler-state strike outcome from the
    /// dedicated scheduler stream.
    ///
    /// Exactly four draws are consumed regardless of the rate or outcome —
    /// in order: strike, target structure, entry index, width — so at a
    /// fixed seed the struck boundaries at a lower rate are a subset of
    /// those at any higher rate, and enabling scheduler faults never
    /// perturbs the bank/DRAM or site streams.
    pub fn layer_scheduler_faults(&mut self) -> SchedulerFaultDraw {
        let unit = self.sched_rng.unit();
        let target = self.sched_rng.next_u64();
        let index = self.sched_rng.next_u64();
        let width_unit = self.sched_rng.unit();
        SchedulerFaultDraw {
            struck: unit < self.scheduler_fault_rate,
            target,
            index,
            width: self.width_from_unit(width_unit),
        }
    }

    /// Protection policy on the scheduler-state storage.
    pub fn scheduler_protection(&self) -> Protection {
        self.scheduler_protection
    }

    /// The per-run recovery-tier budgets.
    pub fn recovery_budget(&self) -> RecoveryBudget {
        self.budget
    }

    /// Protection policy on the weight SRAM.
    pub fn weight_protection(&self) -> Protection {
        self.weight_protection
    }

    /// Protection policy on the PE array.
    pub fn pe_protection(&self) -> Protection {
        self.pe_protection
    }

    /// Protection policy on the BCU mapping table.
    pub fn bcu_protection(&self) -> Protection {
        self.bcu_protection
    }

    /// The configured DUE recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Retries allowed per transfer (shared with DUE recoveries per
    /// layer) before the run aborts.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Stall cycles charged per parity-detected strike (shared with the
    /// DRAM retry backoff's first step).
    pub fn retry_stall_cycles(&self) -> u64 {
        self.retry_stall_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan::new(42)
            .with_bank_failures(0.5)
            .with_dram_faults(0.3)
            .with_corruption(0.2)
    }

    #[test]
    fn same_seed_gives_identical_streams() {
        let mut a = FaultInjector::new(&plan(), 16, 10);
        let mut b = FaultInjector::new(&plan(), 16, 10);
        for layer in 1..=10 {
            assert_eq!(a.banks_failing_at(layer), b.banks_failing_at(layer));
            assert_eq!(a.corruption_strikes(), b.corruption_strikes());
        }
        for _ in 0..100 {
            assert_eq!(a.transfer_attempts(), b.transfer_attempts());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(&plan(), 64, 10);
        let other = FaultPlan { seed: 43, ..plan() };
        let mut b = FaultInjector::new(&other, 64, 10);
        let sa: Vec<_> = (1..=10).flat_map(|l| a.banks_failing_at(l)).collect();
        let sb: Vec<_> = (1..=10).flat_map(|l| b.banks_failing_at(l)).collect();
        assert_eq!(sa.len(), sb.len(), "same failure count either way");
        assert_ne!(sa, sb, "schedules should differ across seeds");
    }

    #[test]
    fn bank_failures_are_distinct_and_match_fraction() {
        let mut inj = FaultInjector::new(&plan(), 20, 5);
        assert_eq!(inj.planned_bank_failures(), 10);
        let mut banks: Vec<_> = (1..=5).flat_map(|l| inj.banks_failing_at(l)).collect();
        assert_eq!(banks.len(), 10);
        banks.sort();
        banks.dedup();
        assert_eq!(banks.len(), 10, "no bank fails twice");
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let quiet = FaultPlan::new(7);
        assert!(!quiet.is_active());
        let mut inj = FaultInjector::new(&quiet, 32, 100);
        assert_eq!(inj.planned_bank_failures(), 0);
        assert!(!inj.corruption_strikes());
        assert_eq!(inj.transfer_attempts(), Ok((0, 0)));
    }

    #[test]
    fn site_strikes_are_monotone_in_rate() {
        // At a fixed seed the struck-layer set must only grow with the rate.
        let layers = 64;
        let rates = [0.0, 0.1, 0.3, 0.6, 1.0];
        let mut prev_w: Vec<bool> = vec![false; layers];
        let mut prev_p: Vec<bool> = vec![false; layers];
        for rate in rates {
            let plan = FaultPlan::new(9)
                .with_weight_faults(rate, Protection::Parity)
                .with_pe_faults(rate, Protection::Parity);
            let mut inj = FaultInjector::new(&plan, 8, layers);
            let draws: Vec<SiteFaultDraw> = (0..layers).map(|_| inj.layer_site_faults()).collect();
            for (i, d) in draws.iter().enumerate() {
                assert!(
                    !prev_w[i] || d.weight_struck,
                    "weight strike at layer {i} vanished as the rate rose to {rate}"
                );
                assert!(!prev_p[i] || d.pe_struck, "pe strike at layer {i} vanished");
            }
            prev_w = draws.iter().map(|d| d.weight_struck).collect();
            prev_p = draws.iter().map(|d| d.pe_struck).collect();
        }
        assert!(prev_w.iter().all(|&s| s), "rate 1.0 strikes every layer");
        assert!(prev_p.iter().all(|&s| s));
    }

    #[test]
    fn site_stream_does_not_perturb_the_main_stream() {
        // Enabling site faults must leave the bank/DRAM draws untouched so
        // ECC runs reproduce fault-free traffic exactly.
        let base = FaultPlan::new(5).with_dram_faults(0.4).with_corruption(0.3);
        let with_sites = base
            .clone()
            .with_weight_faults(0.7, Protection::Ecc)
            .with_pe_faults(0.7, Protection::Ecc);
        let mut a = FaultInjector::new(&base, 16, 12);
        let mut b = FaultInjector::new(&with_sites, 16, 12);
        for layer in 1..=12 {
            assert_eq!(a.banks_failing_at(layer), b.banks_failing_at(layer));
            let _ = b.layer_site_faults();
            assert_eq!(a.corruption_strikes(), b.corruption_strikes());
            assert_eq!(a.transfer_attempts(), b.transfer_attempts());
        }
    }

    #[test]
    fn ecc_protection_alone_activates_the_plan() {
        let plan = FaultPlan::new(1).with_weight_faults(0.0, Protection::Ecc);
        assert!(plan.is_active(), "the ECC tax applies without any strike");
        let parity_only = FaultPlan::new(1).with_pe_faults(0.0, Protection::Parity);
        assert!(!parity_only.is_active(), "parity without strikes is free");
    }

    #[test]
    fn bcu_strikes_are_monotone_in_rate_and_leave_other_sites_alone() {
        let layers = 48;
        let mut prev: Vec<bool> = vec![false; layers];
        let mut baseline: Option<Vec<SiteFaultDraw>> = None;
        for rate in [0.0, 0.2, 0.5, 1.0] {
            let plan = FaultPlan::new(11).with_bcu_faults(rate, Protection::Ecc);
            let mut inj = FaultInjector::new(&plan, 8, layers);
            let draws: Vec<SiteFaultDraw> = (0..layers).map(|_| inj.layer_site_faults()).collect();
            for (i, d) in draws.iter().enumerate() {
                assert!(
                    !prev[i] || d.bcu_struck,
                    "BCU strike at layer {i} vanished as the rate rose to {rate}"
                );
            }
            prev = draws.iter().map(|d| d.bcu_struck).collect();
            // Enabling BCU faults must not move the weight/PE draws.
            match &baseline {
                None => baseline = Some(draws),
                Some(base) => {
                    for (b, d) in base.iter().zip(&draws) {
                        assert_eq!(b.weight_word, d.weight_word);
                        assert_eq!(b.pe_lane, d.pe_lane);
                        assert_eq!(b.bcu_entry, d.bcu_entry);
                    }
                }
            }
        }
        assert!(prev.iter().all(|&s| s), "rate 1.0 strikes every layer");
    }

    #[test]
    fn strike_widths_widen_monotonically_with_the_triple_rate() {
        // At a fixed seed, raising the 3+-bit rate can only move strikes
        // from Single/Double toward TriplePlus, never the reverse.
        fn rank(w: StrikeWidth) -> u8 {
            match w {
                StrikeWidth::Single => 0,
                StrikeWidth::Double => 1,
                StrikeWidth::TriplePlus => 2,
            }
        }
        let layers = 48;
        let mut prev: Option<Vec<StrikeWidth>> = None;
        for p3 in [0.0, 0.1, 0.4, 1.0] {
            let plan = FaultPlan::new(17)
                .with_weight_faults(1.0, Protection::Ecc)
                .with_multi_bit(0.3, p3);
            let mut inj = FaultInjector::new(&plan, 8, layers);
            let widths: Vec<StrikeWidth> = (0..layers)
                .map(|_| inj.layer_site_faults().weight_width)
                .collect();
            if let Some(prev) = &prev {
                for (a, b) in prev.iter().zip(&widths) {
                    assert!(rank(*b) >= rank(*a), "width narrowed as p3 rose to {p3}");
                }
            }
            prev = Some(widths);
        }
        assert!(prev.unwrap().iter().all(|&w| w == StrikeWidth::TriplePlus));
    }

    #[test]
    fn multi_bit_mass_is_clamped_to_one() {
        let plan = FaultPlan::new(0).with_multi_bit(0.8, 0.6);
        assert_eq!(plan.mbu_triple_rate, 0.6);
        assert!((plan.mbu_double_rate - 0.4).abs() < 1e-12);
    }

    #[test]
    fn bcu_ecc_alone_activates_the_plan() {
        let plan = FaultPlan::new(1).with_bcu_faults(0.0, Protection::Ecc);
        assert!(plan.is_active(), "the table-scrub tax applies strike-free");
        let quiet = FaultPlan::new(1).with_bcu_faults(0.0, Protection::Parity);
        assert!(!quiet.is_active());
    }

    #[test]
    fn scheduler_strikes_are_monotone_and_leave_other_streams_alone() {
        let layers = 48;
        let mut prev: Vec<bool> = vec![false; layers];
        for rate in [0.0, 0.2, 0.5, 1.0] {
            let plan = FaultPlan::new(13)
                .with_dram_faults(0.4)
                .with_scheduler_faults(rate, Protection::Ecc);
            let mut with_sched = FaultInjector::new(&plan, 16, layers);
            let mut without =
                FaultInjector::new(&FaultPlan::new(13).with_dram_faults(0.4), 16, layers);
            for (i, p) in prev.iter_mut().enumerate() {
                // The dedicated stream leaves bank/DRAM and site draws
                // byte-identical to a scheduler-free plan.
                assert_eq!(
                    with_sched.banks_failing_at(i + 1),
                    without.banks_failing_at(i + 1)
                );
                let d = with_sched.layer_scheduler_faults();
                assert_eq!(with_sched.layer_site_faults(), without.layer_site_faults());
                assert_eq!(with_sched.transfer_attempts(), without.transfer_attempts());
                assert!(
                    !*p || d.struck,
                    "scheduler strike at layer {i} vanished as the rate rose to {rate}"
                );
                *p = d.struck;
            }
        }
        assert!(prev.iter().all(|&s| s), "rate 1.0 strikes every boundary");
    }

    #[test]
    fn scheduler_ecc_alone_activates_the_plan() {
        let plan = FaultPlan::new(1).with_scheduler_faults(0.0, Protection::Ecc);
        assert!(
            plan.is_active(),
            "checkpoints must be taken even when no strike can land"
        );
        let quiet = FaultPlan::new(1).with_scheduler_faults(0.0, Protection::Parity);
        assert!(!quiet.is_active());
    }

    #[test]
    fn default_recovery_budget_is_unlimited() {
        let b = RecoveryBudget::default();
        assert_eq!(b.refetches, None);
        assert_eq!(b.recomputes, None);
        assert_eq!(b.rollbacks, None);
        let plan = FaultPlan::new(3).with_recovery_budget(RecoveryBudget {
            refetches: Some(2),
            ..RecoveryBudget::default()
        });
        assert_eq!(plan.budget.refetches, Some(2));
        assert_eq!(plan.budget.rollbacks, None);
    }

    #[test]
    fn retry_budget_is_enforced() {
        let hostile = FaultPlan::new(1)
            .with_dram_faults(1.0)
            .with_retry_budget(2, 10);
        let mut inj = FaultInjector::new(&hostile, 8, 4);
        // Rate 1.0 always fails: budget of 2 retries means 3 failed
        // attempts, stalls 10 + 20 + 30.
        assert_eq!(inj.transfer_attempts(), Err((3, 60)));
    }
}
