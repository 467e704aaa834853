use std::collections::HashMap;

use serde::Serialize;

use sm_accel::cycles::{
    conv_compute_cycles, dram_cycles, ecc_check_cycles, ecc_compute_tax_cycles, fc_compute_cycles,
    vector_compute_cycles, LayerCycles,
};
use sm_accel::tiling::{plan_conv_cached, ConvDims, TileCaps, TilePlan};
use sm_accel::{
    AccelConfig, AccelError, FaultStats, LayerPerfSummary, LayerReport, Plane, RunStats,
};
use sm_buffer::{BufferRole, LogicalBufferId, LogicalBuffers, Revocation};
use sm_mem::{ClassTotals, DramModel, Ledger, TrafficClass};
use sm_model::{Layer, LayerId, LayerKind, Network};

use crate::{
    FaultInjector, FaultOutcome, FaultPlan, FaultSite, Policy, Protection, RecoveryAction,
    RecoveryPolicy, RetentionRecord, SchedStructure, SimError, SpillOrder, StrikeWidth, Trace,
    TraceEvent,
};

/// SRAM-to-SRAM copy bandwidth in bytes per cycle, charged only under the
/// `swap_by_copy` ablation (a wide on-chip bus moving one buffer's contents
/// into another instead of relabelling).
const COPY_BYTES_PER_CYCLE: u64 = 128;

/// Concurrently live logical buffers the BCU mapping table is sized for
/// (matches the overhead analysis in `sm_buffer::bcu`); fixes the table
/// footprint an ECC scrub walks each layer.
const BCU_TABLE_BUFFERS: u64 = 8;

/// Result of a Shortcut Mining simulation: the run statistics plus the
/// residency trace and the per-shortcut retention records.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SmRun {
    /// Traffic / cycle statistics (same shape as the baseline's).
    pub stats: RunStats,
    /// Residency event trace (consumed by the functional checker).
    pub trace: Trace,
    /// Survival of each shortcut at its junction.
    pub retention: Vec<RetentionRecord>,
}

/// Where one feature map currently lives.
#[derive(Debug, Clone)]
struct Resident {
    buffer: Option<LogicalBufferId>,
    total_elems: u64,
    /// On-chip prefix.
    resident_elems: u64,
    /// Elements valid in DRAM as a suffix `[total - dram_suffix, total)`.
    dram_suffix_elems: u64,
    /// Portion of the suffix that was evicted after production (its re-read
    /// is classified as spill traffic).
    spilled_elems: u64,
    remaining_consumers: usize,
}

impl Resident {
    /// Elements only reachable from DRAM. Saturating with a debug assert:
    /// residency above the total is an accounting bug, not a valid state.
    fn missing_elems(&self) -> u64 {
        debug_assert!(
            self.resident_elems <= self.total_elems,
            "resident {} exceeds total {}",
            self.resident_elems,
            self.total_elems
        );
        self.total_elems.saturating_sub(self.resident_elems)
    }
}

/// Layer-boundary snapshot of scheduler metadata: the retention table,
/// bank labels and pin set — metadata only, no tensor payloads, so the
/// snapshot is a few hundred bytes and costs nothing to take. A
/// `RecoveryPolicy::Checkpoint` DUE rolls back to the last snapshot and
/// replays forward, serving every operand that was resident at the
/// boundary from chip.
#[derive(Debug, Clone)]
struct SchedCheckpoint {
    /// Boundary (layer index) the snapshot was taken at.
    layer: usize,
    /// One entry per live feature map, in fm order:
    /// `(fm, resident_elems, dram_suffix_elems, spilled_elems, pinned)`.
    entries: Vec<(usize, u64, u64, u64, bool)>,
    /// FNV-1a consistency hash over the entries; rollback re-hashes and
    /// refuses a mismatching snapshot (falling back to recompute) so a
    /// corrupted checkpoint is never restored.
    hash: u64,
}

/// FNV-1a over a checkpoint's metadata entries — the cheap consistency
/// hash checked before any rollback.
fn checkpoint_hash(entries: &[(usize, u64, u64, u64, bool)]) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = BASIS;
    for &(fm, resident, suffix, spilled, pinned) in entries {
        for word in [fm as u64, resident, suffix, spilled, pinned as u64] {
            for b in word.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
        }
    }
    h
}

/// Recovery work already performed this run, checked against the plan's
/// [`crate::RecoveryBudget`] to decide when a tier escalates.
#[derive(Debug, Clone, Copy, Default)]
struct BudgetUse {
    refetches: u32,
    recomputes: u32,
    rollbacks: u32,
}

/// Options controlling one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimOptions {
    /// Run the invariant checker after every layer, turning internal
    /// accounting violations into [`SimError::Invariant`].
    pub checked: bool,
    /// Fault plan to inject; `None` (or an inactive plan) runs fault-free.
    pub faults: Option<FaultPlan>,
}

impl SimOptions {
    /// Checked mode without fault injection.
    pub fn checked() -> Self {
        SimOptions {
            checked: true,
            faults: None,
        }
    }

    /// Checked mode with the given fault plan.
    pub fn with_faults(plan: FaultPlan) -> Self {
        SimOptions {
            checked: true,
            faults: Some(plan),
        }
    }
}

/// The Shortcut Mining accelerator simulator.
///
/// Executes a network under a [`Policy`] over the logical-buffer pool of an
/// [`AccelConfig`], producing the same [`RunStats`] the baseline produces
/// plus a residency [`Trace`]. Per-layer tile schedules are identical to the
/// baseline's (same planner, same capacities), so any traffic difference is
/// attributable purely to cross-layer reuse.
///
/// # Example
///
/// ```
/// use sm_accel::AccelConfig;
/// use sm_core::{Policy, ShortcutMiner};
/// use sm_model::zoo;
///
/// let miner = ShortcutMiner::new(AccelConfig::default(), Policy::shortcut_mining());
/// let run = miner.simulate(&zoo::toy_residual(1));
/// assert!(run.trace.check_well_formed().is_ok());
/// assert!(run.stats.fm_traffic_bytes() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShortcutMiner {
    config: AccelConfig,
    policy: Policy,
}

impl ShortcutMiner {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics when the policy is [`Policy::baseline`] — use
    /// `sm_accel::BaselineAccelerator` (or the `Experiment` wrapper, which
    /// dispatches automatically) for the conventional architecture.
    pub fn new(config: AccelConfig, policy: Policy) -> Self {
        assert!(
            policy.logical_buffers,
            "ShortcutMiner requires a logical-buffer policy; use BaselineAccelerator for the baseline"
        );
        ShortcutMiner { config, policy }
    }

    /// The hardware configuration.
    pub fn config(&self) -> AccelConfig {
        self.config
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Simulates `net`, returning statistics, trace and retention records.
    ///
    /// # Panics
    ///
    /// Panics on malformed networks. Fault-free runs over well-formed
    /// networks never fail; use [`ShortcutMiner::try_simulate`] for typed
    /// errors, checked mode, and fault injection.
    pub fn simulate(&self, net: &Network) -> SmRun {
        self.try_simulate(net, &SimOptions::default())
            .expect("fault-free simulation of a well-formed network")
    }

    /// Simulates `net` under `options`, surfacing every failure — model
    /// preconditions, injected faults past their retry budget, checked-mode
    /// invariant violations — as a typed [`SimError`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`SimError::Accel`] on malformed networks, [`SimError::RetryExhausted`]
    /// when an injected DRAM fault outlasts the plan's retry budget, and
    /// [`SimError::Invariant`] / [`SimError::Buffer`] when internal
    /// accounting breaks (never expected on the fault-free path).
    pub fn try_simulate(&self, net: &Network, options: &SimOptions) -> Result<SmRun, SimError> {
        Sim::new(self.config, self.policy, net, options).run()
    }
}

/// Per-run mutable state.
struct Sim<'a> {
    cfg: AccelConfig,
    policy: Policy,
    net: &'a Network,
    bufs: LogicalBuffers,
    fms: HashMap<usize, Resident>,
    ledger: Ledger,
    trace: Trace,
    retention: Vec<RetentionRecord>,
    layer_traffic: Vec<(TrafficClass, u64)>,
    copy_penalty_bytes: u64,
    checked: bool,
    injector: Option<FaultInjector>,
    faults: FaultStats,
    /// Last consistent layer-boundary snapshot of scheduler metadata;
    /// `None` until the first boundary completes, which is why a strike on
    /// the very first layer falls back to `RecomputeLayer`.
    checkpoint: Option<SchedCheckpoint>,
    /// Recovery work spent so far, compared against the plan's budgets.
    budget_used: BudgetUse,
    /// A silent spill-queue strike flipped the victim ordering: the spill
    /// engine walks its queue in reverse until the run ends. Value-safe
    /// (spills write back before dropping residency) but decision-wrong.
    spill_flip: bool,
}

impl<'a> Sim<'a> {
    fn new(cfg: AccelConfig, policy: Policy, net: &'a Network, options: &SimOptions) -> Self {
        let injector = options.faults.as_ref().filter(|p| p.is_active()).map(|p| {
            FaultInjector::new(p, cfg.sram.fm_pool.bank_count, net.len().saturating_sub(1))
        });
        let mut sim = Sim {
            cfg,
            policy,
            net,
            bufs: LogicalBuffers::new(cfg.sram.fm_pool),
            fms: HashMap::new(),
            ledger: Ledger::new(),
            trace: Trace::default(),
            retention: Vec::new(),
            layer_traffic: Vec::new(),
            copy_penalty_bytes: 0,
            checked: options.checked,
            injector,
            faults: FaultStats::default(),
            checkpoint: None,
            budget_used: BudgetUse::default(),
            spill_flip: false,
        };
        // The network input starts fully in DRAM.
        let input = net.input();
        sim.fms.insert(
            0,
            Resident {
                buffer: None,
                total_elems: input.out_elems() as u64,
                resident_elems: 0,
                dram_suffix_elems: input.out_elems() as u64,
                spilled_elems: 0,
                remaining_consumers: net.consumers(input.id).len(),
            },
        );
        sim
    }

    fn elem(&self) -> u64 {
        self.cfg.elem_bytes
    }

    /// Tile capacities — identical to the baseline's, so per-layer schedules
    /// match and only cross-layer reuse differs.
    fn tile_caps(&self) -> TileCaps {
        let fixed = self.cfg.sram.as_fixed();
        TileCaps {
            ifm_bytes: fixed.ifm_half(),
            ofm_bytes: fixed.ofm_half(),
            weight_tile_bytes: fixed.weight_half(),
            weight_total_bytes: fixed.weight_bytes,
        }
    }

    fn record(&mut self, class: TrafficClass, bytes: u64) {
        if bytes > 0 {
            self.layer_traffic.push((class, bytes));
        }
    }

    fn run(mut self) -> Result<SmRun, SimError> {
        let fm_dram = DramModel::new(self.cfg.fm_dram);
        let w_dram = DramModel::new(self.cfg.weight_dram);
        let mut layers = Vec::with_capacity(self.net.len());
        let mut total_cycles = 0u64;
        let mut total_macs = 0u64;
        let mut prev_ledger_total = 0u64;

        let all_layers: Vec<Layer> = self.net.layers()[1..].to_vec();
        for layer in &all_layers {
            self.layer_traffic.clear();
            self.copy_penalty_bytes = 0;
            // Snapshot the run-wide fault counters so this layer's share of
            // retry stalls and DUE strikes can be attributed to it by diff
            // (the injector increments the global counters in place).
            let faults_before = self.faults;
            self.apply_layer_faults(layer.id.index())?;
            let compute = self.run_layer(layer)?;

            // Drain the layer's traffic into the ledger, playing each
            // transfer through the DRAM fault model when one is active.
            // Failed attempts re-transfer the same bytes (recorded under
            // `Retry`) and stall the pipeline with linear backoff.
            let mut traffic = ClassTotals::new();
            let (mut fm_bytes, mut w_bytes) = (0u64, 0u64);
            let (mut retry_fm, mut retry_w) = (0u64, 0u64);
            let mut stall_cycles = 0u64;
            let drained = std::mem::take(&mut self.layer_traffic);
            for &(class, bytes) in &drained {
                self.ledger.record(layer.id.index(), class, bytes);
                traffic.record(class, bytes);
                if class.is_feature_map() {
                    fm_bytes += bytes;
                } else {
                    w_bytes += bytes;
                }
                if let Some(inj) = self.injector.as_mut() {
                    match inj.transfer_attempts() {
                        Ok((0, _)) => {}
                        Ok((failed, stall)) => {
                            let re = bytes.saturating_mul(failed as u64);
                            self.ledger
                                .record(layer.id.index(), TrafficClass::Retry, re);
                            traffic.record(TrafficClass::Retry, re);
                            if class.is_feature_map() {
                                retry_fm += re;
                            } else {
                                retry_w += re;
                            }
                            stall_cycles += stall;
                            self.faults.dram_retries += failed as u64;
                            self.faults.retry_stall_cycles += stall;
                        }
                        Err((attempts, _)) => {
                            return Err(SimError::RetryExhausted {
                                layer: layer.id.index(),
                                class,
                                attempts,
                            });
                        }
                    }
                }
            }
            // Weight-SRAM / PE-array / BCU-table site faults: ECC taxes
            // every protected access (including the table scrub); parity
            // repairs detected strikes by refetch, lane recompute, or
            // shadow-copy rebuild; multi-bit DUEs go through the recovery
            // policy; unprotected strikes corrupt silently and are only
            // visible to the value checker.
            let (site_compute, site_overhead, site_retry_w, site_retry_fm) =
                self.apply_site_faults(layer, compute, w_bytes, &mut traffic)?;
            retry_w += site_retry_w;
            retry_fm += site_retry_fm;
            // Scheduler-state strikes land at the layer boundary, after the
            // layer's own work is known (a rollback replays exactly it).
            let (sched_compute, sched_overhead, sched_retry_fm) =
                self.apply_scheduler_faults(layer, compute, &mut traffic)?;
            retry_fm += sched_retry_fm;

            let copy_cycles = self
                .copy_penalty_bytes
                .div_ceil(COPY_BYTES_PER_CYCLE.max(1));
            let cycles = LayerCycles::combine(
                compute + copy_cycles + site_compute + sched_compute,
                dram_cycles(&fm_dram, fm_bytes + retry_fm),
                dram_cycles(&w_dram, w_bytes + retry_w),
                self.cfg.layer_overhead + stall_cycles + site_overhead + sched_overhead,
            );
            total_cycles += cycles.total;
            let macs = layer.macs(&self.net.in_shapes(layer.id));
            total_macs += macs;
            layers.push(LayerReport {
                id: layer.id.index(),
                name: layer.name.clone(),
                kind: layer.kind.mnemonic(),
                cycles,
                traffic,
                macs,
                perf: LayerPerfSummary::from_cycles(cycles).with_faults(
                    self.faults.retry_stall_cycles - faults_before.retry_stall_cycles,
                    copy_cycles,
                    self.faults.due_events - faults_before.due_events,
                ),
            });
            debug_assert!(self.bufs.check_invariants(), "buffer invariant violated");
            if self.checked {
                self.check_layer_invariants(layer.id.index(), prev_ledger_total)?;
            }
            prev_ledger_total = self.ledger.total_bytes();
            // Snapshot the scheduler metadata at the boundary: pure
            // bookkeeping over a handful of records, so no traffic or
            // cycles are charged.
            if self.injector.is_some() {
                self.checkpoint = Some(self.take_checkpoint(layer.id.index()));
            }
        }

        let stats = RunStats {
            network: self.net.name().to_string(),
            batch: self.net.input().out_shape.n,
            architecture: self.policy.label().to_string(),
            total_cycles,
            macs: total_macs,
            ledger: self.ledger,
            layers,
            buffer_stats: self.bufs.stats(),
            faults: self.faults,
            clock_hz: self.cfg.clock_hz,
        };
        Ok(SmRun {
            stats,
            trace: self.trace,
            retention: self.retention,
        })
    }

    /// Applies this layer boundary's scheduled faults: bank revocations
    /// (evacuate, then disable — value-preserving by construction) and
    /// residency-metadata corruption (only the DRAM-backed part of a prefix
    /// can be invalidated losslessly; it is re-fetched at the next use).
    fn apply_layer_faults(&mut self, lid: usize) -> Result<(), SimError> {
        let Some(mut inj) = self.injector.take() else {
            return Ok(());
        };
        let elem = self.elem();
        for bank in inj.banks_failing_at(lid) {
            match self.bufs.revoke_bank(bank)? {
                Revocation::WasFree => {
                    self.faults.banks_failed += 1;
                }
                Revocation::Evicted {
                    owner,
                    evicted_bytes,
                } => {
                    self.faults.banks_failed += 1;
                    self.faults.evicted_bytes += evicted_bytes;
                    self.record(TrafficClass::SpillWrite, evicted_bytes);
                    // Shrink the residency of whatever feature map lived in
                    // the evacuated buffer (sorted scan: deterministic).
                    let mut keys: Vec<usize> = self.fms.keys().copied().collect();
                    keys.sort_unstable();
                    for fm in keys {
                        let Some(r) = self.fms.get_mut(&fm) else {
                            continue;
                        };
                        if r.buffer != Some(owner) {
                            continue;
                        }
                        let evicted = (evicted_bytes / elem).min(r.resident_elems);
                        r.resident_elems -= evicted;
                        r.dram_suffix_elems = (r.dram_suffix_elems + evicted).min(r.total_elems);
                        r.spilled_elems = (r.spilled_elems + evicted).min(r.dram_suffix_elems);
                        let new_resident = r.resident_elems;
                        let empty = self
                            .bufs
                            .buffer(owner)
                            .map(|b| b.banks().is_empty())
                            .unwrap_or(false);
                        if empty {
                            r.buffer = None;
                            self.bufs.unpin(owner)?;
                            self.bufs.free(owner)?;
                        }
                        self.trace.events.push(TraceEvent::Spill {
                            fm,
                            new_resident_elems: new_resident,
                        });
                        break;
                    }
                }
            }
        }
        if inj.corruption_strikes() {
            let mut keys: Vec<usize> = self.fms.keys().copied().collect();
            keys.sort_unstable();
            // Candidates whose prefix overlaps their DRAM suffix: that
            // overlap can be dropped without losing data.
            let candidates: Vec<usize> = keys
                .into_iter()
                .filter(|k| {
                    let r = &self.fms[k];
                    r.resident_elems + r.dram_suffix_elems > r.total_elems
                })
                .collect();
            if !candidates.is_empty() {
                let fm = candidates[inj.pick(candidates.len())];
                if let Some(r) = self.fms.get_mut(&fm) {
                    r.resident_elems = r.total_elems - r.dram_suffix_elems;
                    self.faults.corruptions += 1;
                    self.trace.events.push(TraceEvent::Spill {
                        fm,
                        new_resident_elems: r.resident_elems,
                    });
                }
            }
        }
        self.injector = Some(inj);
        Ok(())
    }

    /// Plays one layer's weight-SRAM / PE-array / BCU-table site faults
    /// after its compute and traffic are known. Charges the ECC per-access
    /// tax (weight words, MACs, and the mapping-table scrub), repairs
    /// parity-detected strikes (weight refetch as [`TrafficClass::Retry`]
    /// plus a stall; lane recompute as extra compute cycles; table rebuild
    /// from a shadow copy at a stall), routes multi-bit DUEs through the
    /// recovery policy, and records silent strikes in the trace for the
    /// functional checker. Returns
    /// `(extra_compute, extra_overhead, retry_weight_bytes, retry_fm_bytes)`.
    ///
    /// # Errors
    ///
    /// [`SimError::Unrecoverable`] when a DUE lands under
    /// `RecoveryPolicy::Abort`, or when the layer's DUE count exceeds the
    /// plan's retry budget.
    fn apply_site_faults(
        &mut self,
        layer: &Layer,
        compute: u64,
        w_bytes: u64,
        traffic: &mut ClassTotals,
    ) -> Result<(u64, u64, u64, u64), SimError> {
        let Some(mut inj) = self.injector.take() else {
            return Ok((0, 0, 0, 0));
        };
        let lid = layer.id.index();
        let lanes = (self.cfg.pe_rows * self.cfg.pe_cols).max(1) as u64;
        let draw = inj.layer_site_faults();
        let mut extra_compute = 0u64;
        let mut extra_overhead = 0u64;
        let mut retry_w = 0u64;
        let mut retry_fm = 0u64;
        let mut layer_dues = 0u32;
        let out_buffer = self.fms.get(&lid).and_then(|r| r.buffer);
        let table = sm_buffer::bcu::BcuCost::estimate(self.cfg.sram.fm_pool, BCU_TABLE_BUFFERS);

        // ECC taxes every protected access, strike or not: the check logic
        // runs alongside each weight word read and each MAC issued, and an
        // ECC-protected mapping table is scrubbed once per layer while it
        // routes a live output buffer.
        if inj.weight_protection() == Protection::Ecc && w_bytes > 0 {
            self.faults.ecc_bytes += w_bytes;
            extra_overhead += ecc_check_cycles(w_bytes);
        }
        if inj.pe_protection() == Protection::Ecc && compute > 0 {
            extra_overhead += ecc_compute_tax_cycles(compute);
        }
        if inj.bcu_protection() == Protection::Ecc && out_buffer.is_some() {
            self.faults.ecc_bytes += table.table_bytes();
            extra_overhead += ecc_check_cycles(table.table_bytes());
        }

        if draw.weight_struck && w_bytes > 0 {
            self.faults.weight_faults += 1;
            let mut recovery = None;
            let outcome = match inj.weight_protection() {
                Protection::None => {
                    self.faults.silent_faults += 1;
                    FaultOutcome::Silent
                }
                Protection::Parity => {
                    self.faults.parity_detections += 1;
                    // Detected but not correctable: refetch the layer's
                    // weights from DRAM and stall for the turnaround.
                    self.ledger.record(lid, TrafficClass::Retry, w_bytes);
                    traffic.record(TrafficClass::Retry, w_bytes);
                    retry_w += w_bytes;
                    let stall = inj.retry_stall_cycles();
                    extra_overhead += stall;
                    self.faults.retry_stall_cycles += stall;
                    FaultOutcome::Detected
                }
                Protection::Ecc => match draw.weight_width {
                    StrikeWidth::Single => {
                        self.faults.ecc_corrections += 1;
                        FaultOutcome::Corrected
                    }
                    StrikeWidth::TriplePlus => {
                        // Wide enough to alias past SECDED: silent.
                        self.faults.silent_faults += 1;
                        FaultOutcome::Silent
                    }
                    StrikeWidth::Double => {
                        self.check_due_budget(
                            lid,
                            "weight SRAM",
                            Plane::Data,
                            inj.recovery_policy(),
                            &inj,
                            &mut layer_dues,
                        )?;
                        // Weights are primary inputs with no on-chip
                        // producer, so every recovery policy restores them
                        // the same way — refetch from DRAM — and the
                        // escalation budgets don't apply.
                        self.ledger.record(lid, TrafficClass::Retry, w_bytes);
                        traffic.record(TrafficClass::Retry, w_bytes);
                        retry_w += w_bytes;
                        let stall = inj.retry_stall_cycles();
                        extra_overhead += stall;
                        self.faults.retry_stall_cycles += stall;
                        self.faults.recovered_refetch += 1;
                        *self.faults.recovered_per_plane.slot(Plane::Data) += 1;
                        recovery = Some(TraceEvent::Recovery {
                            layer: lid,
                            site: FaultSite::WeightSram,
                            action: RecoveryAction::Refetched,
                            retry_bytes: w_bytes,
                            compute_cycles: 0,
                        });
                        FaultOutcome::Uncorrectable
                    }
                },
            };
            let words = w_bytes.div_ceil(8).max(1);
            self.trace.events.push(TraceEvent::Fault {
                layer: lid,
                site: FaultSite::WeightSram,
                unit: draw.weight_word % words,
                outcome,
            });
            self.trace.events.extend(recovery);
        }
        if draw.pe_struck && compute > 0 {
            self.faults.pe_faults += 1;
            let outcome = match inj.pe_protection() {
                Protection::None => {
                    self.faults.silent_faults += 1;
                    FaultOutcome::Silent
                }
                Protection::Parity => {
                    self.faults.parity_detections += 1;
                    // Recompute the struck lane's output share with the
                    // whole array once the bad results are discarded.
                    extra_compute += compute.div_ceil(lanes);
                    FaultOutcome::Detected
                }
                // The PE array is residue-checked logic, not stored state:
                // a strike is caught per-MAC regardless of its bit width,
                // so ECC always corrects here.
                Protection::Ecc => {
                    self.faults.ecc_corrections += 1;
                    FaultOutcome::Corrected
                }
            };
            self.trace.events.push(TraceEvent::Fault {
                layer: lid,
                site: FaultSite::PeArray,
                unit: draw.pe_lane % lanes,
                outcome,
            });
        }
        if draw.bcu_struck {
            if let Some(buffer) = out_buffer {
                self.faults.bcu_faults += 1;
                let site = FaultSite::BcuTable { buffer: buffer.0 };
                let mut recovery = None;
                let outcome = match inj.bcu_protection() {
                    Protection::None => {
                        // The mapping entry now routes the output buffer to
                        // the wrong bank: every later read of this feature
                        // map — possibly a junction many layers downstream —
                        // sees wrong data. Only the value replay can tell.
                        self.faults.silent_faults += 1;
                        FaultOutcome::Silent
                    }
                    Protection::Parity => {
                        // Detected on the next table read and rebuilt from
                        // the allocator's shadow copy: one stall, no
                        // traffic, values intact.
                        self.faults.parity_detections += 1;
                        let stall = inj.retry_stall_cycles();
                        extra_overhead += stall;
                        self.faults.retry_stall_cycles += stall;
                        FaultOutcome::Detected
                    }
                    Protection::Ecc => match draw.bcu_width {
                        StrikeWidth::Single => {
                            self.faults.ecc_corrections += 1;
                            FaultOutcome::Corrected
                        }
                        StrikeWidth::TriplePlus => {
                            self.faults.silent_faults += 1;
                            FaultOutcome::Silent
                        }
                        StrikeWidth::Double => {
                            let eff = self.effective_policy(&inj);
                            self.check_due_budget(
                                lid,
                                "BCU table",
                                Plane::Control,
                                eff,
                                &inj,
                                &mut layer_dues,
                            )?;
                            let (action, retry_bytes) =
                                self.recover_due(layer, traffic, eff, Plane::Control);
                            retry_fm += retry_bytes;
                            extra_compute += compute;
                            if action == RecoveryAction::Refetched {
                                let stall = inj.retry_stall_cycles();
                                extra_overhead += stall;
                                self.faults.retry_stall_cycles += stall;
                            }
                            recovery = Some(TraceEvent::Recovery {
                                layer: lid,
                                site,
                                action,
                                retry_bytes,
                                compute_cycles: compute,
                            });
                            FaultOutcome::Uncorrectable
                        }
                    },
                };
                self.trace.events.push(TraceEvent::Fault {
                    layer: lid,
                    site,
                    unit: draw.bcu_entry % table.table_entries.max(1),
                    outcome,
                });
                self.trace.events.extend(recovery);
            }
        }
        self.injector = Some(inj);
        Ok((extra_compute, extra_overhead, retry_w, retry_fm))
    }

    /// Admits one more DUE at this layer, or refuses: `Abort` (whether
    /// configured or reached by budget escalation) never recovers, and
    /// recoveries past the plan's retry budget fail the run the same way an
    /// exhausted DRAM transfer does. Counts the DUE against `plane`.
    fn check_due_budget(
        &mut self,
        lid: usize,
        site: &str,
        plane: Plane,
        policy: RecoveryPolicy,
        inj: &FaultInjector,
        layer_dues: &mut u32,
    ) -> Result<(), SimError> {
        self.faults.due_events += 1;
        *self.faults.due_per_plane.slot(plane) += 1;
        *layer_dues += 1;
        if policy == RecoveryPolicy::Abort || *layer_dues > inj.max_retries() {
            return Err(SimError::Unrecoverable {
                layer: lid,
                site: site.to_string(),
            });
        }
        Ok(())
    }

    /// Resolves the recovery tier the next DUE actually gets: the
    /// configured policy while its per-run budget lasts, then one rung up
    /// the `RefetchTile → RecomputeLayer → Checkpoint → Abort` ladder per
    /// exhausted tier. Unlimited budgets (the default) never escalate, so
    /// plans without budgets behave exactly as before.
    fn effective_policy(&self, inj: &FaultInjector) -> RecoveryPolicy {
        let budget = inj.recovery_budget();
        let mut policy = inj.recovery_policy();
        loop {
            let within = match policy {
                RecoveryPolicy::Abort => true,
                RecoveryPolicy::RefetchTile => budget
                    .refetches
                    .is_none_or(|n| self.budget_used.refetches < n),
                RecoveryPolicy::RecomputeLayer => budget
                    .recomputes
                    .is_none_or(|n| self.budget_used.recomputes < n),
                RecoveryPolicy::Checkpoint => budget
                    .rollbacks
                    .is_none_or(|n| self.budget_used.rollbacks < n),
            };
            if within {
                return policy;
            }
            policy = match policy {
                RecoveryPolicy::RefetchTile => RecoveryPolicy::RecomputeLayer,
                RecoveryPolicy::RecomputeLayer => RecoveryPolicy::Checkpoint,
                RecoveryPolicy::Checkpoint | RecoveryPolicy::Abort => RecoveryPolicy::Abort,
            };
        }
    }

    /// Repairs a DUE by re-executing the producing layer (the current one).
    /// Returns the action taken and the operand bytes re-streamed from
    /// DRAM as `Retry` traffic:
    ///
    /// * `RefetchTile` conservatively re-DMAs *every* operand byte of the
    ///   layer, resident or not.
    /// * `RecomputeLayer` reuses still-resident operands and re-streams
    ///   only the bytes this layer had to read from DRAM anyway (its
    ///   `IfmRead`/`ShortcutRead`/`SpillRead` totals) — zero when the
    ///   operands were fully resident, which is the measurable payoff of
    ///   keeping shortcut data on chip.
    /// * `Checkpoint` restores scheduler metadata from the last consistent
    ///   boundary snapshot and replays forward: shortcut and spill operands
    ///   were resident at the boundary by construction, so only the plain
    ///   input stream (`IfmRead`) is re-streamed — never more than
    ///   `RecomputeLayer`, and strictly less wherever mining kept operands
    ///   on chip. With no snapshot yet (a strike on the very first layer)
    ///   or a snapshot failing its consistency hash, it degrades to the
    ///   `RecomputeLayer` accounting.
    fn recover_due(
        &mut self,
        layer: &Layer,
        traffic: &mut ClassTotals,
        policy: RecoveryPolicy,
        plane: Plane,
    ) -> (RecoveryAction, u64) {
        let lid = layer.id.index();
        let recompute_bytes = |traffic: &ClassTotals| {
            traffic.class(TrafficClass::IfmRead)
                + traffic.class(TrafficClass::ShortcutRead)
                + traffic.class(TrafficClass::SpillRead)
        };
        let rollback_ready = self
            .checkpoint
            .as_ref()
            .is_some_and(|cp| cp.layer < lid && cp.hash == checkpoint_hash(&cp.entries));
        let (action, retry_bytes) = match policy {
            RecoveryPolicy::Checkpoint if rollback_ready => {
                self.faults.recovered_rollback += 1;
                self.budget_used.rollbacks += 1;
                (
                    RecoveryAction::RolledBack,
                    traffic.class(TrafficClass::IfmRead),
                )
            }
            RecoveryPolicy::Checkpoint | RecoveryPolicy::RecomputeLayer => {
                self.faults.recovered_recompute += 1;
                self.budget_used.recomputes += 1;
                (RecoveryAction::Recomputed, recompute_bytes(traffic))
            }
            RecoveryPolicy::RefetchTile | RecoveryPolicy::Abort => {
                self.faults.recovered_refetch += 1;
                self.budget_used.refetches += 1;
                let all_operand_bytes: u64 = self
                    .net
                    .in_shapes(layer.id)
                    .iter()
                    .map(|s| s.len() as u64 * self.elem())
                    .sum();
                (RecoveryAction::Refetched, all_operand_bytes)
            }
        };
        *self.faults.recovered_per_plane.slot(plane) += 1;
        if retry_bytes > 0 {
            self.ledger.record(lid, TrafficClass::Retry, retry_bytes);
            traffic.record(TrafficClass::Retry, retry_bytes);
        }
        (action, retry_bytes)
    }

    /// Builds the layer-boundary snapshot of scheduler metadata: one entry
    /// per live feature map plus its buffer's pin label, sealed with the
    /// consistency hash rollback verifies.
    fn take_checkpoint(&self, layer: usize) -> SchedCheckpoint {
        let mut entries: Vec<(usize, u64, u64, u64, bool)> = self
            .fms
            .iter()
            .map(|(&fm, r)| {
                let pinned = r
                    .buffer
                    .and_then(|b| self.bufs.buffer(b).ok())
                    .is_some_and(|b| b.is_pinned());
                (
                    fm,
                    r.resident_elems,
                    r.dram_suffix_elems,
                    r.spilled_elems,
                    pinned,
                )
            })
            .collect();
        entries.sort_unstable();
        let hash = checkpoint_hash(&entries);
        SchedCheckpoint {
            layer,
            entries,
            hash,
        }
    }

    /// Plays one layer boundary's scheduler-state strike, drawn from the
    /// dedicated scheduler stream (so all other fault classes stay
    /// byte-identical). The struck structure is one of the retention
    /// table, the pin set, or the spill queue; the outcome follows the
    /// scheduler storage's protection policy:
    ///
    /// * `None` — the decision state is silently wrong from here on
    ///   (residency dropped, a pin lost, the victim order reversed). The
    ///   mutation is value-safe by construction; only the functional
    ///   checker's consistency hash catches it
    ///   (`CheckError::SchedulerCorrupt`).
    /// * `Parity` — detected at the boundary scrub and rebuilt from the
    ///   allocator's shadow state at a stall.
    /// * `Ecc` — single-bit strikes are corrected free of tax (the
    ///   metadata is a few hundred bytes; its scrub hides in the layer
    ///   turnaround), double-bit DUEs go through the budget-resolved
    ///   recovery ladder, and 3+-bit strikes alias silently.
    ///
    /// Returns `(extra_compute, extra_overhead, retry_fm_bytes)`.
    ///
    /// # Errors
    ///
    /// [`SimError::Unrecoverable`] when a DUE resolves to `Abort`, either
    /// configured or reached by budget escalation.
    fn apply_scheduler_faults(
        &mut self,
        layer: &Layer,
        compute: u64,
        traffic: &mut ClassTotals,
    ) -> Result<(u64, u64, u64), SimError> {
        let Some(mut inj) = self.injector.take() else {
            return Ok((0, 0, 0));
        };
        let lid = layer.id.index();
        let draw = inj.layer_scheduler_faults();
        let mut extra_compute = 0u64;
        let mut extra_overhead = 0u64;
        let mut retry_fm = 0u64;
        if draw.struck {
            self.faults.scheduler_faults += 1;
            let structure = match draw.target % 3 {
                0 => SchedStructure::RetentionTable,
                1 => SchedStructure::PinSet,
                _ => SchedStructure::SpillQueue,
            };
            let site = FaultSite::Scheduler { structure };
            let unit = draw.index % self.scheduler_entries(structure);
            let mut recovery = None;
            let outcome = match inj.scheduler_protection() {
                Protection::None => {
                    self.faults.silent_faults += 1;
                    self.corrupt_scheduler_state(structure, draw.index)?;
                    FaultOutcome::Silent
                }
                Protection::Parity => {
                    self.faults.parity_detections += 1;
                    let stall = inj.retry_stall_cycles();
                    extra_overhead += stall;
                    self.faults.retry_stall_cycles += stall;
                    FaultOutcome::Detected
                }
                Protection::Ecc => match draw.width {
                    StrikeWidth::Single => {
                        self.faults.ecc_corrections += 1;
                        FaultOutcome::Corrected
                    }
                    StrikeWidth::TriplePlus => {
                        self.faults.silent_faults += 1;
                        self.corrupt_scheduler_state(structure, draw.index)?;
                        FaultOutcome::Silent
                    }
                    StrikeWidth::Double => {
                        let eff = self.effective_policy(&inj);
                        let mut layer_dues = 0u32;
                        self.check_due_budget(
                            lid,
                            "scheduler state",
                            Plane::Scheduler,
                            eff,
                            &inj,
                            &mut layer_dues,
                        )?;
                        let (action, retry_bytes) =
                            self.recover_due(layer, traffic, eff, Plane::Scheduler);
                        retry_fm += retry_bytes;
                        // Every tier replays the layer's own work after
                        // restoring the metadata.
                        extra_compute += compute;
                        if action == RecoveryAction::Refetched {
                            let stall = inj.retry_stall_cycles();
                            extra_overhead += stall;
                            self.faults.retry_stall_cycles += stall;
                        }
                        recovery = Some(TraceEvent::Recovery {
                            layer: lid,
                            site,
                            action,
                            retry_bytes,
                            compute_cycles: compute,
                        });
                        FaultOutcome::Uncorrectable
                    }
                },
            };
            self.trace.events.push(TraceEvent::Fault {
                layer: lid,
                site,
                unit,
                outcome,
            });
            self.trace.events.extend(recovery);
        }
        self.injector = Some(inj);
        Ok((extra_compute, extra_overhead, retry_fm))
    }

    /// Entry count of one scheduler structure, for reducing a raw strike
    /// selector (never zero so the reduction is total).
    fn scheduler_entries(&self, structure: SchedStructure) -> u64 {
        let n = match structure {
            SchedStructure::RetentionTable => self.fms.len() as u64,
            SchedStructure::PinSet => self.bufs.iter().filter(|b| b.is_pinned()).count() as u64,
            // The victim-ordering state is a single direction bit.
            SchedStructure::SpillQueue => 1,
        };
        n.max(1)
    }

    /// Mutates the struck scheduler structure the way an unprotected (or
    /// ECC-aliased) upset would, while staying value-safe: every element
    /// remains reachable from chip or DRAM, only the *decisions* go wrong.
    fn corrupt_scheduler_state(
        &mut self,
        structure: SchedStructure,
        index: u64,
    ) -> Result<(), SimError> {
        match structure {
            SchedStructure::RetentionTable => {
                // A retention record under-reports its resident prefix:
                // droppable only where the prefix overlaps the DRAM suffix
                // (the same lossless shrink residency corruption uses).
                let mut keys: Vec<usize> = self.fms.keys().copied().collect();
                keys.sort_unstable();
                let candidates: Vec<usize> = keys
                    .into_iter()
                    .filter(|k| {
                        let r = &self.fms[k];
                        r.resident_elems + r.dram_suffix_elems > r.total_elems
                    })
                    .collect();
                if candidates.is_empty() {
                    return Ok(());
                }
                let fm = candidates[(index % candidates.len() as u64) as usize];
                if let Some(r) = self.fms.get_mut(&fm) {
                    r.resident_elems = r.total_elems - r.dram_suffix_elems;
                    self.trace.events.push(TraceEvent::Spill {
                        fm,
                        new_resident_elems: r.resident_elems,
                    });
                }
            }
            SchedStructure::PinSet => {
                // A pin label flips off: the shortcut buffer keeps its data
                // but loses its spill immunity. Values stay intact; the
                // mining *decision* is gone.
                let mut pinned: Vec<LogicalBufferId> = self
                    .bufs
                    .iter()
                    .filter(|b| b.is_pinned())
                    .map(|b| b.id())
                    .collect();
                pinned.sort_unstable_by_key(|b| b.0);
                if pinned.is_empty() {
                    return Ok(());
                }
                let victim = pinned[(index % pinned.len() as u64) as usize];
                self.bufs.unpin(victim)?;
            }
            SchedStructure::SpillQueue => {
                self.spill_flip = !self.spill_flip;
            }
        }
        Ok(())
    }

    /// Checked-mode verification after one layer: bank accounting sums to
    /// the pool, the ledger is class-consistent and monotone, every tracked
    /// residency is within bounds, and liveness matches the schedule.
    fn check_layer_invariants(&self, layer: usize, prev_total: u64) -> Result<(), SimError> {
        let fail = |message: String| Err(SimError::Invariant { layer, message });
        if !self.bufs.check_invariants() {
            return fail("bank pool conservation or ownership broken".to_string());
        }
        let pool = self.bufs.config();
        let owned: usize = self.bufs.iter().map(|b| b.banks().len()).sum();
        if owned + self.bufs.free_banks() + self.bufs.disabled_banks() != pool.bank_count {
            return fail(format!(
                "bank accounting: {owned} owned + {} free + {} disabled != {} banks",
                self.bufs.free_banks(),
                self.bufs.disabled_banks(),
                pool.bank_count
            ));
        }
        if let Err(m) = self.ledger.check_consistency() {
            return fail(m);
        }
        if self.ledger.total_bytes() < prev_total {
            return fail(format!(
                "ledger total regressed: {} < {prev_total}",
                self.ledger.total_bytes()
            ));
        }
        let mut keys: Vec<usize> = self.fms.keys().copied().collect();
        keys.sort_unstable();
        for fm in keys {
            let r = &self.fms[&fm];
            if r.resident_elems > r.total_elems {
                return fail(format!(
                    "fm {fm}: resident {} exceeds total {}",
                    r.resident_elems, r.total_elems
                ));
            }
            if r.resident_elems + r.dram_suffix_elems < r.total_elems {
                return fail(format!(
                    "fm {fm}: {} elements unreachable from chip or DRAM",
                    r.total_elems - r.resident_elems - r.dram_suffix_elems
                ));
            }
            if r.spilled_elems > r.dram_suffix_elems {
                return fail(format!(
                    "fm {fm}: spilled {} exceeds DRAM suffix {}",
                    r.spilled_elems, r.dram_suffix_elems
                ));
            }
            if r.remaining_consumers == 0 {
                return fail(format!("fm {fm}: dead but still tracked"));
            }
            if r.remaining_consumers > self.net.consumers(LayerId(fm)).len() {
                return fail(format!(
                    "fm {fm}: {} consumers pending but schedule has {}",
                    r.remaining_consumers,
                    self.net.consumers(LayerId(fm)).len()
                ));
            }
            if let Some(b) = r.buffer {
                if self.bufs.buffer(b).is_err() {
                    return fail(format!("fm {fm}: buffer {b:?} is stale"));
                }
            }
        }
        Ok(())
    }

    /// Executes one layer: operand fetches, output allocation, write-back
    /// and consumption bookkeeping. Returns the compute cycles.
    fn run_layer(&mut self, layer: &Layer) -> Result<u64, SimError> {
        let elem = self.elem();
        let lanes = self.cfg.pe_rows * self.cfg.pe_cols;
        let out_elems = layer.out_elems() as u64;

        let cycles = match layer.kind {
            LayerKind::Input => 0,
            LayerKind::Conv(_) => {
                let dims =
                    ConvDims::from_layer(self.net, layer).ok_or_else(|| AccelError::NotConv {
                        layer: layer.name.clone(),
                    })?;
                let (buffer, resident) = self.allocate_output(layer, out_elems)?;
                let mut caps = self.tile_caps();
                if self.policy.adaptive_tiling {
                    // Plan with what the controller actually granted: the
                    // resident part of the input and the output buffer's
                    // real capacity.
                    let pid = layer.inputs[0].index();
                    let in_resident = self.fms.get(&pid).map_or(0, |r| r.resident_elems * elem);
                    caps.ifm_bytes = caps.ifm_bytes.max(in_resident);
                    if let Some(b) = buffer {
                        let ob_cap = self.bufs.capacity_bytes(b)?;
                        caps.ofm_bytes = caps.ofm_bytes.max(ob_cap);
                    }
                }
                let plan = plan_conv_cached(dims, caps, self.cfg.pe_rows, self.cfg.pe_cols, elem);
                self.fetch_operand(layer, 0, Some(&plan))?;
                self.record(TrafficClass::WeightRead, plan.weight_dram_bytes);
                self.register_output(layer, buffer, resident, 0, 0)?;
                self.consume_operands(layer, &[])?;
                conv_compute_cycles(dims, plan.tm, plan.tn)
            }
            LayerKind::DepthwiseConv(spec) => {
                let in_shape = self.net.in_shapes(layer.id)[0];
                self.fetch_operand(layer, 0, None)?;
                let w_bytes = (in_shape.c * spec.kernel * spec.kernel) as u64 * elem;
                self.record(TrafficClass::WeightRead, w_bytes);
                let (buffer, resident) = self.allocate_output(layer, out_elems)?;
                self.register_output(layer, buffer, resident, 0, 0)?;
                self.consume_operands(layer, &[])?;
                in_shape.n as u64
                    * in_shape.c.div_ceil(self.cfg.pe_rows) as u64
                    * (layer.out_shape.h * layer.out_shape.w) as u64
                    * (spec.kernel * spec.kernel) as u64
            }
            LayerKind::Pool(spec) => {
                self.fetch_operand(layer, 0, None)?;
                let (buffer, resident) = self.allocate_output(layer, out_elems)?;
                self.register_output(layer, buffer, resident, 0, 0)?;
                self.consume_operands(layer, &[])?;
                vector_compute_cycles(out_elems * (spec.kernel * spec.kernel) as u64, lanes)
            }
            LayerKind::GlobalAvgPool => {
                self.fetch_operand(layer, 0, None)?;
                let in_elems = self.net.layer(layer.inputs[0]).out_elems() as u64;
                let (buffer, resident) = self.allocate_output(layer, out_elems)?;
                self.register_output(layer, buffer, resident, 0, 0)?;
                self.consume_operands(layer, &[])?;
                vector_compute_cycles(in_elems, lanes)
            }
            LayerKind::Fc { out_features } => {
                self.fetch_operand(layer, 0, None)?;
                let in_shape = self.net.in_shapes(layer.id)[0];
                let in_features = in_shape.per_image();
                let batch = in_shape.n;
                let w_bytes = (out_features * in_features) as u64 * elem;
                let passes = if w_bytes <= self.cfg.sram.weight_bytes {
                    1
                } else {
                    batch as u64
                };
                self.record(TrafficClass::WeightRead, w_bytes * passes);
                let (buffer, resident) = self.allocate_output(layer, out_elems)?;
                self.register_output(layer, buffer, resident, 0, 0)?;
                self.consume_operands(layer, &[])?;
                fc_compute_cycles(
                    batch,
                    in_features,
                    out_features,
                    self.cfg.pe_rows,
                    self.cfg.pe_cols,
                )
            }
            LayerKind::EltwiseAdd { .. } => {
                self.run_eltwise_add(layer)?;
                vector_compute_cycles(out_elems, lanes)
            }
            LayerKind::ConcatChannels => {
                self.run_concat(layer)?;
                0
            }
        };
        Ok(cycles)
    }

    /// Fused element-wise addition: the adjacent (residual) operand streams
    /// straight from its producer; pinned shortcut operands are consumed in
    /// place; the result takes over the residual operand's banks.
    fn run_eltwise_add(&mut self, layer: &Layer) -> Result<(), SimError> {
        let lid = layer.id.index();
        let adjacent_op = layer
            .inputs
            .iter()
            .position(|p| p.index() + 1 == lid)
            .filter(|&op| {
                self.fms
                    .get(&layer.inputs[op].index())
                    .is_some_and(|r| r.remaining_consumers == 1)
            });

        for op in 0..layer.inputs.len() {
            if Some(op) == adjacent_op {
                continue; // fused with the producer's output streaming
            }
            self.fetch_operand(layer, op, None)?;
        }

        let (buffer, resident, suffix, spilled, skip_consume) = match adjacent_op {
            Some(op) => {
                // Take over the residual operand's buffer in place.
                let pid = layer.inputs[op].index();
                let r = self.fms.remove(&pid).ok_or_else(|| SimError::Invariant {
                    layer: lid,
                    message: format!("operand fm {pid} is not live"),
                })?;
                self.trace.events.push(TraceEvent::Free { fm: pid });
                (
                    r.buffer,
                    r.resident_elems,
                    r.dram_suffix_elems,
                    r.spilled_elems,
                    vec![op],
                )
            }
            None => {
                let out_elems = layer.out_elems() as u64;
                let (buffer, resident) = self.allocate_output(layer, out_elems)?;
                (buffer, resident, 0, 0, vec![])
            }
        };
        self.register_output(layer, buffer, resident, suffix, spilled)?;
        self.consume_operands(layer, &skip_consume)
    }

    /// Fused concatenation: zero traffic of its own; the output buffer
    /// absorbs the operands' banks where the prefix layout allows.
    fn run_concat(&mut self, layer: &Layer) -> Result<(), SimError> {
        let batch = layer.out_shape.n;
        let elem = self.elem();
        let lid = layer.id.index();
        let ops: Vec<usize> = layer.inputs.iter().map(|p| p.index()).collect();

        // Residency of the concatenated map must stay a prefix in element
        // order; see DESIGN.md ("prefix-consistent concatenation").
        let mut rs: Vec<Resident> = Vec::with_capacity(ops.len());
        for p in &ops {
            rs.push(
                self.fms
                    .get(p)
                    .cloned()
                    .ok_or_else(|| SimError::Invariant {
                        layer: lid,
                        message: format!("concat operand fm {p} is not live"),
                    })?,
            );
        }
        // Concat junctions consume shortcut edges too (fire modules, dense
        // blocks, branchy DAGs); they bypass `fetch_operand`, so the
        // retention ledger is fed here — otherwise it would only ever see
        // add-style junctions.
        for (p, r) in ops.iter().zip(&rs) {
            if p + 1 < lid {
                self.retention.push(RetentionRecord {
                    producer: *p,
                    junction: lid,
                    skip: lid - p - 1,
                    resident_fraction: if r.total_elems == 0 {
                        0.0
                    } else {
                        r.resident_elems as f64 / r.total_elems as f64
                    },
                });
            }
        }

        let fully = rs.iter().all(|r| r.resident_elems == r.total_elems);
        let takeable = rs.iter().all(|r| r.remaining_consumers == 1);

        let (buffer, resident, written_now) = if fully && takeable && rs[0].buffer.is_some() {
            // All operands fully resident: absorb every buffer into the first.
            let dst = rs[0].buffer.ok_or_else(|| SimError::Invariant {
                layer: lid,
                message: "concat head lost its buffer".to_string(),
            })?;
            for r in &rs[1..] {
                if let Some(src) = r.buffer {
                    self.bufs.absorb(dst, src)?;
                }
            }
            (Some(dst), rs.iter().map(|r| r.total_elems).sum::<u64>(), 0)
        } else if batch == 1 && takeable {
            // Longest valid prefix: whole leading operands that are fully
            // resident, plus the next operand's resident prefix. Everything
            // resident beyond that prefix is written back now so the DRAM
            // suffix stays contiguous.
            let mut resident = 0u64;
            let mut dst: Option<LogicalBufferId> = None;
            let mut dropped = 0u64;
            let mut prefix_open = true;
            for r in &rs {
                if prefix_open {
                    resident += r.resident_elems;
                    if let Some(b) = r.buffer {
                        match dst {
                            None => dst = Some(b),
                            Some(d) => self.bufs.absorb(d, b)?,
                        }
                    }
                    if r.resident_elems < r.total_elems {
                        prefix_open = false;
                    }
                } else {
                    dropped += r.resident_elems;
                    if let Some(b) = r.buffer {
                        // Write the out-of-prefix data back and release it.
                        self.bufs.unpin(b)?;
                        self.bufs.free(b)?;
                    }
                }
            }
            (dst, resident, dropped)
        } else {
            // Batched concatenation interleaves per image; conservatively
            // drop residency (exact, value-safe — see DESIGN.md).
            let mut dropped = 0u64;
            for r in &rs {
                dropped += r.resident_elems;
                if let Some(b) = r.buffer {
                    self.bufs.unpin(b)?;
                    self.bufs.free(b)?;
                }
            }
            (None, 0, dropped)
        };
        self.record(TrafficClass::OfmWrite, written_now * elem);

        // Operand entries fold into the output entry.
        let suffix: u64 = rs.iter().map(|r| r.dram_suffix_elems).sum::<u64>() + written_now;
        let spilled: u64 = rs.iter().map(|r| r.spilled_elems).sum();
        if takeable {
            for p in &ops {
                self.fms.remove(p);
                self.trace.events.push(TraceEvent::Free { fm: *p });
            }
            self.register_output(
                layer,
                buffer,
                resident,
                suffix.min(layer.out_elems() as u64),
                spilled,
            )?;
        } else {
            // An operand outlives the concat (unusual). Non-takeable means
            // the conservative branch above ran: every resident element was
            // written back (charged in `written_now`) and every operand
            // buffer released, so each operand is now fully DRAM-backed.
            // Sync the live entries with that state — stale buffer handles
            // and residency here would read freed banks at the remaining
            // consumers — count this consumption, and free the operands
            // whose last use this was (mirroring `consume_operands`),
            // otherwise their entries leak for the rest of the run.
            for p in &ops {
                let Some(r) = self.fms.get_mut(p) else {
                    continue;
                };
                r.dram_suffix_elems = r.total_elems;
                if r.resident_elems > 0 {
                    r.resident_elems = 0;
                    self.trace.events.push(TraceEvent::Spill {
                        fm: *p,
                        new_resident_elems: 0,
                    });
                }
                r.buffer = None;
                r.remaining_consumers -= 1;
                if r.remaining_consumers == 0 {
                    self.fms.remove(p);
                    self.trace.events.push(TraceEvent::Free { fm: *p });
                }
            }
            self.register_output(layer, None, 0, layer.out_elems() as u64, 0)?;
        }
        Ok(())
    }

    /// Accounts the DRAM fetch of operand `op`'s non-resident suffix and the
    /// SRAM read of its resident prefix. Conv layers scale the fetch by the
    /// tile plan's streaming overhead (halo / channel-group re-reads).
    fn fetch_operand(
        &mut self,
        layer: &Layer,
        op: usize,
        plan: Option<&TilePlan>,
    ) -> Result<(), SimError> {
        let lid = layer.id.index();
        let pid = layer.inputs[op].index();
        let elem = self.elem();
        let r = self
            .fms
            .get(&pid)
            .ok_or_else(|| SimError::Invariant {
                layer: lid,
                message: format!("operand fm {pid} is not live"),
            })?
            .clone();
        let missing = r.missing_elems();
        debug_assert!(
            r.resident_elems + r.dram_suffix_elems >= r.total_elems,
            "fm {pid} has unreachable elements"
        );

        let shortcut_edge = pid + 1 < lid;
        if shortcut_edge {
            self.retention.push(RetentionRecord {
                producer: pid,
                junction: lid,
                skip: lid - pid - 1,
                resident_fraction: if r.total_elems == 0 {
                    0.0
                } else {
                    r.resident_elems as f64 / r.total_elems as f64
                },
            });
        }

        if missing > 0 {
            // Streaming overhead of the per-layer schedule applies to the
            // missing fraction (identical to the baseline's full fetch).
            let scale = |elems: u64| -> u64 {
                match plan {
                    Some(p) if r.total_elems > 0 => ((p.ifm_dram_bytes as f64)
                        * (elems as f64 / r.total_elems as f64))
                        .round() as u64,
                    _ => elems * elem,
                }
            };
            let spill_part = r.spilled_elems.min(missing);
            let normal_part = missing - spill_part;
            self.record(TrafficClass::SpillRead, scale(spill_part));
            let class = if shortcut_edge {
                TrafficClass::ShortcutRead
            } else {
                TrafficClass::IfmRead
            };
            self.record(class, scale(normal_part));
            self.trace.events.push(TraceEvent::FetchMissing {
                fm: pid,
                consumer: lid,
                elems: missing,
            });
        }
        if let Some(b) = r.buffer {
            self.bufs.read(b, r.resident_elems * elem)?;
        }
        Ok(())
    }

    /// Allocates the output logical buffer for a layer (plus the permanent
    /// one-bank streaming reserve implied by the pool geometry), spilling
    /// pinned shortcuts only when the pool is completely dry.
    fn allocate_output(
        &mut self,
        layer: &Layer,
        out_elems: u64,
    ) -> Result<(Option<LogicalBufferId>, u64), SimError> {
        let elem = self.elem();
        let consumers = self.net.consumers(layer.id);
        let lid = layer.id.index();
        let adjacent_next = consumers.first().is_some_and(|c| c.index() == lid + 1);
        let has_nonadjacent = consumers.iter().any(|c| c.index() > lid + 1);
        let useful = (self.policy.out_in_swap && adjacent_next)
            || (self.policy.shortcut_mining && has_nonadjacent);
        if !useful || out_elems == 0 {
            return Ok((None, 0));
        }
        let want = self
            .cfg
            .sram
            .fm_pool
            .banks_for_bytes(out_elems * elem)
            .max(1);
        // Under RetainPinned (default) pinned shortcut banks survive and the
        // output takes the free pool's leftovers; spills happen only to keep
        // the minimal streaming allocation alive. Under OutputFirst the
        // output is sized first, spilling pinned banks to make room. One
        // bank always stays free as the streaming staging reserve.
        let target = match self.policy.alloc_priority {
            crate::AllocPriority::OutputFirst => (want + 1).min(self.cfg.sram.fm_pool.bank_count),
            crate::AllocPriority::RetainPinned => 2,
        };
        if self.bufs.free_banks() < target {
            self.spill_for_banks(target, lid)?;
        }
        let grantable = self.bufs.free_banks().saturating_sub(1);
        if grantable == 0 {
            return Ok((None, 0));
        }
        let banks = want.min(grantable);
        let buffer = self.bufs.alloc(BufferRole::Output, banks)?;
        let capacity_elems = self.bufs.capacity_bytes(buffer)? / elem;
        let resident = out_elems.min(capacity_elems);
        self.bufs.write(buffer, resident * elem)?;
        Ok((Some(buffer), resident))
    }

    /// Spills pinned/retained buffers until `need` banks are free, skipping
    /// the current layer's operands. Returns silently when nothing is
    /// spillable.
    fn spill_for_banks(&mut self, need: usize, current: usize) -> Result<(), SimError> {
        let elem = self.elem();
        while self.bufs.free_banks() < need {
            let operands: Vec<usize> = self
                .net
                .layer(LayerId(current))
                .inputs
                .iter()
                .map(|p| p.index())
                .collect();
            // Victims: resident feature maps that are not operands of the
            // current layer, ordered by their next use.
            let mut victims: Vec<(usize, usize)> = self
                .fms
                .iter()
                .filter(|(fm, r)| {
                    !operands.contains(fm) && r.buffer.is_some() && r.resident_elems > 0
                })
                .map(|(fm, _)| {
                    let next_use = self
                        .net
                        .consumers(LayerId(*fm))
                        .iter()
                        .map(|c| c.index())
                        .find(|&c| c >= current)
                        .unwrap_or(usize::MAX);
                    (*fm, next_use)
                })
                .collect();
            if victims.is_empty() {
                return Ok(());
            }
            // A silent spill-queue upset reverses the victim walk.
            let order = if self.spill_flip {
                match self.policy.spill_order {
                    SpillOrder::FarthestJunctionFirst => SpillOrder::NearestJunctionFirst,
                    SpillOrder::NearestJunctionFirst => SpillOrder::FarthestJunctionFirst,
                }
            } else {
                self.policy.spill_order
            };
            // Ties on next use (e.g. inception branches feeding one concat)
            // break by feature-map id, so the victim never depends on the
            // map's iteration order.
            match order {
                SpillOrder::FarthestJunctionFirst => {
                    victims.sort_by_key(|&(fm, next_use)| (std::cmp::Reverse(next_use), fm))
                }
                SpillOrder::NearestJunctionFirst => {
                    victims.sort_by_key(|&(fm, next_use)| (next_use, fm))
                }
            }
            let (fm, _) = victims[0];
            let r = self.fms.get_mut(&fm).ok_or_else(|| SimError::Invariant {
                layer: current,
                message: format!("spill victim fm {fm} is not live"),
            })?;
            let buffer = r.buffer.ok_or_else(|| SimError::Invariant {
                layer: current,
                message: format!("spill victim fm {fm} has no buffer"),
            })?;
            let (_, evicted_bytes) = self.bufs.spill_bank(buffer)?;
            let evicted = evicted_bytes / elem;
            r.resident_elems -= evicted;
            r.dram_suffix_elems += evicted;
            r.spilled_elems += evicted;
            let new_resident = r.resident_elems;
            let empty = self
                .bufs
                .buffer(buffer)
                .map(|b| b.banks().is_empty())
                .unwrap_or(false);
            if empty {
                r.buffer = None;
                self.bufs.unpin(buffer)?;
                self.bufs.free(buffer)?;
            }
            self.record(TrafficClass::SpillWrite, evicted_bytes);
            self.trace.events.push(TraceEvent::Spill {
                fm,
                new_resident_elems: new_resident,
            });
        }
        Ok(())
    }

    /// Registers a produced feature map: decides its residency fate, writes
    /// whatever DRAM copy the policy requires, relabels the buffer, and
    /// emits the `Produce` trace event.
    fn register_output(
        &mut self,
        layer: &Layer,
        buffer: Option<LogicalBufferId>,
        resident_elems: u64,
        inherited_suffix: u64,
        spilled: u64,
    ) -> Result<(), SimError> {
        let lid = layer.id.index();
        let elem = self.elem();
        let total = layer.out_elems() as u64;
        let consumers = self.net.consumers(layer.id);
        let adjacent_next = consumers.first().is_some_and(|c| c.index() == lid + 1);
        let has_nonadjacent = consumers.iter().any(|c| c.index() > lid + 1);
        let useful = (self.policy.out_in_swap && adjacent_next)
            || (self.policy.shortcut_mining && has_nonadjacent);

        let mut resident = resident_elems;
        let mut suffix = inherited_suffix;
        let mut buffer = buffer;
        let mut spilled = spilled;

        let keep = useful && !consumers.is_empty() && resident > 0;
        // Required DRAM coverage: the non-resident tail always; the whole
        // map when residency is dropped or non-adjacent consumers cannot be
        // served from pinned banks (mining off).
        let required_suffix = if !keep || (has_nonadjacent && !self.policy.shortcut_mining) {
            total
        } else {
            total - resident
        };
        if required_suffix > suffix {
            self.record(TrafficClass::OfmWrite, (required_suffix - suffix) * elem);
            suffix = required_suffix;
        }

        if !keep {
            if let Some(b) = buffer.take() {
                self.bufs.unpin(b)?;
                self.bufs.free(b)?;
            }
            resident = 0;
            spilled = 0;
        } else if let Some(b) = buffer {
            let role = if self.policy.out_in_swap && adjacent_next {
                BufferRole::Input
            } else {
                BufferRole::Shortcut
            };
            self.bufs.relabel(b, role)?;
            if role == BufferRole::Shortcut {
                self.bufs.pin(b)?;
            }
            if self.policy.swap_by_copy {
                // Ablation: the role change is a physical copy.
                let bytes = resident * elem;
                self.copy_penalty_bytes += bytes;
                self.bufs.read(b, bytes)?;
                self.bufs.write(b, 0)?;
            }
        }

        self.trace.events.push(TraceEvent::Produce {
            fm: lid,
            total_elems: total,
            resident_elems: resident,
            dram_elems: suffix,
        });

        if consumers.is_empty() {
            if let Some(b) = buffer.take() {
                self.bufs.unpin(b)?;
                self.bufs.free(b)?;
            }
            self.trace.events.push(TraceEvent::Free { fm: lid });
            return Ok(());
        }
        self.fms.insert(
            lid,
            Resident {
                buffer,
                total_elems: total,
                resident_elems: resident,
                dram_suffix_elems: suffix,
                spilled_elems: spilled,
                remaining_consumers: consumers.len(),
            },
        );
        Ok(())
    }

    /// Post-layer consumption bookkeeping for every operand (except the
    /// indices in `already`, which a junction folded away).
    fn consume_operands(&mut self, layer: &Layer, already: &[usize]) -> Result<(), SimError> {
        for (op, pid) in layer.inputs.iter().enumerate() {
            if already.contains(&op) {
                continue;
            }
            let pid = pid.index();
            let Some(r) = self.fms.get_mut(&pid) else {
                continue; // folded into a junction output earlier this layer
            };
            r.remaining_consumers -= 1;
            if r.remaining_consumers == 0 {
                let buffer = r.buffer;
                self.fms.remove(&pid);
                if let Some(b) = buffer {
                    self.bufs.unpin(b)?;
                    self.bufs.free(b)?;
                }
                self.trace.events.push(TraceEvent::Free { fm: pid });
            } else if self.policy.shortcut_mining {
                // Shortcut storing: survive until the remaining consumers.
                if let Some(b) = r.buffer {
                    self.bufs.relabel(b, BufferRole::Shortcut)?;
                    self.bufs.pin(b)?;
                }
            } else {
                // No pinning: residency is dropped; the DRAM copy (written at
                // production, since non-adjacent consumers exist) serves the
                // remaining consumers. The shrink is traced so the checker
                // tracks where the data lives (no spill traffic: the copy
                // already exists).
                let buffer = r.buffer.take();
                debug_assert_eq!(r.dram_suffix_elems, r.total_elems);
                let had_residency = r.resident_elems > 0;
                r.resident_elems = 0;
                if had_residency {
                    self.trace.events.push(TraceEvent::Spill {
                        fm: pid,
                        new_resident_elems: 0,
                    });
                }
                if let Some(b) = buffer {
                    self.bufs.unpin(b)?;
                    self.bufs.free(b)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_accel::BaselineAccelerator;
    use sm_model::zoo;

    fn cfg() -> AccelConfig {
        AccelConfig::default()
    }

    fn run(net: &Network, policy: Policy) -> SmRun {
        ShortcutMiner::new(cfg(), policy).simulate(net)
    }

    #[test]
    #[should_panic(expected = "logical-buffer policy")]
    fn baseline_policy_is_rejected() {
        let _ = ShortcutMiner::new(cfg(), Policy::baseline());
    }

    #[test]
    fn reuse_disabled_matches_baseline_traffic_exactly() {
        for net in [
            zoo::toy_residual(1),
            zoo::resnet_tiny(2, 1),
            zoo::squeezenet_tiny(1),
            zoo::resnet34(1),
            zoo::squeezenet_v10_simple_bypass(1),
        ] {
            let base = BaselineAccelerator::new(cfg())
                .with_fused_junctions()
                .simulate(&net);
            let off = run(&net, Policy::reuse_disabled());
            assert_eq!(
                off.stats.fm_traffic_bytes(),
                base.fm_traffic_bytes(),
                "{}",
                net.name()
            );
            assert_eq!(
                off.stats.total_traffic_bytes(),
                base.total_traffic_bytes(),
                "{}",
                net.name()
            );
        }
    }

    #[test]
    fn mining_reduces_fm_traffic_on_residual_networks() {
        for net in [zoo::toy_residual(1), zoo::resnet34(1), zoo::resnet152(1)] {
            let base = BaselineAccelerator::new(cfg()).simulate(&net);
            let sm = run(&net, Policy::shortcut_mining());
            assert!(
                sm.stats.fm_traffic_bytes() < base.fm_traffic_bytes(),
                "{}: {} !< {}",
                net.name(),
                sm.stats.fm_traffic_bytes(),
                base.fm_traffic_bytes()
            );
        }
    }

    #[test]
    fn never_worse_per_layer_and_in_total() {
        // The DESIGN.md invariant: SM feature-map traffic <= the (stronger,
        // fused) baseline's on every layer — except concatenations, whose
        // prefix-consistency rule may *defer* an operand's write-back from
        // its production layer to the concat layer (the running total stays
        // never-worse, which is also asserted).
        for net in [
            zoo::resnet34(1),
            zoo::squeezenet_v10_simple_bypass(1),
            zoo::resnet50(1),
        ] {
            let base = BaselineAccelerator::new(cfg())
                .with_fused_junctions()
                .simulate(&net);
            let sm = run(&net, Policy::shortcut_mining());
            let (mut base_cum, mut sm_cum) = (0u64, 0u64);
            for (b, s) in base.layers.iter().zip(&sm.stats.layers) {
                base_cum += b.traffic.feature_map();
                sm_cum += s.traffic.feature_map();
                // Spill-writes are deferred write-backs of *other* feature
                // maps that happen to be charged at this layer; exclude them
                // from the per-layer comparison (the cumulative check below
                // still covers them).
                let own = s.traffic.feature_map() - s.traffic.class(TrafficClass::SpillWrite);
                if s.kind != "concat" {
                    assert!(
                        own <= b.traffic.feature_map(),
                        "{} layer {}: {} > {}",
                        net.name(),
                        b.name,
                        own,
                        b.traffic.feature_map()
                    );
                }
                assert!(
                    sm_cum <= base_cum,
                    "{} cumulative at {}: {} > {}",
                    net.name(),
                    b.name,
                    sm_cum,
                    base_cum
                );
            }
        }
    }

    #[test]
    fn full_policy_beats_each_half() {
        let net = zoo::resnet34(1);
        let full = run(&net, Policy::shortcut_mining())
            .stats
            .fm_traffic_bytes();
        let swap = run(&net, Policy::swap_only()).stats.fm_traffic_bytes();
        let mine = run(&net, Policy::mining_only()).stats.fm_traffic_bytes();
        assert!(full <= swap);
        assert!(full <= mine);
        let base = BaselineAccelerator::new(cfg())
            .simulate(&net)
            .fm_traffic_bytes();
        assert!(swap < base);
        assert!(mine < base);
    }

    #[test]
    fn shortcut_reads_vanish_when_everything_fits() {
        // A toy network far smaller than the pool: every shortcut is served
        // on chip and only the network input/output touch DRAM.
        let net = zoo::toy_residual(1);
        let sm = run(&net, Policy::shortcut_mining());
        assert_eq!(sm.stats.ledger.class_bytes(TrafficClass::ShortcutRead), 0);
        assert_eq!(sm.stats.ledger.class_bytes(TrafficClass::SpillWrite), 0);
        let input_bytes = net.input().out_elems() as u64 * 2;
        let output_bytes = net.layers().last().unwrap().out_elems() as u64 * 2;
        assert_eq!(
            sm.stats.fm_traffic_bytes(),
            input_bytes + output_bytes,
            "only the boundary crossings remain"
        );
    }

    #[test]
    fn retention_is_full_without_pressure() {
        let net = zoo::resnet_tiny(2, 1);
        let sm = run(&net, Policy::shortcut_mining());
        assert!(!sm.retention.is_empty());
        for r in &sm.retention {
            assert!(
                (r.resident_fraction - 1.0).abs() < 1e-9,
                "shortcut {} -> {} lost data without pressure",
                r.producer,
                r.junction
            );
        }
    }

    #[test]
    fn capacity_pressure_causes_spills_not_errors() {
        let tiny = AccelConfig::default().with_fm_capacity(64 << 10);
        let net = zoo::resnet34(1);
        let sm = ShortcutMiner::new(tiny, Policy::shortcut_mining()).simulate(&net);
        let base = BaselineAccelerator::new(tiny)
            .with_fused_junctions()
            .simulate(&net);
        // Under heavy pressure SM degrades toward (but never beyond) baseline.
        assert!(sm.stats.fm_traffic_bytes() <= base.fm_traffic_bytes());
    }

    #[test]
    fn swap_by_copy_costs_cycles_but_same_traffic() {
        let net = zoo::resnet_tiny(3, 1);
        let relabel = run(&net, Policy::shortcut_mining());
        let copy = run(&net, Policy::shortcut_mining().with_swap_by_copy());
        assert_eq!(
            relabel.stats.fm_traffic_bytes(),
            copy.stats.fm_traffic_bytes()
        );
        assert!(copy.stats.total_cycles >= relabel.stats.total_cycles);
        assert!(copy.stats.buffer_stats.sram_bytes() > relabel.stats.buffer_stats.sram_bytes());
    }

    #[test]
    fn trace_produce_events_cover_every_layer() {
        let net = zoo::squeezenet_tiny(1);
        let sm = run(&net, Policy::shortcut_mining());
        let produced: Vec<usize> = sm
            .trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Produce { fm, .. } => Some(*fm),
                _ => None,
            })
            .collect();
        assert_eq!(produced.len(), net.len() - 1);
    }

    #[test]
    fn spill_order_changes_victims_under_pressure() {
        let tiny = AccelConfig::default().with_fm_capacity(128 << 10);
        let net = zoo::resnet50(1);
        let far = ShortcutMiner::new(tiny, Policy::shortcut_mining()).simulate(&net);
        let near = ShortcutMiner::new(
            tiny,
            Policy::shortcut_mining().with_spill_order(SpillOrder::NearestJunctionFirst),
        )
        .simulate(&net);
        // Both run; farthest-first should spill no more than nearest-first
        // re-reads (weak ordering assertion: totals differ or match).
        assert!(far.stats.fm_traffic_bytes() > 0);
        assert!(near.stats.fm_traffic_bytes() > 0);
    }
}
