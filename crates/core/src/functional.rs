//! Value-preservation verification.
//!
//! [`verify_value_preservation`] proves, for a concrete network / policy /
//! configuration, that the Shortcut Mining schedule never loses data: it
//! replays the simulator's residency [`crate::Trace`] at *value* level,
//! tracking which index range of every feature map is resident on chip and
//! which lives in DRAM, and checks every layer's operands against the golden
//! executor's outputs as they would be reconstructed **only** from those two
//! ranges. Any accounting bug — a read of never-written DRAM, a spill that
//! drops bytes, a resident prefix longer than what was produced — surfaces
//! as a [`CheckError`] rather than a silently wrong figure.
//!
//! Layers are not re-executed. Once a layer's operands are proven
//! bit-identical to the golden inputs, its output is the golden output: the
//! golden run computed it with the same deterministic executor from the same
//! values. A silent strike is recorded as a bit flip on an element index and
//! applied to a copy of the golden tensor only when a read meets it, so the
//! golden tensors are never mutated and no clean map is ever copied.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use sm_accel::AccelConfig;
use sm_model::exec::GoldenExecutor;
use sm_model::Network;
use sm_tensor::Tensor;

use crate::{
    FaultOutcome, FaultSite, Policy, SchedStructure, ShortcutMiner, SimError, SimOptions,
    TraceEvent,
};

/// Violation found while replaying a trace at value level.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckError {
    /// The golden executor refused the network (for example a layer with a
    /// zero-element output shape, which the builder accepts). Carries the
    /// executor's message.
    Exec(String),
    /// The simulation itself failed before producing a trace to check.
    Sim(SimError),
    /// `resident + dram_suffix < total`: some elements live nowhere.
    CoverageHole {
        /// Feature map with the hole.
        fm: usize,
        /// Elements reachable.
        covered: u64,
        /// Elements required.
        total: u64,
    },
    /// A consumer fetched more from DRAM than the DRAM suffix holds.
    FetchBeyondDram {
        /// Feature map read.
        fm: usize,
        /// Elements requested.
        requested: u64,
        /// Elements available in DRAM.
        available: u64,
    },
    /// A reconstructed operand or output differs from the golden value.
    ValueMismatch {
        /// Feature map that differs.
        fm: usize,
        /// Name of the layer that produced the differing feature map.
        layer: String,
        /// NCHW coordinate of the first differing element — the tile the
        /// corruption landed in.
        coord: [usize; 4],
        /// Maximum absolute difference observed.
        max_diff: f32,
    },
    /// The trace referenced a feature map that was never produced.
    UnknownFm(usize),
    /// A reconstructed operand differs from the golden value *and* the
    /// trace shows a silent BCU mapping-table strike on the feature map's
    /// routing entry: the mismatch is misrouted data, localized to the
    /// logical buffer whose entry was struck and the layer distance the
    /// corruption travelled before a consumer read it.
    BcuMisroute {
        /// Feature map that was misrouted.
        fm: usize,
        /// Name of the layer that produced it.
        layer: String,
        /// Logical buffer whose mapping entry was struck.
        buffer: usize,
        /// Layers between the strike and the consumer that observed it
        /// (shortcut data can cross many).
        distance: usize,
        /// NCHW coordinate of the first differing element.
        coord: [usize; 4],
        /// Maximum absolute difference observed.
        max_diff: f32,
    },
    /// The trace recorded a silent strike on the scheduler's own state.
    /// Tensor values stay intact — the corruption degrades *decisions*
    /// (residency, pinning, victim order) — but the layer-boundary
    /// consistency hash over the scheduler metadata no longer matches, so
    /// checked mode refuses to trust anything scheduled after it.
    SchedulerCorrupt {
        /// Layer boundary where the hash mismatch was detected.
        layer: usize,
        /// Scheduler structure the silent strike landed in.
        structure: SchedStructure,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Exec(e) => write!(f, "golden execution failed: {e}"),
            CheckError::Sim(e) => write!(f, "simulation failed: {e}"),
            CheckError::CoverageHole { fm, covered, total } => {
                write!(f, "fm {fm}: only {covered} of {total} elements reachable")
            }
            CheckError::FetchBeyondDram {
                fm,
                requested,
                available,
            } => write!(
                f,
                "fm {fm}: fetched {requested} elements but DRAM holds {available}"
            ),
            CheckError::ValueMismatch {
                fm,
                layer,
                coord,
                max_diff,
            } => {
                write!(
                    f,
                    "fm {fm} (layer `{layer}`): reconstructed values differ by {max_diff}, \
                     first at element [n={}, c={}, h={}, w={}]",
                    coord[0], coord[1], coord[2], coord[3]
                )
            }
            CheckError::UnknownFm(fm) => write!(f, "trace references unproduced fm {fm}"),
            CheckError::BcuMisroute {
                fm,
                layer,
                buffer,
                distance,
                coord,
                max_diff,
            } => write!(
                f,
                "fm {fm} (layer `{layer}`): misrouted by a silent BCU table strike on \
                 logical buffer {buffer}, observed {distance} layer(s) downstream; values \
                 differ by {max_diff}, first at element [n={}, c={}, h={}, w={}]",
                coord[0], coord[1], coord[2], coord[3]
            ),
            CheckError::SchedulerCorrupt { layer, structure } => write!(
                f,
                "layer {layer}: silent strike on the scheduler's {}; the boundary \
                 consistency hash over the scheduler metadata no longer matches",
                structure.name()
            ),
        }
    }
}

impl Error for CheckError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CheckError {
    fn from(e: SimError) -> Self {
        CheckError::Sim(e)
    }
}

/// Value-level state of one feature map during replay: which index ranges
/// of the golden tensor the schedule still holds, and the bit flips silent
/// strikes applied to them.
#[derive(Default)]
struct FmState {
    total: usize,
    /// The on-chip prefix is elements `0..resident`.
    resident: usize,
    /// The DRAM suffix is elements `total - dram..total`.
    dram: usize,
    /// Element indices a silent strike flipped, in strike order. A flip is
    /// an XOR, so two strikes on one element cancel.
    flips: Vec<usize>,
    /// Logical buffer whose BCU routing entry for this map took a silent
    /// strike: a later mismatch is reported as a misroute.
    misroute: Option<usize>,
}

impl FmState {
    fn covered(&self) -> usize {
        if self.resident >= self.total.saturating_sub(self.dram) {
            self.total
        } else {
            self.resident + self.dram
        }
    }

    /// Fails with [`CheckError::CoverageHole`] when some element lives
    /// neither on chip nor in DRAM.
    fn check_coverage(&self, fm: usize) -> Result<(), CheckError> {
        if self.covered() < self.total {
            return Err(CheckError::CoverageHole {
                fm,
                covered: self.covered() as u64,
                total: self.total as u64,
            });
        }
        Ok(())
    }

    /// Reads the full feature map back from the resident prefix and the
    /// DRAM suffix and compares it with `golden`; `consumer` is the reading
    /// layer. A mismatch names the producing layer and the NCHW coordinate
    /// of the first differing element (tile-level localization for fault
    /// triage); it is a BCU misroute when the map's routing entry took a
    /// silent strike.
    fn check_read(
        &self,
        net: &Network,
        fm: usize,
        consumer: usize,
        golden: &Tensor,
    ) -> Result<(), CheckError> {
        self.check_coverage(fm)?;
        if self.flips.is_empty() {
            return Ok(());
        }
        let mut ours = golden.clone();
        for &i in &self.flips {
            let v = &mut ours.as_mut_slice()[i];
            *v = f32::from_bits(v.to_bits() ^ 0x0040_0000);
        }
        let max_diff = ours.max_abs_diff(golden).expect("same shapes");
        if max_diff == 0.0 {
            return Ok(());
        }
        let idx = ours
            .as_slice()
            .iter()
            .zip(golden.as_slice())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        let s = golden.shape();
        let per_c = (s.h * s.w).max(1);
        let per_n = (s.c * per_c).max(1);
        let coord = [
            idx / per_n,
            (idx % per_n) / per_c,
            (idx % per_c) / s.w.max(1),
            idx % s.w.max(1),
        ];
        let layer = net.layers()[fm].name.clone();
        Err(match self.misroute {
            Some(buffer) => CheckError::BcuMisroute {
                fm,
                layer,
                buffer,
                distance: consumer.saturating_sub(fm),
                coord,
                max_diff,
            },
            None => CheckError::ValueMismatch {
                fm,
                layer,
                coord,
                max_diff,
            },
        })
    }
}

/// Replays a Shortcut Mining run of `net` at value level.
///
/// Runs the golden executor with `seed`, simulates the network under
/// (`config`, `policy`), then replays the trace, checking every layer's
/// operands as reconstructed from the schedule's resident prefixes and DRAM
/// suffixes against the golden values.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered; `Ok(())` means the schedule
/// is value-preserving for this input. A network the golden executor cannot
/// run is [`CheckError::Exec`].
///
/// # Panics
///
/// Panics when `policy` is the baseline (no trace to check).
///
/// # Example
///
/// ```
/// use sm_accel::AccelConfig;
/// use sm_core::functional::verify_value_preservation;
/// use sm_core::Policy;
/// use sm_model::zoo;
///
/// let net = zoo::toy_residual(1);
/// verify_value_preservation(&net, AccelConfig::default(), Policy::shortcut_mining(), 42)
///     .expect("the schedule must be value-preserving");
/// ```
pub fn verify_value_preservation(
    net: &Network,
    config: AccelConfig,
    policy: Policy,
    seed: u64,
) -> Result<(), CheckError> {
    verify_value_preservation_with(net, config, policy, seed, &SimOptions::default())
}

/// Like [`verify_value_preservation`] but simulating under explicit
/// [`SimOptions`] — in particular a fault plan. A faulty schedule must still
/// be value-preserving: every revoked bank is evacuated to DRAM and every
/// corrupted prefix is re-fetched, so the replay holds or the simulation
/// itself returns a typed [`SimError`] (surfaced as [`CheckError::Sim`]).
///
/// # Errors
///
/// As [`verify_value_preservation`].
///
/// # Panics
///
/// Panics when `policy` is the baseline (no trace to check).
pub fn verify_value_preservation_with(
    net: &Network,
    config: AccelConfig,
    policy: Policy,
    seed: u64,
    options: &SimOptions,
) -> Result<(), CheckError> {
    let golden = GoldenExecutor::new(net, seed)
        .run()
        .map_err(|e| CheckError::Exec(e.to_string()))?;
    let run = ShortcutMiner::new(config, policy).try_simulate(net, options)?;

    // The network input starts fully in DRAM.
    let input_len = golden[0].shape().len();
    let input = FmState {
        total: input_len,
        dram: input_len,
        ..FmState::default()
    };
    let mut states: HashMap<usize, FmState> = HashMap::from([(0, input)]);
    let read = |states: &HashMap<usize, FmState>, fm: usize, consumer: usize| {
        states
            .get(&fm)
            .ok_or(CheckError::UnknownFm(fm))?
            .check_read(net, fm, consumer, &golden[fm])
    };

    for event in &run.trace.events {
        match *event {
            TraceEvent::Produce {
                fm,
                total_elems,
                resident_elems,
                dram_elems,
            } => {
                // Operands proven bit-identical to golden make the output
                // the golden output: the executor is deterministic.
                for input in &net.layers()[fm].inputs {
                    read(&states, input.index(), fm)?;
                }
                debug_assert_eq!(golden[fm].shape().len() as u64, total_elems);
                let st = FmState {
                    total: total_elems as usize,
                    resident: resident_elems as usize,
                    dram: dram_elems as usize,
                    ..FmState::default()
                };
                st.check_coverage(fm)?;
                states.insert(fm, st);
            }
            TraceEvent::Spill {
                fm,
                new_resident_elems,
            } => {
                // The spill writes the evicted part of the prefix to DRAM,
                // flipped elements included.
                let st = states.get_mut(&fm).ok_or(CheckError::UnknownFm(fm))?;
                st.check_coverage(fm)?;
                let new_resident = new_resident_elems as usize;
                st.dram = st.dram.max(st.total.saturating_sub(new_resident));
                st.resident = st.resident.min(new_resident);
            }
            TraceEvent::FetchMissing { fm, elems, .. } => {
                let st = states.get(&fm).ok_or(CheckError::UnknownFm(fm))?;
                if (st.dram as u64) < elems {
                    return Err(CheckError::FetchBeyondDram {
                        fm,
                        requested: elems,
                        available: st.dram as u64,
                    });
                }
            }
            // Values are retained after Free so junction take-overs (which
            // free the operand entry before producing the output) can still
            // reconstruct; the accounting checks above remain strict.
            TraceEvent::Free { .. } => {}
            // A silent site strike corrupts the layer's output wherever it
            // currently lives; detected/corrected strikes leave values
            // intact, which is exactly what this replay verifies. A silent
            // BCU strike additionally remembers the struck routing entry
            // so a later mismatch names the buffer and travel distance.
            TraceEvent::Fault {
                layer,
                site,
                outcome,
                ..
            } => {
                if outcome == FaultOutcome::Silent {
                    // A scheduler-state strike never touches tensor values,
                    // so the value-corruption model below would be wrong for
                    // it; the boundary consistency hash catches the metadata
                    // mismatch instead, and the replay stops trusting the
                    // schedule right there.
                    if let FaultSite::Scheduler { structure } = site {
                        return Err(CheckError::SchedulerCorrupt { layer, structure });
                    }
                    let st = states.get_mut(&layer).ok_or(CheckError::UnknownFm(layer))?;
                    if let FaultSite::BcuTable { buffer } = site {
                        st.misroute = Some(buffer);
                    }
                    // Flip a mantissa bit (changes any finite value) of the
                    // first element held: the resident prefix's head, else
                    // the DRAM suffix's head.
                    if st.resident > 0 {
                        st.flips.push(0);
                    } else if st.dram > 0 {
                        st.flips.push(st.total - st.dram);
                    }
                }
            }
            // A recovery leaves values intact by construction — the DUE it
            // repairs never corrupted data, only availability.
            TraceEvent::Recovery { .. } => {}
        }
    }

    // The network output must be reconstructible at the end of the events
    // affecting it.
    let last = net.layers().last().expect("non-empty network").id.index();
    read(&states, last, last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_model::zoo;

    #[test]
    fn full_policy_preserves_values_on_tiny_networks() {
        let cfg = AccelConfig::default();
        for net in [
            zoo::toy_residual(1),
            zoo::resnet_tiny(2, 1),
            zoo::squeezenet_tiny(1),
            zoo::chain_tiny(4, 1),
            zoo::mobilenet_tiny(1),
            zoo::densenet_tiny(3, 1),
        ] {
            verify_value_preservation(&net, cfg, Policy::shortcut_mining(), 7)
                .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        }
    }

    #[test]
    fn every_ablation_policy_preserves_values() {
        let cfg = AccelConfig::default();
        let net = zoo::resnet_tiny(2, 1);
        for policy in [
            Policy::shortcut_mining(),
            Policy::swap_only(),
            Policy::mining_only(),
            Policy::reuse_disabled(),
            Policy::shortcut_mining().with_swap_by_copy(),
            Policy::shortcut_mining().with_adaptive_tiling(),
        ] {
            verify_value_preservation(&net, cfg, policy, 3)
                .unwrap_or_else(|e| panic!("{}: {e}", policy.label()));
        }
    }

    #[test]
    fn preservation_holds_under_heavy_capacity_pressure() {
        // A pool so small that spills are forced throughout.
        let cfg = AccelConfig::default().with_fm_capacity(8 << 10);
        for net in [
            zoo::toy_residual(1),
            zoo::resnet_tiny(2, 1),
            zoo::squeezenet_tiny(1),
        ] {
            verify_value_preservation(&net, cfg, Policy::shortcut_mining(), 11)
                .unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        }
    }

    #[test]
    fn silent_pe_fault_is_caught_and_localized() {
        use crate::{FaultPlan, Protection};
        // Every compute layer takes a silent PE-lane strike; the checker
        // must flag the first corrupted feature map and localize it to a
        // real layer and an element coordinate.
        let net = zoo::resnet_tiny(2, 1);
        let plan = FaultPlan::new(3).with_pe_faults(1.0, Protection::None);
        let err = verify_value_preservation_with(
            &net,
            AccelConfig::default(),
            Policy::shortcut_mining(),
            7,
            &SimOptions::with_faults(plan),
        )
        .expect_err("an unprotected PE fault must not pass value replay");
        match &err {
            CheckError::ValueMismatch {
                fm, layer, coord, ..
            } => {
                assert!(
                    net.layer_by_name(layer).is_some(),
                    "diagnostic names an unknown layer `{layer}`"
                );
                assert_eq!(net.layers()[*fm].name, *layer);
                let s = net.layers()[*fm].out_shape;
                assert!(coord[0] < s.n && coord[1] < s.c && coord[2] < s.h && coord[3] < s.w);
            }
            other => panic!("expected a value mismatch, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("layer `"), "no layer in diagnostic: {msg}");
        assert!(msg.contains("element [n="), "no tile in diagnostic: {msg}");
    }

    #[test]
    fn silent_bcu_misroute_is_caught_and_names_buffer_and_distance() {
        use crate::{FaultPlan, Protection};
        // Every output-allocating layer's mapping entry is struck with no
        // protection: the replay must flag the corruption as a misroute,
        // naming the logical buffer and how far downstream it surfaced.
        let net = zoo::resnet_tiny(2, 1);
        let plan = FaultPlan::new(3).with_bcu_faults(1.0, Protection::None);
        let err = verify_value_preservation_with(
            &net,
            AccelConfig::default(),
            Policy::shortcut_mining(),
            7,
            &SimOptions::with_faults(plan),
        )
        .expect_err("an unprotected BCU strike must not pass value replay");
        match &err {
            CheckError::BcuMisroute {
                fm,
                layer,
                distance,
                ..
            } => {
                assert_eq!(net.layers()[*fm].name, *layer);
                assert!(*distance >= 1, "a consumer observes the misroute");
            }
            other => panic!("expected a BCU misroute, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("logical buffer"), "no buffer in: {msg}");
        assert!(msg.contains("downstream"), "no distance in: {msg}");
    }

    #[test]
    fn bcu_parity_and_ecc_preserve_values() {
        use crate::{FaultPlan, Protection, RecoveryPolicy};
        // Detected (parity), corrected (single-bit ECC), and recovered
        // (multi-bit ECC under either repair policy) table strikes all
        // leave values intact.
        let net = zoo::resnet_tiny(2, 1);
        let plans = [
            FaultPlan::new(11).with_bcu_faults(1.0, Protection::Parity),
            FaultPlan::new(11).with_bcu_faults(1.0, Protection::Ecc),
            FaultPlan::new(11)
                .with_bcu_faults(1.0, Protection::Ecc)
                .with_multi_bit(1.0, 0.0)
                .with_recovery(RecoveryPolicy::RefetchTile),
            FaultPlan::new(11)
                .with_bcu_faults(1.0, Protection::Ecc)
                .with_multi_bit(1.0, 0.0)
                .with_recovery(RecoveryPolicy::RecomputeLayer),
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

    #[test]
    fn protected_site_faults_preserve_values() {
        use crate::{FaultPlan, Protection};
        // Parity repairs by refetch/recompute and ECC corrects in place:
        // either way the replay must hold bit-exactly.
        let net = zoo::resnet_tiny(2, 1);
        for protection in [Protection::Parity, Protection::Ecc] {
            let plan = FaultPlan::new(11)
                .with_weight_faults(0.8, protection)
                .with_pe_faults(0.8, protection);
            verify_value_preservation_with(
                &net,
                AccelConfig::default(),
                Policy::shortcut_mining(),
                5,
                &SimOptions::with_faults(plan),
            )
            .unwrap_or_else(|e| panic!("{protection:?}: {e}"));
        }
    }

    #[test]
    fn silent_scheduler_strike_is_caught_by_the_consistency_hash() {
        use crate::{FaultPlan, Protection};
        // Every boundary strikes unprotected scheduler state: the replay
        // must stop at the first silent strike with the typed diagnostic
        // (values are intact, but the metadata hash no longer matches).
        let net = zoo::resnet_tiny(2, 1);
        let plan = FaultPlan::new(3).with_scheduler_faults(1.0, Protection::None);
        let err = verify_value_preservation_with(
            &net,
            AccelConfig::default(),
            Policy::shortcut_mining(),
            7,
            &SimOptions::with_faults(plan),
        )
        .expect_err("a silent scheduler strike must fail checked replay");
        match &err {
            CheckError::SchedulerCorrupt { layer, .. } => {
                assert!(*layer >= 1 && *layer < net.len());
            }
            other => panic!("expected scheduler corruption, got {other}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("consistency hash"), "no hash in: {msg}");
        assert!(msg.contains("scheduler"), "no structure in: {msg}");
    }

    #[test]
    fn protected_scheduler_faults_preserve_values() {
        use crate::{FaultPlan, Protection, RecoveryPolicy};
        // Parity rebuilds from shadow state, ECC corrects single-bit
        // strikes, and checkpoint rollback repairs double-bit DUEs: values
        // hold bit-exactly in every case.
        let net = zoo::resnet_tiny(2, 1);
        let plans = [
            FaultPlan::new(11).with_scheduler_faults(1.0, Protection::Parity),
            FaultPlan::new(11).with_scheduler_faults(1.0, Protection::Ecc),
            FaultPlan::new(11)
                .with_scheduler_faults(1.0, Protection::Ecc)
                .with_multi_bit(1.0, 0.0)
                .with_recovery(RecoveryPolicy::Checkpoint),
            FaultPlan::new(11)
                .with_scheduler_faults(1.0, Protection::Ecc)
                .with_multi_bit(1.0, 0.0)
                .with_recovery(RecoveryPolicy::RecomputeLayer),
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

    #[test]
    fn unexecutable_network_is_a_typed_error_not_a_panic() {
        use sm_model::{ConvSpec, NetworkBuilder};
        use sm_tensor::Shape4;
        // The builder accepts a conv with zero output channels; the golden
        // executor refuses it, and the replay reports that refusal.
        let mut b = NetworkBuilder::new("degenerate", Shape4::new(1, 3, 8, 8));
        let x = b.input_id();
        b.conv("c0", x, ConvSpec::relu(0, 3, 1, 1)).unwrap();
        let net = b.finish().unwrap();
        let err =
            verify_value_preservation(&net, AccelConfig::default(), Policy::shortcut_mining(), 1)
                .unwrap_err();
        match &err {
            CheckError::Exec(msg) => assert!(msg.contains("zero-element shape"), "{msg}"),
            other => panic!("expected an execution error, got {other}"),
        }
        assert!(
            err.to_string().starts_with("golden execution failed"),
            "{err}"
        );
    }

    #[test]
    fn flip_records_cancel_in_pairs_and_localize_the_mismatch() {
        let net = zoo::toy_residual(1);
        let golden = GoldenExecutor::new(&net, 7).run().unwrap();
        let total = golden[1].shape().len();
        let read = |flips: Vec<usize>, misroute| {
            let st = FmState {
                total,
                resident: 0,
                dram: total,
                flips,
                misroute,
            };
            st.check_read(&net, 1, 3, &golden[1])
        };
        assert_eq!(read(Vec::new(), None), Ok(()));
        assert_eq!(read(vec![0, 0], Some(2)), Ok(()), "two flips cancel");
        let last = total - 1;
        let s = golden[1].shape();
        match read(vec![last], None) {
            Err(CheckError::ValueMismatch { fm: 1, coord, .. }) => {
                assert_eq!(coord, [s.n - 1, s.c - 1, s.h - 1, s.w - 1]);
            }
            other => panic!("expected a mismatch at the last element, got {other:?}"),
        }
        match read(vec![0], Some(2)) {
            Err(CheckError::BcuMisroute {
                buffer: 2,
                distance: 2,
                coord: [0, 0, 0, 0],
                ..
            }) => {}
            other => panic!("expected a misroute, got {other:?}"),
        }
        // A hole is reported before any value is compared.
        let hole = FmState {
            total,
            resident: 1,
            dram: total - 2,
            flips: vec![0],
            misroute: None,
        };
        assert_eq!(
            hole.check_read(&net, 1, 3, &golden[1]),
            Err(CheckError::CoverageHole {
                fm: 1,
                covered: total as u64 - 1,
                total: total as u64,
            })
        );
    }

    #[test]
    fn preservation_holds_at_batch_two() {
        let cfg = AccelConfig::default();
        verify_value_preservation(&cfg_net(2), cfg, Policy::shortcut_mining(), 5).unwrap();
    }

    fn cfg_net(batch: usize) -> sm_model::Network {
        zoo::squeezenet_tiny(batch)
    }
}
