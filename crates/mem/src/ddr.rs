//! DDR row-buffer timing model.
//!
//! The top-level experiments use per-channel *effective* bandwidths (the
//! feature-map channel is de-rated relative to the weight channel). This
//! module derives those numbers from first principles instead of asserting
//! them: a banked, open-page DDR3 state machine charges each 64-byte burst
//! either a row-hit cost or a full precharge-activate-CAS sequence, so the
//! effective bandwidth of an access pattern falls out of replaying its
//! address stream ([`DdrChannel::cost_of_stream`]).
//!
//! Sequential weight streams hit open rows almost always and run near peak;
//! feature-map tile fetches hop across rows (channel stride ≈ one DRAM row)
//! and issue short spans that waste burst payload, measuring ~40% of peak
//! on real tile schedules. The `ext_ddr_bandwidth` experiment quantifies
//! this per network and records how it bounds (but does not fully explain)
//! the calibrated FM-channel de-rating — see EXPERIMENTS.md Ext-10.

use serde::Serialize;

/// DDR timing and geometry parameters, expressed in accelerator clock
/// cycles (the defaults model DDR3-1600 behind a 200 MHz fabric: peak one
/// 64-byte burst per fabric cycle).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DdrTimings {
    /// Bytes transferred per burst.
    pub burst_bytes: u64,
    /// Cycles a burst occupies the data bus at peak.
    pub burst_cycles: u64,
    /// Row-precharge time (close an open row).
    pub t_rp: u64,
    /// Row-activate time (open a row).
    pub t_rcd: u64,
    /// Column-access latency overlapping factor — extra cycles charged on a
    /// row miss beyond precharge+activate.
    pub t_cas: u64,
    /// Independent banks per channel.
    pub banks: usize,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
}

impl Default for DdrTimings {
    fn default() -> Self {
        // DDR3-1600, 8 banks, 8 KiB pages, timings ~13.75 ns each at a
        // 5 ns fabric cycle.
        DdrTimings {
            burst_bytes: 64,
            burst_cycles: 1,
            t_rp: 3,
            t_rcd: 3,
            t_cas: 3,
            banks: 8,
            row_bytes: 8 * 1024,
        }
    }
}

impl DdrTimings {
    /// Peak bandwidth in bytes per cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.burst_bytes as f64 / self.burst_cycles.max(1) as f64
    }
}

/// Cost summary of replaying one address stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct DdrCost {
    /// Payload bytes the stream requested.
    pub bytes_requested: u64,
    /// Bytes actually moved on the bus (whole bursts).
    pub bytes_on_bus: u64,
    /// Total cycles the channel was occupied.
    pub cycles: u64,
    /// Bursts that hit an open row.
    pub row_hits: u64,
    /// Bursts that required precharge + activate.
    pub row_misses: u64,
}

impl DdrCost {
    /// Effective payload bandwidth in bytes per cycle.
    pub fn effective_bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.bytes_requested as f64 / self.cycles as f64
    }

    /// Fraction of bursts that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            return 0.0;
        }
        self.row_hits as f64 / total as f64
    }
}

/// A [`DdrTimings`] geometry that [`DdrChannel::new`] cannot model.
///
/// The channel maps addresses with shifts and a mask, so the burst size,
/// the row size and the bank count must be powers of two (zero is not),
/// and a row must hold at least one whole burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DdrGeometryError {
    /// `field` is zero or not a power of two.
    NotPowerOfTwo {
        /// Name of the offending [`DdrTimings`] field.
        field: &'static str,
        /// Its value.
        value: u64,
    },
    /// A row is shorter than one burst.
    RowShorterThanBurst {
        /// [`DdrTimings::row_bytes`].
        row_bytes: u64,
        /// [`DdrTimings::burst_bytes`].
        burst_bytes: u64,
    },
}

impl std::fmt::Display for DdrGeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DdrGeometryError::NotPowerOfTwo { field, value } => {
                write!(f, "DDR {field} = {value} is not a nonzero power of two")
            }
            DdrGeometryError::RowShorterThanBurst {
                row_bytes,
                burst_bytes,
            } => write!(
                f,
                "DDR row of {row_bytes} bytes is shorter than a {burst_bytes}-byte burst"
            ),
        }
    }
}

impl std::error::Error for DdrGeometryError {}

/// One DDR channel with open-page row-buffer state per bank.
///
/// Address mapping: columns fill a row, rows interleave across banks
/// (`row_id % banks`), so sequential streams rotate banks at page
/// boundaries — the standard layout that makes long streams fast.
///
/// A span is charged once per DRAM row it touches, not once per burst:
/// only the first burst of a span in a row can miss, and the rest hit the
/// row that burst opened, so the counters equal a burst-by-burst replay.
///
/// # Example
///
/// ```
/// use sm_mem::ddr::{DdrChannel, DdrTimings};
///
/// let mut ch = DdrChannel::new(DdrTimings::default()).expect("default geometry is valid");
/// let sequential = ch.cost_of_stream([(0u64, 1u64 << 20)]);
/// ch.reset();
/// let hopping = ch.cost_of_stream((0..1024u64).map(|i| (i * 8192, 64u64)));
/// assert!(sequential.effective_bytes_per_cycle() > hopping.effective_bytes_per_cycle());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DdrChannel {
    timings: DdrTimings,
    /// `log2(burst_bytes)`.
    burst_shift: u32,
    /// `log2(row_bytes)`.
    row_shift: u32,
    /// `log2(banks)`.
    bank_shift: u32,
    open_rows: Vec<Option<u64>>,
}

impl DdrChannel {
    /// Creates a channel with all rows closed.
    ///
    /// # Errors
    ///
    /// Returns [`DdrGeometryError`] when `burst_bytes`, `row_bytes` or
    /// `banks` is zero or not a power of two, or when a row is shorter than
    /// a burst.
    pub fn new(timings: DdrTimings) -> Result<Self, DdrGeometryError> {
        let log2 = |field: &'static str, value: u64| {
            if value.is_power_of_two() {
                Ok(value.trailing_zeros())
            } else {
                Err(DdrGeometryError::NotPowerOfTwo { field, value })
            }
        };
        let burst_shift = log2("burst_bytes", timings.burst_bytes)?;
        let row_shift = log2("row_bytes", timings.row_bytes)?;
        let bank_shift = log2("banks", timings.banks as u64)?;
        if row_shift < burst_shift {
            return Err(DdrGeometryError::RowShorterThanBurst {
                row_bytes: timings.row_bytes,
                burst_bytes: timings.burst_bytes,
            });
        }
        Ok(DdrChannel {
            timings,
            burst_shift,
            row_shift,
            bank_shift,
            open_rows: vec![None; timings.banks],
        })
    }

    /// The timing parameters.
    pub fn timings(&self) -> DdrTimings {
        self.timings
    }

    /// Resets all banks to closed.
    pub fn reset(&mut self) {
        self.open_rows.iter_mut().for_each(|r| *r = None);
    }

    /// Charges one span `[addr, addr + len)` to `cost`: its whole bursts
    /// move on the bus, and each DRAM row it touches costs one row hit or
    /// miss for its first burst and row hits for the rest.
    pub fn access_span(&mut self, addr: u64, len: u64, cost: &mut DdrCost) {
        if len == 0 {
            return;
        }
        let t = self.timings;
        let end = addr + len - 1;
        let bursts = (end >> self.burst_shift) - (addr >> self.burst_shift) + 1;
        cost.bytes_requested += len;
        cost.bytes_on_bus += bursts << self.burst_shift;
        cost.cycles += bursts * t.burst_cycles;
        cost.row_hits += bursts;
        let bank_mask = (1u64 << self.bank_shift) - 1;
        for row_id in (addr >> self.row_shift)..=(end >> self.row_shift) {
            let bank = (row_id & bank_mask) as usize;
            let row_in_bank = row_id >> self.bank_shift;
            let open = &mut self.open_rows[bank];
            if *open != Some(row_in_bank) {
                // The row's first burst misses instead of hitting.
                let penalty = if open.is_some() { t.t_rp } else { 0 };
                cost.row_hits -= 1;
                cost.row_misses += 1;
                cost.cycles += penalty + t.t_rcd + t.t_cas;
                *open = Some(row_in_bank);
            }
        }
    }

    /// Replays an address stream of `(addr, len)` spans and returns its
    /// cost. Bank state persists across calls; use [`DdrChannel::reset`]
    /// between independent measurements.
    pub fn cost_of_stream(&mut self, spans: impl IntoIterator<Item = (u64, u64)>) -> DdrCost {
        let mut cost = DdrCost::default();
        for (addr, len) in spans {
            self.access_span(addr, len, &mut cost);
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel(t: DdrTimings) -> DdrChannel {
        DdrChannel::new(t).expect("valid test geometry")
    }

    impl DdrChannel {
        /// The burst-by-burst replay that `access_span` must equal.
        fn access_span_per_burst(&mut self, addr: u64, len: u64, cost: &mut DdrCost) {
            if len == 0 {
                return;
            }
            let t = self.timings;
            cost.bytes_requested += len;
            let first_burst = addr / t.burst_bytes;
            let last_burst = (addr + len - 1) / t.burst_bytes;
            for burst in first_burst..=last_burst {
                let byte_addr = burst * t.burst_bytes;
                let row_id = byte_addr / t.row_bytes;
                let bank = (row_id % t.banks as u64) as usize;
                let row_in_bank = row_id / t.banks as u64;
                cost.bytes_on_bus += t.burst_bytes;
                if self.open_rows[bank] == Some(row_in_bank) {
                    cost.row_hits += 1;
                    cost.cycles += t.burst_cycles;
                } else {
                    let penalty = if self.open_rows[bank].is_some() {
                        t.t_rp
                    } else {
                        0
                    };
                    cost.row_misses += 1;
                    cost.cycles += penalty + t.t_rcd + t.t_cas + t.burst_cycles;
                    self.open_rows[bank] = Some(row_in_bank);
                }
            }
        }
    }

    /// SplitMix64 step: a deterministic random stream for the oracle test.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn per_row_charging_equals_the_per_burst_replay() {
        let other = DdrTimings {
            burst_bytes: 32,
            burst_cycles: 2,
            t_rp: 5,
            t_rcd: 4,
            t_cas: 7,
            banks: 2,
            row_bytes: 256,
        };
        let one_burst_rows = DdrTimings {
            burst_bytes: 16,
            row_bytes: 16,
            banks: 1,
            ..other
        };
        for t in [DdrTimings::default(), other, one_burst_rows] {
            let mut state = t.row_bytes ^ t.banks as u64;
            let (mut fast, mut slow) = (channel(t), channel(t));
            let (mut fast_cost, mut slow_cost) = (DdrCost::default(), DdrCost::default());
            // Addresses over 2 × banks rows, so rows reopen and banks
            // alternate; lengths from zero up to several rows.
            let space = 2 * t.banks as u64 * t.row_bytes;
            for i in 0..20_000u64 {
                let addr = next(&mut state) % space;
                let len = match i % 4 {
                    0 => 0,
                    1 => next(&mut state) % t.burst_bytes + 1,
                    2 => next(&mut state) % (2 * t.row_bytes),
                    _ => next(&mut state) % (5 * t.row_bytes),
                };
                fast.access_span(addr, len, &mut fast_cost);
                slow.access_span_per_burst(addr, len, &mut slow_cost);
                assert_eq!(fast_cost, slow_cost, "{t:?}: span {i} = ({addr}, {len})");
                assert_eq!(fast.open_rows, slow.open_rows, "{t:?}: span {i}");
            }
            assert!(fast_cost.row_hits > 0 && fast_cost.row_misses > 0);
        }
    }

    /// The error `DdrChannel::new` returns for the default timings with
    /// `edit` applied.
    fn rejection(edit: impl FnOnce(&mut DdrTimings)) -> DdrGeometryError {
        let mut t = DdrTimings::default();
        edit(&mut t);
        DdrChannel::new(t).expect_err("geometry must be rejected")
    }

    fn not_pow2(field: &'static str, value: u64) -> DdrGeometryError {
        DdrGeometryError::NotPowerOfTwo { field, value }
    }

    #[test]
    fn zero_burst_bytes_is_rejected() {
        let err = rejection(|t| t.burst_bytes = 0);
        assert_eq!(err, not_pow2("burst_bytes", 0));
    }

    #[test]
    fn zero_row_bytes_is_rejected() {
        assert_eq!(rejection(|t| t.row_bytes = 0), not_pow2("row_bytes", 0));
    }

    #[test]
    fn zero_banks_is_rejected() {
        assert_eq!(rejection(|t| t.banks = 0), not_pow2("banks", 0));
    }

    #[test]
    fn non_power_of_two_burst_bytes_is_rejected() {
        let err = rejection(|t| t.burst_bytes = 48);
        assert_eq!(err, not_pow2("burst_bytes", 48));
    }

    #[test]
    fn non_power_of_two_row_bytes_is_rejected() {
        let err = rejection(|t| t.row_bytes = 6000);
        assert_eq!(err, not_pow2("row_bytes", 6000));
    }

    #[test]
    fn non_power_of_two_banks_is_rejected() {
        let err = rejection(|t| t.banks = 6);
        assert_eq!(err, not_pow2("banks", 6));
        assert_eq!(
            err.to_string(),
            "DDR banks = 6 is not a nonzero power of two"
        );
    }

    #[test]
    fn row_shorter_than_a_burst_is_rejected() {
        let err = rejection(|t| {
            t.burst_bytes = 128;
            t.row_bytes = 64;
        });
        let want = DdrGeometryError::RowShorterThanBurst {
            row_bytes: 64,
            burst_bytes: 128,
        };
        assert_eq!(err, want);
    }

    #[test]
    fn sequential_stream_runs_near_peak() {
        let mut ch = channel(DdrTimings::default());
        // 1 MiB sequential: one miss per 8 KiB row, hits otherwise.
        let cost = ch.cost_of_stream([(0u64, 1 << 20)]);
        assert_eq!(cost.bytes_requested, 1 << 20);
        assert_eq!(cost.row_misses, (1 << 20) / (8 * 1024));
        assert!(cost.row_hit_rate() > 0.99);
        let eff = cost.effective_bytes_per_cycle();
        assert!(eff > 0.93 * 64.0, "effective {eff}");
    }

    #[test]
    fn page_hopping_stream_collapses_bandwidth() {
        let mut ch = channel(DdrTimings::default());
        // 64 bytes from the start of every 8 KiB page: all misses.
        let spans = (0..1024u64).map(|i| (i * 8 * 1024, 64u64));
        let cost = ch.cost_of_stream(spans);
        assert_eq!(cost.row_hits, 0);
        assert_eq!(cost.row_misses, 1024);
        let eff = cost.effective_bytes_per_cycle();
        assert!(eff < 0.2 * 64.0, "effective {eff}");
    }

    #[test]
    fn short_spans_waste_burst_payload() {
        let mut ch = channel(DdrTimings::default());
        // 40-byte spans with 128-byte stride: each span costs a whole burst
        // (sometimes two when straddling), so bus bytes exceed payload.
        let spans = (0..100u64).map(|i| (i * 128, 40u64));
        let cost = ch.cost_of_stream(spans);
        assert!(cost.bytes_on_bus > cost.bytes_requested);
        assert!(cost.effective_bytes_per_cycle() < 64.0);
    }

    #[test]
    fn revisiting_an_open_row_hits() {
        let mut ch = channel(DdrTimings::default());
        let first = ch.cost_of_stream([(0u64, 64u64)]);
        assert_eq!(first.row_misses, 1);
        let second = ch.cost_of_stream([(64u64, 64u64)]);
        assert_eq!(second.row_hits, 1);
        assert_eq!(second.cycles, 1);
        ch.reset();
        let third = ch.cost_of_stream([(0u64, 64u64)]);
        assert_eq!(third.row_misses, 1);
    }

    #[test]
    fn banks_hold_independent_rows() {
        let t = DdrTimings::default();
        let mut ch = channel(t);
        // Rows 0..8 map to banks 0..8: opening all of them keeps all open.
        let spans: Vec<(u64, u64)> = (0..8u64).map(|r| (r * t.row_bytes, 64u64)).collect();
        let open = ch.cost_of_stream(spans.clone());
        assert_eq!(open.row_misses, 8);
        let again = ch.cost_of_stream(spans);
        assert_eq!(again.row_hits, 8);
        assert_eq!(again.row_misses, 0);
    }

    #[test]
    fn empty_and_zero_len_streams_cost_nothing() {
        let mut ch = channel(DdrTimings::default());
        assert_eq!(ch.cost_of_stream([]).cycles, 0);
        assert_eq!(ch.cost_of_stream([(100u64, 0u64)]).cycles, 0);
        assert_eq!(DdrCost::default().effective_bytes_per_cycle(), 0.0);
        assert_eq!(DdrCost::default().row_hit_rate(), 0.0);
    }
}
