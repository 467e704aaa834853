//! Property tests for the deterministic fan-out primitives: whatever the
//! thread count and however adversarial the cost estimates, the weighted
//! (largest-cost-first) dispatcher, the FIFO dispatcher and a serial map
//! must all return byte-identical results in input order, and the weighted
//! dispatcher must stream every result exactly once in input order.

use proptest::prelude::*;

use sm_core::parallel::{par_map, par_map_weighted, par_map_weighted_stream_cancellable};

/// The mapped value carries the input and a derived payload so any
/// reordering or cross-worker mixup shows up as a byte-level mismatch.
fn cell(x: &u64) -> Vec<u8> {
    let h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
    h.to_le_bytes()
        .iter()
        .chain(x.to_le_bytes().iter())
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weighted dispatch ≡ FIFO dispatch ≡ serial map at 1, 3 and 8
    /// threads, under adversarial costs: zeros, ties and ~10^9× skew are
    /// all generated, none may perturb output order or content.
    #[test]
    fn weighted_fifo_and_serial_maps_are_byte_identical(
        items in prop::collection::vec(0u64..1000, 0..40),
        costs in prop::collection::vec(
            prop_oneof![Just(0u64), Just(1), Just(u64::MAX / 4), 0u64..100],
            0..40
        ),
    ) {
        let serial: Vec<Vec<u8>> = items.iter().map(cell).collect();
        for threads in [1usize, 3, 8] {
            let fifo = par_map(&items, threads, cell);
            prop_assert_eq!(&serial, &fifo, "par_map diverged at {} threads", threads);
            // Cost is looked up by item value, so duplicated items share a
            // cost and an empty cost table falls back to a constant.
            let cost = |x: &u64| {
                let table = costs.len().max(1);
                costs.get(*x as usize % table).copied().unwrap_or(7)
            };
            let weighted = par_map_weighted(&items, threads, cost, cell);
            prop_assert_eq!(
                &serial,
                &weighted,
                "par_map_weighted diverged at {} threads",
                threads
            );
            let mut streamed: Vec<(usize, Vec<u8>)> = Vec::new();
            let out = par_map_weighted_stream_cancellable(
                &items,
                threads,
                cost,
                cell,
                |i, u| streamed.push((i, u.clone())),
                None,
            );
            prop_assert_eq!(out.as_ref(), Ok(&serial));
            let in_order: Vec<(usize, Vec<u8>)> = serial.iter().cloned().enumerate().collect();
            prop_assert_eq!(streamed, in_order, "stream order at {} threads", threads);
        }
    }

    /// Equal costs degrade gracefully: LPT with uniform weights is still a
    /// valid schedule and still order-preserving.
    #[test]
    fn uniform_costs_preserve_order(
        items in prop::collection::vec(0u64..1000, 1..60),
        threads in 1usize..9,
    ) {
        let serial: Vec<Vec<u8>> = items.iter().map(cell).collect();
        let weighted = par_map_weighted(&items, threads, |_| 42, cell);
        prop_assert_eq!(serial, weighted);
    }
}
