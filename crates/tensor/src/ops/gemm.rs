//! Matrix multiplication kernels for the lowered convolution path.
//!
//! [`conv2d_im2col`](crate::ops::conv2d_im2col) reduces convolution to
//! `C = A · Bᵀ` where `A` is the patch matrix (one row per output position)
//! and `B` holds the flattened filters (one row per output channel). Two
//! kernels implement that product:
//!
//! * [`gemm_nt`] — the original cache-blocked scalar loop. Simple enough to
//!   audit by eye; kept as the oracle the fast path is verified against.
//! * [`gemm_nt_micro`] — a packed, register-blocked microkernel (the hot
//!   path). Panels of `A` and `B` are repacked once per `KC` strip into
//!   contiguous buffers, then a fixed [`MR`]`×`[`NR`] unroll-and-jam inner
//!   kernel walks the packed panels with one independent accumulator per
//!   output cell.
//!
//! The microkernel body is generic over where `A`'s rows come from (the
//! crate-private `PackA` trait). [`gemm_nt_micro`] packs them from a dense
//! matrix; the lowered convolution never builds its patch matrix and
//! instead gathers each `MR`-row block of patches straight from the NCHW
//! input while packing. Packing only copies values (with `+0.0` for padding
//! lanes and padded taps), so two sources that hold the same matrix give
//! bit-identical products.
//!
//! # Determinism and bit-identity
//!
//! Both kernels accumulate each output cell *sequentially in `k` within a
//! [`KC`] strip* and add the per-strip partial sums into `C` in strip order.
//! The microkernel's 64 accumulators are independent output cells, not split
//! partial sums of one cell, so no floating-point reassociation happens:
//! `gemm_nt_micro` is **bit-identical** to `gemm_nt` on every shape (the
//! tests assert exact equality). Instruction-level parallelism comes from
//! jamming 64 independent dependency chains, and SIMD comes from the
//! compiler vectorizing across the `NR` accumulator lanes — both legal
//! without `-ffast-math` because no chain is ever reordered.
//!
//! # Row-slab parallelism
//!
//! `gemm_nt_micro` splits `C` into contiguous slabs of whole [`MR`]-row
//! blocks, one per worker of the process-wide [`threads`](crate::threads)
//! count, and each worker computes its slab in place (its own `chunks_mut`
//! of `C`, its own packing buffers) under `std::thread::scope`. A cell's
//! value depends only on its row of `A`, its row of `B` and the strip
//! order, none of which the split touches: every worker still walks the
//! `KC` strips in ascending order and folds each strip's per-cell sum into
//! `C` exactly as the serial loop does, and no accumulator ever mixes
//! cells, so which rows share a register tile cannot matter. The result is
//! therefore bit-identical to [`gemm_nt`] at every thread count. Slabs
//! start on `MR` boundaries, so every tile but the last is full.
//! Products below [`PAR_MIN_MACS`] multiply-adds per worker use fewer
//! workers, down to the serial loop, where spawning would cost more than
//! it saves.
//!
//! # Instruction-set dispatch
//!
//! The crate is built for baseline x86-64, whose sixteen 128-bit registers
//! cannot hold the 64-float register tile, so the portable build spills
//! accumulators to memory. The microkernel therefore exists in two builds
//! of one source: `micro_slab_body` is `#[inline(always)]`, and a copy of
//! it compiled under `#[target_feature(enable = "avx2")]` keeps the tile in
//! eight 256-bit registers. Each slab picks the AVX2 build when
//! `is_x86_feature_detected!("avx2")` holds and the portable one otherwise
//! ([`gemm_kernel`] names the choice); other targets always run the
//! portable build. The dispatch is the crate's one `unsafe` block.
//!
//! Only `avx2` is enabled, never `fma`. Rust never contracts `a * b + c`
//! into a fused multiply-add, which would round once instead of twice, and
//! without the `fma` feature no such instruction can be selected either.
//! The AVX2 build thus performs exactly the IEEE multiplies and adds of the
//! portable build in the same order, only eight lanes at a time, and both
//! stay bit-identical to [`gemm_nt`]; the tests compare all three.

use crate::threads::for_each_chunk;

/// Iteration-space block sizes, sized for a 32 KiB L1 data cache: an
/// `MC`-row panel of `A` plus an `NC`-row panel of `B` over a `KC`-wide
/// strip is `(MC + NC) * KC * 4` bytes = 24 KiB.
const MC: usize = 16;
const NC: usize = 16;
/// Shared `k`-strip width. The microkernel MUST use the same value as the
/// scalar kernel: the strip boundaries define where partial sums are folded
/// into `C`, so equal strips are what makes the two kernels bit-identical.
pub const KC: usize = 192;

/// Microkernel register-block height (rows of `A` per inner kernel).
pub const MR: usize = 8;
/// Microkernel register-block width (rows of `B`, i.e. columns of `C`).
pub const NR: usize = 8;

/// Fewest multiply-adds one GEMM worker is given (about 100 µs of
/// single-core AVX2 microkernel time, 250 µs portable): smaller products
/// run on fewer workers, down to one.
const PAR_MIN_MACS: usize = 1 << 20;

/// `C = A · Bᵀ` with both inputs row-major: `A` is `rows × cols`, `B` is
/// `m × cols`, and the result is `rows × m` row-major.
///
/// Accumulation order is fixed by the block sizes, so results are
/// deterministic (bit-identical across runs and thread counts) though not
/// bit-identical to a naive single-pass dot product.
///
/// This is the scalar oracle; production callers use the equivalent (and
/// bit-identical) [`gemm_nt_micro`].
///
/// # Panics
///
/// Panics if the slice lengths disagree with the stated dimensions.
pub fn gemm_nt(a: &[f32], b: &[f32], rows: usize, cols: usize, m: usize) -> Vec<f32> {
    assert_eq!(a.len(), rows * cols, "A is not rows x cols");
    assert_eq!(b.len(), m * cols, "B is not m x cols");
    let mut c = vec![0.0f32; rows * m];
    for k0 in (0..cols).step_by(KC) {
        let k1 = (k0 + KC).min(cols);
        for i0 in (0..rows).step_by(MC) {
            let i1 = (i0 + MC).min(rows);
            for j0 in (0..m).step_by(NC) {
                let j1 = (j0 + NC).min(m);
                for i in i0..i1 {
                    let ar = &a[i * cols + k0..i * cols + k1];
                    let crow = &mut c[i * m..(i + 1) * m];
                    for j in j0..j1 {
                        let br = &b[j * cols + k0..j * cols + k1];
                        let mut acc = 0.0f32;
                        for (x, y) in ar.iter().zip(br) {
                            acc += x * y;
                        }
                        crow[j] += acc;
                    }
                }
            }
        }
    }
    c
}

/// `C = A · Bᵀ` through the packed [`MR`]`×`[`NR`] microkernel — the hot
/// path of the lowered convolution (and therefore of golden replay).
///
/// Per [`KC`] strip, the full `B` strip is repacked into `NR`-wide column
/// panels (`bp[panel][k][jj]`, contiguous in the order the inner kernel
/// reads it) and each `MR`-row slice of `A` into a row panel
/// (`ap[k][ii]`). The inner kernel then keeps an `MR × NR` tile of
/// independent accumulators live across the whole strip: per `k` step it
/// performs `MR * NR` multiply-adds from `MR + NR` loads, which the
/// compiler turns into vector multiplies and adds across the `NR` lanes.
///
/// Ragged edges are handled by zero-padding the packed panels to full
/// `MR`/`NR` width and only writing back the valid cells, so every shape
/// takes the same (full-speed) inner kernel.
///
/// Rows are split over the [`threads`](crate::threads) worker count in
/// `MR`-aligned slabs. Bit-identical to [`gemm_nt`] on every input and at
/// every thread count — see the module docs for the argument.
///
/// # Panics
///
/// Panics if the slice lengths disagree with the stated dimensions.
pub fn gemm_nt_micro(a: &[f32], b: &[f32], rows: usize, cols: usize, m: usize) -> Vec<f32> {
    gemm_nt_micro_threads(a, b, rows, cols, m, crate::threads())
}

/// [`gemm_nt_micro`] on at most `threads` workers.
pub(crate) fn gemm_nt_micro_threads(
    a: &[f32],
    b: &[f32],
    rows: usize,
    cols: usize,
    m: usize,
    threads: usize,
) -> Vec<f32> {
    gemm_nt_micro_isa(a, b, rows, cols, m, threads, Isa::Detect)
}

/// [`gemm_nt_micro_threads`] on the microkernel builds `isa` allows.
fn gemm_nt_micro_isa(
    a: &[f32],
    b: &[f32],
    rows: usize,
    cols: usize,
    m: usize,
    threads: usize,
    isa: Isa,
) -> Vec<f32> {
    assert_eq!(a.len(), rows * cols, "A is not rows x cols");
    assert_eq!(b.len(), m * cols, "B is not m x cols");
    gemm_packed(&DenseRows { a, cols }, b, rows, cols, m, threads, isa)
}

/// Where the microkernel's `A` rows come from: packing copies an `MR`-row
/// block of them over one `KC` strip into the k-major micro-panel.
/// Implementations are `#[inline(always)]`, so packing is compiled into
/// each instruction-set build of [`micro_slab_body`].
pub(crate) trait PackA: Sync {
    /// Writes rows `r0..r0 + ir` of `A`, columns `k0..k0 + kc`, into `ap`
    /// k-major (`ap[k * MR + ii]`), and `+0.0` into lanes `ir..MR`.
    fn pack(&self, r0: usize, ir: usize, k0: usize, kc: usize, ap: &mut [f32]);
}

/// `A` stored as a dense row-major `rows × cols` matrix.
struct DenseRows<'a> {
    a: &'a [f32],
    cols: usize,
}

impl PackA for DenseRows<'_> {
    #[inline(always)]
    fn pack(&self, r0: usize, ir: usize, k0: usize, kc: usize, ap: &mut [f32]) {
        for k in 0..kc {
            for ii in 0..ir {
                ap[k * MR + ii] = self.a[(r0 + ii) * self.cols + k0 + k];
            }
            for ii in ir..MR {
                ap[k * MR + ii] = 0.0;
            }
        }
    }
}

/// `C = A · Bᵀ` through the microkernel with `A`'s `rows × cols` entries
/// read from `a` during packing; `C` is `rows × m` row-major. Rows are split
/// over at most `threads` workers, each packing only its own rows.
pub(crate) fn gemm_packed(
    a: &impl PackA,
    b: &[f32],
    rows: usize,
    cols: usize,
    m: usize,
    threads: usize,
    isa: Isa,
) -> Vec<f32> {
    // Explicit degenerate-dimension early-outs: no packing buffers are
    // allocated and the (empty or all-zero) result matches the scalar
    // kernel exactly.
    if rows == 0 || m == 0 {
        return Vec::new();
    }
    let mut c = vec![0.0f32; rows * m];
    if cols == 0 {
        return c;
    }
    let workers = gemm_workers(rows, cols, m, threads);
    let slab_rows = rows.div_ceil(MR).div_ceil(workers) * MR;
    for_each_chunk(&mut c, slab_rows * m, |slab, c_slab| {
        micro_slab(isa, a, slab * slab_rows, b, cols, m, c_slab);
    });
    c
}

/// Workers a `rows × cols × m` product is split over: at most `threads`,
/// one per `MR`-row block at most, and each with at least
/// [`PAR_MIN_MACS`] multiply-adds.
fn gemm_workers(rows: usize, cols: usize, m: usize, threads: usize) -> usize {
    let by_work = rows.saturating_mul(cols).saturating_mul(m) / PAR_MIN_MACS;
    threads.min(rows.div_ceil(MR)).min(by_work).max(1)
}

/// Which builds of the microkernel [`micro_slab`] may choose from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The AVX2 build when the CPU has it, else the portable one.
    Detect,
    /// The portable build only: the oracle the AVX2 build is tested against.
    #[cfg(test)]
    Portable,
}

/// Name of the microkernel build [`gemm_nt_micro`] runs on this CPU:
/// `"avx2"` or `"portable"`.
pub fn gemm_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

/// The serial microkernel over one slab: `c += a · bᵀ` over rows
/// `r0..r0 + c.len() / m` of `a`, where `c` holds those rows of the result.
/// Runs the AVX2 build of [`micro_slab_body`] when `isa` allows it and the
/// CPU has AVX2.
fn micro_slab(
    isa: Isa,
    a: &impl PackA,
    r0: usize,
    b: &[f32],
    cols: usize,
    m: usize,
    c: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Detect && std::is_x86_feature_detected!("avx2") {
        #[allow(unsafe_code)]
        // SAFETY: `micro_slab_avx2`'s only requirement is that the CPU
        // supports AVX2, which the `is_x86_feature_detected!` check in this
        // branch's condition has just established.
        unsafe {
            micro_slab_avx2(a, r0, b, cols, m, c);
        }
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = isa;
    micro_slab_body(a, r0, b, cols, m, c);
}

/// [`micro_slab_body`] compiled with 256-bit AVX2 registers. The `fma`
/// feature stays off, so every multiply and add rounds exactly as in the
/// portable build (see the module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn micro_slab_avx2(a: &impl PackA, r0: usize, b: &[f32], cols: usize, m: usize, c: &mut [f32]) {
    micro_slab_body(a, r0, b, cols, m, c);
}

/// The microkernel itself, inlined into each instruction-set build.
#[inline(always)]
fn micro_slab_body(a: &impl PackA, r0: usize, b: &[f32], cols: usize, m: usize, c: &mut [f32]) {
    let rows = c.len() / m;
    let n_panels = m.div_ceil(NR);
    // Packed B strip: n_panels panels, each KC k-steps of NR lanes.
    let mut bp = vec![0.0f32; n_panels * KC * NR];
    // Packed A micro-panel: KC k-steps of MR lanes.
    let mut ap = vec![0.0f32; KC * MR];
    for k0 in (0..cols).step_by(KC) {
        let kc = (KC).min(cols - k0);
        // Pack B: panel p holds rows j0..j0+NR of B over the strip,
        // transposed so one k step's NR operands are adjacent.
        for p in 0..n_panels {
            let j0 = p * NR;
            let jn = NR.min(m - j0);
            let panel = &mut bp[p * KC * NR..(p * KC * NR) + kc * NR];
            for (jj, prow) in (0..jn).map(|jj| (jj, &b[(j0 + jj) * cols + k0..])) {
                for k in 0..kc {
                    panel[k * NR + jj] = prow[k];
                }
            }
            // Zero the padded lanes of ragged tail panels so stale values
            // from the previous strip never feed an accumulator.
            if jn < NR {
                for k in 0..kc {
                    for jj in jn..NR {
                        panel[k * NR + jj] = 0.0;
                    }
                }
            }
        }

        for i0 in (0..rows).step_by(MR) {
            let ir = MR.min(rows - i0);
            // Pack A: MR rows over the strip, transposed to k-major.
            a.pack(r0 + i0, ir, k0, kc, &mut ap);

            for p in 0..n_panels {
                let j0 = p * NR;
                let jn = NR.min(m - j0);
                let panel = &bp[p * KC * NR..(p * KC * NR) + kc * NR];

                // The register tile: MR×NR independent accumulators, each
                // summing its cell's products sequentially in k (same
                // order as the scalar oracle's per-strip accumulator).
                let mut acc = [[0.0f32; NR]; MR];
                for k in 0..kc {
                    let av: &[f32; MR] = ap[k * MR..k * MR + MR].try_into().expect("MR lane");
                    let bv: &[f32; NR] = panel[k * NR..k * NR + NR].try_into().expect("NR lane");
                    for ii in 0..MR {
                        let x = av[ii];
                        let row = &mut acc[ii];
                        for jj in 0..NR {
                            row[jj] += x * bv[jj];
                        }
                    }
                }

                // Fold the strip's partial sums into C (valid cells only —
                // padded lanes never escape the register tile).
                for ii in 0..ir {
                    let crow = &mut c[(i0 + ii) * m + j0..(i0 + ii) * m + j0 + jn];
                    for (dst, &src) in crow.iter_mut().zip(&acc[ii][..jn]) {
                        *dst += src;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_naive(a: &[f32], b: &[f32], rows: usize, cols: usize, m: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; rows * m];
        for i in 0..rows {
            for j in 0..m {
                let mut acc = 0.0f32;
                for k in 0..cols {
                    acc += a[i * cols + k] * b[j * cols + k];
                }
                c[i * m + j] = acc;
            }
        }
        c
    }

    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        // SplitMix64-derived values in [-1, 1); deterministic and cheap.
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    #[test]
    fn blocked_gemm_matches_naive_on_awkward_shapes() {
        // Shapes straddling the block boundaries: below, at, and above
        // MC/NC/KC, including degenerate single-row/column cases.
        for (rows, cols, m, seed) in [
            (1usize, 1usize, 1usize, 1u64),
            (3, 5, 2, 2),
            (16, 192, 16, 3),
            (17, 193, 19, 4),
            (40, 250, 33, 5),
            (1, 300, 7, 6),
            (50, 1, 50, 7),
        ] {
            let a = pseudo(rows * cols, seed);
            let b = pseudo(m * cols, seed + 100);
            let blocked = gemm_nt(&a, &b, rows, cols, m);
            let naive = gemm_naive(&a, &b, rows, cols, m);
            let worst = blocked
                .iter()
                .zip(&naive)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(worst < 1e-4, "{rows}x{cols}x{m}: max diff {worst}");
        }
    }

    #[test]
    fn microkernel_is_bit_identical_to_scalar_on_tail_shapes() {
        // Every combination of rows/m below, at, and straddling MR/NR, and
        // cols below, at, and straddling KC — the packing edge cases.
        for rows in [1usize, 7, 8, 9, 16, 23] {
            for m in [1usize, 7, 8, 9, 17] {
                for cols in [1usize, 5, 191, 192, 193, 400] {
                    let seed = (rows * 1000 + m * 10 + cols) as u64;
                    let a = pseudo(rows * cols, seed);
                    let b = pseudo(m * cols, seed + 100);
                    let micro = gemm_nt_micro(&a, &b, rows, cols, m);
                    let scalar = gemm_nt(&a, &b, rows, cols, m);
                    assert_eq!(micro, scalar, "{rows}x{cols}x{m}");
                }
            }
        }
    }

    #[test]
    fn row_slabs_are_bit_identical_to_scalar_at_any_thread_count() {
        // (rows, cols, m, workers at 7 threads): rows < MR; rows not a
        // multiple of MR, split into ragged slabs; more threads than row
        // blocks; and a product too small to split.
        for (rows, cols, m, at_seven) in [
            (5usize, 4100usize, 300usize, 1usize),
            (203, 400, 70, 5),
            (20, 1100, 300, 3),
            (37, 50, 9, 1),
        ] {
            assert_eq!(
                gemm_workers(rows, cols, m, 7),
                at_seven,
                "{rows}x{cols}x{m}"
            );
            let a = pseudo(rows * cols, rows as u64);
            let b = pseudo(m * cols, m as u64);
            let scalar = gemm_nt(&a, &b, rows, cols, m);
            for threads in [1usize, 2, 3, 7] {
                let micro = gemm_nt_micro_threads(&a, &b, rows, cols, m, threads);
                assert_eq!(micro, scalar, "{rows}x{cols}x{m} on {threads} threads");
            }
        }
    }

    #[test]
    fn portable_and_avx2_builds_are_bit_identical_to_scalar() {
        // The tail shapes and row-slab shapes above, each through the
        // forced portable build and (where the CPU has it) the AVX2 build,
        // at several worker counts.
        let avx2 = gemm_kernel() == "avx2";
        if !avx2 {
            println!("note: this CPU has no AVX2; only the portable build is checked");
        }
        let mut shapes = vec![
            (5usize, 4100usize, 300usize),
            (203, 400, 70),
            (20, 1100, 300),
        ];
        for rows in [1usize, 7, 8, 9, 16, 23] {
            for m in [1usize, 7, 8, 9, 17] {
                for cols in [1usize, 5, 191, 192, 193, 400] {
                    shapes.push((rows, cols, m));
                }
            }
        }
        for (rows, cols, m) in shapes {
            let seed = (rows * 1000 + m * 10 + cols) as u64;
            let a = pseudo(rows * cols, seed);
            let b = pseudo(m * cols, seed + 100);
            let scalar = gemm_nt(&a, &b, rows, cols, m);
            for threads in [1usize, 2, 3, 7] {
                let portable = gemm_nt_micro_isa(&a, &b, rows, cols, m, threads, Isa::Portable);
                assert_eq!(portable, scalar, "portable {rows}x{cols}x{m} on {threads}");
                if avx2 {
                    let fast = gemm_nt_micro_isa(&a, &b, rows, cols, m, threads, Isa::Detect);
                    assert_eq!(fast, scalar, "avx2 {rows}x{cols}x{m} on {threads}");
                }
            }
        }
    }

    #[test]
    fn microkernel_matches_naive_within_tolerance() {
        for (rows, cols, m, seed) in [
            (17usize, 193usize, 19usize, 4u64),
            (40, 250, 33, 5),
            (64, 576, 64, 6),
        ] {
            let a = pseudo(rows * cols, seed);
            let b = pseudo(m * cols, seed + 100);
            let micro = gemm_nt_micro(&a, &b, rows, cols, m);
            let naive = gemm_naive(&a, &b, rows, cols, m);
            let worst = micro
                .iter()
                .zip(&naive)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(worst < 1e-3, "{rows}x{cols}x{m}: max diff {worst}");
        }
    }

    #[test]
    fn empty_dimensions_yield_empty_or_zero_results() {
        assert!(gemm_nt(&[], &[], 0, 5, 0).is_empty());
        assert_eq!(gemm_nt(&[], &[], 3, 0, 2), vec![0.0; 6]);
    }

    #[test]
    fn microkernel_zero_dimension_early_outs() {
        // rows == 0, m == 0, and cols == 0 each take the explicit early-out
        // and agree with the scalar kernel's result shape and values.
        assert!(gemm_nt_micro(&[], &[], 0, 5, 0).is_empty());
        assert!(gemm_nt_micro(&[], &[1.0, 2.0], 0, 1, 2).is_empty());
        assert!(gemm_nt_micro(&[1.0, 2.0], &[], 2, 1, 0).is_empty());
        assert_eq!(gemm_nt_micro(&[], &[], 3, 0, 2), vec![0.0; 6]);
        assert_eq!(gemm_nt_micro(&[], &[], 3, 0, 2), gemm_nt(&[], &[], 3, 0, 2));
    }
}
