use crate::ops::conv::Conv2dParams;
use crate::ops::gemm::{gemm_packed, Isa, PackA, MR};
use crate::threads::for_each_chunk;
use crate::{Shape4, Tensor, TensorError};

/// Lowers a convolution input to a patch matrix (im2col).
///
/// Row `i` of the result holds the flattened receptive field of output
/// position `i` (batch-major, then row-major over output positions); the
/// row length is `C*K*K`. [`conv2d_im2col`] multiplies this matrix by the
/// filters without building it, and this function followed by
/// [`gemm_nt`](crate::ops::gemm_nt) is the oracle it is tested against bit
/// for bit. The lowering is a second, structurally different convolution
/// implementation used to cross-validate the direct golden
/// [`crate::ops::conv2d`] — two independent implementations agreeing is
/// much stronger evidence than either alone.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParams`] when the window is degenerate for
/// the input extent.
pub fn im2col(
    input: &Tensor,
    params: Conv2dParams,
) -> Result<(Vec<f32>, usize, usize), TensorError> {
    let is = input.shape();
    let (oh, ow) = out_hw(is, params)?;
    let rows = is.n * oh * ow;
    let cols = is.c * params.kernel * params.kernel;
    let mut m = vec![0.0f32; rows * cols];
    for n in 0..is.n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (n * oh + oy) * ow + ox;
                let mut col = 0usize;
                for c in 0..is.c {
                    for ky in 0..params.kernel {
                        for kx in 0..params.kernel {
                            let iy = (oy * params.stride + ky) as isize - params.pad as isize;
                            let ix = (ox * params.stride + kx) as isize - params.pad as isize;
                            if iy >= 0 && (iy as usize) < is.h && ix >= 0 && (ix as usize) < is.w {
                                m[row * cols + col] = input.at(n, c, iy as usize, ix as usize);
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    Ok((m, rows, cols))
}

/// Output height and width of `params` over an input of shape `is`.
fn out_hw(is: Shape4, params: Conv2dParams) -> Result<(usize, usize), TensorError> {
    match (params.out_dim(is.h), params.out_dim(is.w)) {
        (Some(oh), Some(ow)) => Ok((oh, ow)),
        _ => Err(TensorError::InvalidParams {
            op: "im2col",
            reason: format!(
                "input {}x{} with kernel {} stride {} pad {} has no output",
                is.h, is.w, params.kernel, params.stride, params.pad
            ),
        }),
    }
}

/// Convolution by lowering: the patch matrix of [`im2col`] multiplied by
/// the flattened filters through the packed register-blocked microkernel
/// of [`gemm_nt_micro`](crate::ops::gemm_nt_micro).
///
/// The patch matrix is never materialised. The microkernel's packing step
/// gathers each [`MR`]-row block of patches straight from the NCHW input,
/// with `+0.0` for taps in the padding halo, so every row-slab worker
/// gathers only its own output positions. The position-major product is
/// then written to NCHW, bias added, over output-channel planes split
/// across the [`threads`](crate::threads) workers. The columns keep
/// [`im2col`]'s `(c, ky, kx)` order and the [`KC`](crate::ops::KC) strips
/// are unchanged, so the result is bit-identical to running
/// [`gemm_nt`](crate::ops::gemm_nt) on the explicit [`im2col`] matrix, at
/// every thread count.
///
/// This is the fast execution path of the golden model. It is numerically
/// deterministic but accumulates in a different order than the direct
/// [`crate::ops::conv2d`] loop, so the two agree to floating-point
/// tolerance, not bit-for-bit; the direct loop remains the reference
/// oracle.
///
/// # Errors
///
/// Same conditions as [`crate::ops::conv2d`].
pub fn conv2d_im2col(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    params: Conv2dParams,
) -> Result<Tensor, TensorError> {
    conv2d_lowered(input, weights, bias, params, crate::threads(), Isa::Detect)
}

/// [`conv2d_im2col`] on at most `threads` workers and the microkernel
/// builds `isa` allows.
fn conv2d_lowered(
    input: &Tensor,
    weights: &Tensor,
    bias: Option<&[f32]>,
    params: Conv2dParams,
    threads: usize,
    isa: Isa,
) -> Result<Tensor, TensorError> {
    let is = input.shape();
    let ws = weights.shape();
    if ws.c != is.c {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_im2col",
            lhs: is,
            rhs: ws,
        });
    }
    if params.kernel == 0 || ws.h != params.kernel || ws.w != params.kernel {
        return Err(TensorError::InvalidParams {
            op: "conv2d_im2col",
            reason: "weight kernel disagrees with params".into(),
        });
    }
    if let Some(b) = bias {
        if b.len() != ws.n {
            return Err(TensorError::InvalidParams {
                op: "conv2d_im2col",
                reason: format!("bias has {} elements, expected {}", b.len(), ws.n),
            });
        }
    }
    let (oh, ow) = out_hw(is, params)?;
    let plane = oh * ow;
    let patches = Patches {
        x: input.as_slice(),
        shape: is,
        params,
        ow,
        plane,
    };
    let rows = is.n * plane;
    let cols = is.c * params.kernel * params.kernel;
    let m = ws.n;

    // (rows, cols) x (m, cols)^T -> (rows, m), rows batch-major over
    // output positions.
    let prod = gemm_packed(&patches, weights.as_slice(), rows, cols, m, threads, isa);

    // Position-major (row, m) to NCHW, adding bias on the way: each worker
    // writes whole (image, channel) planes.
    let mut out = Tensor::zeros(Shape4::new(is.n, m, oh, ow));
    let planes = is.n * m;
    let workers = threads.min(planes).min(rows * m / PAR_MIN_WRITES).max(1);
    let per = planes.div_ceil(workers);
    for_each_chunk(out.as_mut_slice(), per * plane, |chunk, o| {
        for (q, dst) in (chunk * per..).zip(o.chunks_mut(plane)) {
            let (n, ch) = (q / m, q % m);
            let b = bias.map_or(0.0, |b| b[ch]);
            let src = &prod[n * plane * m + ch..];
            for (d, &v) in dst.iter_mut().zip(src.iter().step_by(m)) {
                *d = v + b;
            }
        }
    });
    Ok(out)
}

/// Fewest output elements one NCHW-writing worker is given.
const PAR_MIN_WRITES: usize = 1 << 16;

/// The patch matrix of [`im2col`] read in place from the NCHW input.
struct Patches<'a> {
    x: &'a [f32],
    shape: Shape4,
    params: Conv2dParams,
    /// Output width.
    ow: usize,
    /// Output positions per image.
    plane: usize,
}

impl PackA for Patches<'_> {
    #[inline(always)]
    fn pack(&self, r0: usize, ir: usize, k0: usize, kc: usize, ap: &mut [f32]) {
        let (h, w) = (self.shape.h, self.shape.w);
        let Conv2dParams {
            kernel,
            stride,
            pad,
        } = self.params;
        let in_plane = h * w;
        let image = self.shape.c * in_plane;
        // Per lane: the image's offset and the input row and column of the
        // window's top-left tap. Lanes past `ir` start a full kernel above
        // the input, so every one of their taps reads as padding.
        let mut base = [0usize; MR];
        let mut y0 = [-(kernel as isize); MR];
        let mut x0 = [0isize; MR];
        for ii in 0..ir {
            let (n, p) = ((r0 + ii) / self.plane, (r0 + ii) % self.plane);
            base[ii] = n * image;
            y0[ii] = ((p / self.ow) * stride) as isize - pad as isize;
            x0[ii] = ((p % self.ow) * stride) as isize - pad as isize;
        }
        // Column k0 + k is tap (c, ky, kx), walked in im2col's order.
        let taps = kernel * kernel;
        let (mut c, mut ky, mut kx) = (k0 / taps, (k0 % taps) / kernel, k0 % kernel);
        for k in 0..kc {
            let chan = &self.x[c * in_plane..];
            for ii in 0..MR {
                let iy = (y0[ii] + ky as isize) as usize;
                let ix = (x0[ii] + kx as isize) as usize;
                // Negative coordinates wrap to huge values and fail too.
                ap[k * MR + ii] = if iy < h && ix < w {
                    chan[base[ii] + iy * w + ix]
                } else {
                    0.0
                };
            }
            kx += 1;
            if kx == kernel {
                kx = 0;
                ky += 1;
                if ky == kernel {
                    ky = 0;
                    c += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{conv2d, gemm_kernel, gemm_nt};

    /// The lowered convolution with the patch matrix materialised: the
    /// explicit [`im2col`] matrix times the filters through the scalar
    /// [`gemm_nt`], scattered serially from position-major to NCHW.
    fn explicit_im2col_gemm(
        input: &Tensor,
        weights: &Tensor,
        bias: Option<&[f32]>,
        params: Conv2dParams,
    ) -> Tensor {
        let (is, m) = (input.shape(), weights.shape().n);
        let (patches, rows, cols) = im2col(input, params).unwrap();
        let prod = gemm_nt(&patches, weights.as_slice(), rows, cols, m);
        let (oh, ow) = (params.out_dim(is.h).unwrap(), params.out_dim(is.w).unwrap());
        let plane = oh * ow;
        let mut out = Tensor::zeros(Shape4::new(is.n, m, oh, ow));
        let o = out.as_mut_slice();
        for row in 0..rows {
            let (n, pos) = (row / plane, row % plane);
            for ch in 0..m {
                o[(n * m + ch) * plane + pos] = prod[row * m + ch] + bias.map_or(0.0, |b| b[ch]);
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lowered_conv_is_bit_identical_to_explicit_im2col_gemm() {
        // (batch, c, h, w, m, kernel, stride, pad): the geometries of the
        // tests below (pad >= kernel, strides 2 and 3, 1x1 with and without
        // padding), the 7x7 stride-2 stem, columns across KC strips, a 1x1
        // with blocks straddling images, products split over several GEMM
        // workers and outputs split over several writers.
        let mut cases = vec![
            (
                2usize, 3usize, 8usize, 8usize, 4usize, 3usize, 1usize, 1usize,
            ),
            (2, 5, 9, 9, 7, 3, 2, 1),
            (2, 2, 6, 6, 3, 1, 1, 0),
            (2, 4, 11, 11, 2, 5, 2, 2),
            (2, 1, 7, 7, 1, 7, 1, 3),
            (2, 2, 5, 5, 3, 3, 1, 3),
            (2, 3, 4, 4, 2, 3, 2, 4),
            (2, 2, 6, 6, 3, 1, 1, 1),
            (2, 3, 1, 1, 2, 1, 1, 0),
            (1, 3, 29, 27, 10, 7, 2, 3),
            (2, 25, 20, 20, 24, 3, 1, 1),
            (2, 200, 19, 19, 20, 1, 1, 0),
            (2, 70, 13, 11, 9, 1, 2, 0),
            (2, 4, 72, 72, 33, 3, 1, 1),
            (1, 9, 40, 41, 17, 3, 3, 2),
        ];
        for k in 1..=4usize {
            for s in 1..=3usize {
                for p in 0..=k + 1 {
                    if Conv2dParams::new(k, s, p).out_dim(5).is_some() {
                        cases.push((2, 3, 6, 5, 2, k, s, p));
                    }
                }
            }
        }
        let avx2 = gemm_kernel() == "avx2";
        for (i, &(n, c, h, w, m, k, s, p)) in cases.iter().enumerate() {
            let seed = 1000 + 3 * i as u64;
            let input = Tensor::random(Shape4::new(n, c, h, w), seed);
            let weights = Tensor::random(Shape4::new(m, c, k, k), seed + 1);
            let bias: Vec<f32> = Tensor::random(Shape4::new(1, m, 1, 1), seed + 2).into_vec();
            let params = Conv2dParams::new(k, s, p);
            for bias in [None, Some(bias.as_slice())] {
                let want = bits(&explicit_im2col_gemm(&input, &weights, bias, params));
                for threads in [1usize, 2, 3, 7] {
                    let what = format!("{n}x{c}x{h}x{w} m{m} k{k} s{s} p{p} on {threads}");
                    let lowered = |isa| {
                        bits(&conv2d_lowered(&input, &weights, bias, params, threads, isa).unwrap())
                    };
                    assert_eq!(lowered(Isa::Portable), want, "portable {what}");
                    if avx2 {
                        assert_eq!(lowered(Isa::Detect), want, "avx2 {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_matrix_shape_and_padding_zeros() {
        let input = Tensor::full(Shape4::new(1, 2, 3, 3), 1.0);
        let (m, rows, cols) = im2col(&input, Conv2dParams::new(3, 1, 1)).unwrap();
        assert_eq!(rows, 9);
        assert_eq!(cols, 18);
        assert_eq!(m.len(), rows * cols);
        // The corner output's patch has 5 padded zeros per channel.
        let corner = &m[..cols];
        let zeros = corner.iter().filter(|&&x| x == 0.0).count();
        assert_eq!(zeros, 2 * 5);
    }

    #[test]
    fn lowered_conv_matches_direct_conv() {
        for (c, hw, mch, k, s, p, seed) in [
            (3usize, 8usize, 4usize, 3usize, 1usize, 1usize, 1u64),
            (5, 9, 7, 3, 2, 1, 2),
            (2, 6, 3, 1, 1, 0, 3),
            (4, 11, 2, 5, 2, 2, 4),
            (1, 7, 1, 7, 1, 3, 5),
            // pad == kernel and pad > kernel: the window can sit entirely
            // inside the padding halo.
            (2, 5, 3, 3, 1, 3, 6),
            (3, 4, 2, 3, 2, 4, 7),
            // 1x1 kernels with and without padding (padding adds
            // all-zero patch rows).
            (2, 6, 3, 1, 1, 1, 8),
            (3, 1, 2, 1, 1, 0, 9),
        ] {
            let input = Tensor::random(Shape4::new(2, c, hw, hw), seed);
            let weights = Tensor::random(Shape4::new(mch, c, k, k), seed + 100);
            let bias: Vec<f32> = Tensor::random(Shape4::new(1, mch, 1, 1), seed + 200).into_vec();
            let params = Conv2dParams::new(k, s, p);
            let direct = conv2d(&input, &weights, Some(&bias), params).unwrap();
            let lowered = conv2d_im2col(&input, &weights, Some(&bias), params).unwrap();
            assert!(
                lowered.all_close(&direct, 1e-4),
                "k{k} s{s} p{p}: diff {}",
                lowered.max_abs_diff(&direct).unwrap()
            );
        }
    }

    #[test]
    fn lowered_conv_matches_direct_across_param_grid() {
        // Exhaustive small sweep: every kernel/stride/pad combination up to
        // pad = kernel + 1, on a non-square input.
        let input = Tensor::random(Shape4::new(2, 3, 6, 5), 11);
        for k in 1..=4usize {
            let weights = Tensor::random(Shape4::new(2, 3, k, k), 12 + k as u64);
            for s in 1..=3usize {
                for p in 0..=k + 1 {
                    let params = Conv2dParams::new(k, s, p);
                    let direct = conv2d(&input, &weights, None, params);
                    let lowered = conv2d_im2col(&input, &weights, None, params);
                    match (direct, lowered) {
                        (Ok(d), Ok(l)) => assert!(
                            l.all_close(&d, 1e-4),
                            "k{k} s{s} p{p}: diff {}",
                            l.max_abs_diff(&d).unwrap()
                        ),
                        (Err(_), Err(_)) => {}
                        (d, l) => panic!(
                            "k{k} s{s} p{p}: direct ok={} lowered ok={}",
                            d.is_ok(),
                            l.is_ok()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_the_same_inputs_direct_conv_rejects() {
        let input = Tensor::zeros(Shape4::new(1, 3, 4, 4));
        let wrong_c = Tensor::zeros(Shape4::new(2, 4, 3, 3));
        let p = Conv2dParams::new(3, 1, 1);
        assert!(conv2d_im2col(&input, &wrong_c, None, p).is_err());
        let w = Tensor::zeros(Shape4::new(2, 3, 3, 3));
        assert!(conv2d_im2col(&input, &w, Some(&[0.0]), p).is_err());
        assert!(conv2d_im2col(&input, &w, None, Conv2dParams::new(5, 1, 1)).is_err());
    }
}
