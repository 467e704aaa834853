//! Property tests cross-validating the golden operators: the direct
//! convolution and its im2col/GEMM lowering are independent implementations
//! that must agree on arbitrary geometries, and algebraic identities
//! (linearity, ReLU idempotence, pooling bounds) must hold.

use proptest::prelude::*;

use sm_tensor::ops::{
    avg_pool2d, conv2d, conv2d_im2col, conv_out_dim, eltwise_add, gemm_nt, gemm_nt_micro, im2col,
    max_pool2d, relu, Conv2dParams, Pool2dParams, KC, MR, NR,
};
use sm_tensor::{Shape4, Tensor};

#[derive(Debug, Clone, Copy)]
struct Geometry {
    batch: usize,
    in_c: usize,
    hw: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

fn geometry() -> impl Strategy<Value = Geometry> {
    (
        1usize..3,
        1usize..6,
        3usize..12,
        1usize..6,
        prop_oneof![Just(1usize), Just(3), Just(5)],
        1usize..3,
    )
        .prop_filter_map("valid", |(batch, in_c, hw, out_c, kernel, stride)| {
            let pad = kernel / 2;
            conv_out_dim(hw, kernel, stride, pad)?;
            Some(Geometry {
                batch,
                in_c,
                hw,
                out_c,
                kernel,
                stride,
                pad,
            })
        })
}

/// A dimension strategy biased toward the microkernel's fracture points:
/// below, at, and one past each multiple of the given block size, plus a
/// small uniform range so interior sizes stay covered.
fn around_blocks(block: usize, max_mult: usize) -> impl Strategy<Value = usize> {
    prop_oneof![
        (1usize..max_mult + 1, 0usize..3).prop_map(move |(mult, off)| block * mult - 1 + off),
        1usize..2 * block,
    ]
}

/// Reference single-pass dot-product GEMM: no strip blocking, so it is the
/// independent oracle the blocked kernels are tolerance-checked against.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The packed microkernel is bit-identical to the scalar blocked oracle
    /// on shapes straddling the MR/NR register-block tails, and both agree
    /// with a naive dot product up to reassociation error.
    #[test]
    fn microkernel_matches_scalar_bitwise(
        rows in around_blocks(MR, 3),
        cols in 1usize..64,
        m in around_blocks(NR, 3),
        seed in 0u64..500,
    ) {
        let a = Tensor::random(Shape4::new(1, 1, rows, cols), seed).into_vec();
        let b = Tensor::random(Shape4::new(1, 1, m, cols), seed + 1).into_vec();
        let scalar = gemm_nt(&a, &b, rows, cols, m);
        let micro = gemm_nt_micro(&a, &b, rows, cols, m);
        prop_assert_eq!(&scalar, &micro);
        let naive = gemm_naive(&a, &b, rows, cols, m);
        for (x, y) in micro.iter().zip(&naive) {
            prop_assert!((x - y).abs() <= 1e-3, "micro {} vs naive {}", x, y);
        }
    }

    /// Same identity across the shared KC-strip boundary: the fold points
    /// into `C` must line up exactly for the kernels to stay bit-identical.
    #[test]
    fn microkernel_matches_scalar_across_kc_strips(
        rows in 1usize..20,
        cols in prop_oneof![Just(KC - 1), Just(KC), Just(KC + 1), Just(2 * KC), Just(2 * KC + 5)],
        m in 1usize..20,
        seed in 0u64..500,
    ) {
        let a = Tensor::random(Shape4::new(1, 1, rows, cols), seed).into_vec();
        let b = Tensor::random(Shape4::new(1, 1, m, cols), seed + 1).into_vec();
        prop_assert_eq!(
            gemm_nt(&a, &b, rows, cols, m),
            gemm_nt_micro(&a, &b, rows, cols, m)
        );
    }

    /// Two independent convolution implementations agree everywhere, and
    /// the lowered one is bit-identical to multiplying the explicit im2col
    /// matrix with the scalar GEMM.
    #[test]
    fn direct_and_lowered_convolutions_agree(g in geometry(), seed in 0u64..500) {
        let input = Tensor::random(Shape4::new(g.batch, g.in_c, g.hw, g.hw), seed);
        let weights = Tensor::random(Shape4::new(g.out_c, g.in_c, g.kernel, g.kernel), seed + 1);
        let params = Conv2dParams::new(g.kernel, g.stride, g.pad);
        let a = conv2d(&input, &weights, None, params).unwrap();
        let b = conv2d_im2col(&input, &weights, None, params).unwrap();
        prop_assert!(a.all_close(&b, 1e-4), "diff {}", a.max_abs_diff(&b).unwrap());

        let (patches, rows, cols) = im2col(&input, params).unwrap();
        let prod = gemm_nt(&patches, weights.as_slice(), rows, cols, g.out_c);
        let plane = rows / g.batch;
        for (i, v) in b.as_slice().iter().enumerate() {
            let (n, ch, pos) = (i / (g.out_c * plane), i / plane % g.out_c, i % plane);
            // With no bias the lowered conv still adds 0.0, which turns
            // a -0.0 sum into +0.0.
            let want = prod[(n * plane + pos) * g.out_c + ch] + 0.0;
            prop_assert_eq!(v.to_bits(), want.to_bits(), "element {}", i);
        }
    }

    /// Convolution is linear: conv(x + y) == conv(x) + conv(y).
    #[test]
    fn convolution_is_linear(g in geometry(), seed in 0u64..500) {
        let x = Tensor::random(Shape4::new(g.batch, g.in_c, g.hw, g.hw), seed);
        let y = Tensor::random(Shape4::new(g.batch, g.in_c, g.hw, g.hw), seed + 7);
        let w = Tensor::random(Shape4::new(g.out_c, g.in_c, g.kernel, g.kernel), seed + 13);
        let params = Conv2dParams::new(g.kernel, g.stride, g.pad);
        let sum_then_conv = conv2d(&eltwise_add(&x, &y).unwrap(), &w, None, params).unwrap();
        let conv_then_sum = eltwise_add(
            &conv2d(&x, &w, None, params).unwrap(),
            &conv2d(&y, &w, None, params).unwrap(),
        )
        .unwrap();
        prop_assert!(sum_then_conv.all_close(&conv_then_sum, 1e-3));
    }

    /// Max pooling dominates average pooling on the same window, and both
    /// are bounded by the input range.
    #[test]
    fn pooling_bounds(c in 1usize..4, hw in 4usize..12, seed in 0u64..500) {
        let input = Tensor::random(Shape4::new(1, c, hw, hw), seed);
        let p = Pool2dParams::new(2, 2, 0);
        let mx = max_pool2d(&input, p).unwrap();
        let av = avg_pool2d(&input, p).unwrap();
        for (m, a) in mx.as_slice().iter().zip(av.as_slice()) {
            prop_assert!(m >= a);
            prop_assert!(*m <= 1.0 && *a >= -1.0);
        }
    }

    /// ReLU is idempotent and non-negative.
    #[test]
    fn relu_properties(c in 1usize..4, hw in 1usize..8, seed in 0u64..500) {
        let input = Tensor::random(Shape4::new(1, c, hw, hw), seed);
        let once = relu(&input);
        let twice = relu(&once);
        prop_assert_eq!(&once, &twice);
        prop_assert!(once.as_slice().iter().all(|&x| x >= 0.0));
    }
}
