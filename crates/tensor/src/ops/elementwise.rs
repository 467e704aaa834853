use crate::{Shape4, Tensor, TensorError};

/// Element-wise addition of two same-shaped tensors.
///
/// This is the junction operator of residual networks: the shortcut source
/// feature map is added to the output of the residual branch.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
pub fn eltwise_add(lhs: &Tensor, rhs: &Tensor) -> Result<Tensor, TensorError> {
    if lhs.shape() != rhs.shape() {
        return Err(TensorError::ShapeMismatch {
            op: "eltwise_add",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    let mut out = lhs.clone();
    for (o, r) in out.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
        *o += r;
    }
    Ok(out)
}

/// Channel concatenation of two tensors with identical batch and spatial
/// dimensions.
///
/// This is the junction operator of SqueezeNet: expand-1x1 and expand-3x3
/// outputs are concatenated, and bypass variants concatenate or add the fire
/// module input.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when batch or spatial dims differ.
pub fn concat_channels(lhs: &Tensor, rhs: &Tensor) -> Result<Tensor, TensorError> {
    let (ls, rs) = (lhs.shape(), rhs.shape());
    if ls.n != rs.n || ls.h != rs.h || ls.w != rs.w {
        return Err(TensorError::ShapeMismatch {
            op: "concat_channels",
            lhs: ls,
            rhs: rs,
        });
    }
    let out_shape = Shape4::new(ls.n, ls.c + rs.c, ls.h, ls.w);
    let mut out = Tensor::zeros(out_shape);
    let plane = ls.h * ls.w;
    let (l, r, o) = (lhs.as_slice(), rhs.as_slice(), out.as_mut_slice());
    for n in 0..ls.n {
        let dst = n * out_shape.per_image();
        let lsrc = n * ls.per_image();
        let rsrc = n * rs.per_image();
        o[dst..dst + ls.c * plane].copy_from_slice(&l[lsrc..lsrc + ls.c * plane]);
        o[dst + ls.c * plane..dst + out_shape.per_image()]
            .copy_from_slice(&r[rsrc..rsrc + rs.c * plane]);
    }
    Ok(out)
}

/// Rectified linear unit, returning a new tensor.
pub fn relu(input: &Tensor) -> Tensor {
    let mut out = input.clone();
    relu_in_place(&mut out);
    out
}

/// Rectified linear unit applied in place.
///
/// Negative values become `+0.0`; `-0.0` and NaN are kept as they are
/// (neither compares below zero). Every element is stored unconditionally,
/// so the loop compiles to a branch-free select.
pub fn relu_in_place(t: &mut Tensor) {
    for x in t.as_mut_slice() {
        *x = if *x < 0.0 { 0.0 } else { *x };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_elementwise_and_checked() {
        let a = Tensor::from_fn(Shape4::new(1, 1, 2, 2), |i| i as f32);
        let b = Tensor::full(Shape4::new(1, 1, 2, 2), 10.0);
        let out = eltwise_add(&a, &b).unwrap();
        assert_eq!(out.as_slice(), &[10.0, 11.0, 12.0, 13.0]);
        let c = Tensor::zeros(Shape4::new(1, 1, 1, 4));
        assert!(eltwise_add(&a, &c).is_err());
    }

    #[test]
    fn concat_stacks_channels_per_batch_element() {
        let a = Tensor::full(Shape4::new(2, 1, 2, 2), 1.0);
        let b = Tensor::full(Shape4::new(2, 2, 2, 2), 2.0);
        let out = concat_channels(&a, &b).unwrap();
        assert_eq!(out.shape(), Shape4::new(2, 3, 2, 2));
        for n in 0..2 {
            for h in 0..2 {
                for w in 0..2 {
                    assert_eq!(out.at(n, 0, h, w), 1.0);
                    assert_eq!(out.at(n, 1, h, w), 2.0);
                    assert_eq!(out.at(n, 2, h, w), 2.0);
                }
            }
        }
    }

    #[test]
    fn concat_rejects_mismatched_spatial_dims() {
        let a = Tensor::zeros(Shape4::new(1, 1, 2, 2));
        let b = Tensor::zeros(Shape4::new(1, 1, 3, 2));
        assert!(concat_channels(&a, &b).is_err());
        let c = Tensor::zeros(Shape4::new(2, 1, 2, 2));
        assert!(concat_channels(&a, &c).is_err());
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        assert_eq!(relu(&t).as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let mut m = t.clone();
        relu_in_place(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_keeps_signed_zero_nan_and_infinities_bit_for_bit() {
        let specials = [
            -0.0,
            0.0,
            -1.0,
            1.0,
            f32::NAN,
            f32::NEG_INFINITY,
            f32::INFINITY,
        ];
        let mut t = Tensor::from_vec(Shape4::new(1, 1, 1, 7), specials.to_vec()).unwrap();
        relu_in_place(&mut t);
        let bits: Vec<u32> = t.as_slice().iter().map(|x| x.to_bits()).collect();
        let want = [-0.0, 0.0, 0.0, 1.0, f32::NAN, 0.0, f32::INFINITY].map(f32::to_bits);
        assert_eq!(bits, want);
    }
}
