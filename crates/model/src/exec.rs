//! Golden-model execution of a [`Network`].
//!
//! [`GoldenExecutor`] runs a network with the reference operators from
//! `sm-tensor`, using deterministic synthetic weights derived from a seed.
//! The cycle simulators' functional modes use the *same* weight generator, so
//! their tiled outputs can be compared element-for-element against the golden
//! outputs produced here — proving that buffer swapping, shortcut pinning and
//! spilling are value-preserving.
//!
//! Convolutions run through the packed GEMM microkernel, which gathers
//! conv patches from the input while packing, split over the process-wide
//! thread count, so ImageNet-scale graphs execute at paper scale: a
//! ResNet-34 golden pass takes about 0.3 s on two AVX2 cores.
//! Every output is bit-identical at any thread count.

use std::error::Error;
use std::fmt;

use sm_tensor::ops::{
    avg_pool2d, concat_channels, conv2d_im2col, depthwise_conv2d, eltwise_add, fully_connected,
    global_avg_pool, max_pool2d, relu_in_place, Conv2dParams, Pool2dParams,
};
use sm_tensor::{Shape4, Tensor, TensorError};

use crate::{LayerId, LayerKind, Network, PoolKind};

/// Error produced by golden execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExecError {
    /// An underlying reference operator rejected its operands. Because the
    /// builder validates shapes, this indicates an internal inconsistency.
    Tensor(TensorError),
    /// A layer received the wrong number of operands for its kind.
    Arity {
        /// The offending layer.
        layer: LayerId,
        /// Operands received.
        got: usize,
    },
    /// A layer declares a tensor shape the executor cannot materialize:
    /// zero elements, or an element count that overflows `usize`. The
    /// builder accepts such degenerate specs (it only validates spatial
    /// consistency), so this is the executor's typed refusal instead of a
    /// panic deep inside tensor allocation.
    Shape {
        /// The offending layer.
        layer: LayerId,
        /// The rejected shape.
        shape: Shape4,
        /// The violated constraint.
        reason: &'static str,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Tensor(e) => write!(f, "reference operator failed: {e}"),
            ExecError::Arity { layer, got } => {
                write!(f, "layer {layer} received {got} operands")
            }
            ExecError::Shape {
                layer,
                shape,
                reason,
            } => {
                write!(f, "layer {layer} has unusable shape {shape}: {reason}")
            }
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Tensor(e) => Some(e),
            ExecError::Arity { .. } | ExecError::Shape { .. } => None,
        }
    }
}

impl From<TensorError> for ExecError {
    fn from(e: TensorError) -> Self {
        ExecError::Tensor(e)
    }
}

/// Deterministic golden-model executor for one network.
///
/// # Example
///
/// ```
/// use sm_model::exec::GoldenExecutor;
/// use sm_model::zoo;
///
/// let net = zoo::toy_residual(1);
/// let outs = GoldenExecutor::new(&net, 7).run().expect("built network executes");
/// assert_eq!(outs.len(), net.len());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GoldenExecutor<'a> {
    net: &'a Network,
    seed: u64,
}

impl<'a> GoldenExecutor<'a> {
    /// Creates an executor whose synthetic input and weights derive from
    /// `seed`.
    pub fn new(net: &'a Network, seed: u64) -> Self {
        GoldenExecutor { net, seed }
    }

    /// The network being executed.
    pub fn network(&self) -> &'a Network {
        self.net
    }

    /// Deterministic synthetic network input.
    ///
    /// # Panics
    ///
    /// Panics when the declared input shape is degenerate (zero elements
    /// or overflowing element count); [`GoldenExecutor::try_input`] is the
    /// non-panicking form.
    pub fn input(&self) -> Tensor {
        self.try_input().expect("input shape is materializable")
    }

    /// Deterministic synthetic network input, rejecting degenerate input
    /// shapes with [`ExecError::Shape`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] for zero-element or overflowing input
    /// shapes.
    pub fn try_input(&self) -> Result<Tensor, ExecError> {
        let input = self.net.input();
        self.check_shape(input.id, input.out_shape)?;
        Ok(Tensor::random(input.out_shape, self.seed))
    }

    /// Deterministic synthetic weights for a parametric layer, `None` for
    /// non-parametric layers. Scaled by the fan-in so activations stay
    /// O(1) through deep networks.
    ///
    /// # Panics
    ///
    /// Panics when the derived weight shape is degenerate;
    /// [`GoldenExecutor::try_weights`] is the non-panicking form.
    pub fn weights(&self, id: LayerId) -> Option<Tensor> {
        self.try_weights(id)
            .expect("weight shape is materializable")
    }

    /// Like [`GoldenExecutor::weights`], but a degenerate weight shape
    /// (zero elements or overflowing element count) becomes a typed
    /// [`ExecError::Shape`] instead of a panic deep inside allocation.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] when the derived weight shape cannot
    /// be materialized.
    pub fn try_weights(&self, id: LayerId) -> Result<Option<Tensor>, ExecError> {
        let Some(shape) = self.weight_shape(id) else {
            return Ok(None);
        };
        self.check_shape(id, shape)?;
        let fan_in = (shape.c * shape.h * shape.w).max(1) as f32;
        let scale = (2.0 / fan_in).sqrt();
        let mut w = Tensor::random(
            shape,
            self.seed ^ (id.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        for x in w.as_mut_slice() {
            *x *= scale;
        }
        Ok(Some(w))
    }

    /// Derived weight shape for a parametric layer, `None` otherwise.
    fn weight_shape(&self, id: LayerId) -> Option<Shape4> {
        let layer = self.net.layer(id);
        let in_shapes = self.net.in_shapes(id);
        match layer.kind {
            LayerKind::Conv(spec) => {
                let c_in: usize = in_shapes.iter().map(|s| s.c).sum();
                Some(Shape4::new(
                    spec.out_channels,
                    c_in,
                    spec.kernel,
                    spec.kernel,
                ))
            }
            LayerKind::DepthwiseConv(spec) => {
                let c: usize = in_shapes.iter().map(|s| s.c).sum();
                Some(Shape4::new(c, 1, spec.kernel, spec.kernel))
            }
            LayerKind::Fc { out_features } => {
                let in_features: usize = in_shapes.iter().map(Shape4::per_image).sum();
                Some(Shape4::new(out_features, in_features, 1, 1))
            }
            _ => None,
        }
    }

    /// Weight tensor for a layer whose kind requires one.
    fn required_weights(&self, id: LayerId) -> Result<Tensor, ExecError> {
        match self.try_weights(id)? {
            Some(w) => Ok(w),
            None => Err(ExecError::Shape {
                layer: id,
                shape: self.net.layer(id).out_shape,
                reason: "layer kind has no weights",
            }),
        }
    }

    /// Rejects shapes the executor cannot materialize as a tensor.
    fn check_shape(&self, layer: LayerId, shape: Shape4) -> Result<(), ExecError> {
        match shape.checked_len() {
            None => Err(ExecError::Shape {
                layer,
                shape,
                reason: "element count overflows usize",
            }),
            Some(0) => Err(ExecError::Shape {
                layer,
                shape,
                reason: "zero-element shape",
            }),
            Some(_) => Ok(()),
        }
    }

    /// Runs the whole network on the deterministic input, returning every
    /// layer's output indexed by layer id (index 0 is the input itself).
    ///
    /// # Errors
    ///
    /// See [`ExecError`]; cannot occur for networks produced by
    /// [`crate::NetworkBuilder`] unless the builder and executor disagree.
    pub fn run(&self) -> Result<Vec<Tensor>, ExecError> {
        self.run_from(self.try_input()?)
    }

    /// Runs the whole network on a caller-provided input.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run_from(&self, input: Tensor) -> Result<Vec<Tensor>, ExecError> {
        let mut outputs: Vec<Tensor> = Vec::with_capacity(self.net.len());
        outputs.push(input);
        for layer in &self.net.layers()[1..] {
            let operands: Vec<&Tensor> = layer.inputs.iter().map(|p| &outputs[p.index()]).collect();
            let out = self.eval(layer.id, &operands)?;
            outputs.push(out);
        }
        Ok(outputs)
    }

    /// Evaluates a single layer on explicit operands.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Arity`] when the operand count is wrong for the
    /// layer kind, or [`ExecError::Tensor`] from the reference operators.
    pub fn eval(&self, id: LayerId, operands: &[&Tensor]) -> Result<Tensor, ExecError> {
        let layer = self.net.layer(id);
        self.check_shape(id, layer.out_shape)?;
        let arity = |want: usize| -> Result<(), ExecError> {
            if operands.len() != want {
                Err(ExecError::Arity {
                    layer: id,
                    got: operands.len(),
                })
            } else {
                Ok(())
            }
        };
        let out = match layer.kind {
            LayerKind::Input => {
                arity(0)?;
                self.try_input()?
            }
            LayerKind::Conv(spec) => {
                arity(1)?;
                let w = self.required_weights(id)?;
                // Lowered (implicit im2col) GEMM: same semantics as the
                // direct conv2d loop (the reference oracle), much faster
                // on the mid-size zoo networks.
                let mut out = conv2d_im2col(
                    operands[0],
                    &w,
                    None,
                    Conv2dParams::new(spec.kernel, spec.stride, spec.pad),
                )?;
                if spec.relu {
                    relu_in_place(&mut out);
                }
                out
            }
            LayerKind::DepthwiseConv(spec) => {
                arity(1)?;
                let w = self.required_weights(id)?;
                let mut out = depthwise_conv2d(
                    operands[0],
                    &w,
                    Conv2dParams::new(spec.kernel, spec.stride, spec.pad),
                )?;
                if spec.relu {
                    relu_in_place(&mut out);
                }
                out
            }
            LayerKind::Pool(spec) => {
                arity(1)?;
                let p = Pool2dParams::new(spec.kernel, spec.stride, spec.pad);
                match spec.kind {
                    PoolKind::Max => max_pool2d(operands[0], p)?,
                    PoolKind::Avg => avg_pool2d(operands[0], p)?,
                }
            }
            LayerKind::GlobalAvgPool => {
                arity(1)?;
                global_avg_pool(operands[0])
            }
            LayerKind::Fc { .. } => {
                arity(1)?;
                let w = self.required_weights(id)?;
                fully_connected(operands[0], &w, None)?
            }
            LayerKind::EltwiseAdd { relu } => {
                arity(2)?;
                let mut out = eltwise_add(operands[0], operands[1])?;
                if relu {
                    relu_in_place(&mut out);
                }
                out
            }
            LayerKind::ConcatChannels => {
                if operands.len() < 2 {
                    return Err(ExecError::Arity {
                        layer: id,
                        got: operands.len(),
                    });
                }
                let mut acc = concat_channels(operands[0], operands[1])?;
                for op in &operands[2..] {
                    acc = concat_channels(&acc, op)?;
                }
                acc
            }
        };
        debug_assert_eq!(out.shape(), layer.out_shape, "executor/builder shape drift");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConvSpec, NetworkBuilder, PoolSpec};

    fn toy() -> Network {
        let mut b = NetworkBuilder::new("toy", Shape4::new(1, 3, 8, 8));
        let x = b.input_id();
        let c1 = b.conv("c1", x, ConvSpec::relu(4, 3, 1, 1)).unwrap();
        let c2 = b.conv("c2", c1, ConvSpec::linear(4, 3, 1, 1)).unwrap();
        let add = b.eltwise_add("add", c1, c2, true).unwrap();
        let p = b.pool("pool", add, PoolSpec::max(2, 2, 0)).unwrap();
        let g = b.global_avg_pool("gap", p).unwrap();
        let _fc = b.fc("fc", g, 10).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn runs_and_matches_declared_shapes() {
        let net = toy();
        let exec = GoldenExecutor::new(&net, 42);
        let outs = exec.run().unwrap();
        assert_eq!(outs.len(), net.len());
        for (t, l) in outs.iter().zip(net.layers()) {
            assert_eq!(t.shape(), l.out_shape, "{}", l.name);
        }
    }

    #[test]
    fn execution_is_deterministic_in_seed() {
        let net = toy();
        let a = GoldenExecutor::new(&net, 7).run().unwrap();
        let b = GoldenExecutor::new(&net, 7).run().unwrap();
        let c = GoldenExecutor::new(&net, 8).run().unwrap();
        assert_eq!(a.last(), b.last());
        assert_ne!(a.last(), c.last());
    }

    #[test]
    fn residual_add_really_adds() {
        let net = toy();
        let exec = GoldenExecutor::new(&net, 3);
        let outs = exec.run().unwrap();
        let c1 = net.layer_by_name("c1").unwrap().id.index();
        let c2 = net.layer_by_name("c2").unwrap().id.index();
        let add = net.layer_by_name("add").unwrap().id.index();
        let mut expect = eltwise_add(&outs[c1], &outs[c2]).unwrap();
        relu_in_place(&mut expect);
        assert_eq!(outs[add], expect);
    }

    #[test]
    fn weights_exist_only_for_parametric_layers() {
        let net = toy();
        let exec = GoldenExecutor::new(&net, 1);
        for l in net.layers() {
            let has = exec.weights(l.id).is_some();
            let parametric = matches!(l.kind, LayerKind::Conv(_) | LayerKind::Fc { .. });
            assert_eq!(has, parametric, "{}", l.name);
        }
    }

    #[test]
    fn zero_channel_conv_is_a_typed_error_not_a_panic() {
        // The builder only validates spatial consistency, so a zero-output-
        // channel conv is accepted; the executor must refuse it cleanly.
        let mut b = NetworkBuilder::new("degenerate", Shape4::new(1, 3, 8, 8));
        let x = b.input_id();
        let _c = b.conv("c0", x, ConvSpec::relu(0, 3, 1, 1)).unwrap();
        let net = b.finish().unwrap();
        let err = GoldenExecutor::new(&net, 1).run().unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::Shape {
                    reason: "zero-element shape",
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("zero-element"));
    }

    #[test]
    fn overflowing_fc_is_a_typed_error_not_a_panic() {
        // usize::MAX/2 output features: the weight tensor's element count
        // (out_features * in_features) overflows usize.
        let mut b = NetworkBuilder::new("huge", Shape4::new(1, 3, 8, 8));
        let x = b.input_id();
        let _fc = b.fc("fc", x, usize::MAX / 2).unwrap();
        let net = b.finish().unwrap();
        let err = GoldenExecutor::new(&net, 1).run().unwrap_err();
        assert!(matches!(err, ExecError::Shape { .. }), "{err}");
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn try_input_rejects_zero_element_input() {
        let mut b = NetworkBuilder::new("noin", Shape4::new(0, 3, 8, 8));
        let x = b.input_id();
        let _c = b.conv("c0", x, ConvSpec::relu(4, 3, 1, 1)).unwrap();
        let net = b.finish().unwrap();
        let exec = GoldenExecutor::new(&net, 1);
        assert!(matches!(exec.try_input(), Err(ExecError::Shape { .. })));
        assert!(matches!(exec.run(), Err(ExecError::Shape { .. })));
    }

    #[test]
    fn eval_rejects_wrong_arity() {
        let net = toy();
        let exec = GoldenExecutor::new(&net, 1);
        let input = exec.input();
        let c1 = net.layer_by_name("c1").unwrap().id;
        assert!(matches!(
            exec.eval(c1, &[&input, &input]),
            Err(ExecError::Arity { .. })
        ));
    }
}
