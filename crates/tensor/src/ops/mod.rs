//! Reference (golden-model) implementations of the CNN operators.
//!
//! Every operator here is the semantic ground truth the cycle simulators are
//! verified against. They are direct, loop-based implementations with no
//! tiling, so the association between code and mathematical definition is
//! immediate.

mod batchnorm;
mod conv;
mod depthwise;
mod elementwise;
mod gemm;
mod im2col;
mod linear;
mod pool;

pub use batchnorm::{batch_norm, fold_batch_norm, BatchNormParams};
pub use conv::{conv2d, Conv2dParams};
pub use depthwise::depthwise_conv2d;
pub use elementwise::{concat_channels, eltwise_add, relu, relu_in_place};
pub use gemm::{gemm_kernel, gemm_nt, gemm_nt_micro, KC, MR, NR};
pub use im2col::{conv2d_im2col, im2col};
pub use linear::fully_connected;
pub use pool::{avg_pool2d, global_avg_pool, max_pool2d, Pool2dParams};

/// Spatial output size of a strided, padded sliding window.
///
/// Shared by convolution and pooling: for an input extent `input`, window
/// extent `kernel`, symmetric padding `pad` and stride `stride`, the output
/// extent is `(input + 2*pad - kernel) / stride + 1`.
///
/// Returns `None` when the (padded) input is smaller than the window or the
/// stride is zero.
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> Option<usize> {
    if stride == 0 || input + 2 * pad < kernel {
        return None;
    }
    Some((input + 2 * pad - kernel) / stride + 1)
}

#[cfg(test)]
mod tests {
    use super::conv_out_dim;

    #[test]
    fn out_dim_matches_common_cases() {
        // Same-padding 3x3 stride 1.
        assert_eq!(conv_out_dim(56, 3, 1, 1), Some(56));
        // Downsampling 3x3 stride 2.
        assert_eq!(conv_out_dim(56, 3, 2, 1), Some(28));
        // 7x7 stride 2 pad 3 stem (ResNet).
        assert_eq!(conv_out_dim(224, 7, 2, 3), Some(112));
        // 1x1 projection.
        assert_eq!(conv_out_dim(28, 1, 1, 0), Some(28));
    }

    #[test]
    fn out_dim_rejects_degenerate_windows() {
        assert_eq!(conv_out_dim(2, 3, 1, 0), None);
        assert_eq!(conv_out_dim(8, 3, 0, 1), None);
        assert_eq!(conv_out_dim(3, 3, 1, 0), Some(1));
    }
}
