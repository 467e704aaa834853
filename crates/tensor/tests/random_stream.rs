//! Pins the exact value stream of `Tensor::random`.
//!
//! Every golden replay, pinned verdict and committed digest in the workspace
//! starts from these synthetic tensors, so a change to the vendored sampler
//! or to the float mapping must not move a single bit. Each case hashes the
//! tensor's `f32::to_bits` with 64-bit FNV-1a and compares against a digest
//! recorded before the sampler was made statically dispatched.

use sm_tensor::{Shape4, Tensor};

fn fnv1a_bits(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(shape, seed, digest)`: a single element, small odd shapes, a weight
/// tensor, and one map of more than a million elements; seeds at both ends
/// of the `u64` range and the one that zeroes SplitMix64's first state.
const CASES: [([usize; 4], u64, u64); 9] = [
    ([1, 1, 1, 1], 0, 0x17a7_4119_4f04_634f),
    ([1, 1, 1, 1], u64::MAX, 0x6630_7ac8_5beb_f751),
    ([2, 3, 5, 7], 1, 0xce6b_1c8c_7fd1_3ffe),
    ([2, 3, 5, 7], u64::MAX, 0x3113_cd6c_efae_3633),
    ([64, 64, 3, 3], 42, 0x854a_88bd_6162_c131),
    ([1, 3, 224, 224], 7, 0xa9e1_0c48_aced_a3e6),
    ([1, 1, 1, 17], 0x61C8_8646_80B5_83EB, 0x959f_72ea_9ec5_919a),
    ([1, 64, 128, 129], 2019, 0xd7cf_4d04_25d2_fa15),
    ([1, 64, 128, 129], u64::MAX, 0x9cd5_1b94_5e0c_cfa1),
];

#[test]
fn random_tensors_match_their_pinned_digests() {
    for ([n, c, h, w], seed, digest) in CASES {
        let t = Tensor::random(Shape4::new(n, c, h, w), seed);
        assert_eq!(t.as_slice().len(), n * c * h * w);
        let got = fnv1a_bits(t.as_slice());
        assert_eq!(
            got, digest,
            "Tensor::random({n}x{c}x{h}x{w}, seed {seed:#x}) drifted: digest {got:#018x}"
        );
    }
}
