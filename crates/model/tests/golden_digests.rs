//! Pins the exact outputs of the golden executor.
//!
//! The value-preservation replay compares reconstructed operands against
//! these golden tensors, so a change to any operator's arithmetic (the
//! lowered convolution, the microkernel, pooling, ReLU) must not move a
//! single bit of them. Each case hashes every layer output's `f32::to_bits`,
//! in layer order, with 64-bit FNV-1a and compares the result against a
//! digest recorded before the convolution gathered its patches during GEMM
//! packing. Each network runs at one and at two worker threads; both must
//! give the pinned digest.

use sm_model::exec::GoldenExecutor;
use sm_model::zoo;
use sm_model::Network;
use sm_tensor::{set_threads, Tensor};

fn fnv1a_outputs(outputs: &[Tensor]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in outputs.iter().flat_map(Tensor::as_slice) {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The six tiny zoo networks at batch 2 (so register blocks straddle
/// images) and SqueezeNet with simple bypass at batch 1.
fn networks() -> Vec<Network> {
    vec![
        zoo::toy_residual(2),
        zoo::resnet_tiny(2, 2),
        zoo::squeezenet_tiny(2),
        zoo::chain_tiny(4, 2),
        zoo::mobilenet_tiny(2),
        zoo::densenet_tiny(3, 2),
        zoo::squeezenet_v10_simple_bypass(1),
    ]
}

/// Weight seeds every network runs under.
const SEEDS: [u64; 2] = [42, 2019];

/// `(network, digest per seed)`, in [`networks`] order.
const DIGESTS: [(&str, [u64; 2]); 7] = [
    (
        "toy_residual",
        [0x741c_5b33_d820_5e5c, 0x523c_6f72_c4fd_c806],
    ),
    (
        "resnet_tiny14",
        [0x64a3_2ec7_2058_bd6f, 0xbc50_8f3c_9db8_a290],
    ),
    (
        "squeezenet_tiny",
        [0xe891_2d07_2d24_f9a2, 0x093f_57ef_a35b_a6c7],
    ),
    ("chain4", [0x976a_826c_c64f_1fbc, 0xff36_7f41_f7a2_adf4]),
    (
        "mobilenet_tiny",
        [0xbcc7_e7b6_7474_b48a, 0x0efa_2d51_cb30_57b9],
    ),
    (
        "densenet_tiny3",
        [0xc36b_c892_6459_db87, 0x0964_21c9_bb80_d822],
    ),
    (
        "squeezenet_v10_simple_bypass",
        [0xc9ef_a398_e8db_2629, 0x1dde_99cd_529b_65d6],
    ),
];

#[test]
fn golden_outputs_match_their_pinned_digests() {
    let nets = networks();
    assert_eq!(nets.len(), DIGESTS.len());
    for (net, (name, digests)) in nets.iter().zip(DIGESTS) {
        assert_eq!(net.name(), name);
        for (seed, digest) in SEEDS.into_iter().zip(digests) {
            for threads in [1usize, 2] {
                set_threads(Some(threads));
                let outputs = GoldenExecutor::new(net, seed)
                    .run()
                    .expect("built network executes");
                let got = fnv1a_outputs(&outputs);
                assert_eq!(
                    got, digest,
                    "{name} seed {seed} on {threads} threads drifted: digest {got:#018x}"
                );
            }
        }
    }
    set_threads(None);
}
