//! The golden executor is deterministic layer by layer, at any thread count.
//!
//! The value-preservation replay relies on this: once a layer's operands
//! are bit-identical to the golden inputs, it takes the layer's golden
//! output as what re-executing the layer would produce, without running it.
//! This test checks that assumption directly: evaluating any layer on the
//! golden inputs reproduces the golden output bit for bit. The golden run
//! splits its GEMMs over two workers and the re-evaluation runs them on
//! one, so the check also covers the thread count.

use sm_model::exec::GoldenExecutor;
use sm_model::zoo;
use sm_tensor::set_threads;

#[test]
fn eval_on_golden_inputs_reproduces_every_golden_output() {
    let nets = [
        zoo::toy_residual(1),
        zoo::resnet_tiny(2, 1),
        zoo::squeezenet_tiny(1),
        zoo::chain_tiny(4, 1),
        zoo::mobilenet_tiny(1),
        zoo::densenet_tiny(3, 1),
        zoo::try_by_name("squeezenet_v10_simple_bypass", 1).expect("zoo network builds"),
    ];
    for net in &nets {
        set_threads(Some(2));
        let exec = GoldenExecutor::new(net, 42);
        let golden = exec.run().expect("built network executes");
        set_threads(Some(1));
        for layer in &net.layers()[1..] {
            let inputs: Vec<_> = layer.inputs.iter().map(|p| &golden[p.index()]).collect();
            let out = exec.eval(layer.id, &inputs).expect("built layer evaluates");
            let (got, want) = (out.as_slice(), golden[layer.id.index()].as_slice());
            assert!(
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{} / {}",
                net.name(),
                layer.name
            );
        }
    }
    set_threads(None);
}
