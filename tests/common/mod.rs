//! Fixtures shared by the engine suites: one-layer pipeline models, so
//! every engine case runs through `BatchEngine::run_plan*`, the engine's
//! only execution path.

use mixmatch::nn::module::Sequential;
use mixmatch::prelude::*;
use mixmatch::quant::deploy::QuantizedConv;
use mixmatch::quant::integer::ActQuantizer;
use mixmatch::quant::pipeline::DeployForm;

/// A `Sequential` holding only `layer`, quantized under `policy` with the
/// activation quantizer `act`, and its plan compiled at `input`.
pub fn single_layer(
    layer: impl Layer + 'static,
    policy: MsqPolicy,
    act: ActQuantizer,
    input: &[usize],
) -> CompiledModel {
    let mut net = Sequential::new();
    net.push(layer);
    QuantPipeline::from_policy(policy)
        .with_act_quantizer(act)
        .with_input_shape(input)
        .quantize(&mut net)
        .expect("quantize single-layer model")
}

/// The deployed convolution of a single-conv model.
pub fn conv_of(model: &QuantizedModel) -> &QuantizedConv {
    match &model.layers()[0].form {
        DeployForm::Conv(conv) => conv,
        DeployForm::Matrix(_) => panic!("a Conv2d deploys as a conv"),
    }
}
