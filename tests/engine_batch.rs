//! Integration tests for the batched integer inference engine: the pooled
//! `BatchEngine::run_plan*` path must be **bit-identical** to the
//! single-image deployment kernels (`QuantizedConv::forward_image` /
//! `QuantizedMatrix::matvec`) on single-layer pipeline models of every
//! deployment form, and the batched hardware summary must sit next to the
//! measured path coherently.

mod common;

use common::{conv_of, single_layer};
use mixmatch::nn::layers::{Conv2d, Linear};
use mixmatch::nn::models::{ResNet, ResNetConfig};
use mixmatch::prelude::*;
use mixmatch::quant::codes::OpCounts;
use mixmatch::quant::engine::BatchEngine;
use mixmatch::quant::integer::ActQuantizer;
use mixmatch::tensor::im2col::ConvGeometry;
use proptest::prelude::*;

fn quantized_resnet(input_hw: usize) -> CompiledModel {
    let mut rng = TensorRng::seed_from(5);
    let mut model = ResNet::new(ResNetConfig::mini(10).with_act_bits(4), &mut rng);
    QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z045).with_input_size(input_hw))
        .quantize(&mut model)
        .expect("quantize resnet-mini")
}

/// A one-conv pipeline model with a 4-bit activation quantizer clipped at
/// `clip`, compiled for `hw`×`hw` inputs.
fn conv_model(
    rng: &mut TensorRng,
    geom: ConvGeometry,
    policy: MsqPolicy,
    clip: f32,
    hw: usize,
) -> CompiledModel {
    single_layer(
        Conv2d::with_geometry("conv", geom, false, rng),
        policy,
        ActQuantizer::new(4, clip),
        &[geom.in_channels, hw, hw],
    )
}

/// The acceptance property: for dense-conv, depthwise-conv and dense
/// pipeline models, `run_plan_batch` output equals the single-image path
/// bit for bit, at several thread counts.
#[test]
fn engine_batch_is_bit_identical_to_single_image_path_on_pipeline_model() {
    let mut rng = TensorRng::seed_from(6);
    let convs = [
        conv_model(
            &mut rng,
            ConvGeometry::new(4, 8, 3, 1, 1),
            MsqPolicy::msq_optimal(),
            1.0,
            8,
        ),
        conv_model(
            &mut rng,
            ConvGeometry::depthwise(6, 3, 2, 1),
            MsqPolicy::msq_half(),
            1.0,
            8,
        ),
    ];
    let act = ActQuantizer::new(4, 1.0);
    let dense = single_layer(
        Linear::with_name("fc", 24, 10, false, &mut rng),
        MsqPolicy::msq_optimal(),
        act,
        &[24],
    );
    let host = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let mut conv_checks = 0usize;
    let mut dense_checks = 0usize;
    for threads in [1, 2, host] {
        let engine = BatchEngine::with_threads(threads);
        for compiled in &convs {
            let conv = conv_of(compiled);
            let images: Vec<Tensor> = (0..4)
                .map(|_| {
                    Tensor::rand_uniform(compiled.plan().unwrap().input_dims(), 0.0, 1.0, &mut rng)
                })
                .collect();
            let run = engine
                .run_plan_batch(compiled, &images)
                .expect("conv batch");
            for (image, output) in images.iter().zip(&run.outputs) {
                conv_checks += 1;
                assert_eq!(
                    output.as_slice(),
                    conv.forward_image(image).as_slice(),
                    "groups {} (threads {threads})",
                    conv.geometry().groups
                );
            }
        }
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::rand_uniform(&[24], 0.0, 1.0, &mut rng))
            .collect();
        let run = engine.run_plan_batch(&dense, &inputs).expect("dense batch");
        let matrix = dense.layers()[0].matrix();
        for (input, output) in inputs.iter().zip(&run.outputs) {
            dense_checks += 1;
            let (single, _) = matrix.matvec(&act.quantize(input.as_slice()), &act);
            assert_eq!(output.as_slice(), &single[..], "threads {threads}");
        }
    }
    assert!(conv_checks > 0, "the conv path must be exercised");
    assert!(dense_checks > 0, "the dense path must be exercised");
}

/// The batched cycle-simulator prediction rides along with the engine:
/// larger batches amortise weight traffic, so simulated images/sec must
/// grow with the batch while batch 1 matches the unbatched report.
#[test]
fn batched_hardware_summary_accompanies_the_engine() {
    let quantized = quantized_resnet(8);
    let one = quantized.summarize_batched(1).expect("batch 1 summary");
    let report = quantized.report();
    assert_eq!(Some(one.clone()), report.hardware);
    let thirty_two = quantized.summarize_batched(32).expect("batch 32 summary");
    let ips_1 = 1_000.0 / one.latency_ms;
    let ips_32 = 32.0 * 1_000.0 / thirty_two.latency_ms;
    assert!(
        ips_32 > ips_1,
        "batched sim throughput {ips_32} !> single {ips_1}"
    );
    assert!(thirty_two.gops >= one.gops);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite property: batched output `i` is bit-identical to
    /// `forward_image` on input `i` for random **dense** convolutions.
    #[test]
    fn dense_conv_forward_batch_bit_identical(
        seed in 0u64..200,
        cin in 1usize..4,
        cout in 1usize..5,
        stride in 1usize..3,
        pad in 0usize..2,
        hw in 5usize..8,
        threads in 1usize..4,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let geom = ConvGeometry::new(cin, cout, 3, stride, pad);
        let compiled = conv_model(&mut rng, geom, MsqPolicy::msq_optimal(), 1.1, hw);
        let conv = conv_of(&compiled);
        let images: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[cin, hw, hw], -0.2, 1.3, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(threads);
        let run = engine.run_plan_batch(&compiled, &images).expect("batch");
        for (img, out) in images.iter().zip(&run.outputs) {
            let single = conv.forward_image(img);
            prop_assert_eq!(out.as_slice(), single.as_slice());
        }
    }

    /// Same property for random **depthwise** convolutions.
    #[test]
    fn depthwise_conv_forward_batch_bit_identical(
        seed in 0u64..200,
        channels in 1usize..6,
        stride in 1usize..3,
        hw in 5usize..8,
        threads in 1usize..4,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let geom = ConvGeometry::depthwise(channels, 3, stride, 1);
        let compiled = conv_model(&mut rng, geom, MsqPolicy::msq_half(), 1.0, hw);
        let conv = conv_of(&compiled);
        let images: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[channels, hw, hw], 0.0, 1.0, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(threads);
        let run = engine.run_plan_batch(&compiled, &images).expect("batch");
        for (img, out) in images.iter().zip(&run.outputs) {
            let single = conv.forward_image(img);
            prop_assert_eq!(out.as_slice(), single.as_slice());
        }
    }

    /// Dense layers: batched engine vs `matvec`, including the op census.
    #[test]
    fn matrix_forward_batch_bit_identical(
        seed in 0u64..200,
        rows in 1usize..8,
        cols in 1usize..16,
        batch in 1usize..6,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let act = ActQuantizer::new(4, 1.0);
        let compiled = single_layer(
            Linear::with_name("fc", cols, rows, false, &mut rng),
            MsqPolicy::msq_optimal(),
            act,
            &[cols],
        );
        let qm = compiled.layers()[0].matrix();
        let inputs: Vec<Tensor> = (0..batch)
            .map(|_| Tensor::rand_uniform(&[cols], 0.0, 1.0, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(2);
        let run = engine.run_plan_batch(&compiled, &inputs).expect("batch");
        let mut ops = OpCounts::default();
        for (x, out) in inputs.iter().zip(&run.outputs) {
            let (y, o) = qm.matvec(&act.quantize(x.as_slice()), &act);
            ops = ops.merge(o);
            prop_assert_eq!(out.as_slice(), &y[..]);
        }
        prop_assert_eq!(run.ops, ops);
    }
}
