//! Serving-throughput benchmark: batched integer inference through
//! `BatchEngine::run_plan_batch` (raw images → logits through the compiled
//! `ExecutionPlan`) at batch 1/8/32, beside the cycle simulator's batched
//! GOPS/fps prediction — the software counterpart of Table VIII's
//! throughput columns, opened up to serving workloads. Also reports the
//! single-thread kernel chain per SIMD tier, the plan optimizer's per-pass
//! trajectory and a per-step plan profile.
//!
//! Writes `BENCH_throughput.json` into the working directory. Pass
//! `--smoke` for a CI-sized run.

use mixmatch_fpga::bridge::FpgaTarget;
use mixmatch_fpga::device::FpgaDevice;
use mixmatch_nn::models::{ResNet, ResNetConfig};
use mixmatch_quant::engine::BatchEngine;
use mixmatch_quant::integer::{ActQuantizer, QuantizedMatrix};
use mixmatch_quant::msq::MsqPolicy;
use mixmatch_quant::optimize;
use mixmatch_quant::pipeline::CompiledModel;
use mixmatch_tensor::im2col::{im2col_patches_of, ConvGeometry};
use mixmatch_tensor::simd::{detected_tier, SimdTier};
use mixmatch_tensor::{Tensor, TensorRng};
use std::fmt::Write as _;
use std::time::Instant;

/// Repeats `pass` until `min_secs` of wall clock have elapsed (at least
/// twice), returning `(iterations, seconds)`.
fn time_passes(mut pass: impl FnMut(), min_secs: f64) -> (usize, f64) {
    let start = Instant::now();
    let mut iters = 0usize;
    loop {
        pass();
        iters += 1;
        let secs = start.elapsed().as_secs_f64();
        if iters >= 2 && secs >= min_secs {
            return (iters, secs);
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (input_hw, min_secs) = if smoke { (8, 0.05) } else { (16, 0.4) };
    let device = FpgaDevice::XC7Z045;
    let mut rng = TensorRng::seed_from(7);
    let mut model = ResNet::new(ResNetConfig::mini(10).with_act_bits(4), &mut rng);
    let quantized: CompiledModel = mixmatch_quant::pipeline::QuantPipeline::for_device(
        FpgaTarget::new(device).with_input_size(input_hw),
    )
    .quantize(&mut model)
    .expect("quantize resnet-mini");
    let plan = quantized.plan().expect("resnet compiles to a plan");
    let engine = BatchEngine::new();
    println!(
        "=== Batched integer inference throughput (resnet18-mini, {} layers, {} plan steps, {} worker threads) ===\n",
        quantized.layers().len(),
        plan.steps().len(),
        engine.threads()
    );

    // Kernel series: the engine's conv chain on one thread — quantize the
    // map once, then im2col the levels → GEMM per patch tile — the scalar
    // tier against the runtime-detected vector tier of the *same*
    // lane-planned `GemmPlan`, isolating the packed-weight micro-kernels
    // from engine dispatch and the rest of the model.
    let kgeom = ConvGeometry::new(32, 64, 3, 1, 1);
    let kernel_act = ActQuantizer::new(4, 1.0);
    let kw = Tensor::randn(&[kgeom.out_channels, kgeom.gemm_k()], &mut rng);
    let kq = QuantizedMatrix::from_float(&kw, &MsqPolicy::msq_optimal());
    let kernel_base = kq.try_plan().expect("kernel fixture plan");
    kernel_base
        .check_act(&kernel_act)
        .expect("4-bit numerators stay inside the accumulator bound");
    let kk = kgeom.gemm_k();
    let patches = kgeom.output_size(input_hw) * kgeom.output_size(input_hw);
    // Same L1-sized patch tiling the engine uses for its conv chain.
    let tile = {
        let raw = (32 * 1024 / (4 * kk)).clamp(4, 4096);
        (raw - raw % 4).min(patches.max(4))
    };
    let map_dims = [kgeom.in_channels, input_hw, input_hw];
    let kernel_images: Vec<Tensor> = (0..32)
        .map(|_| Tensor::rand_uniform(&[kgeom.in_channels, input_hw, input_hw], 0.0, 1.0, &mut rng))
        .collect();
    let tier_name = |t: SimdTier| match t {
        SimdTier::Scalar => "scalar",
        SimdTier::Avx2 => "avx2",
    };
    let mut kernel_rows = String::new();
    let mut kernel_at_32 = [0f64; 2];
    println!(
        "\nkernel chain (conv {}x{}x{} s{} p{}, K={kk}, {patches} patches, 1 thread):",
        kgeom.out_channels, kgeom.in_channels, kgeom.kernel, kgeom.stride, kgeom.padding
    );
    for (ti, tier) in [SimdTier::Scalar, detected_tier()].into_iter().enumerate() {
        let plan = kernel_base.clone().with_tier(tier);
        let mut qmap: Vec<u32> = Vec::new();
        let mut quantized = vec![0u32; tile * kk];
        let mut out = vec![0.0f32; kgeom.out_channels * patches];
        let mut batch_rows = String::new();
        for (bi, &batch) in [1usize, 8, 32].iter().enumerate() {
            let (iters, secs) = time_passes(
                || {
                    for img in &kernel_images[..batch] {
                        kernel_act.quantize_into(img.as_slice(), &mut qmap);
                        let mut p0 = 0;
                        while p0 < patches {
                            let count = tile.min(patches - p0);
                            let tile_q = &mut quantized[..count * kk];
                            im2col_patches_of(&qmap, map_dims, &kgeom, 0, p0, count, tile_q);
                            plan.matmul_patches_into(
                                tile_q,
                                count,
                                &kernel_act,
                                &mut out,
                                patches,
                                p0,
                                None,
                            );
                            p0 += count;
                        }
                    }
                },
                min_secs,
            );
            let ips = (batch * iters) as f64 / secs;
            if bi == 2 {
                kernel_at_32[ti] = ips;
            }
            println!(
                "  {:<6} batch {batch:>2}: {ips:9.1} images/sec",
                tier_name(tier)
            );
            let _ = write!(
                batch_rows,
                r#"{}        {{"batch": {batch}, "images_per_sec": {ips:.1}}}"#,
                if batch_rows.is_empty() { "" } else { ",\n" },
            );
        }
        let _ = write!(
            kernel_rows,
            "{}      {{\"tier\": \"{}\", \"batches\": [\n{batch_rows}\n      ]}}",
            if kernel_rows.is_empty() { "" } else { ",\n" },
            tier_name(tier),
        );
    }
    let kernel_speedup = if kernel_at_32[0] > 0.0 {
        kernel_at_32[1] / kernel_at_32[0]
    } else {
        0.0
    };
    println!(
        "  simd vs scalar @ batch 32: {kernel_speedup:.2}x ({})",
        tier_name(detected_tier())
    );

    // Plan-optimizer series: the same model run through the raw lowering
    // (`QuantizedModel::compile` never optimizes) and through the
    // pipeline's optimized plan, plus the per-pass step/arena trajectory.
    let raw_plan = quantized
        .model()
        .compile(&[3, input_hw, input_hw])
        .expect("raw compile");
    let (_, pass_stats) = optimize::optimize_with_stats(&raw_plan);
    let mut pass_rows = String::new();
    println!(
        "\nplan optimizer:      raw {:>3} steps, {:>7} arena bytes",
        raw_plan.steps().len(),
        4 * optimize::high_water_elems(&raw_plan)
    );
    for s in &pass_stats {
        println!(
            "  after {:<22} {:>3} steps, {:>7} arena bytes",
            s.pass,
            s.plan_steps,
            4 * s.high_water_elems
        );
        let _ = write!(
            pass_rows,
            r#"{}      {{"pass": "{}", "plan_steps": {}, "arena_high_water_bytes": {}}}"#,
            if pass_rows.is_empty() { "" } else { ",\n" },
            s.pass,
            s.plan_steps,
            4 * s.high_water_elems,
        );
    }

    // A GEMM-dominated fixture where step overhead is a real fraction of
    // the forward pass: fusing the MLP's activation into its GEMM drops a
    // third of the steps, so the win is visible above conv noise.
    let mut mlp = mixmatch_nn::module::Sequential::new();
    let mut mlp_rng = TensorRng::seed_from(9);
    mlp.push(mixmatch_nn::layers::Linear::with_name(
        "fc1",
        64,
        128,
        true,
        &mut mlp_rng,
    ));
    mlp.push(mixmatch_nn::layers::Relu::new());
    mlp.push(mixmatch_nn::layers::Linear::with_name(
        "fc2",
        128,
        10,
        false,
        &mut mlp_rng,
    ));
    let mlp_compiled = mixmatch_quant::pipeline::QuantPipeline::from_policy(
        mixmatch_quant::msq::MsqPolicy::msq_half(),
    )
    .with_input_shape(&[64])
    .quantize(&mut mlp)
    .expect("quantize mlp");
    let mlp_raw = mlp_compiled
        .model()
        .compile(&[64])
        .expect("raw mlp compile");
    let mlp_opt = mlp_compiled.plan().expect("optimized mlp plan");
    let mut mlp_rows = String::new();
    for &batch in &[1usize, 8, 32] {
        let vecs: Vec<Tensor> = (0..batch)
            .map(|_| Tensor::rand_uniform(&[64], 0.0, 1.0, &mut mlp_rng))
            .collect();
        let time_plan = |plan| {
            engine
                .run_plan(mlp_compiled.model(), plan, &vecs)
                .expect("mlp warmup");
            let (iters, secs) = time_passes(
                || {
                    engine
                        .run_plan(mlp_compiled.model(), plan, &vecs)
                        .expect("mlp timed pass");
                },
                min_secs,
            );
            (batch * iters) as f64 / secs
        };
        let off = time_plan(&mlp_raw);
        let on = time_plan(mlp_opt);
        println!(
            "optimizer mlp batch {batch:>2}: {off:9.1} images/sec off | {on:9.1} images/sec on ({:.2}x)",
            if off > 0.0 { on / off } else { 0.0 }
        );
        let _ = write!(
            mlp_rows,
            r#"{}      {{"batch": {batch}, "images_per_sec_opt_off": {off:.1}, "images_per_sec_opt_on": {on:.1}, "speedup": {:.3}}}"#,
            if mlp_rows.is_empty() { "" } else { ",\n" },
            if off > 0.0 { on / off } else { 0.0 },
        );
    }

    // End-to-end series: raw images → logits through the compiled plan —
    // one artifact drives the engine and the plan-scheduled cycle sim.
    // Each batch is timed twice: optimizer off (the raw plan) and on (the
    // pipeline's plan), so the JSON carries the measured fusion win.
    let mut e2e_rows = String::new();
    let mut e2e_measured = Vec::new();
    let mut opt_rows = String::new();
    for &batch in &[1usize, 8, 32] {
        let images: Vec<Tensor> = (0..batch)
            .map(|_| Tensor::rand_uniform(&[3, input_hw, input_hw], 0.0, 1.0, &mut rng))
            .collect();
        engine
            .run_plan(quantized.model(), &raw_plan, &images)
            .expect("raw warmup pass");
        let (raw_iters, raw_secs) = time_passes(
            || {
                engine
                    .run_plan(quantized.model(), &raw_plan, &images)
                    .expect("raw timed pass");
            },
            min_secs,
        );
        let raw_ips = (batch * raw_iters) as f64 / raw_secs;
        engine
            .run_plan_batch(&quantized, &images)
            .expect("warmup pass");
        let (iters, secs) = time_passes(
            || {
                engine
                    .run_plan_batch(&quantized, &images)
                    .expect("timed pass");
            },
            min_secs,
        );
        let ips = (batch * iters) as f64 / secs;
        e2e_measured.push((batch, ips));
        println!(
            "optimizer batch {batch:>2}:  {raw_ips:9.1} images/sec off | {ips:9.1} images/sec on ({:.2}x)",
            if raw_ips > 0.0 { ips / raw_ips } else { 0.0 }
        );
        let _ = write!(
            opt_rows,
            r#"{}      {{"batch": {batch}, "images_per_sec_opt_off": {raw_ips:.1}, "images_per_sec_opt_on": {ips:.1}, "speedup": {:.3}}}"#,
            if opt_rows.is_empty() { "" } else { ",\n" },
            if raw_ips > 0.0 { ips / raw_ips } else { 0.0 },
        );
        let run = engine
            .run_plan_batch(&quantized, &images)
            .expect("census pass");
        let sim = quantized
            .summarize_batched(batch)
            .expect("plan-scheduled summary");
        let sim_ips = batch as f64 * 1_000.0 / sim.latency_ms as f64;
        println!(
            "end-to-end batch {batch:>2}: {ips:9.1} images/sec measured | sim {:7.1} GOPS, {sim_ips:9.1} images/sec",
            sim.gops
        );
        let _ = write!(
            e2e_rows,
            r#"{}    {{"batch": {batch}, "images_per_sec": {ips:.1}, "ops": {{"mults": {}, "shifts": {}, "adds": {}}}, "sim_gops": {:.2}, "sim_latency_ms": {:.4}, "sim_images_per_sec": {sim_ips:.1}}}"#,
            if e2e_rows.is_empty() { "" } else { ",\n" },
            run.ops.mults,
            run.ops.shifts,
            run.ops.adds,
            sim.gops,
            sim.latency_ms,
        );
    }

    // Profiled series: the same optimized plan at batch 32 through
    // `run_plan_profiled` — per-step wall time, bytes moved and kernel
    // tier, next to the cycle simulator's per-step prediction. This is the
    // measured-vs-predicted table the auto-tuner will search against.
    let profile_images: Vec<Tensor> = (0..32)
        .map(|_| Tensor::rand_uniform(&[3, input_hw, input_hw], 0.0, 1.0, &mut rng))
        .collect();
    let (_, profile) = engine
        .run_plan_profiled(quantized.model(), plan, &profile_images)
        .expect("profiled pass");
    println!("\n{profile}");
    let mut profile_rows = String::new();
    for step in &profile.steps {
        let _ = write!(
            profile_rows,
            r#"{}      {{"index": {}, "label": "{}", "us_per_image": {:.3}, "bytes_moved": {}, "tier": {}, "packed_rows": {}, "dense_rows": {}, "predicted_us_per_image": {}}}"#,
            if profile_rows.is_empty() { "" } else { ",\n" },
            step.index,
            step.label,
            step.measured_us_per_image(profile.images),
            step.bytes_moved,
            step.tier
                .as_deref()
                .map_or("null".to_string(), |t| format!("\"{t}\"")),
            step.packed_rows,
            step.dense_rows,
            step.predicted.map_or("null".to_string(), |p| format!(
                "{:.3}",
                p.as_secs_f64() * 1e6
            )),
        );
    }

    let at = |b: usize| {
        e2e_measured
            .iter()
            .find(|(bb, _)| *bb == b)
            .map_or(0.0, |(_, i)| *i)
    };
    let e2e_speedup = if at(1) > 0.0 { at(32) / at(1) } else { 0.0 };
    println!("\nbatch-32 vs batch-1 speedup: end-to-end {e2e_speedup:.2}x");

    let json = format!(
        r#"{{
  "bench": "throughput",
  "model": "resnet18-mini",
  "device": "{}",
  "input_hw": {input_hw},
  "threads": {},
  "host": {{"os": "{}", "arch": "{}", "parallelism": {}}},
  "plan_steps": {},
  "smoke": {smoke},
  "kernel": {{
    "geometry": {{"in_channels": {}, "out_channels": {}, "kernel": {}, "input_hw": {input_hw}, "gemm_k": {kk}, "patches": {patches}, "tile_patches": {tile}}},
    "act_bits": {},
    "detected_tier": "{}",
    "threads": 1,
    "series": [
{kernel_rows}
    ],
    "simd_vs_scalar_batch32": {kernel_speedup:.2}
  }},
  "end_to_end_images_per_sec": [
{e2e_rows}
  ],
  "plan_profile": {{
    "batch": 32,
    "total_ms": {:.3},
    "arena_high_water_bytes": {},
    "steps": [
{profile_rows}
    ]
  }},
  "plan_optimizer": {{
    "raw": {{"plan_steps": {}, "arena_high_water_bytes": {}}},
    "passes": [
{pass_rows}
    ],
    "end_to_end": [
{opt_rows}
    ],
    "mlp_end_to_end": [
{mlp_rows}
    ]
  }},
  "end_to_end_speedup_batch32_vs_batch1": {e2e_speedup:.2}
}}
"#,
        device.name,
        engine.threads(),
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(1, |v| v.get()),
        plan.steps().len(),
        kgeom.in_channels,
        kgeom.out_channels,
        kgeom.kernel,
        kernel_act.bits,
        tier_name(detected_tier()),
        profile.total.as_secs_f64() * 1e3,
        profile.arena_high_water_bytes,
        raw_plan.steps().len(),
        4 * optimize::high_water_elems(&raw_plan),
    );
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    println!("wrote BENCH_throughput.json");
}
