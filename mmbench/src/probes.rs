//! Per-layer probes for the traced run. Each probe calls one layer's
//! public entry point repeatedly under a span of that layer and reports a
//! median (or p50/p99) over its own samples. Every traced run, whatever
//! its workload, runs every probe, so each per-layer metric is reported
//! on every workload.

use crate::fixture::{
    self, input_dims, Fleet, Inputs, Setup, INPUT_HW, MODEL, MODEL_SEED, REPLICA_DEVICES,
    SETUP_REPS,
};
use crate::metrics::{step_metric, STEP_SLOTS};
use crate::schedule::{HI_RATE, LO_RATE};
use crate::stats::{median, Summary};
use crate::workloads::{batch_of_32, closed_loop, open_loop, Tally};
use crate::{span, us};
use mixmatch::fpga::bridge::FpgaTarget;
use mixmatch::quant::engine::BatchEngine;
use mixmatch::quant::integer::{ActQuantizer, QuantizedMatrix};
use mixmatch::quant::msq::MsqPolicy;
use mixmatch::quant::{optimize, verify};
use mixmatch::serve::wire::{
    decode_infer_request, decode_tensor, encode_infer_request, encode_tensor,
};
use mixmatch::serve::{FleetClient, FleetStats, HealthState, ServeError, WireServer};
use mixmatch::tensor::im2col::{im2col_patches_into, ConvGeometry};
use mixmatch::tensor::pool::WorkerPool;
use mixmatch::tensor::{Tensor, TensorRng};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the probes measured.
#[derive(Default)]
pub struct Probes {
    pub values: BTreeMap<String, f64>,
    pub lines: Vec<String>,
    pub tally: Tally,
}

impl Probes {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records the median of `samples` under `name`, with a detail line.
    fn series(&mut self, name: &str, unit: &str, samples: &[f64]) -> f64 {
        let summary = Summary::of(samples);
        self.lines
            .push(format!("  {name}: {}", summary.describe(unit)));
        self.set(name, summary.p50);
        summary.p50
    }
}

/// Calls `f` until `budget` has elapsed and at least `min` samples exist,
/// collecting the value each call returns.
fn sample(
    budget: Duration,
    min: usize,
    mut f: impl FnMut() -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        out.push(f()?);
    }
    Ok(out)
}

/// Times one call in microseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, us(start.elapsed()))
}

/// Runs every probe within about `budget` (plus [`SETUP_REPS`] set-ups).
pub fn run(setup: &Setup, inputs: &Inputs, budget: Duration, seed: u64) -> Result<Probes, String> {
    let mut p = Probes::default();
    setup_probe(&mut p)?;
    let served = fixture::import(&setup.artifact)?;
    engine_probe(&mut p, &served, inputs, budget, seed)?;
    kernel_probe(&mut p, budget, seed)?;
    pool_probe(&mut p, budget)?;
    server_probe(&mut p, &setup.artifact, inputs, budget, seed)?;
    fleet_probe(&mut p, &setup.artifact, inputs, budget, seed)?;
    Ok(p)
}

/// quant::pipeline, optimize, verify, export; server and fleet load; fpga
/// pricing per replica target.
fn setup_probe(p: &mut Probes) -> Result<(), String> {
    let mut t: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..SETUP_REPS {
        let (compiled, d) = timed(|| {
            let _s = span("quant::pipeline", || "quantize".into());
            fixture::quantize()
        });
        let compiled = compiled?;
        t.entry("pipeline.quantize_ms").or_default().push(d / 1e3);
        let raw = compiled
            .model()
            .compile(&input_dims())
            .map_err(|e| format!("raw compile: {e}"))?;
        let (_, d) = timed(|| {
            let _s = span("quant::optimize", || "optimize".into());
            optimize::optimize(&raw)
        });
        t.entry("optimize.optimize_ms").or_default().push(d / 1e3);
        let plan = compiled.require_plan().map_err(|e| e.to_string())?;
        let descs = compiled.model().layer_descs();
        let (report, d) = timed(|| {
            let _s = span("quant::verify", || "verify".into());
            verify::verify(plan, &descs)
        });
        if !report.is_clean() {
            return Err(format!("plan fails verification: {report}"));
        }
        t.entry("verify.verify_ms").or_default().push(d / 1e3);
        let (artifact, d) = timed(|| {
            let _s = span("quant::export", || "export".into());
            fixture::export(&compiled)
        });
        let artifact = artifact?;
        t.entry("export.export_ms").or_default().push(d / 1e3);
        let (imported, d) = timed(|| {
            let _s = span("quant::export", || "import".into());
            fixture::import(&artifact)
        });
        let imported = imported?;
        t.entry("export.import_ms").or_default().push(d / 1e3);
        let server = fixture::start_server();
        let (loaded, d) = timed(|| {
            let _s = span("serve::server", || "load".into());
            server.load_artifact(MODEL, &artifact)
        });
        loaded.map_err(|e| format!("server load: {e}"))?;
        t.entry("server.load_ms").or_default().push(d / 1e3);
        server.shutdown();
        let fleet = fixture::start_fleet();
        let (loaded, d) = timed(|| {
            let _s = span("serve::fleet", || "load".into());
            fleet.load_artifact(MODEL, &artifact)
        });
        loaded.map_err(|e| format!("fleet load: {e}"))?;
        t.entry("fleet.load_ms").or_default().push(d / 1e3);
        fleet.shutdown();
        let (priced, d) = timed(|| {
            let _s = span("fpga", || "price".into());
            REPLICA_DEVICES.iter().all(|&device| {
                imported
                    .predict_with(&FpgaTarget::new(device).with_input_size(INPUT_HW), 1)
                    .is_some()
            })
        });
        if !priced {
            return Err("a replica target could not price the plan".into());
        }
        t.entry("fpga.price_ms").or_default().push(d / 1e3);
    }
    for (name, samples) in t {
        p.series(name, "ms", &samples);
    }
    Ok(())
}

/// quant::engine on the global pool, plus the kernel counts its runs
/// report.
fn engine_probe(
    p: &mut Probes,
    served: &mixmatch::quant::pipeline::CompiledModel,
    inputs: &Inputs,
    budget: Duration,
    seed: u64,
) -> Result<(), String> {
    let engine = BatchEngine::new();
    let model = served.model();
    let plan = served.require_plan().map_err(|e| e.to_string())?;
    let mut pick = Inputs::picker(seed, 5);
    let batch_idx = batch_of_32(seed);
    let batch: Vec<Tensor> = batch_idx
        .iter()
        .map(|&i| inputs.images[i].clone())
        .collect();
    let err = |e: mixmatch::quant::error::QuantError| e.to_string();

    let mut tally = Tally::default();
    // The empty call, the b1 call and the profiled b1 call are interleaved
    // so all three see the same engine and host state: the unattributed
    // remainder is only meaningful between comparable samples.
    let (mut call_setup, mut b1_profiled) = (Vec::new(), Vec::new());
    let b1 = sample(budget.mul_f64(0.12), 20, || {
        let (r, t) = timed(|| {
            let _s = span("quant::engine", || "run_plan empty".into());
            engine.run_plan(model, plan, &[])
        });
        r.map_err(err)?;
        call_setup.push(t);
        let i = pick();
        let image = std::slice::from_ref(&inputs.images[i]);
        let (r, t) = timed(|| {
            let _s = span("quant::engine", || "run_plan b1".into());
            engine.run_plan(model, plan, image)
        });
        let mut run = r.map_err(err)?;
        tally.check(inputs, i, &Ok(run.outputs.swap_remove(0)));
        let i = pick();
        let image = std::slice::from_ref(&inputs.images[i]);
        let r = {
            let _s = span("quant::engine", || "run_plan_profiled b1".into());
            engine.run_plan_profiled(model, plan, image)
        };
        let (mut run, profile) = r.map_err(err)?;
        tally.check(inputs, i, &Ok(run.outputs.swap_remove(0)));
        b1_profiled.push(us(profile.total));
        Ok(t)
    })?;
    let b32 = sample(budget.mul_f64(0.06), 5, || {
        let (r, t) = timed(|| {
            let _s = span("quant::engine", || "run_plan_batch b32".into());
            engine.run_plan(model, plan, &batch)
        });
        let run = r.map_err(err)?;
        for (&i, out) in batch_idx.iter().zip(run.outputs) {
            tally.check(inputs, i, &Ok(out));
        }
        Ok(t / 32.0)
    })?;
    let mut profiles = Vec::new();
    sample(budget.mul_f64(0.06), 3, || {
        let (r, t) = timed(|| {
            let _s = span("quant::engine", || "run_plan_profiled b32".into());
            engine.run_plan_profiled(model, plan, &batch)
        });
        let (run, profile) = r.map_err(err)?;
        for (&i, out) in batch_idx.iter().zip(run.outputs) {
            tally.check(inputs, i, &Ok(out));
        }
        profiles.push(profile);
        Ok(t)
    })?;
    p.tally.add(tally);

    let setup_us = p.series("engine.call_setup_us", "us", &call_setup);
    let b1_us = p.series("engine.b1_us", "us", &b1);
    let exec_us = p.series("engine.b1_profiled_us", "us", &b1_profiled);
    let unattributed = b1_us - setup_us - exec_us;
    p.set("engine.b1_unattributed_us", unattributed);
    p.lines.push(format!(
        "  offline b1 unattributed: engine.b1_us {b1_us:.1} - engine.call_setup_us {setup_us:.1} - profiled execute {exec_us:.1} = {unattributed:.1} us"
    ));
    p.series("engine.b32_us_per_image", "us", &b32);

    let first = &profiles[0];
    let images = first.images;
    for (i, step) in first.steps.iter().enumerate() {
        let per_image: Vec<f64> = profiles
            .iter()
            .map(|prof| prof.steps[i].measured_us_per_image(images))
            .collect();
        let value = median(&per_image);
        p.lines.push(format!(
            "  step {i:02} {:<40} {value:9.2} us/image (median of {})",
            step.label,
            per_image.len()
        ));
        if i < STEP_SLOTS {
            p.set(&step_metric(i), value);
        }
    }
    for i in first.steps.len()..STEP_SLOTS {
        p.set(&step_metric(i), 0.0);
    }
    if first.steps.len() > STEP_SLOTS {
        p.lines.push(format!(
            "  plan has {} steps; only the first {STEP_SLOTS} have metric slots",
            first.steps.len()
        ));
    }
    p.set("engine.plan_steps", first.steps.len() as f64);
    p.set(
        "engine.arena_high_water_bytes",
        first.arena_high_water_bytes as f64,
    );
    // The adds census depends on the activations, so the op counts come
    // from a fixed batch that no run seed changes: they repeat exactly.
    let mut rng = TensorRng::seed_from(MODEL_SEED);
    let fixed: Vec<Tensor> = (0..32)
        .map(|_| Tensor::rand_uniform(&input_dims(), 0.0, 1.0, &mut rng))
        .collect();
    let ops = engine.run_plan(model, plan, &fixed).map_err(err)?.ops;
    let per_image = |n: usize| n as f64 / fixed.len() as f64;
    p.set("kernel.ops.mults", per_image(ops.mults));
    p.set("kernel.ops.shifts", per_image(ops.shifts));
    p.set("kernel.ops.adds", per_image(ops.adds));
    let bytes: u64 = first.steps.iter().map(|s| s.bytes_moved).sum();
    p.set("kernel.bytes_moved_per_image", bytes as f64 / images as f64);
    p.lines.push(
        "  kernel.bytes_moved_per_image is computed from tensor sizes (source + destination f32 elements x 4), not measured"
            .into(),
    );
    p.set(
        "kernel.packed_rows",
        first.steps.iter().map(|s| s.packed_rows).sum::<usize>() as f64,
    );
    p.set(
        "kernel.dense_rows",
        first.steps.iter().map(|s| s.dense_rows).sum::<usize>() as f64,
    );
    Ok(())
}

/// The single-thread im2col -> quantize -> `matmul_patches_into` chain on
/// a fixed 64x32x3 conv, as in `throughput`'s kernel series.
fn kernel_probe(p: &mut Probes, budget: Duration, seed: u64) -> Result<(), String> {
    let geom = ConvGeometry::new(32, 64, 3, 1, 1);
    let act = ActQuantizer::new(4, 1.0);
    let mut rng = TensorRng::seed_from(MODEL_SEED);
    let weights = Tensor::randn(&[geom.out_channels, geom.gemm_k()], &mut rng);
    let plan = QuantizedMatrix::from_float(&weights, &MsqPolicy::msq_optimal())
        .try_plan()
        .map_err(|e| format!("kernel plan: {e}"))?;
    plan.check_act(&act)
        .map_err(|e| format!("kernel bound: {e}"))?;
    let k = geom.gemm_k();
    let patches = geom.output_size(INPUT_HW) * geom.output_size(INPUT_HW);
    // The engine's L1-sized patch tile.
    let tile = {
        let raw = (64 * 1024 / (8 * k)).clamp(4, 4096);
        (raw - raw % 4).min(patches.max(4))
    };
    let mut image_rng = TensorRng::seed_from(crate::schedule::derive(seed, 6));
    let images: Vec<Tensor> = (0..8)
        .map(|_| {
            Tensor::rand_uniform(
                &[geom.in_channels, INPUT_HW, INPUT_HW],
                0.0,
                1.0,
                &mut image_rng,
            )
        })
        .collect();
    let mut cols = vec![0.0f32; tile * k];
    let mut quantized: Vec<u32> = Vec::new();
    let mut out = vec![0.0f32; geom.out_channels * patches];
    let chain = sample(budget.mul_f64(0.05), 5, || {
        let (_, t) = timed(|| {
            let _s = span("quant::integer", || "conv chain x8".into());
            for image in &images {
                let mut p0 = 0;
                while p0 < patches {
                    let count = tile.min(patches - p0);
                    im2col_patches_into(image, &geom, 0, p0, count, &mut cols);
                    act.quantize_into(&cols[..count * k], &mut quantized);
                    plan.matmul_patches_into(&quantized, count, &act, &mut out, patches, p0, None);
                    p0 += count;
                }
            }
            std::hint::black_box(&out);
        });
        Ok(t / images.len() as f64)
    })?;
    p.series("kernel.conv_chain_us_per_image", "us", &chain);
    Ok(())
}

/// A `WorkerPool::run` fan-out of `threads()` no-op tasks.
fn pool_probe(p: &mut Probes, budget: Duration) -> Result<(), String> {
    let pool = WorkerPool::global();
    let runs = sample(budget.mul_f64(0.02), 100, || {
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..pool.threads())
            .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
            .collect();
        let (_, t) = timed(|| {
            let _s = span("tensor::pool", || "run no-op".into());
            pool.run(tasks)
        });
        Ok(t)
    })?;
    p.series("pool.run_us", "us", &runs);
    Ok(())
}

/// serve::server and serve::batcher: a lone request from an idle caller,
/// then short open-loop bursts at the lo and hi rates.
fn server_probe(
    p: &mut Probes,
    artifact: &[u8],
    inputs: &Inputs,
    budget: Duration,
    seed: u64,
) -> Result<(), String> {
    let server = fixture::start_server();
    server
        .load_artifact(MODEL, artifact)
        .map_err(|e| format!("server load: {e}"))?;
    let mut pick = Inputs::picker(seed, 7);
    let mut tally = Tally::default();
    let lone = sample(budget.mul_f64(0.06), 20, || {
        let i = pick();
        let (reply, t) = timed(|| {
            let _s = span("serve::server", || "infer_blocking".into());
            server.infer_blocking(MODEL, inputs.images[i].clone())
        });
        tally.check(inputs, i, &reply);
        Ok(t)
    })?;
    p.series("server.lone_request_us", "us", &lone);
    let lo = open_loop(&server, inputs, LO_RATE, budget.mul_f64(0.1), seed)?;
    let hi = open_loop(&server, inputs, HI_RATE, budget.mul_f64(0.1), seed)?;
    server.shutdown();
    tally.add(lo.tally);
    tally.add(hi.tally);
    p.tally.add(tally);
    let admit: Vec<f64> = lo.admit.iter().chain(&hi.admit).copied().collect();
    let admit_sum = Summary::of(&admit);
    p.lines
        .push(format!("  server.admit: {}", admit_sum.describe("us")));
    p.set("server.admit_p50_us", admit_sum.p50);
    p.set("server.admit_p99_us", admit_sum.p99);
    p.set("server.mean_batch.lo", lo.mean_batch);
    p.set("server.mean_batch.hi", hi.mean_batch);
    p.set("server.rejected", (lo.rejected + hi.rejected) as f64);
    let late: Vec<f64> = lo.late.iter().chain(&hi.late).copied().collect();
    let late_sum = Summary::of(&late);
    p.lines
        .push(format!("  loadgen.late: {}", late_sum.describe("ms")));
    p.set("loadgen.late_p99_ms", late_sum.p99);
    p.lines.push(format!("  probe burst {}", lo.describe()));
    p.lines.push(format!("  probe burst {}", hi.describe()));
    Ok(())
}

/// Per replica: completed images and executed batches.
fn replica_counts(stats: &FleetStats) -> Vec<(u64, u64)> {
    stats
        .replicas
        .iter()
        .map(|r| {
            r.models
                .iter()
                .fold((0, 0), |(c, b), m| (c + m.completed, b + m.batches))
        })
        .collect()
}

/// serve::fleet, router and health in process; serve::wire over loopback.
fn fleet_probe(
    p: &mut Probes,
    artifact: &[u8],
    inputs: &Inputs,
    budget: Duration,
    seed: u64,
) -> Result<(), String> {
    let fleet = fixture::start_fleet();
    fleet
        .load_artifact(MODEL, artifact)
        .map_err(|e| format!("fleet load: {e}"))?;
    let mut pick = Inputs::picker(seed, 8);
    let mut tally = Tally::default();
    let inproc = sample(budget.mul_f64(0.06), 20, || {
        let i = pick();
        let (reply, t) = timed(|| {
            let _s = span("serve::fleet", || "infer_blocking".into());
            fleet.infer_blocking(MODEL, inputs.images[i].clone())
        });
        tally.check(inputs, i, &reply);
        Ok(t)
    })?;
    let inproc_sum = Summary::of(&inproc);
    p.lines
        .push(format!("  fleet.inproc: {}", inproc_sum.describe("us")));
    p.set("fleet.inproc_p50_us", inproc_sum.p50);

    let wire = WireServer::bind("127.0.0.1:0", Arc::clone(&fleet))
        .map_err(|e| format!("bind wire: {e}"))?;
    let fleet = Fleet { fleet, wire };
    let before = replica_counts(&fleet.fleet.stats());
    let seq = AtomicU64::new(0);
    let run = closed_loop(fleet.addr(), inputs, 2, 2, budget.mul_f64(0.12), seed, &seq)?;
    tally.add(run.tally);
    let stats = fleet.fleet.stats();
    let delta: Vec<(u64, u64)> = replica_counts(&stats)
        .iter()
        .zip(&before)
        .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
        .collect();
    let images: u64 = delta.iter().map(|d| d.0).sum();
    let batches: u64 = delta.iter().map(|d| d.1).sum();
    for (i, d) in delta.iter().enumerate().take(2) {
        p.set(
            &format!("fleet.share.r{i}"),
            d.0 as f64 / images.max(1) as f64,
        );
    }
    p.set("fleet.mean_batch", images as f64 / batches.max(1) as f64);
    let unhealthy = stats
        .replicas
        .iter()
        .filter(|r| r.health.state != HealthState::Healthy)
        .count();
    p.set("fleet.unhealthy_replicas", unhealthy as f64);
    p.lines.push(format!(
        "  probe closed loop, 2 connections: {} | per replica images {:?}",
        Summary::of(&run.all()).describe("ms"),
        delta.iter().map(|d| d.0).collect::<Vec<_>>()
    ));

    let mut client = FleetClient::connect(fleet.addr()).map_err(|e| format!("connect: {e}"))?;
    let rtt = sample(budget.mul_f64(0.04), 50, || {
        let (r, t) = timed(|| {
            let _s = span("serve::wire", || "stats".into());
            client.stats()
        });
        r.map_err(|e| format!("stats over tcp: {e}"))?;
        Ok(t)
    })?;
    let rtt_sum = Summary::of(&rtt);
    p.lines
        .push(format!("  wire.stats_rtt: {}", rtt_sum.describe("us")));
    p.set("wire.stats_rtt_p50_us", rtt_sum.p50);
    p.set("wire.stats_rtt_p99_us", rtt_sum.p99);

    let reply = fleet.fleet.infer_blocking(MODEL, inputs.images[0].clone());
    tally.check(inputs, 0, &reply);
    let reply = reply.map_err(|e: ServeError| format!("fleet infer: {e}"))?;
    let codec = sample(budget.mul_f64(0.02), 100, || {
        let (r, t) = timed(|| -> Result<(), ServeError> {
            let _s = span("serve::wire", || "codec".into());
            let request = encode_infer_request(MODEL, &inputs.images[0])?;
            decode_infer_request(&request)?;
            let mut body = Vec::new();
            encode_tensor(&mut body, &reply)?;
            decode_tensor(&body)?;
            Ok(())
        });
        r.map_err(|e| format!("codec: {e}"))?;
        Ok(t)
    })?;
    p.series("wire.codec_us", "us", &codec);
    p.tally.add(tally);
    Ok(())
}
