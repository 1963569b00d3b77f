//! The benchmark's model, its servable states, and the seeded input pool
//! with bit-exact reference logits.

use crate::schedule::{derive, SplitMix64};
use crate::Workload;
use mixmatch::fpga::bridge::FpgaTarget;
use mixmatch::fpga::device::FpgaDevice;
use mixmatch::nn::models::{ResNet, ResNetConfig};
use mixmatch::quant::engine::BatchEngine;
use mixmatch::quant::export::{export_compiled, import_compiled};
use mixmatch::quant::pipeline::{CompiledModel, QuantPipeline};
use mixmatch::serve::{
    FleetClient, FleetConfig, FleetServer, ModelServer, ReplicaSpec, ServeConfig, WireServer,
};
use mixmatch::tensor::{Tensor, TensorRng};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Input height and width: resnet-mini at 3x16x16, as in `throughput`.
pub const INPUT_HW: usize = 16;
/// Fixed model seed: every run quantizes the same weights.
pub const MODEL_SEED: u64 = 7;
/// Name the model is served under.
pub const MODEL: &str = "resnet";
/// Distinct inputs per run; their reference logits are pairwise distinct.
pub const POOL_IMAGES: usize = 64;
/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// The fleet's replica targets.
pub const REPLICA_DEVICES: [FpgaDevice; 2] = [FpgaDevice::XC7Z045, FpgaDevice::XC7Z020];

pub fn input_dims() -> [usize; 3] {
    [3, INPUT_HW, INPUT_HW]
}

/// Quantizes resnet-mini for the XC7Z045 (the pipeline's optimized plan).
pub fn quantize() -> Result<CompiledModel, String> {
    let mut rng = TensorRng::seed_from(MODEL_SEED);
    let mut model = ResNet::new(ResNetConfig::mini(10).with_act_bits(4), &mut rng);
    QuantPipeline::for_device(FpgaTarget::new(FpgaDevice::XC7Z045).with_input_size(INPUT_HW))
        .quantize(&mut model)
        .map_err(|e| format!("quantize resnet-mini: {e}"))
}

pub fn export(compiled: &CompiledModel) -> Result<Vec<u8>, String> {
    export_compiled(compiled).map_err(|e| format!("export: {e}"))
}

pub fn import(artifact: &[u8]) -> Result<CompiledModel, String> {
    import_compiled(artifact).map_err(|e| format!("import: {e}"))
}

/// `max_batch` 32, `max_wait` 2 ms, queue 256.
pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_max_batch(32)
        .with_max_wait(Duration::from_millis(2))
        .with_queue_depth(256)
}

pub fn replica_specs() -> Vec<ReplicaSpec> {
    REPLICA_DEVICES
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            ReplicaSpec::new(
                format!("r{i}"),
                FpgaTarget::new(d).with_input_size(INPUT_HW),
            )
        })
        .collect()
}

pub fn start_server() -> ModelServer {
    ModelServer::start(serve_config())
}

pub fn start_fleet() -> Arc<FleetServer> {
    Arc::new(FleetServer::start(
        FleetConfig::default()
            .with_max_batch(32)
            .with_max_wait(Duration::from_millis(2))
            .with_queue_depth(256)
            .with_replica_config(serve_config()),
        replica_specs(),
    ))
}

/// A fleet behind a loopback wire server.
pub struct Fleet {
    pub fleet: Arc<FleetServer>,
    pub wire: WireServer,
}

impl Fleet {
    pub fn addr(&self) -> SocketAddr {
        self.wire.local_addr()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.wire.stop();
        self.fleet.shutdown();
    }
}

/// What a workload serves from.
pub enum Servable {
    /// The imported artifact, run through `BatchEngine` on the global pool.
    Offline(CompiledModel, BatchEngine),
    Server(ModelServer),
    Fleet(Fleet),
}

/// The servable state plus the pipeline's own model (the reference).
pub struct Setup {
    pub servable: Servable,
    pub compiled: CompiledModel,
    pub artifact: Vec<u8>,
    /// Seconds of each repetition, the first from process start.
    pub times: Vec<f64>,
}

/// Builds `workload`'s servable state [`SETUP_REPS`] times — quantize ->
/// export -> import / load — and keeps the last. Every repetition must
/// export the same bytes. Each repetition's servers shut down before the
/// next starts, so the heap high-water mark is one deployment's.
pub fn setup(workload: Workload, process_start: Instant) -> Result<Setup, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<Setup> = None;
    for rep in 0..SETUP_REPS {
        let prev_artifact = last.take().map(|prev| prev.artifact);
        let start = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let compiled = quantize()?;
        let artifact = export(&compiled)?;
        let servable = match workload {
            Workload::Offline => Servable::Offline(import(&artifact)?, BatchEngine::new()),
            Workload::ServeOpen => {
                let server = start_server();
                server
                    .load_artifact(MODEL, &artifact)
                    .map_err(|e| format!("server load: {e}"))?;
                Servable::Server(server)
            }
            Workload::FleetTcp => {
                let fleet = start_fleet();
                let wire = WireServer::bind("127.0.0.1:0", Arc::clone(&fleet))
                    .map_err(|e| format!("bind wire: {e}"))?;
                let fleet = Fleet { fleet, wire };
                FleetClient::connect(fleet.addr())
                    .and_then(|mut c| c.load(MODEL, &artifact))
                    .map_err(|e| format!("fleet load over tcp: {e}"))?;
                Servable::Fleet(fleet)
            }
        };
        times.push(start.elapsed().as_secs_f64());
        if prev_artifact.is_some_and(|prev| prev != artifact) {
            return Err("set-up is not deterministic: artifacts differ".into());
        }
        last = Some(Setup {
            servable,
            compiled,
            artifact,
            times: Vec::new(),
        });
    }
    let mut setup = last.expect("at least one repetition");
    setup.times = times;
    Ok(setup)
}

/// The seeded input pool and each input's reference logits, computed on
/// the pipeline's *raw* (unoptimized) plan with one engine thread.
pub struct Inputs {
    pub images: Vec<Tensor>,
    refs: Vec<Vec<u32>>,
}

impl Inputs {
    pub fn generate(compiled: &CompiledModel, seed: u64) -> Result<Inputs, String> {
        let raw = compiled
            .model()
            .compile(&input_dims())
            .map_err(|e| format!("raw compile: {e}"))?;
        let engine = BatchEngine::with_threads(1);
        let mut rng = TensorRng::seed_from(derive(seed, 1));
        let mut seen = HashSet::new();
        let (mut images, mut refs) = (Vec::new(), Vec::new());
        for _ in 0..4 * POOL_IMAGES {
            if images.len() == POOL_IMAGES {
                break;
            }
            let image = Tensor::rand_uniform(&input_dims(), 0.0, 1.0, &mut rng);
            let run = engine
                .run_plan(compiled.model(), &raw, std::slice::from_ref(&image))
                .map_err(|e| format!("reference run: {e}"))?;
            let bits = bits(&run.outputs[0]);
            if seen.insert(bits.clone()) {
                images.push(image);
                refs.push(bits);
            }
        }
        if images.len() < POOL_IMAGES {
            return Err("could not draw inputs with pairwise distinct references".into());
        }
        Ok(Inputs { images, refs })
    }

    /// Whether `output` is bit-identical to input `index`'s reference.
    pub fn matches(&self, index: usize, output: &Tensor) -> bool {
        bits(output) == self.refs[index]
    }

    /// A seeded stream of pool indices.
    pub fn picker(seed: u64, tag: u64) -> impl FnMut() -> usize {
        let mut rng = SplitMix64::new(derive(seed, tag));
        move || rng.below(POOL_IMAGES)
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.dims()
        .iter()
        .map(|&d| d as u32)
        .chain(t.as_slice().iter().map(|x| x.to_bits()))
        .collect()
}

/// Peak resident set (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One line listing every set-up repetition in ms.
pub fn describe_setup(times: &[f64]) -> String {
    let reps: Vec<String> = times.iter().map(|t| format!("{:.2}", t * 1e3)).collect();
    format!(
        "set-up reps (ms, first from process start): {}",
        reps.join(" ")
    )
}
