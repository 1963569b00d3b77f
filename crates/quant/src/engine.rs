//! Batched, multi-threaded integer inference through compiled execution
//! plans.
//!
//! The paper's accelerator fixes each row's scheme (SP2 on LUTs,
//! fixed-point on DSPs) once, when the weights are loaded, and then streams
//! images through its dual-core GEMM datapath. [`BatchEngine`] is the
//! software twin of that serving mode, and it has one execution path:
//! [`BatchEngine::run_plan_batch`] (with its [`BatchEngine::run_plan`] and
//! [`BatchEngine::run_plan_profiled`] forms) takes raw images through every
//! step of an [`ExecutionPlan`] to logits.
//!
//! Each layer's [`GemmPlan`] — flat integer numerators or packed nibbles in
//! place of per-element [`WeightCode`](crate::codes::WeightCode) matches —
//! is built and overflow-checked once, by the first call that needs it, and
//! cached inside the [`QuantizedModel`]. Every later call only validates
//! its batch against the plan before fanning contiguous image chunks out
//! over a persistent [`WorkerPool`] (the shared process-wide pool by
//! default, or a private one via [`BatchEngine::with_threads`]). Each call
//! builds one buffer arena and one quantization/im2col scratch set per
//! chunk; a chunk's images reuse them, so the per-image inner loops run
//! allocation-free once the first image has sized the scratch.
//!
//! A conv step quantizes its input map once, in one vectorized pass, and
//! unrolls the integer levels patch by patch straight into the GEMM's
//! activation tile — the paper's datapath likewise quantizes each feature-map
//! element once before it streams into the GEMM array.
//!
//! Outputs are **bit-identical** to the interpreted single-image kernels
//! ([`QuantizedConv::forward_image`](crate::deploy::QuantizedConv::forward_image)
//! / [`QuantizedMatrix::matvec`](crate::integer::QuantizedMatrix::matvec))
//! chained through the plan: integer accumulation is exact and the final
//! scaling is the same `f32` expression. Aggregated [`OpCounts`] match the
//! interpreter's Table I accounting, so a measured batch sits next to the
//! cycle simulator's batched prediction
//! ([`CompiledModel::summarize_batched`]).
//!
//! # Example
//!
//! ```
//! use mixmatch_nn::layers::Conv2d;
//! use mixmatch_nn::module::Sequential;
//! use mixmatch_quant::engine::BatchEngine;
//! use mixmatch_quant::msq::MsqPolicy;
//! use mixmatch_quant::pipeline::{DeployForm, QuantPipeline};
//! use mixmatch_tensor::im2col::ConvGeometry;
//! use mixmatch_tensor::{Tensor, TensorRng};
//!
//! let mut rng = TensorRng::seed_from(0);
//! let mut net = Sequential::new();
//! net.push(Conv2d::with_geometry("conv", ConvGeometry::new(3, 8, 3, 1, 1), false, &mut rng));
//! let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
//!     .with_input_shape(&[3, 6, 6])
//!     .quantize(&mut net)
//!     .expect("quantize");
//! let images: Vec<Tensor> = (0..4)
//!     .map(|_| Tensor::rand_uniform(&[3, 6, 6], 0.0, 1.0, &mut rng))
//!     .collect();
//! let engine = BatchEngine::with_threads(2);
//! // The first call builds the conv's GemmPlan; later calls reuse it.
//! let run = engine.run_plan_batch(&compiled, &images).expect("batch");
//! assert_eq!(run.outputs.len(), 4);
//! let DeployForm::Conv(conv) = &compiled.layers()[0].form else {
//!     unreachable!("a Conv2d deploys as a conv");
//! };
//! assert_eq!(run.outputs[0].as_slice(), conv.forward_image(&images[0]).as_slice());
//! ```

use crate::codes::OpCounts;
use crate::error::QuantError;
use crate::graph::{self, Epilogue, ExecutionPlan, StepOp};
use crate::integer::{ActQuantizer, GemmPlan};
use crate::pipeline::{CompiledModel, DeployForm, QuantizedLayer, QuantizedModel};
use crate::profile::{ConvPhases, PlanProfile, StepProfile};
use mixmatch_tensor::arena::BufferArena;
use mixmatch_tensor::im2col::{im2col_patches_of, ConvGeometry};
use mixmatch_tensor::pool::WorkerPool;
use mixmatch_tensor::simd::SimdTier;
use mixmatch_tensor::Tensor;

/// Result of one batched pass: per-input outputs plus the aggregate
/// hardware-operation census across the whole batch.
#[derive(Debug)]
pub struct BatchRun {
    /// `outputs[i]` corresponds to input `i`.
    pub outputs: Vec<Tensor>,
    /// Total integer-op counts over the batch (Table I accounting).
    pub ops: OpCounts,
}

/// Per-chunk scratch, reused across a chunk's images: a conv step's input
/// map quantized once to `C·H·W` integer levels (`qmap`), and the
/// patch-major activation tile the GEMM reads (`quantized`) — a conv's
/// im2col tile, sized to the cache-tiled chain's L1/L2 budget (see
/// [`conv_tile_patches`]) instead of the whole `[K, patches]` image
/// matrix, or a GEMM step's quantized input vector.
#[derive(Default)]
struct ConvScratch {
    qmap: Vec<u32>,
    quantized: Vec<u32>,
}

/// One chunk's profiling clocks, in nanoseconds: wall time per plan step
/// and, per conv step, its quantize-map / im2col / GEMM split.
#[derive(Default)]
struct StepClocks {
    steps: Vec<u64>,
    phases: Vec<[u64; 3]>,
}

impl StepClocks {
    fn new(steps: usize) -> Self {
        StepClocks {
            steps: vec![0; steps],
            phases: vec![[0; 3]; steps],
        }
    }
}

/// Slots of a conv step's phase clock.
const PHASE_QUANTIZE: usize = 0;
const PHASE_IM2COL: usize = 1;
const PHASE_GEMM: usize = 2;

/// The profiled path's stopwatch inside one conv step: each
/// [`lap`](PhaseClock::lap) charges the time since the previous lap to one
/// phase. Inert (no clock reads) when not profiling.
struct PhaseClock<'a> {
    running: Option<(&'a mut [u64; 3], std::time::Instant)>,
}

impl<'a> PhaseClock<'a> {
    fn start(slots: Option<&'a mut [u64; 3]>) -> Self {
        PhaseClock {
            running: slots.map(|s| (s, std::time::Instant::now())),
        }
    }

    fn lap(&mut self, phase: usize) {
        if let Some((slots, last)) = &mut self.running {
            let now = std::time::Instant::now();
            slots[phase] += now.duration_since(*last).as_nanos() as u64;
            *last = now;
        }
    }
}

/// How a plan step's input geometry is validated against its layer: a conv
/// map, a strict `[cols]` vector, or any shape read flat as `cols`
/// elements (fused GEMM).
#[derive(Clone, Copy)]
enum GemmFlavor {
    Conv,
    Strict,
    Flat,
}

/// The engine's worker pool: the shared process-wide pool by default, or a
/// privately owned one when the caller pins a thread count.
enum EnginePool {
    Global(&'static WorkerPool),
    Owned(WorkerPool),
}

/// Batched integer-inference runtime over a persistent worker pool.
pub struct BatchEngine {
    pool: EnginePool,
}

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchEngine {
    /// Engine on the process-wide pool (one worker per core, shared with
    /// the parallel GEMM path — no second set of per-core threads).
    pub fn new() -> Self {
        BatchEngine {
            pool: EnginePool::Global(WorkerPool::global()),
        }
    }

    /// Engine owning a private pool with an explicit worker count (at least
    /// one) — for pinned-parallelism runs and tests.
    pub fn with_threads(threads: usize) -> Self {
        BatchEngine {
            pool: EnginePool::Owned(WorkerPool::new(threads)),
        }
    }

    fn pool(&self) -> &WorkerPool {
        match &self.pool {
            EnginePool::Global(pool) => pool,
            EnginePool::Owned(pool) => pool,
        }
    }

    /// Number of pooled workers.
    pub fn threads(&self) -> usize {
        self.pool().threads()
    }

    /// End-to-end batched inference through a [`CompiledModel`]'s plan:
    /// raw images in, network outputs (logits / prediction maps) out — no
    /// per-layer input feeding. See [`BatchEngine::run_plan`].
    ///
    /// # Errors
    ///
    /// [`QuantError::NoLoweredGraph`] for plan-free artifacts, plus
    /// everything [`BatchEngine::run_plan`] can return.
    pub fn run_plan_batch(
        &self,
        compiled: &CompiledModel,
        images: &[Tensor],
    ) -> Result<BatchRun, QuantError> {
        self.run_plan(compiled.model(), compiled.require_plan()?, images)
    }

    /// Runs `images` through every step of `plan` against `model`'s
    /// deployment forms: the batch is split into one contiguous chunk per
    /// worker, and each chunk gets a fresh [`BufferArena`] sized to the
    /// plan's buffer high-water marks plus one scratch set, reused across
    /// its images, so a whole forward pass does zero shape inference and
    /// near-zero allocation.
    /// Every GEMM step runs the layer's cached [`GemmPlan`], built on the
    /// first call that needs it. Each conv/GEMM step is bit-identical to
    /// the interpreted single-image kernel on that step's input; `ops`
    /// aggregates the GEMM steps' Table I accounting (pool/add/activation
    /// steps are ALU work the GEMM census does not count). An empty batch
    /// is validated like any other and returns no outputs and zero ops.
    ///
    /// # Errors
    ///
    /// [`QuantError::ShapeMismatch`] when an image is not the plan's input
    /// shape, [`QuantError::MissingParam`] when the plan references a layer
    /// index the model does not have, [`QuantError::Geometry`] when a step's
    /// shapes disagree with its layer (a plan compiled from a different
    /// model), and [`QuantError::Overflow`] when a layer's plan could wrap
    /// its accumulator.
    pub fn run_plan(
        &self,
        model: &QuantizedModel,
        plan: &ExecutionPlan,
        images: &[Tensor],
    ) -> Result<BatchRun, QuantError> {
        let gemm_plans = validate(model, plan, images)?;
        Ok(self.execute_plan(model, plan, &gemm_plans, images, None))
    }

    /// [`BatchEngine::run_plan`] with per-step clocks: the same validated
    /// fan-out and bit-identical outputs, plus a [`PlanProfile`] that
    /// attributes the batch's time to individual plan steps (and diffs it
    /// against the anchored hardware target's predicted per-step cost when
    /// the model carries one), with each conv step's time split into
    /// quantize-map, im2col and GEMM phases ([`StepProfile::phases`]). The
    /// only runtime difference is monotonic-clock reads around each step
    /// and, inside conv steps, around each phase of each patch tile.
    ///
    /// # Errors
    ///
    /// Exactly what [`BatchEngine::run_plan`] returns.
    pub fn run_plan_profiled(
        &self,
        model: &QuantizedModel,
        plan: &ExecutionPlan,
        images: &[Tensor],
    ) -> Result<(BatchRun, PlanProfile), QuantError> {
        let gemm_plans = validate(model, plan, images)?;
        let mut clocks = StepClocks::new(plan.steps().len());
        let start = std::time::Instant::now();
        let run = self.execute_plan(model, plan, &gemm_plans, images, Some(&mut clocks));
        let total = start.elapsed();
        let profile = build_profile(model, plan, &gemm_plans, images.len(), &clocks, total);
        Ok((run, profile))
    }

    /// The shared plan fan-out: contiguous image chunks over the pool, one
    /// arena + scratch set built per chunk per call. With `clocks`, each
    /// chunk clocks every plan step (and every conv step's phases) and the
    /// per-chunk clocks are summed (CPU time across workers) after the
    /// barrier.
    fn execute_plan(
        &self,
        model: &QuantizedModel,
        plan: &ExecutionPlan,
        gemm_plans: &[Option<&GemmPlan>],
        images: &[Tensor],
        clocks: Option<&mut StepClocks>,
    ) -> BatchRun {
        let act = *model.act_quantizer();
        let mut outputs: Vec<Tensor> = images
            .iter()
            .map(|_| Tensor::zeros(plan.output_dims()))
            .collect();
        if images.is_empty() {
            return BatchRun {
                outputs,
                ops: OpCounts::default(),
            };
        }
        let profiling = clocks.is_some();
        let nsteps = plan.steps().len();
        let chunk = images.len().div_ceil(self.pool().threads()).max(1);
        let chunks = images.len().div_ceil(chunk);
        let mut chunk_ops = vec![OpCounts::default(); chunks];
        let mut chunk_clocks: Vec<StepClocks> = (0..chunks)
            .map(|_| {
                if profiling {
                    StepClocks::new(nsteps)
                } else {
                    StepClocks::default()
                }
            })
            .collect();
        {
            // Workers capture only the layer forms — the model's hardware
            // target box is never touched on this path.
            let layers = model.layers();
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = images
                .chunks(chunk)
                .zip(outputs.chunks_mut(chunk))
                .zip(chunk_ops.iter_mut())
                .zip(chunk_clocks.iter_mut())
                .map(|(((ins, outs), ops_slot), clock_slot)| {
                    Box::new(move || {
                        let _span = mixmatch_obs::trace::span("engine", "plan_chunk");
                        let mut arena = BufferArena::with_sizes(plan.buffer_sizes());
                        let mut scratch = ConvScratch::default();
                        let mut ops = OpCounts::default();
                        for (image, out) in ins.iter().zip(outs) {
                            ops = ops.merge(run_plan_single(
                                layers,
                                plan,
                                gemm_plans,
                                &act,
                                image,
                                out,
                                &mut arena,
                                &mut scratch,
                                if profiling {
                                    Some(&mut *clock_slot)
                                } else {
                                    None
                                },
                            ));
                        }
                        *ops_slot = ops;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            self.pool().run(tasks);
        }
        if let Some(clocks) = clocks {
            for chunk in &chunk_clocks {
                for (slot, v) in clocks.steps.iter_mut().zip(&chunk.steps) {
                    *slot += v;
                }
                for (slots, vs) in clocks.phases.iter_mut().zip(&chunk.phases) {
                    for (slot, v) in slots.iter_mut().zip(vs) {
                        *slot += v;
                    }
                }
            }
        }
        BatchRun {
            outputs,
            ops: chunk_ops
                .into_iter()
                .fold(OpCounts::default(), OpCounts::merge),
        }
    }
}

/// Validates a plan against a model and batch before any fan-out, and
/// collects each referenced layer's cached GEMM plan (indexed by layer).
///
/// Debug builds first re-prove the plan's model-independent invariants
/// (SSA, buffer liveness, weight-free shape flow, reachability).
/// Structural-only on purpose: plan-vs-model pairing is validated here
/// with typed errors, which callers rely on. Every image must match the
/// plan's input shape, and every GEMM step's shape flow must agree with
/// this model's geometry — a plan paired with the wrong model fails typed
/// here, never by panic in a worker. A layer's GEMM plan is built (and its
/// overflow bound proven) on this thread the first time any call needs it.
fn validate<'m>(
    model: &'m QuantizedModel,
    plan: &ExecutionPlan,
    images: &[Tensor],
) -> Result<Vec<Option<&'m GemmPlan>>, QuantError> {
    #[cfg(debug_assertions)]
    {
        let report = crate::verify::verify_plan(plan);
        debug_assert!(report.is_clean(), "{report}");
    }
    for image in images {
        if image.dims() != plan.input_dims() {
            return Err(QuantError::ShapeMismatch {
                context: "plan input shape mismatch".into(),
                expected: plan.input_dims().to_vec(),
                got: image.dims().to_vec(),
            });
        }
    }
    let mut gemm_plans: Vec<Option<&GemmPlan>> = vec![None; model.layers().len()];
    let mut dims: Vec<Option<&[usize]>> = vec![None; plan.buffer_sizes().len()];
    dims[plan.input_buffer()] = Some(plan.input_dims());
    for step in plan.steps() {
        // Fused steps follow their base op's contract, except a fused
        // GEMM reads its source flat: any shape with `cols` elements.
        let resolved = match step.op {
            StepOp::Conv { layer } | StepOp::FusedConv { layer, .. } => {
                Some((layer, GemmFlavor::Conv))
            }
            StepOp::Gemm { layer } => Some((layer, GemmFlavor::Strict)),
            StepOp::FusedGemm { layer, .. } => Some((layer, GemmFlavor::Flat)),
            _ => None,
        };
        if let Some((layer, flavor)) = resolved {
            let l = model
                .layers()
                .get(layer)
                .ok_or_else(|| QuantError::MissingParam {
                    name: format!("plan layer #{layer}"),
                })?;
            let src = dims[step.srcs[0]].unwrap_or(&[]);
            let flow_ok = match (&l.form, flavor) {
                (DeployForm::Conv(conv), GemmFlavor::Conv) => {
                    let geom = conv.geometry();
                    // `checked_output_size` so a plan whose flow shrank
                    // a map below the kernel fails typed, not by panic.
                    src.len() == 3
                        && src[0] == geom.in_channels
                        && geom
                            .checked_output_size(src[1])
                            .zip(geom.checked_output_size(src[2]))
                            .is_some_and(|(oh, ow)| step.dims == [geom.out_channels, oh, ow])
                }
                (DeployForm::Matrix(m), GemmFlavor::Strict) => {
                    src == [m.cols()] && step.dims == [m.rows()]
                }
                (DeployForm::Matrix(m), GemmFlavor::Flat) => {
                    src.iter().try_fold(1usize, |a, &d| a.checked_mul(d)) == Some(m.cols())
                        && step.dims == [m.rows()]
                }
                _ => false,
            };
            if !flow_ok {
                return Err(QuantError::Geometry {
                    context: format!(
                        "plan step disagrees with layer {} (form or shapes)",
                        l.desc.name
                    ),
                });
            }
            // Typed overflow errors surface here, before fan-out.
            gemm_plans[layer] = Some(model.gemm_plan(layer)?);
        }
        dims[step.dst] = Some(&step.dims);
    }
    Ok(gemm_plans)
}

/// Reports a freshly built GEMM plan's row layout to the global metrics
/// registry as `mixmatch_kernel_rows_total{tier=...}`: packed rows under
/// the selected SIMD tier, dense-fallback rows under `dense`. Plans are
/// built once per loaded model, so each model's rows count once. This
/// makes a silent drop to scalar dispatch (a `MIXMATCH_FORCE_SCALAR` leak,
/// a CPU without AVX2) observable on the metrics page.
pub(crate) fn note_kernel_rows(plan: &GemmPlan) {
    let reg = mixmatch_obs::Registry::global();
    let tier = tier_name(plan.tier());
    let packed = plan.packed_rows() as u64;
    let dense = plan.rows() as u64 - packed;
    if packed > 0 {
        reg.counter("mixmatch_kernel_rows_total", &[("tier", tier)])
            .add(packed);
    }
    if dense > 0 {
        reg.counter("mixmatch_kernel_rows_total", &[("tier", "dense")])
            .add(dense);
    }
}

/// The metrics/profile label of a SIMD tier.
fn tier_name(tier: SimdTier) -> &'static str {
    match tier {
        SimdTier::Avx2 => "avx2",
        SimdTier::Scalar => "scalar",
    }
}

/// Assembles the [`PlanProfile`] for one profiled batch: step labels from
/// the op kind + layer name, bytes moved from the dims flow (src reads +
/// dst writes × 4 bytes × images), kernel tier/row split from the
/// layers' cached GEMM plans, each conv step's phase split, and the cycle
/// simulator's predicted per-image cost per step when the model is anchored
/// to a target that models one.
fn build_profile(
    model: &QuantizedModel,
    plan: &ExecutionPlan,
    gemm_plans: &[Option<&GemmPlan>],
    images: usize,
    clocks: &StepClocks,
    total: std::time::Duration,
) -> PlanProfile {
    use std::time::Duration;
    let layers = model.layers();
    let predicted = model.predict_plan_step_us(plan);
    let mut elems: Vec<usize> = vec![0; plan.buffer_sizes().len()];
    elems[plan.input_buffer()] = plan.input_dims().iter().product();
    let steps = plan
        .steps()
        .iter()
        .enumerate()
        .map(|(i, step)| {
            let src_elems: usize = step.srcs.iter().map(|&s| elems[s]).sum();
            let dst_elems: usize = step.dims.iter().product();
            elems[step.dst] = dst_elems;
            let gemm = match step.op {
                StepOp::Conv { layer }
                | StepOp::FusedConv { layer, .. }
                | StepOp::Gemm { layer }
                | StepOp::FusedGemm { layer, .. } => gemm_plans[layer],
                _ => None,
            };
            let label = match step.op {
                StepOp::Conv { layer } => format!("conv {}", layers[layer].desc.name),
                StepOp::FusedConv { layer, .. } => {
                    format!("fused-conv {}", layers[layer].desc.name)
                }
                StepOp::Gemm { layer } => format!("gemm {}", layers[layer].desc.name),
                StepOp::FusedGemm { layer, .. } => {
                    format!("fused-gemm {}", layers[layer].desc.name)
                }
                StepOp::Pool(_) => "pool".to_string(),
                StepOp::Activation(_) => "activation".to_string(),
                StepOp::ResidualAdd => "residual-add".to_string(),
                StepOp::Flatten => "flatten".to_string(),
                StepOp::Requantize => "requantize".to_string(),
            };
            let (tier, packed_rows, dense_rows) = match gemm {
                Some(g) => (
                    Some(tier_name(g.tier()).to_string()),
                    g.packed_rows(),
                    g.rows() - g.packed_rows(),
                ),
                None => (None, 0, 0),
            };
            let phases =
                matches!(step.op, StepOp::Conv { .. } | StepOp::FusedConv { .. }).then(|| {
                    let [quantize, im2col, gemm] = clocks.phases[i].map(Duration::from_nanos);
                    ConvPhases {
                        quantize,
                        im2col,
                        gemm,
                    }
                });
            StepProfile {
                index: i,
                label,
                wall: Duration::from_nanos(clocks.steps[i]),
                bytes_moved: ((src_elems + dst_elems) * 4) as u64 * images as u64,
                tier,
                packed_rows,
                dense_rows,
                predicted: predicted
                    .as_ref()
                    .and_then(|p| p.get(i))
                    .filter(|us| **us > 0.0)
                    .map(|us| Duration::from_secs_f64(us / 1e6)),
                phases,
            }
        })
        .collect();
    PlanProfile {
        steps,
        images,
        total,
        arena_high_water_bytes: plan.buffer_sizes().iter().sum::<usize>() as u64 * 4,
    }
}

/// Patch-tile size for the cache-tiled conv chain: the patch-major `u32`
/// activation tile (4 bytes per element, 32 KiB) should sit well inside
/// L1/L2, so the im2col→GEMM chain for one tile never round-trips through
/// main memory. Rounded to the kernels' column-block width.
fn conv_tile_patches(k: usize) -> usize {
    const TILE_BYTES: usize = 32 * 1024;
    let raw = (TILE_BYTES / (4 * k.max(1))).clamp(4, 4096);
    raw - raw % 4
}

/// One image through the planned conv datapath. The input map is quantized
/// once, in one vectorized pass over its `C·H·W` elements, into
/// `scratch.qmap`; the conv then runs tiled over the patch space: per tile,
/// a patch-major slab of integer levels is unrolled from `qmap` straight
/// into the GEMM's activation tile and reduced by the packed integer GEMM
/// while still cache-resident — neither the whole-image `[K, patches]`
/// matrix nor an `f32` copy of the tile is ever materialized. Dense convs
/// run all rows per tile; depthwise convs run their group's single row,
/// every group unrolling from the one shared `qmap`. When `epilogue` is
/// given its post-ops are applied inside the GEMM write-back. With
/// `phases`, the quantize, im2col and GEMM (epilogue included) times
/// accumulate into its three slots.
///
/// Bit-identical to `QuantizedConv::try_forward_image` (which quantizes
/// after im2col) plus a separate epilogue pass: quantization is elementwise
/// and maps a padding `0.0` to level 0, so the unrolled levels equal the
/// quantized unrolled floats; integer accumulation per output element is
/// exact and complete per tile; and the epilogue is elementwise.
#[allow(clippy::too_many_arguments)]
fn conv_image_planned(
    plan: &GemmPlan,
    geom: &ConvGeometry,
    act: &ActQuantizer,
    image: &Tensor,
    out: &mut Tensor,
    scratch: &mut ConvScratch,
    epilogue: Option<&Epilogue>,
    phases: Option<&mut [u64; 3]>,
) -> OpCounts {
    let mut clock = PhaseClock::start(phases);
    let (oh, ow) = (out.dims()[1], out.dims()[2]);
    let patches = oh * ow;
    let kk = geom.gemm_k();
    let tile = conv_tile_patches(kk);
    let dims = [image.dims()[0], image.dims()[1], image.dims()[2]];
    act.quantize_into(image.as_slice(), &mut scratch.qmap);
    scratch.quantized.resize(tile.min(patches.max(1)) * kk, 0);
    clock.lap(PHASE_QUANTIZE);
    let mut ops = OpCounts::default();
    for g in 0..geom.groups {
        let mut p0 = 0;
        while p0 < patches {
            let count = tile.min(patches - p0);
            let tile_q = &mut scratch.quantized[..count * kk];
            im2col_patches_of(&scratch.qmap, dims, geom, g, p0, count, tile_q);
            clock.lap(PHASE_IM2COL);
            let tile_q = &scratch.quantized[..count * kk];
            ops = ops.merge(if geom.groups == 1 {
                plan.matmul_patches_into(
                    tile_q,
                    count,
                    act,
                    out.as_mut_slice(),
                    patches,
                    p0,
                    epilogue,
                )
            } else {
                plan.row_matmul_patches_into(
                    g,
                    tile_q,
                    count,
                    act,
                    &mut out.as_mut_slice()[g * patches + p0..g * patches + p0 + count],
                    epilogue,
                )
            });
            clock.lap(PHASE_GEMM);
            p0 += count;
        }
    }
    ops
}

/// One image through every plan step: load the input buffer, execute steps
/// over the arena's split borrows, copy the output buffer out. All layer
/// indices and shapes were validated before the fan-out, so this path is
/// infallible. With `clock`, each step's elapsed nanoseconds (and each conv
/// step's phase split) accumulate into the matching slots — the only
/// difference on the profiled path, so outputs stay bit-identical.
#[allow(clippy::too_many_arguments)]
fn run_plan_single(
    layers: &[QuantizedLayer],
    plan: &ExecutionPlan,
    gemm_plans: &[Option<&GemmPlan>],
    act: &ActQuantizer,
    image: &Tensor,
    out: &mut Tensor,
    arena: &mut BufferArena,
    scratch: &mut ConvScratch,
    mut clock: Option<&mut StepClocks>,
) -> OpCounts {
    arena
        .buffer_mut(plan.input_buffer(), image.dims())
        .as_mut_slice()
        .copy_from_slice(image.as_slice());
    let mut ops = OpCounts::default();
    for (si, step) in plan.steps().iter().enumerate() {
        let t0 = clock.is_some().then(std::time::Instant::now);
        match step.op {
            StepOp::Conv { layer } => {
                let conv = match &layers[layer].form {
                    DeployForm::Conv(c) => c,
                    DeployForm::Matrix(_) => unreachable!("validated before fan-out"),
                };
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                ops = ops.merge(conv_image_planned(
                    gemm_plans[layer].expect("resolved before fan-out"),
                    conv.geometry(),
                    conv.act_quantizer(),
                    src,
                    dst,
                    scratch,
                    None,
                    clock.as_deref_mut().map(|c| &mut c.phases[si]),
                ));
            }
            StepOp::Gemm { layer } => {
                let gemm = gemm_plans[layer].expect("resolved before fan-out");
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                act.quantize_into(src.as_slice(), &mut scratch.quantized);
                ops = ops.merge(gemm.matmul_patches_into(
                    &scratch.quantized,
                    1,
                    act,
                    dst.as_mut_slice(),
                    1,
                    0,
                    None,
                ));
            }
            StepOp::Pool(kind) => {
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                graph::pool_into(kind, src, dst);
            }
            StepOp::Activation(kind) => {
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                graph::activation_into(kind, src, dst);
            }
            StepOp::ResidualAdd => {
                let (a, b, dst) = arena.src2_dst(step.srcs[0], step.srcs[1], step.dst, &step.dims);
                graph::residual_add_into(a, b, dst);
            }
            StepOp::Flatten => {
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                graph::flatten_into(src, dst);
            }
            StepOp::Requantize => {
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                graph::requantize_into(act, src, dst);
            }
            StepOp::FusedConv { layer, epilogue } => {
                let conv = match &layers[layer].form {
                    DeployForm::Conv(c) => c,
                    DeployForm::Matrix(_) => unreachable!("validated before fan-out"),
                };
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                // The epilogue rides inside the GEMM write-back: each
                // output element is scaled and post-processed once, while
                // still register-resident.
                ops = ops.merge(conv_image_planned(
                    gemm_plans[layer].expect("resolved before fan-out"),
                    conv.geometry(),
                    conv.act_quantizer(),
                    src,
                    dst,
                    scratch,
                    Some(&epilogue),
                    clock.as_deref_mut().map(|c| &mut c.phases[si]),
                ));
            }
            StepOp::FusedGemm { layer, epilogue } => {
                // The source is read flat — it may hold an un-flattened
                // map whose `Flatten` copy the optimizer removed. The
                // epilogue is fused into the write-back.
                let gemm = gemm_plans[layer].expect("resolved before fan-out");
                let (src, dst) = arena.src_dst(step.srcs[0], step.dst, &step.dims);
                act.quantize_into(src.as_slice(), &mut scratch.quantized);
                ops = ops.merge(gemm.matmul_patches_into(
                    &scratch.quantized,
                    1,
                    act,
                    dst.as_mut_slice(),
                    1,
                    0,
                    Some(&epilogue),
                ));
            }
        }
        if let (Some(clock), Some(t0)) = (clock.as_deref_mut(), t0) {
            clock.steps[si] += t0.elapsed().as_nanos() as u64;
        }
    }
    out.as_mut_slice()
        .copy_from_slice(arena.buffer(plan.output_buffer()).as_slice());
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::QuantizedConv;
    use crate::msq::MsqPolicy;
    use crate::pipeline::QuantPipeline;
    use crate::schemes::Scheme;
    use mixmatch_nn::layers::{Conv2d, Linear};
    use mixmatch_nn::module::{Layer, Sequential};
    use mixmatch_tensor::TensorRng;

    /// A one-layer pipeline model around `layer`, with its plan compiled at
    /// `input`.
    fn single_layer(
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

    fn conv_model(
        seed: u64,
        geom: ConvGeometry,
        policy: MsqPolicy,
        input_hw: usize,
    ) -> CompiledModel {
        let mut rng = TensorRng::seed_from(seed);
        single_layer(
            Conv2d::with_geometry("conv", geom, false, &mut rng),
            policy,
            ActQuantizer::new(4, 1.2),
            &[geom.in_channels, input_hw, input_hw],
        )
    }

    fn conv_of(model: &QuantizedModel) -> &QuantizedConv {
        match &model.layers()[0].form {
            DeployForm::Conv(conv) => conv,
            DeployForm::Matrix(_) => panic!("a Conv2d deploys as a conv"),
        }
    }

    #[test]
    fn dense_conv_batch_is_bit_identical_to_single_path() {
        let compiled = conv_model(
            1,
            ConvGeometry::new(3, 6, 3, 1, 1),
            MsqPolicy::msq_optimal(),
            7,
        );
        let conv = conv_of(&compiled);
        let mut rng = TensorRng::seed_from(2);
        let images: Vec<Tensor> = (0..5)
            .map(|_| Tensor::rand_uniform(&[3, 7, 7], 0.0, 1.2, &mut rng))
            .collect();
        for threads in [1, 2, 4] {
            let engine = BatchEngine::with_threads(threads);
            let run = engine.run_plan_batch(&compiled, &images).expect("batch");
            for (img, out) in images.iter().zip(&run.outputs) {
                let single = conv.forward_image(img);
                assert_eq!(out.dims(), single.dims());
                assert_eq!(out.as_slice(), single.as_slice(), "threads {threads}");
            }
        }
    }

    #[test]
    fn depthwise_conv_batch_is_bit_identical_to_single_path() {
        let compiled = conv_model(
            3,
            ConvGeometry::depthwise(4, 3, 1, 1),
            MsqPolicy::single(Scheme::Sp2, 4),
            6,
        );
        let conv = conv_of(&compiled);
        let mut rng = TensorRng::seed_from(4);
        let images: Vec<Tensor> = (0..4)
            .map(|_| Tensor::rand_uniform(&[4, 6, 6], 0.0, 1.2, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(2);
        let run = engine.run_plan_batch(&compiled, &images).expect("batch");
        for (img, out) in images.iter().zip(&run.outputs) {
            assert_eq!(out.as_slice(), conv.forward_image(img).as_slice());
        }
    }

    #[test]
    fn batch_ops_equal_sum_of_single_image_ops() {
        let geom = ConvGeometry::new(2, 4, 3, 1, 0);
        let compiled = conv_model(5, geom, MsqPolicy::msq_half(), 5);
        let conv = conv_of(&compiled);
        let mut rng = TensorRng::seed_from(6);
        let images: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[2, 5, 5], 0.0, 1.2, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(2);
        let run = engine.run_plan_batch(&compiled, &images).expect("batch");
        // Reference accounting through the interpreted kernels.
        let act = *conv.act_quantizer();
        let mut expect = OpCounts::default();
        for img in &images {
            let cols = mixmatch_tensor::im2col::im2col(img, &geom, 0);
            let xq = act.quantize(cols.as_slice());
            let (_, ops) = conv.matrix().matmul(&xq, cols.dims()[1], &act);
            expect = expect.merge(ops);
        }
        assert_eq!(run.ops, expect);
    }

    #[test]
    fn matrix_batch_is_bit_identical_to_matvec() {
        let mut rng = TensorRng::seed_from(7);
        let act = ActQuantizer::new(4, 1.0);
        let compiled = single_layer(
            Linear::with_name("fc", 11, 6, false, &mut rng),
            MsqPolicy::msq_optimal(),
            act,
            &[11],
        );
        let qm = compiled.layers()[0].matrix();
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::rand_uniform(&[11], 0.0, 1.0, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(3);
        let run = engine.run_plan_batch(&compiled, &inputs).expect("batch");
        let mut expect_ops = OpCounts::default();
        for (x, out) in inputs.iter().zip(&run.outputs) {
            let (y, ops) = qm.matvec(&act.quantize(x.as_slice()), &act);
            expect_ops = expect_ops.merge(ops);
            assert_eq!(out.as_slice(), &y[..]);
        }
        assert_eq!(run.ops, expect_ops);
    }

    #[test]
    fn engine_rejects_malformed_inputs_without_panicking() {
        let compiled = conv_model(
            9,
            ConvGeometry::new(3, 4, 3, 1, 1),
            MsqPolicy::msq_half(),
            5,
        );
        let engine = BatchEngine::with_threads(1);
        let bad = vec![Tensor::zeros(&[2, 5, 5])];
        assert!(matches!(
            engine.run_plan_batch(&compiled, &bad),
            Err(QuantError::ShapeMismatch { .. })
        ));
        let mut rng = TensorRng::seed_from(10);
        let dense = single_layer(
            Linear::with_name("fc", 8, 3, false, &mut rng),
            MsqPolicy::msq_half(),
            ActQuantizer::new(4, 1.0),
            &[8],
        );
        assert!(matches!(
            engine.run_plan_batch(&dense, &[Tensor::zeros(&[7])]),
            Err(QuantError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn empty_batch_yields_empty_run() {
        let compiled = conv_model(
            11,
            ConvGeometry::new(2, 2, 3, 1, 1),
            MsqPolicy::msq_half(),
            4,
        );
        let engine = BatchEngine::with_threads(2);
        let run = engine.run_plan_batch(&compiled, &[]).expect("empty");
        assert!(run.outputs.is_empty());
        assert_eq!(run.ops, OpCounts::default());
    }

    #[test]
    fn gemm_plans_are_built_once_per_model() {
        let compiled = conv_model(
            13,
            ConvGeometry::new(3, 5, 3, 1, 1),
            MsqPolicy::msq_half(),
            6,
        );
        let plan = compiled.plan().expect("plan");
        let mut rng = TensorRng::seed_from(14);
        let images: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[3, 6, 6], 0.0, 1.2, &mut rng))
            .collect();
        let engine = BatchEngine::with_threads(2);
        let first = engine.run_plan(&compiled, plan, &images).expect("first");
        let cached: *const GemmPlan = compiled.gemm_plan(0).expect("cached plan");
        let second = engine.run_plan(&compiled, plan, &images).expect("second");
        assert_eq!(first.outputs.len(), second.outputs.len());
        for (a, b) in first.outputs.iter().zip(&second.outputs) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
        // Every call executes the model's cached plan, not a rebuilt one;
        // an empty batch resolves the same plan and builds nothing new.
        let resolved = validate(&compiled, plan, &images).expect("valid");
        assert!(std::ptr::eq(resolved[0].expect("conv layer"), cached));
        let empty = engine.run_plan(&compiled, plan, &[]).expect("empty");
        assert!(empty.outputs.is_empty());
        let resolved = validate(&compiled, plan, &[]).expect("valid");
        assert!(std::ptr::eq(resolved[0].expect("conv layer"), cached));
        assert!(std::ptr::eq(compiled.gemm_plan(0).expect("cached"), cached));
    }

    #[test]
    fn run_plan_batch_handles_batch_sizes_zero_and_one() {
        use mixmatch_nn::layers::Relu;

        let mut rng = TensorRng::seed_from(12);
        let mut model = Sequential::new();
        model.push(Linear::with_name("fc1", 6, 9, true, &mut rng));
        model.push(Relu::new());
        model.push(Linear::with_name("fc2", 9, 4, false, &mut rng));
        let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
            .with_input_shape(&[6])
            .quantize(&mut model)
            .expect("quantize mlp");

        for threads in [1, 2] {
            let engine = BatchEngine::with_threads(threads);
            // Batch 0: empty result, zero ops (no error, no panic).
            let run = engine.run_plan_batch(&compiled, &[]).expect("empty batch");
            assert!(run.outputs.is_empty());
            assert_eq!(run.ops, OpCounts::default());

            // Batch 1: one output, bit-identical to the same image run in
            // a larger batch.
            let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
            let one = engine
                .run_plan_batch(&compiled, std::slice::from_ref(&image))
                .expect("batch of one");
            assert_eq!(one.outputs.len(), 1);
            assert_eq!(one.outputs[0].dims(), &[4]);
            let pair = engine
                .run_plan_batch(&compiled, &[image.clone(), image.clone()])
                .expect("batch of two");
            assert_eq!(pair.outputs[0].as_slice(), one.outputs[0].as_slice());
            assert_eq!(pair.outputs[1].as_slice(), one.outputs[0].as_slice());
        }
    }
}
