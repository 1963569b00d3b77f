//! [`ModelServer`]: the async serving front end over compiled models.
//!
//! ```text
//! callers ── infer(name, image) ──▶ bounded queue ──▶ batcher thread
//!    ▲                              (admission:        │ block for one, drain
//!    │                               Overloaded        │ what is queued
//!    └── Pending::wait ◀── reply ◀── when full)        ▼ (≤ max_batch)
//!                                              BatchEngine::run_plan_batch
//!                                              (WorkerPool::global())
//! ```
//!
//! One batcher thread owns the queue and is work-conserving: it blocks for
//! the first request, drains whatever is already queued (up to
//! `max_batch`) without waiting for more, groups the batch by model, and
//! drives each group through `BatchEngine::run_plan_batch`. Requests that
//! arrive while a batch runs form the next one, so batches grow with load
//! and a lone request is never held. Every request carries its own reply
//! channel plus a server-unique id, so responses can never cross callers;
//! correctness is pinned by `tests/serving.rs` (bit-identical to
//! `run_plan` on the caller's own input, under concurrent load).

use crate::error::ServeError;
use crate::metrics::{ModelMetrics, ModelStats};
use mixmatch_quant::engine::BatchEngine;
use mixmatch_quant::error::QuantError;
use mixmatch_quant::export::import_compiled;
use mixmatch_quant::pipeline::CompiledModel;
use mixmatch_tensor::Tensor;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// The registry shares `CompiledModel`s across the batcher and every caller;
// this compiles only because `HardwareTarget: Send + Sync`.
const _: fn() = || {
    fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<CompiledModel>();
};

/// Serving knobs. The batcher never waits to fill a batch, so there is no
/// latency knob: `max_batch` caps how much of a backlog one engine call
/// takes, and `queue_depth` bounds the acceptable overload backlog.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Largest batch handed to the engine (≥ 1).
    pub max_batch: usize,
    /// Bounded admission-queue depth; a full queue rejects with
    /// [`ServeError::Overloaded`] instead of growing the backlog.
    pub queue_depth: usize,
    /// Worker threads for a private engine pool, or `None` for the shared
    /// process-wide `WorkerPool::global()` (the default — never a second
    /// per-core thread set).
    pub threads: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            queue_depth: 256,
            threads: None,
        }
    }
}

impl ServeConfig {
    /// Sets the largest engine batch (clamped to ≥ 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Does nothing: the batcher no longer holds a batch open waiting for
    /// more requests, so there is no coalesce window to set. Kept so
    /// existing callers compile.
    #[deprecated(note = "the coalesce window is gone: the batcher runs whatever is queued at once")]
    pub fn with_max_wait(self, _max_wait: Duration) -> Self {
        self
    }

    /// Sets the bounded admission-queue depth (clamped to ≥ 1).
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth.max(1);
        self
    }

    /// Pins a private engine pool with `threads` workers (tests and
    /// pinned-parallelism runs).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }
}

/// One registry slot: the hot-swappable artifact plus the name's counters.
/// Requests resolve the entry at admission, then read the `Arc` at batch
/// time — a swap lands on the next batch boundary without disturbing
/// requests already grouped against the old weights.
struct ModelEntry {
    compiled: RwLock<Arc<CompiledModel>>,
    metrics: ModelMetrics,
}

/// One admitted request, queued for the batcher.
struct Request {
    id: u64,
    entry: Arc<ModelEntry>,
    image: Tensor,
    admitted: Instant,
    reply: mpsc::Sender<Reply>,
}

/// A request minus its payload: what the batcher needs to route and meter
/// the reply after the image has been moved into the engine batch.
struct RequestMeta {
    id: u64,
    admitted: Instant,
    reply: mpsc::Sender<Reply>,
}

impl Request {
    /// Splits the owned payload from the routing metadata.
    fn into_parts(self) -> (Tensor, RequestMeta) {
        (
            self.image,
            RequestMeta {
                id: self.id,
                admitted: self.admitted,
                reply: self.reply,
            },
        )
    }
}

/// The batcher's answer, routed back on the request's own channel.
struct Reply {
    id: u64,
    result: Result<Tensor, ServeError>,
}

/// Handle to one in-flight request. `infer` returns immediately; the
/// caller joins the result here (or polls with [`Pending::try_wait`]).
#[derive(Debug)]
pub struct Pending {
    id: u64,
    rx: mpsc::Receiver<Reply>,
}

impl Pending {
    /// The server-unique request id (what the reply is routed by).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::Inference`] when the engine rejected the request,
    /// [`ServeError::Dropped`] when the server was torn down first.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        match self.rx.recv() {
            Ok(reply) => {
                debug_assert_eq!(reply.id, self.id, "reply routed to the wrong caller");
                reply.result
            }
            Err(_) => Err(ServeError::Dropped),
        }
    }

    /// Blocks until the response arrives or `timeout` elapses — the guard
    /// against a replica dying mid-batch with the caller parked forever.
    /// Consumes the handle either way; a reply that arrives after the
    /// timeout lands in a closed channel and is discarded.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] when the deadline passes first, plus
    /// everything [`Pending::wait`] can return.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Tensor, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => {
                debug_assert_eq!(reply.id, self.id, "reply routed to the wrong caller");
                reply.result
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::Timeout { waited: timeout }),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Dropped),
        }
    }

    /// Non-blocking poll: `None` while the request is still in flight.
    pub fn try_wait(&mut self) -> Option<Result<Tensor, ServeError>> {
        match self.rx.try_recv() {
            Ok(reply) => {
                debug_assert_eq!(reply.id, self.id, "reply routed to the wrong caller");
                Some(reply.result)
            }
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Dropped)),
        }
    }
}

/// Asynchronous model server: a registry of named [`CompiledModel`]s
/// served through a work-conserving batcher. See the module docs for the
/// dataflow.
pub struct ModelServer {
    config: ServeConfig,
    registry: Mutex<HashMap<String, Arc<ModelEntry>>>,
    /// Admission side of the bounded queue; `None` once shutdown started.
    queue: Mutex<Option<SyncSender<Request>>>,
    batcher: Mutex<Option<JoinHandle<()>>>,
    next_id: AtomicU64,
}

impl ModelServer {
    /// Starts a server (and its batcher thread) with the given knobs.
    pub fn start(config: ServeConfig) -> Self {
        let config = ServeConfig {
            max_batch: config.max_batch.max(1),
            queue_depth: config.queue_depth.max(1),
            ..config
        };
        let (tx, rx) = mpsc::sync_channel(config.queue_depth);
        let engine = match config.threads {
            Some(threads) => BatchEngine::with_threads(threads),
            None => BatchEngine::new(),
        };
        let max_batch = config.max_batch;
        let batcher = std::thread::Builder::new()
            .name("mixmatch-serve-batcher".into())
            .spawn(move || batcher_loop(&rx, &engine, max_batch))
            .expect("spawn batcher thread");
        ModelServer {
            config,
            registry: Mutex::new(HashMap::new()),
            queue: Mutex::new(Some(tx)),
            batcher: Mutex::new(Some(batcher)),
            next_id: AtomicU64::new(0),
        }
    }

    /// Starts a server with [`ServeConfig::default`].
    pub fn with_defaults() -> Self {
        Self::start(ServeConfig::default())
    }

    /// The knobs this server runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Registers `compiled` under `name`, hot-swapping atomically if the
    /// name is already serving: requests admitted before the swap finish on
    /// the old weights, every later batch reads the new `Arc`. Counters for
    /// the name persist across swaps.
    ///
    /// # Errors
    ///
    /// [`ServeError::Inference`] ([`QuantError::NoLoweredGraph`]) when the
    /// artifact carries no execution plan — the batcher only runs plans.
    ///
    /// [`ServeError::Verification`] when the plan fails the static
    /// verifier against the model's layer table — the server never
    /// registers a model the engine could fault on mid-batch.
    pub fn load(&self, name: &str, compiled: CompiledModel) -> Result<(), ServeError> {
        let plan = compiled.require_plan()?;
        let report = mixmatch_quant::verify::verify(plan, &compiled.layer_descs());
        if !report.is_clean() {
            return Err(ServeError::Verification {
                report: report.to_string(),
            });
        }
        let compiled = Arc::new(compiled);
        let mut registry = self.registry.lock().expect("registry poisoned");
        match registry.get(name) {
            Some(entry) => {
                *entry.compiled.write().expect("entry poisoned") = compiled;
            }
            None => {
                registry.insert(
                    name.to_string(),
                    Arc::new(ModelEntry {
                        compiled: RwLock::new(compiled),
                        metrics: ModelMetrics::for_model(name),
                    }),
                );
            }
        }
        Ok(())
    }

    /// Restores a serialized `MMCM` artifact (`export_compiled` bytes) and
    /// registers it under `name` — the deployment path: artifacts come off
    /// the wire or disk, never a live pipeline.
    ///
    /// # Errors
    ///
    /// [`ServeError::Inference`] ([`QuantError::Artifact`]) on a malformed
    /// artifact, [`ServeError::Verification`] when the bytes parse but the
    /// decoded plan fails static verification, plus everything
    /// [`ModelServer::load`] rejects.
    pub fn load_artifact(&self, name: &str, bytes: &[u8]) -> Result<(), ServeError> {
        self.load(name, import_compiled(bytes)?)
    }

    /// Removes `name` from the registry. In-flight requests resolved
    /// against the entry still complete. Returns whether the name was
    /// registered.
    pub fn unload(&self, name: &str) -> bool {
        self.registry
            .lock()
            .expect("registry poisoned")
            .remove(name)
            .is_some()
    }

    /// Whether a model is registered under `name` — a registry lookup,
    /// no counter snapshot.
    pub(crate) fn serves(&self, name: &str) -> bool {
        self.registry
            .lock()
            .expect("registry poisoned")
            .contains_key(name)
    }

    /// Registered model names (unordered).
    pub fn models(&self) -> Vec<String> {
        self.registry
            .lock()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Submits one image for inference against `model`, without blocking on
    /// the result. Admission control runs here: an unknown name or a full
    /// queue fails synchronously and typed.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::Overloaded`],
    /// [`ServeError::ShuttingDown`].
    pub fn infer(&self, model: &str, image: Tensor) -> Result<Pending, ServeError> {
        self.infer_reclaim(model, image).map_err(|(e, _)| e)
    }

    /// [`ModelServer::infer`] that hands the image back on admission
    /// failure — what a fleet router needs to re-place a request on
    /// another replica without cloning every payload up front.
    ///
    /// # Errors
    ///
    /// The same errors as [`ModelServer::infer`], paired with the
    /// unconsumed image.
    pub fn infer_reclaim(
        &self,
        model: &str,
        image: Tensor,
    ) -> Result<Pending, (ServeError, Tensor)> {
        let entry = match self
            .registry
            .lock()
            .expect("registry poisoned")
            .get(model)
            .cloned()
        {
            Some(entry) => entry,
            None => {
                return Err((
                    ServeError::UnknownModel {
                        model: model.to_string(),
                    },
                    image,
                ))
            }
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = mpsc::channel();
        // Raise the gauge before enqueueing: the batcher's decrement in
        // `respond` must never observe a count this admission hasn't
        // contributed yet.
        entry.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        let request = Request {
            id,
            entry: Arc::clone(&entry),
            image,
            admitted: Instant::now(),
            reply: reply_tx,
        };
        let queue = self.queue.lock().expect("queue poisoned");
        let tx = match queue.as_ref() {
            Some(tx) => tx,
            None => {
                entry.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
                return Err((ServeError::ShuttingDown, request.image));
            }
        };
        match tx.try_send(request) {
            Ok(()) => Ok(Pending { id, rx: reply_rx }),
            Err(TrySendError::Full(request)) => {
                entry.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
                entry.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                Err((
                    ServeError::Overloaded {
                        queue_depth: self.config.queue_depth,
                    },
                    request.image,
                ))
            }
            Err(TrySendError::Disconnected(request)) => {
                entry.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
                Err((ServeError::ShuttingDown, request.image))
            }
        }
    }

    /// Total requests admitted but not yet answered, across every
    /// registered model — the live load signal a fleet router combines
    /// with per-device latency predictions.
    pub fn queue_len(&self) -> u64 {
        self.registry
            .lock()
            .expect("registry poisoned")
            .values()
            .map(|e| e.metrics.in_flight.load(Ordering::Relaxed))
            .sum()
    }

    /// [`ModelServer::infer`] + [`Pending::wait`] in one call.
    ///
    /// # Errors
    ///
    /// Everything either half can return.
    pub fn infer_blocking(&self, model: &str, image: Tensor) -> Result<Tensor, ServeError> {
        self.infer(model, image)?.wait()
    }

    /// Counters for one model name.
    pub fn stats(&self, model: &str) -> Option<ModelStats> {
        self.registry
            .lock()
            .expect("registry poisoned")
            .get(model)
            .map(|e| e.metrics.snapshot(model))
    }

    /// Counters for every registered model (unordered).
    pub fn all_stats(&self) -> Vec<ModelStats> {
        self.registry
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, e)| e.metrics.snapshot(name))
            .collect()
    }

    /// Test seam: runs `f` while holding `model`'s weights write-locked, so
    /// the batcher parks at its next batch boundary for that model (the
    /// `entry.compiled.read()` in `execute_batch`). Requests admitted
    /// meanwhile stay queued; the batch boundary resumes when `f` returns.
    /// Never call [`ModelServer::shutdown`] inside `f`: it joins the parked
    /// batcher.
    #[cfg(test)]
    pub(crate) fn with_batches_parked<R>(&self, model: &str, f: impl FnOnce() -> R) -> R {
        let entry = self
            .registry
            .lock()
            .expect("registry poisoned")
            .get(model)
            .cloned()
            .expect("model registered");
        let _held = entry.compiled.write().expect("entry poisoned");
        f()
    }

    /// Stops admission, drains every already-admitted request, and joins
    /// the batcher. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        // Dropping the sender ends the batcher's queue: it finishes the
        // buffered requests, then its blocking receive disconnects.
        drop(self.queue.lock().expect("queue poisoned").take());
        if let Some(handle) = self.batcher.lock().expect("batcher poisoned").take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ModelServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The batcher thread: block for one request, drain what is already
/// queued behind it, execute, repeat until the queue disconnects
/// (shutdown) and is fully drained.
fn batcher_loop(rx: &Receiver<Request>, engine: &BatchEngine, max_batch: usize) {
    while let Ok(first) = rx.recv() {
        let opened = Instant::now();
        let batch = drain_queued(rx, first, max_batch);
        // The `coalesce` stage times this drain (≈0: nothing waits for
        // more requests) and attributes it to every member of the batch.
        execute_batch(engine, batch, opened.elapsed());
    }
}

/// The batch that starts with `first`: it takes whatever is already
/// queued, up to `max_batch` items in all, and never waits for more.
/// Items that arrive while the batch runs form the next one. A
/// disconnected channel yields what was buffered before it closed.
fn drain_queued<T>(rx: &Receiver<T>, first: T, max_batch: usize) -> Vec<T> {
    std::iter::once(first)
        .chain(rx.try_iter().take(max_batch.saturating_sub(1)))
        .collect()
}

/// Executes one drained batch: group by model entry (arrival order
/// preserved within a group), pre-validate each image against the plan so
/// one malformed request answers alone instead of poisoning its neighbors,
/// then run each group through the engine and route every output back by
/// id.
fn execute_batch(engine: &BatchEngine, batch: Vec<Request>, batch_wait: Duration) {
    // Group while preserving order; a serving batch holds few distinct
    // models, so a linear scan beats hashing the Arcs.
    let mut groups: Vec<(Arc<ModelEntry>, Vec<Request>)> = Vec::new();
    for request in batch {
        match groups
            .iter_mut()
            .find(|(entry, _)| Arc::ptr_eq(entry, &request.entry))
        {
            Some((_, members)) => members.push(request),
            None => groups.push((Arc::clone(&request.entry), vec![request])),
        }
    }
    for (entry, members) in groups {
        // The hot-swap point: one atomic Arc read per group.
        let compiled = Arc::clone(&entry.compiled.read().expect("entry poisoned"));
        let plan_dims = match compiled.require_plan() {
            Ok(plan) => plan.input_dims().to_vec(),
            // Unreachable through `load`, but a typed answer beats a panic.
            Err(e) => {
                for request in members {
                    respond(
                        &entry,
                        request.into_parts().1,
                        Err(ServeError::Inference(e.clone())),
                    );
                }
                continue;
            }
        };
        let (valid, invalid): (Vec<Request>, Vec<Request>) = members
            .into_iter()
            .partition(|r| r.image.dims() == plan_dims);
        for request in invalid {
            let got = request.image.dims().to_vec();
            respond(
                &entry,
                request.into_parts().1,
                Err(ServeError::Inference(QuantError::ShapeMismatch {
                    context: "serving request disagrees with the model's plan".into(),
                    expected: plan_dims.clone(),
                    got,
                })),
            );
        }
        if valid.is_empty() {
            continue;
        }
        // Move the images out of the requests — the batch is owned here, so
        // the engine reads the caller's buffers with zero payload copies.
        let (images, metas): (Vec<Tensor>, Vec<RequestMeta>) =
            valid.into_iter().map(Request::into_parts).unzip();
        entry.metrics.batches.fetch_add(1, Ordering::Relaxed);
        entry
            .metrics
            .batched_images
            .fetch_add(images.len() as u64, Ordering::Relaxed);
        // Lifecycle stages: how long each member sat admitted before its
        // batch started, the batch's drain time, and the engine wall time.
        let exec_start = Instant::now();
        for meta in &metas {
            entry
                .metrics
                .queue_wait
                .record(exec_start.saturating_duration_since(meta.admitted));
            entry.metrics.coalesce.record(batch_wait);
        }
        let span = mixmatch_obs::trace::span("serve", "execute_batch");
        let outcome = engine.run_plan_batch(&compiled, &images);
        drop(span);
        let exec_elapsed = exec_start.elapsed();
        for _ in &metas {
            entry.metrics.execute.record(exec_elapsed);
        }
        match outcome {
            Ok(run) => {
                for (meta, output) in metas.into_iter().zip(run.outputs) {
                    respond(&entry, meta, Ok(output));
                }
            }
            Err(e) => {
                for meta in metas {
                    respond(&entry, meta, Err(ServeError::Inference(e.clone())));
                }
            }
        }
    }
}

/// Routes one result back to its caller and settles the name's counters.
/// A caller that dropped its [`Pending`] just discards the send.
fn respond(entry: &ModelEntry, meta: RequestMeta, result: Result<Tensor, ServeError>) {
    entry.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    match &result {
        Ok(_) => {
            entry.metrics.latency.record(meta.admitted.elapsed());
            entry.metrics.completed.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => {
            entry.metrics.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    let _ = meta.reply.send(Reply {
        id: meta.id,
        result,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixmatch_quant::msq::MsqPolicy;
    use mixmatch_quant::pipeline::QuantPipeline;
    use mixmatch_tensor::TensorRng;

    /// A tiny quantized MLP ([6] → [3]) with a compiled plan.
    fn mlp_model(seed: u64) -> CompiledModel {
        let mut rng = TensorRng::seed_from(seed);
        let mut model = mixmatch_nn::module::Sequential::new();
        model.push(mixmatch_nn::layers::Linear::with_name(
            "fc1", 6, 8, true, &mut rng,
        ));
        model.push(mixmatch_nn::layers::Relu::new());
        model.push(mixmatch_nn::layers::Linear::with_name(
            "fc2", 8, 3, false, &mut rng,
        ));
        QuantPipeline::from_policy(MsqPolicy::msq_half())
            .with_input_shape(&[6])
            .quantize(&mut model)
            .expect("quantize fixture")
    }

    #[test]
    fn infer_round_trips_through_the_batcher() {
        let server = ModelServer::start(ServeConfig::default().with_threads(1));
        // Stage histograms live in the process-global registry keyed by model
        // name, so this test needs a name no other test in the binary loads.
        server.load("mlp-roundtrip", mlp_model(1)).expect("load");
        let mut rng = TensorRng::seed_from(2);
        let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
        let out = server
            .infer_blocking("mlp-roundtrip", image)
            .expect("infer");
        assert_eq!(out.dims(), &[3]);
        let stats = server.stats("mlp-roundtrip").expect("stats");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.batches, 1);
        assert!(stats.p50 > Duration::ZERO);
        // Lifecycle stages were stamped exactly once for the one request.
        for stage in ["queue", "coalesce", "execute"] {
            assert_eq!(stats.stage(stage).expect("stage present").count, 1);
        }
    }

    #[test]
    fn unknown_model_and_shutdown_are_typed() {
        let server = ModelServer::with_defaults();
        let err = server.infer("ghost", Tensor::zeros(&[6])).unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel { .. }));
        server.load("mlp", mlp_model(3)).expect("load");
        server.shutdown();
        let err = server.infer("mlp", Tensor::zeros(&[6])).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
    }

    #[test]
    fn malformed_request_fails_alone() {
        let server = ModelServer::start(ServeConfig::default().with_threads(1));
        server.load("mlp", mlp_model(4)).expect("load");
        let mut rng = TensorRng::seed_from(5);
        let good_img = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
        let good = server.infer("mlp", good_img).expect("admit good");
        let bad = server.infer("mlp", Tensor::zeros(&[5])).expect("admit bad");
        assert!(matches!(
            bad.wait(),
            Err(ServeError::Inference(QuantError::ShapeMismatch { .. }))
        ));
        assert_eq!(good.wait().expect("good survives").dims(), &[3]);
        let stats = server.stats("mlp").expect("stats");
        assert_eq!((stats.completed, stats.failed), (1, 1));
    }

    #[test]
    fn plan_free_model_is_rejected_at_load() {
        let compiled = mlp_model(6);
        let plan_free = CompiledModel::from_parts(compiled.into_model(), None);
        let server = ModelServer::with_defaults();
        assert!(matches!(
            server.load("mlp", plan_free),
            Err(ServeError::Inference(QuantError::NoLoweredGraph))
        ));
        assert!(server.models().is_empty());
    }

    #[test]
    fn wait_timeout_fails_typed_while_the_batch_is_held_open() {
        // The seam parks the batcher on the request's batch: the caller's
        // timeout must fire first, typed.
        let server = ModelServer::start(ServeConfig::default().with_threads(1));
        server.load("mlp", mlp_model(8)).expect("load");
        let mut rng = TensorRng::seed_from(9);
        let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
        server.with_batches_parked("mlp", || {
            let pending = server.infer("mlp", image).expect("admit");
            assert_eq!(server.queue_len(), 1, "admitted request raises the gauge");
            assert_eq!(server.stats("mlp").expect("stats").queue_depth, 1);
            let err = pending
                .wait_timeout(Duration::from_millis(20))
                .expect_err("deadline fires first");
            assert!(matches!(err, ServeError::Timeout { .. }));
        });
        // Released, the parked batch runs; the late reply is discarded and
        // the gauge settles back to zero.
        server.shutdown();
        assert_eq!(server.queue_len(), 0);
    }

    /// Single-image `run_plan` results on a one-thread engine: the bit-exact
    /// reference for served replies.
    fn references(compiled: &CompiledModel, images: &[Tensor]) -> Vec<Tensor> {
        let engine = BatchEngine::with_threads(1);
        images
            .iter()
            .map(|image| {
                engine
                    .run_plan_batch(compiled, std::slice::from_ref(image))
                    .expect("reference run")
                    .outputs
                    .remove(0)
            })
            .collect()
    }

    #[test]
    fn a_lone_request_is_not_held() {
        // A window this long would fail the bound below if it still applied.
        #[allow(deprecated)]
        let config = ServeConfig::default()
            .with_max_wait(Duration::from_secs(5))
            .with_threads(1);
        let server = ModelServer::start(config);
        let compiled = mlp_model(11);
        let mut rng = TensorRng::seed_from(12);
        let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
        let expected = references(&compiled, std::slice::from_ref(&image)).remove(0);
        server.load("mlp", compiled).expect("load");
        let start = Instant::now();
        let out = server.infer_blocking("mlp", image).expect("infer");
        let waited = start.elapsed();
        assert_eq!(out.as_slice(), expected.as_slice());
        assert!(
            waited < Duration::from_secs(1),
            "a lone request was held {waited:?}"
        );
    }

    #[test]
    fn a_backlog_still_batches_bit_exactly() {
        let server = ModelServer::start(ServeConfig::default().with_max_batch(4).with_threads(1));
        let compiled = mlp_model(13);
        let mut rng = TensorRng::seed_from(14);
        let images: Vec<Tensor> = (0..10)
            .map(|_| Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng))
            .collect();
        let expected = references(&compiled, &images);
        server.load("mlp-backlog", compiled).expect("load");
        // Parked, the batcher has taken at most its first batch; the rest
        // queue up behind it.
        let pending: Vec<Pending> = server.with_batches_parked("mlp-backlog", || {
            images
                .iter()
                .map(|image| server.infer("mlp-backlog", image.clone()).expect("admit"))
                .collect()
        });
        for (pending, expected) in pending.into_iter().zip(&expected) {
            let out = pending.wait().expect("inference");
            assert_eq!(out.as_slice(), expected.as_slice());
        }
        // 4+4+2, or 1+4+4+1 when the first request was taken alone before
        // the batcher parked.
        let stats = server.stats("mlp-backlog").expect("stats");
        assert_eq!(stats.completed, 10);
        assert!(
            stats.batches <= 4,
            "{} batches for 10 images",
            stats.batches
        );
        assert!(stats.mean_batch >= 2.5, "mean batch {}", stats.mean_batch);
    }

    #[test]
    fn drain_fills_to_max_batch_from_a_hot_queue() {
        let (tx, rx) = mpsc::channel();
        for i in 1..10 {
            tx.send(i).unwrap();
        }
        assert_eq!(drain_queued(&rx, 0, 4), vec![0, 1, 2, 3]);
        // The rest (5 queued + the blocking receive) form the next batch.
        let first = rx.recv().unwrap();
        assert_eq!(drain_queued(&rx, first, 16), vec![4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn drain_with_max_batch_one_takes_nothing_queued() {
        let (tx, rx) = mpsc::channel();
        tx.send(8).unwrap();
        assert_eq!(drain_queued(&rx, 7, 1), vec![7]);
        assert_eq!(rx.try_recv(), Ok(8));
    }

    #[test]
    fn drain_after_disconnect_returns_the_partial_batch() {
        let (tx, rx) = mpsc::channel();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(drain_queued(&rx, 0, 8), vec![0, 1]);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn infer_reclaim_returns_the_image_on_admission_failure() {
        let server = ModelServer::with_defaults();
        let image = Tensor::zeros(&[6]);
        let (err, image) = server.infer_reclaim("ghost", image).unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel { .. }));
        assert_eq!(image.dims(), &[6]);
        server.load("mlp", mlp_model(10)).expect("load");
        server.shutdown();
        let (err, image) = server.infer_reclaim("mlp", image).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        assert_eq!(image.dims(), &[6]);
    }

    #[test]
    fn unload_and_models_reflect_the_registry() {
        let server = ModelServer::with_defaults();
        server.load("a", mlp_model(7)).expect("load");
        assert_eq!(server.models(), vec!["a".to_string()]);
        assert!(server.unload("a"));
        assert!(!server.unload("a"));
        assert!(server.stats("a").is_none());
    }
}
