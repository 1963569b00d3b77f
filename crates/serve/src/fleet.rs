//! [`FleetServer`]: N serving replicas over heterogeneous simulated FPGA
//! devices, behind one cost-and-load-aware router.
//!
//! ```text
//! callers ── infer(name, image) ──▶ router::place(cost_us × (queue_depth + 1))
//!    ▲    (placed on the caller's     │ probe?         │ best healthy    │ failover
//!    │     own thread, on arrival)    ▼                ▼                 ▼
//!    │                           replica 0        replica 1   …     replica N-1
//!    │                          (ModelServer     (ModelServer       (evicted —
//!    │                           on 7Z045)        on ZU5CG)          skipped)
//!    └──── FleetPending::wait ◀─ per-replica work-conserving batcher + engine
//! ```
//!
//! Each replica is a full [`ModelServer`] bound to its own
//! [`HardwareTarget`] (a device from the `FpgaDevice` catalog, typically):
//! the target prices the served plan through the cycle simulator once per
//! load. The fleet has no queue, thread or batching stage of its own:
//! [`FleetServer::infer`] places each request as it arrives, on the
//! replica with the lowest estimated completion time — predicted
//! per-image device latency times (live queue depth + 1) — and batching
//! happens once, in that replica's [`ModelServer`], which holds no batch
//! open: a request is batched only with what already queued there. Replica failures trip a
//! per-replica circuit breaker ([`crate::health`]): consecutive failures
//! evict, a timed half-open probe re-admits. Loading an artifact rolls it
//! across the fleet replica by replica; in-flight requests finish on the
//! weights they were admitted under (each replica's swap lands on its next
//! batch boundary), so a fleet-wide hot-swap drops nothing.

use crate::error::ServeError;
use crate::health::{Health, HealthPolicy, HealthSnapshot};
use crate::metrics::{stage_histogram, LatencyHistogram, ModelStats};
use crate::router;
use crate::server::{ModelServer, Pending, ServeConfig};
use mixmatch_quant::export::import_compiled;
use mixmatch_quant::pipeline::HardwareTarget;
use mixmatch_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Per-image cost assumed for a replica whose target cannot price the
/// model (µs) — keeps the router total-ordered instead of special-casing.
const DEFAULT_COST_US: f64 = 1_000.0;

/// One replica to be enrolled in a fleet: a display label plus the
/// hardware target that prices plans for the router.
pub struct ReplicaSpec {
    label: String,
    target: Box<dyn HardwareTarget>,
}

impl ReplicaSpec {
    /// A replica named `label` bound to `target`. The target is prepared
    /// once at enrollment (a bare `FpgaDevice` runs its design-space
    /// exploration here, not per request).
    pub fn new(label: impl Into<String>, target: impl HardwareTarget + 'static) -> Self {
        ReplicaSpec {
            label: label.into(),
            target: target.into_prepared(),
        }
    }
}

/// Fleet-level knobs. The fleet batches nothing itself: every batching
/// knob (engine batch size, queue depth, worker threads) belongs to each
/// replica's [`ModelServer`] and rides in [`FleetConfig::replica`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Knobs for each replica's own [`ModelServer`].
    pub replica: ServeConfig,
    /// Eviction/re-admission policy for every replica.
    pub health: HealthPolicy,
    /// How long a blocking caller (and the wire front end) waits for a
    /// reply before failing with [`ServeError::Timeout`].
    pub reply_timeout: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replica: ServeConfig::default(),
            health: HealthPolicy::default(),
            reply_timeout: Duration::from_secs(30),
        }
    }
}

impl FleetConfig {
    /// Shorthand for [`ServeConfig::with_max_batch`] on
    /// [`FleetConfig::replica`]: each replica's largest engine batch. A
    /// later [`FleetConfig::with_replica_config`] replaces it.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.replica = self.replica.with_max_batch(max_batch);
        self
    }

    /// Does nothing: a fleet request waits through no coalesce window, the
    /// fleet's or its replica's. Kept so existing callers compile.
    #[deprecated(note = "the coalesce window is gone: replicas run whatever is queued at once")]
    pub fn with_max_wait(self, _max_wait: Duration) -> Self {
        self
    }

    /// Shorthand for [`ServeConfig::with_queue_depth`] on
    /// [`FleetConfig::replica`]: each replica's admission-queue depth. A
    /// later [`FleetConfig::with_replica_config`] replaces it.
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.replica = self.replica.with_queue_depth(queue_depth);
        self
    }

    /// Sets every replica's [`ModelServer`] knobs.
    pub fn with_replica_config(mut self, replica: ServeConfig) -> Self {
        self.replica = replica;
        self
    }

    /// Sets the eviction/re-admission policy.
    pub fn with_health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Sets the blocking-caller reply timeout.
    pub fn with_reply_timeout(mut self, reply_timeout: Duration) -> Self {
        self.reply_timeout = reply_timeout;
        self
    }
}

/// What the router resolved for one model on one replica at load time.
struct Routing {
    /// Predicted µs per image on the replica's device.
    cost_us: f64,
    /// The model's `route` stage histogram on the Prometheus page.
    route: Arc<LatencyHistogram>,
}

/// One enrolled replica: its server, its pricing target, its breaker.
pub(crate) struct Replica {
    label: String,
    target: Box<dyn HardwareTarget>,
    server: ModelServer,
    health: Health,
    /// Model name → routing inputs, refreshed at every (re)load.
    models: RwLock<HashMap<String, Routing>>,
}

impl Replica {
    fn cost_us(&self, model: &str) -> f64 {
        self.models
            .read()
            .expect("routing table poisoned")
            .get(model)
            .map_or(DEFAULT_COST_US, |r| r.cost_us)
    }

    /// Records fleet admission → replica handoff as the `route` stage.
    fn record_route(&self, model: &str, waited: Duration) {
        match self
            .models
            .read()
            .expect("routing table poisoned")
            .get(model)
        {
            Some(routing) => routing.route.record(waited),
            // Only between a first load's swap and its routing entry.
            None => stage_histogram(model, "route").record(waited),
        }
    }
}

/// Handle to one in-flight fleet request: the replica that admitted it
/// and that replica's [`Pending`]. Joining it also reports the outcome to
/// the replica's health cell.
pub struct FleetPending {
    replica: Arc<Replica>,
    pending: Pending,
}

impl fmt::Debug for FleetPending {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetPending")
            .field("replica", &self.replica.label)
            .field("pending", &self.pending)
            .finish()
    }
}

impl FleetPending {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Everything [`Pending::wait`] returns.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        settle(&self.replica, self.pending.wait())
    }

    /// Blocks until the response arrives or `timeout` elapses, so a
    /// replica dying mid-batch cannot park the caller forever.
    ///
    /// # Errors
    ///
    /// Everything [`Pending::wait_timeout`] returns.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Tensor, ServeError> {
        settle(&self.replica, self.pending.wait_timeout(timeout))
    }
}

/// Reports a joined result to the replica's breaker. Only replica faults
/// count against health — a caller's own bad payload
/// ([`ServeError::Inference`]) is not the replica's fault.
fn settle(replica: &Replica, result: Result<Tensor, ServeError>) -> Result<Tensor, ServeError> {
    match &result {
        Ok(_) => replica.health.record_success(),
        Err(ServeError::Dropped) | Err(ServeError::Timeout { .. }) => {
            replica.health.record_failure();
        }
        Err(_) => {}
    }
    result
}

/// Health/load/traffic snapshot for one replica.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaStats {
    /// The replica's enrollment label.
    pub label: String,
    /// Its hardware target's label (device + design ratio).
    pub target: String,
    /// Breaker state and eviction history.
    pub health: HealthSnapshot,
    /// Requests admitted to the replica but not yet answered.
    pub queue_depth: u64,
    /// Predicted per-image cost per model (router inputs), sorted by name.
    pub costs: Vec<ModelCost>,
    /// Per-model serving counters, sorted by name.
    pub models: Vec<ModelStats>,
}

/// The router's predicted cost for one model on one replica.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCost {
    /// The model name.
    pub model: String,
    /// Predicted device latency per image, microseconds.
    pub cost_per_image_us: f64,
}

/// Point-in-time fleet snapshot: one entry per replica, enrollment order.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Per-replica snapshots.
    pub replicas: Vec<ReplicaStats>,
}

/// Multi-replica serving fleet. See the module docs for the dataflow.
pub struct FleetServer {
    config: FleetConfig,
    replicas: Vec<Arc<Replica>>,
    /// Set when shutdown starts. The `Release` store precedes each
    /// replica's queue closing under that replica's lock, so a caller a
    /// closed replica refuses reads `true` with its `Acquire` load.
    closed: AtomicBool,
}

impl FleetServer {
    /// Starts a fleet with one replica per spec. Panics on an empty spec
    /// list — a fleet of zero replicas can never serve.
    pub fn start(config: FleetConfig, specs: Vec<ReplicaSpec>) -> Self {
        assert!(!specs.is_empty(), "a fleet needs at least one replica");
        let replicas: Vec<Arc<Replica>> = specs
            .into_iter()
            .map(|spec| {
                Arc::new(Replica {
                    label: spec.label,
                    target: spec.target,
                    server: ModelServer::start(config.replica.clone()),
                    health: Health::new(config.health.clone()),
                    models: RwLock::new(HashMap::new()),
                })
            })
            .collect();
        FleetServer {
            config,
            replicas,
            closed: AtomicBool::new(false),
        }
    }

    /// The knobs this fleet runs with.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of enrolled replicas (evicted ones included).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Restores a serialized `MMCM` artifact and rolls it across the whole
    /// fleet under `name` — each replica imports its own copy, prices it
    /// on its own hardware target (the router's cost input), and
    /// hot-swaps at its next batch boundary. In-flight requests finish on
    /// the weights they were admitted under; nothing is dropped.
    ///
    /// # Errors
    ///
    /// Everything [`ModelServer::load_artifact`] rejects. The artifact
    /// bytes are validated on the first replica before any replica swaps,
    /// so a malformed artifact cannot leave the fleet half-rolled.
    pub fn load_artifact(&self, name: &str, bytes: &[u8]) -> Result<(), ServeError> {
        for replica in &self.replicas {
            let compiled = import_compiled(bytes)?;
            let cost_us = compiled
                .predict_with(replica.target.as_ref(), 1)
                .map_or(DEFAULT_COST_US, |s| f64::from(s.latency_ms) * 1_000.0);
            replica.server.load(name, compiled)?;
            replica
                .models
                .write()
                .expect("routing table poisoned")
                .insert(
                    name.to_string(),
                    Routing {
                        cost_us,
                        route: stage_histogram(name, "route"),
                    },
                );
        }
        Ok(())
    }

    /// Places one image against `model` on a replica, on the caller's own
    /// thread, and returns without blocking on the result. An evicted
    /// replica whose probe is due takes the request first; otherwise the
    /// healthy replicas are ranked by [`router::place`] and the request
    /// fails over down the ranking until one admits it.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`], [`ServeError::ShuttingDown`];
    /// [`ServeError::Overloaded`] when a replica that could take the
    /// request refused it for backpressure and none admitted it;
    /// [`ServeError::NoReplica`] when every replica is evicted or refused
    /// it for a fault.
    pub fn infer(&self, model: &str, mut image: Tensor) -> Result<FleetPending, ServeError> {
        let admitted = Instant::now();
        if self.closed.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        if !self.replicas.iter().any(|r| r.server.serves(model)) {
            return Err(ServeError::UnknownModel {
                model: model.to_string(),
            });
        }
        // Half-open re-admission: the first evicted replica whose cooldown
        // elapsed takes this request as its probe. Claiming it moves the
        // replica out of `Healthy`, so the ranking below skips it.
        let probe = self.replicas.iter().find(|r| r.health.try_begin_probe());
        let candidates: Vec<router::Candidate> = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.health.is_healthy())
            .map(|(index, r)| router::Candidate {
                replica: index,
                cost_per_image_us: r.cost_us(model),
                queue_depth: r.server.queue_len(),
            })
            .collect();
        let ranked = router::place(&candidates, 1)
            .into_iter()
            .map(|i| &self.replicas[candidates[i].replica])
            // Lazily re-checked: a failover of this very request may have
            // just evicted a replica further down the ranking.
            .filter(|r| r.health.is_healthy());

        let mut overloaded = None;
        for replica in probe.into_iter().chain(ranked) {
            match replica.server.infer_reclaim(model, image) {
                Ok(pending) => {
                    replica.record_route(model, admitted.elapsed());
                    return Ok(FleetPending {
                        replica: Arc::clone(replica),
                        pending,
                    });
                }
                // The fleet itself is closing: no replica's fault, and no
                // other replica will take the request either.
                Err((ServeError::ShuttingDown, _)) if self.closed.load(Ordering::Acquire) => {
                    return Err(ServeError::ShuttingDown);
                }
                // Backpressure is no fault either; if nobody admits the
                // request, the caller should back off, not give up.
                Err((error @ ServeError::Overloaded { .. }, returned)) => {
                    overloaded = Some(error);
                    image = returned;
                }
                Err((_, returned)) => {
                    replica.health.record_failure();
                    image = returned;
                }
            }
        }
        Err(overloaded.unwrap_or_else(|| ServeError::NoReplica {
            model: model.to_string(),
        }))
    }

    /// [`FleetServer::infer`] + [`FleetPending::wait_timeout`] at the
    /// configured [`FleetConfig::reply_timeout`].
    ///
    /// # Errors
    ///
    /// Everything either half can return.
    pub fn infer_blocking(&self, model: &str, image: Tensor) -> Result<Tensor, ServeError> {
        self.infer(model, image)?
            .wait_timeout(self.config.reply_timeout)
    }

    /// The fleet snapshot: per-replica health, load, costs and counters.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            replicas: self
                .replicas
                .iter()
                .map(|r| {
                    let mut costs: Vec<ModelCost> = r
                        .models
                        .read()
                        .expect("routing table poisoned")
                        .iter()
                        .map(|(model, routing)| ModelCost {
                            model: model.clone(),
                            cost_per_image_us: routing.cost_us,
                        })
                        .collect();
                    costs.sort_by(|a, b| a.model.cmp(&b.model));
                    let mut models = r.server.all_stats();
                    models.sort_by(|a, b| a.model.cmp(&b.model));
                    ReplicaStats {
                        label: r.label.clone(),
                        target: r.target.label(),
                        health: r.health.snapshot(),
                        queue_depth: r.server.queue_len(),
                        costs,
                        models,
                    }
                })
                .collect(),
        }
    }

    /// Fault injection (tests, chaos drills): tears replica `index`'s
    /// server down. Its queued requests drain to completion first; every
    /// placement attempted afterwards fails, so the breaker evicts it
    /// while the rest of the fleet keeps serving. Returns `false` for an
    /// out-of-range index.
    pub fn kill_replica(&self, index: usize) -> bool {
        match self.replicas.get(index) {
            Some(replica) => {
                replica.server.shutdown();
                true
            }
            None => false,
        }
    }

    /// Stops fleet admission, then drains every replica and joins its
    /// batcher. Replicas refusing callers because the fleet closed them
    /// are not counted against their health. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
        for replica in &self.replicas {
            replica.server.shutdown();
        }
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthState;
    use mixmatch_nn::quantize::QuantLayerDesc;
    use mixmatch_quant::engine::BatchEngine;
    use mixmatch_quant::export::export_compiled;
    use mixmatch_quant::graph::ExecutionPlan;
    use mixmatch_quant::msq::MsqPolicy;
    use mixmatch_quant::pipeline::{HardwareSummary, QuantPipeline};
    use mixmatch_tensor::TensorRng;

    /// A stub target whose only job is a fixed per-image latency — the
    /// fleet never needs a real device to route.
    struct FixedLatency {
        label: &'static str,
        latency_ms: f32,
    }

    impl HardwareTarget for FixedLatency {
        fn label(&self) -> String {
            self.label.to_string()
        }

        fn derive_policy(&self) -> MsqPolicy {
            MsqPolicy::msq_half()
        }

        fn summarize_plan(
            &self,
            layers: &[QuantLayerDesc],
            _plan: &ExecutionPlan,
            _batch: usize,
        ) -> Option<HardwareSummary> {
            if layers.is_empty() {
                return None;
            }
            Some(HardwareSummary {
                device: self.label.to_string(),
                ratio_label: "1:1".into(),
                gops: 1.0,
                latency_ms: self.latency_ms,
                pe_utilization: 1.0,
                lut: 0.0,
                ff: 0.0,
                bram36: 0.0,
                dsp: 0.0,
                lut_utilization: 0.0,
            })
        }
    }

    fn mlp_artifact(seed: u64) -> Vec<u8> {
        let mut rng = TensorRng::seed_from(seed);
        let mut model = mixmatch_nn::module::Sequential::new();
        model.push(mixmatch_nn::layers::Linear::with_name(
            "fc1", 6, 8, true, &mut rng,
        ));
        model.push(mixmatch_nn::layers::Linear::with_name(
            "fc2", 8, 3, false, &mut rng,
        ));
        let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
            .with_input_shape(&[6])
            .quantize(&mut model)
            .expect("quantize fixture");
        export_compiled(&compiled).expect("export fixture")
    }

    fn two_replica_fleet(config: FleetConfig) -> FleetServer {
        FleetServer::start(
            config,
            vec![
                ReplicaSpec::new(
                    "r0",
                    FixedLatency {
                        label: "fast",
                        latency_ms: 0.1,
                    },
                ),
                ReplicaSpec::new(
                    "r1",
                    FixedLatency {
                        label: "slow",
                        latency_ms: 0.4,
                    },
                ),
            ],
        )
    }

    #[test]
    fn fleet_serves_and_prices_replicas_from_their_targets() {
        let fleet = two_replica_fleet(
            FleetConfig::default().with_replica_config(ServeConfig::default().with_threads(1)),
        );
        fleet
            .load_artifact("mlp", &mlp_artifact(1))
            .expect("roll artifact");
        let stats = fleet.stats();
        assert_eq!(stats.replicas.len(), 2);
        assert!((stats.replicas[0].costs[0].cost_per_image_us - 100.0).abs() < 1e-3);
        assert!((stats.replicas[1].costs[0].cost_per_image_us - 400.0).abs() < 1e-3);
        let mut rng = TensorRng::seed_from(2);
        let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
        let out = fleet.infer_blocking("mlp", image).expect("infer");
        assert_eq!(out.dims(), &[3]);
        let total: u64 = fleet
            .stats()
            .replicas
            .iter()
            .flat_map(|r| r.models.iter())
            .map(|m| m.completed)
            .sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn unknown_model_and_shutdown_are_typed() {
        let fleet = two_replica_fleet(FleetConfig::default());
        let err = fleet.infer("ghost", Tensor::zeros(&[6])).unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel { .. }));
        fleet
            .load_artifact("mlp", &mlp_artifact(3))
            .expect("roll artifact");
        fleet.shutdown();
        let err = fleet.infer("mlp", Tensor::zeros(&[6])).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
    }

    #[test]
    fn killed_replica_is_evicted_and_the_fleet_keeps_answering() {
        let fleet = two_replica_fleet(
            FleetConfig::default()
                .with_health(
                    HealthPolicy::default()
                        .with_evict_after(2)
                        .with_probe_after(Duration::from_secs(60)),
                )
                .with_replica_config(ServeConfig::default().with_threads(1)),
        );
        fleet
            .load_artifact("mlp", &mlp_artifact(4))
            .expect("roll artifact");
        assert!(fleet.kill_replica(0));
        assert!(!fleet.kill_replica(9));
        let mut rng = TensorRng::seed_from(5);
        for _ in 0..6 {
            let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut rng);
            let out = fleet.infer_blocking("mlp", image).expect("failover");
            assert_eq!(out.dims(), &[3]);
        }
        let stats = fleet.stats();
        assert_eq!(stats.replicas[0].health.state, HealthState::Evicted);
        assert_eq!(stats.replicas[1].health.state, HealthState::Healthy);
        let survivor: u64 = stats.replicas[1].models.iter().map(|m| m.completed).sum();
        assert_eq!(survivor, 6);
    }

    #[test]
    fn fleet_wide_backpressure_is_overloaded_not_no_replica() {
        // One replica with a one-slot queue and batches of one, parked by
        // the seam: it holds at most one request in its batch and one in
        // its slot, so the third submission at the latest is refused.
        let fleet = FleetServer::start(
            FleetConfig::default().with_replica_config(
                ServeConfig::default()
                    .with_queue_depth(1)
                    .with_max_batch(1)
                    .with_threads(1),
            ),
            vec![ReplicaSpec::new(
                "r0",
                FixedLatency {
                    label: "fast",
                    latency_ms: 0.1,
                },
            )],
        );
        fleet
            .load_artifact("mlp", &mlp_artifact(7))
            .expect("roll artifact");
        let admitted = fleet.replicas[0].server.with_batches_parked("mlp", || {
            let mut admitted = Vec::new();
            for _ in 0..3 {
                match fleet.infer("mlp", Tensor::zeros(&[6])) {
                    Ok(pending) => admitted.push(pending),
                    Err(ServeError::Overloaded { queue_depth }) => {
                        assert_eq!(queue_depth, 1);
                        return admitted;
                    }
                    Err(other) => panic!("backpressure misreported as {other:?}"),
                }
            }
            panic!("a parked one-slot replica admitted 3 requests");
        });
        let health = &fleet.stats().replicas[0].health;
        assert_eq!(health.state, HealthState::Healthy);
        assert_eq!(health.consecutive_failures, 0, "backpressure is no fault");
        // Released, the replica answers every admitted request.
        fleet.shutdown();
        for pending in admitted {
            assert_eq!(pending.wait().expect("admitted request").dims(), &[3]);
        }
    }

    #[test]
    fn a_lone_fleet_request_is_not_held() {
        // Windows this long would fail the bound below if either applied.
        #[allow(deprecated)]
        let config = FleetConfig::default()
            .with_replica_config(
                ServeConfig::default()
                    .with_max_wait(Duration::from_secs(5))
                    .with_threads(1),
            )
            .with_max_wait(Duration::from_secs(5));
        let fleet = two_replica_fleet(config);
        let artifact = mlp_artifact(8);
        fleet
            .load_artifact("mlp", &artifact)
            .expect("roll artifact");
        let image = Tensor::rand_uniform(&[6], 0.0, 1.0, &mut TensorRng::seed_from(9));
        let expected = BatchEngine::with_threads(1)
            .run_plan_batch(
                &import_compiled(&artifact).expect("import"),
                std::slice::from_ref(&image),
            )
            .expect("reference run")
            .outputs
            .remove(0);
        let start = Instant::now();
        let out = fleet.infer_blocking("mlp", image).expect("infer");
        let waited = start.elapsed();
        assert_eq!(out.as_slice(), expected.as_slice());
        assert!(
            waited < Duration::from_secs(1),
            "a lone request was held {waited:?}"
        );
    }

    #[test]
    fn malformed_artifact_rolls_nothing() {
        let fleet = two_replica_fleet(FleetConfig::default());
        let mut bytes = mlp_artifact(6);
        bytes.truncate(bytes.len() / 2);
        assert!(fleet.load_artifact("mlp", &bytes).is_err());
        assert!(fleet
            .stats()
            .replicas
            .iter()
            .all(|r| r.models.is_empty() && r.costs.is_empty()));
    }
}
