//! # mixmatch-serve
//!
//! Async model server with **work-conserving request batching** over
//! compiled execution plans — the serving layer that turns independent
//! single-image requests into engine batches without holding any of them.
//!
//! The paper's FPGA pipeline amortises setup across a batch; its software
//! twin, the [`BatchEngine`](mixmatch_quant::engine::BatchEngine), does
//! not: it splits a batch across the worker pool's threads and runs each
//! image through the whole plan on its own, so a batch buys parallelism
//! across threads, not cheaper images. Waiting to fill a batch therefore
//! only adds latency, and [`ModelServer`] batches only what has already
//! queued. It provides:
//!
//! * a **registry** of named [`CompiledModel`]s, loadable from serialized
//!   `MMCM` artifacts and hot-swappable behind an `Arc` swap,
//! * a **bounded admission queue** — a full queue rejects with
//!   [`ServeError::Overloaded`] instead of growing an unbounded backlog,
//! * a **work-conserving batcher** that blocks for one request, drains
//!   whatever is already queued behind it (up to `max_batch`) without
//!   waiting for more, and drives `BatchEngine::run_plan_batch` on the
//!   shared process-wide worker pool — requests that arrive while a batch
//!   runs form the next one,
//! * per-request **reply channels + ids**, so a response can never reach a
//!   neighboring caller, and
//! * per-model **latency/throughput counters** (p50/p95/p99/p99.9 from a
//!   fixed-bucket histogram; no wall-clock reads in the hot path beyond
//!   the two `Instant` stamps).
//!
//! On top of the single server sits the **fleet layer** ([`fleet`]): N
//! replicas, each a full [`ModelServer`] bound to its own simulated FPGA
//! [`HardwareTarget`](mixmatch_quant::pipeline::HardwareTarget), behind a
//! router that places each request on arrival by predicted device cost ×
//! live queue depth ([`router`]), evicts failing replicas through a
//! per-replica circuit breaker ([`health`]), and speaks a hand-rolled
//! length-prefixed TCP protocol ([`wire`]) so callers on real sockets get
//! bit-identical answers and typed errors.
//!
//! [`CompiledModel`]: mixmatch_quant::pipeline::CompiledModel
//!
//! # Example
//!
//! ```
//! use mixmatch_serve::{ModelServer, ServeConfig};
//! use mixmatch_quant::msq::MsqPolicy;
//! use mixmatch_quant::pipeline::QuantPipeline;
//! use mixmatch_nn::layers::Linear;
//! use mixmatch_nn::module::Sequential;
//! use mixmatch_tensor::{Tensor, TensorRng};
//!
//! // Quantize a model (any pipeline output with a compiled plan works).
//! let mut rng = TensorRng::seed_from(0);
//! let mut model = Sequential::new();
//! model.push(Linear::with_name("fc", 8, 4, true, &mut rng));
//! let compiled = QuantPipeline::from_policy(MsqPolicy::msq_half())
//!     .with_input_shape(&[8])
//!     .quantize(&mut model)
//!     .expect("quantize");
//!
//! // Serve it: submit asynchronously, join the handle for the logits.
//! let server = ModelServer::start(ServeConfig::default().with_max_batch(8));
//! server.load("mlp", compiled).expect("load");
//! let pending = server.infer("mlp", Tensor::zeros(&[8])).expect("admit");
//! let logits = pending.wait().expect("inference");
//! assert_eq!(logits.dims(), &[4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fleet;
pub mod health;
pub mod metrics;
pub mod router;
pub mod server;
pub mod wire;

pub use error::ServeError;
pub use fleet::{
    FleetConfig, FleetPending, FleetServer, FleetStats, ModelCost, ReplicaSpec, ReplicaStats,
};
pub use health::{Health, HealthPolicy, HealthSnapshot, HealthState};
pub use metrics::{LatencyHistogram, ModelStats, StageStats};
pub use server::{ModelServer, Pending, ServeConfig};
pub use wire::{FleetClient, WireServer};
