//! Serving benchmark: an open-loop synthetic arrival process replayed
//! against `ModelServer` — the traffic-shaped counterpart of the
//! closed-loop `throughput` bench.
//!
//! Requests arrive with exponential inter-arrival times (a Poisson
//! process) at several offered rates, each a fraction of the engine's
//! measured closed-loop capacity. The server batches whatever has queued
//! when its batcher frees up (up to `max_batch`, never waiting for more)
//! and the run reports achieved throughput, admission rejections and
//! queue-to-reply latency percentiles per rate.
//!
//! A second sweep replays the same traffic shape against a [`FleetServer`]
//! of 1, 2 and 4 heterogeneous replicas **over real TCP sockets** (one
//! blocking [`FleetClient`] per submitter thread), reporting client-side
//! tail latency versus fleet size and each replica's share of the work.
//!
//! Writes `BENCH_serving.json` into the working directory. Pass `--smoke`
//! for a CI-sized run.

use mixmatch_fpga::bridge::FpgaTarget;
use mixmatch_fpga::device::FpgaDevice;
use mixmatch_nn::models::{ResNet, ResNetConfig};
use mixmatch_quant::engine::BatchEngine;
use mixmatch_quant::export::{export_compiled, import_compiled};
use mixmatch_serve::{
    FleetClient, FleetConfig, FleetServer, ModelServer, Pending, ReplicaSpec, ServeConfig,
    ServeError, WireServer,
};
use mixmatch_tensor::{Tensor, TensorRng};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side percentile over measured round-trip latencies.
fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * (q / 100.0)).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1].as_secs_f64() * 1e3
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (input_hw, secs_per_rate) = if smoke { (8usize, 0.3f64) } else { (16, 2.0) };
    let device = FpgaDevice::XC7Z045;
    let mut rng = TensorRng::seed_from(9);
    let mut model = ResNet::new(ResNetConfig::mini(10).with_act_bits(4), &mut rng);
    let compiled = mixmatch_quant::pipeline::QuantPipeline::for_device(
        FpgaTarget::new(device).with_input_size(input_hw),
    )
    .quantize(&mut model)
    .expect("quantize resnet-mini");
    // Round-trip through the artifact: servers load what deployments ship.
    let artifact = export_compiled(&compiled).expect("export");
    let served = import_compiled(&artifact).expect("import");

    // Closed-loop capacity: batch-32 plan throughput on the shared pool —
    // the ceiling the open-loop rates are scaled against.
    let engine = BatchEngine::new();
    let warm: Vec<Tensor> = (0..32)
        .map(|_| Tensor::rand_uniform(&[3, input_hw, input_hw], 0.0, 1.0, &mut rng))
        .collect();
    engine.run_plan_batch(&served, &warm).expect("warmup");
    let start = Instant::now();
    let mut iters = 0usize;
    while start.elapsed().as_secs_f64() < secs_per_rate.min(0.5) || iters < 2 {
        engine.run_plan_batch(&served, &warm).expect("capacity run");
        iters += 1;
    }
    let capacity_ips = (32 * iters) as f64 / start.elapsed().as_secs_f64();
    println!(
        "=== Open-loop serving (resnet18-mini @ {input_hw}px, {} worker threads) ===",
        engine.threads()
    );
    println!("closed-loop capacity (batch 32): {capacity_ips:9.1} images/sec\n");
    drop(engine);

    let config = ServeConfig::default()
        .with_max_batch(32)
        .with_queue_depth(256);
    let mut rows = String::new();
    for &fraction in &[0.25f64, 0.5, 0.8] {
        let offered = (capacity_ips * fraction).max(1.0);
        // Fresh server per rate: counters start clean.
        let server = ModelServer::start(config.clone());
        server.load_artifact("resnet", &artifact).expect("load");
        let n_requests = ((offered * secs_per_rate) as usize).max(8);
        let mut arrival_rng = TensorRng::seed_from(1000 + (fraction * 100.0) as u64);
        let run_start = Instant::now();
        let mut next_at = Duration::ZERO;
        let mut pending: Vec<Pending> = Vec::with_capacity(n_requests);
        let mut rejected = 0usize;
        for _ in 0..n_requests {
            // Exponential inter-arrival at the offered rate.
            let u = arrival_rng.uniform().clamp(1e-6, 1.0 - 1e-6);
            next_at += Duration::from_secs_f64(-(1.0 - u as f64).ln() / offered);
            if let Some(sleep) = next_at.checked_sub(run_start.elapsed()) {
                std::thread::sleep(sleep);
            }
            let image = Tensor::rand_uniform(&[3, input_hw, input_hw], 0.0, 1.0, &mut arrival_rng);
            match server.infer("resnet", image) {
                Ok(p) => pending.push(p),
                Err(ServeError::Overloaded { .. }) => rejected += 1,
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
        for p in pending {
            p.wait().expect("admitted request completes");
        }
        let elapsed = run_start.elapsed().as_secs_f64();
        let stats = server.stats("resnet").expect("stats");
        assert_eq!(stats.completed + stats.rejected, n_requests as u64);
        assert_eq!(stats.rejected, rejected as u64);
        let achieved = stats.completed as f64 / elapsed;
        println!(
            "offered {offered:8.1} img/s ({:>3.0}% of capacity): achieved {achieved:8.1} img/s, \
             rejected {rejected:>4}, mean batch {:5.2}, p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms, \
             p99.9 {:.2} ms",
            fraction * 100.0,
            stats.mean_batch,
            stats.p50.as_secs_f64() * 1e3,
            stats.p95.as_secs_f64() * 1e3,
            stats.p99.as_secs_f64() * 1e3,
            stats.p999.as_secs_f64() * 1e3,
        );
        // Where the latency went: queue wait until batch execution starts,
        // the batcher's drain of the queue (`coalesce`, ≈0), and the engine
        // itself.
        let mut stage_rows = String::new();
        let mut stage_line = String::new();
        for stage in &stats.stages {
            let _ = write!(
                stage_line,
                " {} p95 {:.2} ms",
                stage.stage,
                stage.p95.as_secs_f64() * 1e3
            );
            let _ = write!(
                stage_rows,
                r#"{}"{}": {{"count": {}, "p50_ms": {:.3}, "p95_ms": {:.3}, "p99_ms": {:.3}}}"#,
                if stage_rows.is_empty() { "" } else { ", " },
                stage.stage,
                stage.count,
                stage.p50.as_secs_f64() * 1e3,
                stage.p95.as_secs_f64() * 1e3,
                stage.p99.as_secs_f64() * 1e3,
            );
        }
        println!("    stage breakdown:{stage_line}");
        let _ = write!(
            rows,
            r#"{}    {{"offered_images_per_sec": {offered:.1}, "capacity_fraction": {fraction}, "requests": {n_requests}, "achieved_images_per_sec": {achieved:.1}, "completed": {}, "rejected": {rejected}, "mean_batch": {:.2}, "p50_ms": {:.3}, "p95_ms": {:.3}, "p99_ms": {:.3}, "p999_ms": {:.3}, "stages": {{{stage_rows}}}}}"#,
            if rows.is_empty() { "" } else { ",\n" },
            stats.completed,
            stats.mean_batch,
            stats.p50.as_secs_f64() * 1e3,
            stats.p95.as_secs_f64() * 1e3,
            stats.p99.as_secs_f64() * 1e3,
            stats.p999.as_secs_f64() * 1e3,
        );
        server.shutdown();
    }

    // ---- Fleet sweep: tail latency vs fleet size, over real sockets ----
    //
    // The same arrival shape, now crossing the TCP wire protocol into a
    // FleetServer of heterogeneous replicas. Clients are blocking (one
    // in-flight request each), so this measures the full stack: framing,
    // routing, per-replica batching, and the reply path.
    println!("\n=== Fleet serving over TCP (heterogeneous replicas) ===");
    let catalog = [
        FpgaDevice::XC7Z045,
        FpgaDevice::XC7Z020,
        FpgaDevice::XCZU3CG,
        FpgaDevice::XCZU5CG,
    ];
    const CLIENTS: usize = 4;
    let per_client = if smoke { 25usize } else { 150 };
    let client_rate = (capacity_ips * 0.5 / CLIENTS as f64).max(1.0);
    let mut fleet_rows = String::new();
    for &size in &[1usize, 2, 4] {
        let specs: Vec<ReplicaSpec> = catalog[..size]
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                ReplicaSpec::new(
                    format!("r{i}"),
                    FpgaTarget::new(d).with_input_size(input_hw),
                )
            })
            .collect();
        let fleet = Arc::new(FleetServer::start(
            FleetConfig::default()
                .with_max_batch(32)
                .with_replica_config(config.clone()),
            specs,
        ));
        let wire = WireServer::bind("127.0.0.1:0", Arc::clone(&fleet)).expect("bind wire");
        let addr = wire.local_addr();
        FleetClient::connect(addr)
            .expect("connect loader")
            .load("resnet", &artifact)
            .expect("load over tcp");

        let run_start = Instant::now();
        let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    scope.spawn(move || {
                        let mut client = FleetClient::connect(addr).expect("connect client");
                        let mut rng = TensorRng::seed_from(7_000 + c as u64);
                        let start = Instant::now();
                        let mut next_at = Duration::ZERO;
                        let mut measured = Vec::with_capacity(per_client);
                        for _ in 0..per_client {
                            let u = rng.uniform().clamp(1e-6, 1.0 - 1e-6);
                            next_at +=
                                Duration::from_secs_f64(-(1.0 - u as f64).ln() / client_rate);
                            if let Some(sleep) = next_at.checked_sub(start.elapsed()) {
                                std::thread::sleep(sleep);
                            }
                            let image =
                                Tensor::rand_uniform(&[3, input_hw, input_hw], 0.0, 1.0, &mut rng);
                            let sent = Instant::now();
                            client.infer("resnet", &image).expect("infer over tcp");
                            measured.push(sent.elapsed());
                        }
                        measured
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let elapsed = run_start.elapsed().as_secs_f64();
        latencies.sort();
        let total = latencies.len();
        let achieved = total as f64 / elapsed;
        let stats = fleet.stats();
        let completed_total: u64 = stats
            .replicas
            .iter()
            .flat_map(|r| r.models.iter())
            .map(|m| m.completed)
            .sum();
        let mut replica_rows = String::new();
        for replica in &stats.replicas {
            let completed: u64 = replica.models.iter().map(|m| m.completed).sum();
            let share = completed as f64 / completed_total.max(1) as f64;
            println!(
                "  {} ({}): {completed:>5} images ({:>4.1}% of fleet)",
                replica.label,
                replica.target,
                share * 100.0
            );
            let _ = write!(
                replica_rows,
                r#"{}        {{"label": "{}", "target": "{}", "completed": {completed}, "share": {share:.4}}}"#,
                if replica_rows.is_empty() { "" } else { ",\n" },
                replica.label,
                replica.target,
            );
        }
        println!(
            "fleet of {size}: achieved {achieved:8.1} img/s over TCP, p50 {:.2} ms, p95 {:.2} ms, \
             p99 {:.2} ms, p99.9 {:.2} ms",
            percentile_ms(&latencies, 50.0),
            percentile_ms(&latencies, 95.0),
            percentile_ms(&latencies, 99.0),
            percentile_ms(&latencies, 99.9),
        );
        let _ = write!(
            fleet_rows,
            r#"{}    {{"replicas": {size}, "clients": {CLIENTS}, "requests": {total}, "offered_images_per_sec": {:.1}, "achieved_images_per_sec": {achieved:.1}, "p50_ms": {:.3}, "p95_ms": {:.3}, "p99_ms": {:.3}, "p999_ms": {:.3}, "replica_utilization": [
{replica_rows}
    ]}}"#,
            if fleet_rows.is_empty() { "" } else { ",\n" },
            client_rate * CLIENTS as f64,
            percentile_ms(&latencies, 50.0),
            percentile_ms(&latencies, 95.0),
            percentile_ms(&latencies, 99.0),
            percentile_ms(&latencies, 99.9),
        );
        wire.stop();
        fleet.shutdown();
    }

    let json = format!(
        r#"{{
  "bench": "serving",
  "model": "resnet18-mini",
  "device": "{}",
  "input_hw": {input_hw},
  "smoke": {smoke},
  "host": {{"os": "{}", "arch": "{}", "parallelism": {}}},
  "server": {{"max_batch": 32, "queue_depth": 256}},
  "closed_loop_capacity_images_per_sec": {capacity_ips:.1},
  "rates": [
{rows}
  ],
  "fleet": [
{fleet_rows}
  ]
}}
"#,
        device.name,
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map_or(1, |v| v.get()),
    );
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("\nwrote BENCH_serving.json");
}
