//! The three workloads. Each drives the system through its public API
//! only, checks every output bit-exactly against the reference pool, and
//! returns its light (`lo`) and loaded (`hi`) latency series plus a rate.

use crate::fixture::{Fleet, Inputs, Servable, Setup, MODEL, POOL_IMAGES};
use crate::schedule::{
    derive, ladder, max_rate, poisson_schedule, Rung, SplitMix64, BACKLOG_LIMIT, P99_LIMIT_MS,
};
use crate::stats::{mean_of_medians, Summary};
use crate::{heap, ms, span, us};
use mixmatch::quant::engine::BatchEngine;
use mixmatch::quant::pipeline::CompiledModel;
use mixmatch::serve::{FleetClient, ModelServer, Pending, ServeError};
use mixmatch::tensor::Tensor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

/// Request accounting. A failure is a typed error, a refusal or a reply
/// whose bits differ from the reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub mismatched: u64,
    pub errors: u64,
    pub refused: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.mismatched + self.errors + self.refused
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.mismatched += other.mismatched;
        self.errors += other.errors;
        self.refused += other.refused;
    }

    /// Counts one reply against input `index`'s reference; true when it
    /// is correct.
    pub fn check(
        &mut self,
        inputs: &Inputs,
        index: usize,
        reply: &Result<Tensor, ServeError>,
    ) -> bool {
        self.attempted += 1;
        match reply {
            Ok(out) if inputs.matches(index, out) => return true,
            Ok(_) => self.mismatched += 1,
            Err(ServeError::Overloaded { .. }) => self.refused += 1,
            Err(_) => self.errors += 1,
        }
        false
    }
}

/// One workload run.
pub struct Run {
    pub tally: Tally,
    /// Light-phase median latency, ms.
    pub lo_p50: f64,
    /// Loaded-phase median latency, ms.
    pub hi_p50: f64,
    pub rate_ips: f64,
    /// Live-heap high-water mark (MB) after warm-up, before the timed
    /// phases: later, the benchmark's own latency samples would count.
    pub heap_mb: f64,
    /// Human-readable detail.
    pub lines: Vec<String>,
}

/// Runs the workload `setup` was built for, measuring for about `budget`.
pub fn run(setup: &Setup, inputs: &Inputs, budget: Duration, seed: u64) -> Result<Run, String> {
    match &setup.servable {
        Servable::Offline(compiled, engine) => offline(compiled, engine, inputs, budget, seed),
        Servable::Server(server) => serve_open(server, inputs, budget, seed),
        Servable::Fleet(fleet) => fleet_tcp(fleet, inputs, budget, seed),
    }
}

/// Runs `f` at least once and until `until`.
fn repeat_until(until: Instant, mut f: impl FnMut()) {
    loop {
        f();
        if Instant::now() >= until {
            return;
        }
    }
}

/// 32 distinct pool indices, drawn from `seed`.
pub fn batch_of_32(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..POOL_IMAGES).collect();
    let mut rng = SplitMix64::new(derive(seed, 2));
    for i in 0..32 {
        let j = i + rng.below(POOL_IMAGES - i);
        order.swap(i, j);
    }
    order.truncate(32);
    order
}

/// `offline`: one closed-loop caller on the global 2-thread pool,
/// alternating rounds of `run_plan_batch` on 32 distinct images and
/// `run_plan` on one image at a time.
fn offline(
    compiled: &CompiledModel,
    engine: &BatchEngine,
    inputs: &Inputs,
    budget: Duration,
    seed: u64,
) -> Result<Run, String> {
    // b1 calls switch between two speeds (about 1.3 and 1.9 ms per call on
    // a 2-core host) that each last for seconds, so a run's overall median
    // jumps between them. Many short rounds, summarized as the mean of the
    // round medians, average the two instead.
    const ROUNDS: u32 = 20;
    let plan = compiled.require_plan().map_err(|e| e.to_string())?;
    let batch_idx = batch_of_32(seed);
    let batch: Vec<Tensor> = batch_idx
        .iter()
        .map(|&i| inputs.images[i].clone())
        .collect();
    let mut pick = Inputs::picker(seed, 3);
    let mut tally = Tally::default();
    let (mut b32, mut b1): (Vec<Vec<f64>>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
    let b32_call = |tally: &mut Tally, times: &mut Vec<f64>| {
        let start = Instant::now();
        let result = {
            let _s = span("quant::engine", || "run_plan_batch b32".into());
            engine.run_plan_batch(compiled, &batch)
        };
        let elapsed = start.elapsed();
        match result {
            Ok(run) => {
                for (&i, out) in batch_idx.iter().zip(run.outputs) {
                    tally.check(inputs, i, &Ok(out));
                }
                times.push(ms(elapsed));
            }
            Err(_) => {
                tally.attempted += 32;
                tally.errors += 32;
            }
        }
    };
    let mut b1_call = |tally: &mut Tally, times: &mut Vec<f64>| {
        let i = pick();
        let start = Instant::now();
        let result = {
            let _s = span("quant::engine", || "run_plan b1".into());
            engine.run_plan(
                compiled.model(),
                plan,
                std::slice::from_ref(&inputs.images[i]),
            )
        };
        let elapsed = start.elapsed();
        let reply = result
            .map(|mut run| run.outputs.swap_remove(0))
            .map_err(ServeError::Inference);
        if tally.check(inputs, i, &reply) {
            times.push(ms(elapsed));
        }
    };
    // Warm caches and the pool; checked, not timed.
    let mut warm = Vec::new();
    for _ in 0..2 {
        b32_call(&mut tally, &mut warm);
    }
    for _ in 0..20 {
        b1_call(&mut tally, &mut warm);
    }
    let heap_mb = heap::peak_mb();
    let slice = budget / (2 * ROUNDS);
    for _ in 0..ROUNDS {
        let mut round = Vec::new();
        repeat_until(Instant::now() + slice, || b32_call(&mut tally, &mut round));
        b32.push(round);
        let mut round = Vec::new();
        repeat_until(Instant::now() + slice, || b1_call(&mut tally, &mut round));
        b1.push(round);
    }
    let (b1_p50, b32_p50) = (mean_of_medians(&b1), mean_of_medians(&b32));
    let lines = vec![
        format!(
            "b1  run_plan per call:       {}",
            Summary::of(&b1.concat()).describe("ms")
        ),
        format!(
            "b32 run_plan_batch per call: {}",
            Summary::of(&b32.concat()).describe("ms")
        ),
        format!("mean of {ROUNDS} round medians: b1 {b1_p50:.4} ms, b32 {b32_p50:.4} ms"),
    ];
    Ok(Run {
        tally,
        lo_p50: b1_p50,
        hi_p50: b32_p50,
        rate_ips: 32.0 * 1e3 / b32_p50,
        heap_mb,
        lines,
    })
}

/// One open-loop phase at a fixed offered rate.
pub struct Phase {
    pub rate: f64,
    /// Scheduled arrival to reply, ms, for every correct reply.
    pub latencies: Vec<f64>,
    /// How late the sender sent each request, ms.
    pub late: Vec<f64>,
    /// Time inside `ModelServer::infer`, us.
    pub admit: Vec<f64>,
    pub tally: Tally,
    /// Most requests ever unanswered when the next one was due.
    pub backlog: usize,
    /// Images per executed batch over the phase.
    pub mean_batch: f64,
    pub rejected: u64,
}

impl Phase {
    pub fn rung(&self) -> Rung {
        Rung {
            rate: self.rate,
            p99_ms: Summary::of(&self.latencies).p99_windowed,
            failed: self.tally.failed(),
            backlog: self.backlog,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{:>5.0} img/s: {} | late {} | mean batch {:.2}, backlog {}, failed {}",
            self.rate,
            Summary::of(&self.latencies).describe("ms"),
            Summary::of(&self.late).describe("ms"),
            self.mean_batch,
            self.backlog,
            self.tally.failed()
        )
    }
}

/// Sends a seeded Poisson schedule at `rate` into `server` from this
/// thread while one reaper thread collects replies in order. Every
/// request is timed from its scheduled arrival, so a stalled sender
/// cannot hide queueing (no coordinated omission).
pub fn open_loop(
    server: &ModelServer,
    inputs: &Inputs,
    rate: f64,
    duration: Duration,
    seed: u64,
) -> Result<Phase, String> {
    let schedule = poisson_schedule(derive(seed, rate as u64), rate, duration.as_secs_f64());
    let mut pick = Inputs::picker(seed, 1000 + rate as u64);
    let stats = || server.stats(MODEL).ok_or("model is not loaded");
    let before = stats()?;
    let replied = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, usize, Instant, Result<Pending, ServeError>)>();
    let mut late = Vec::with_capacity(schedule.len());
    let mut admit = Vec::with_capacity(schedule.len());
    let start = Instant::now() + Duration::from_millis(1);
    let ((latencies, tally), backlog) = std::thread::scope(|scope| {
        let reaper = scope.spawn(|| {
            let mut latencies = Vec::with_capacity(schedule.len());
            let mut tally = Tally::default();
            for (seq, index, due, admitted) in rx {
                let reply = admitted.and_then(|pending| {
                    let _s = span("serve::batcher", || format!("reply#{seq}"));
                    pending.wait()
                });
                let done = Instant::now();
                if tally.check(inputs, index, &reply) {
                    latencies.push(ms(done.saturating_duration_since(due)));
                }
                replied.fetch_add(1, Ordering::SeqCst);
            }
            (latencies, tally)
        });
        let mut peak_backlog = 0;
        for (seq, &offset) in schedule.iter().enumerate() {
            // A backlog past the limit will not drain at this rate: stop
            // before the admission queue fills and starts refusing.
            let backlog = seq - replied.load(Ordering::SeqCst);
            peak_backlog = peak_backlog.max(backlog);
            if backlog > BACKLOG_LIMIT {
                break;
            }
            let index = pick();
            let image = inputs.images[index].clone();
            let due = start + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            late.push(ms(sent.saturating_duration_since(due)));
            let admitted = {
                let _s = span("serve::server", || format!("infer#{seq}"));
                server.infer(MODEL, image)
            };
            admit.push(us(sent.elapsed()));
            if tx.send((seq, index, due, admitted)).is_err() {
                break;
            }
        }
        drop(tx);
        (reaper.join().expect("reaper thread panicked"), peak_backlog)
    });
    let after = stats()?;
    let batches = after.batches.saturating_sub(before.batches).max(1);
    Ok(Phase {
        rate,
        latencies,
        late,
        admit,
        tally,
        backlog,
        mean_batch: after.completed.saturating_sub(before.completed) as f64 / batches as f64,
        rejected: after.rejected.saturating_sub(before.rejected),
    })
}

/// Share of the budget for the lo and hi phases, and for each rung above.
const LO_SHARE: f64 = 0.2;
const HI_SHARE: f64 = 0.2;
const RUNG_SHARE: f64 = 0.075;

/// `serve-open`: Poisson arrivals into an in-process `ModelServer` at the
/// fixed lo and hi rates, then up the ladder until a rung misses the
/// latency limit.
fn serve_open(
    server: &ModelServer,
    inputs: &Inputs,
    budget: Duration,
    seed: u64,
) -> Result<Run, String> {
    let mut tally = Tally::default();
    for i in 0..32 {
        tally.check(
            inputs,
            i,
            &server.infer_blocking(MODEL, inputs.images[i].clone()),
        );
    }
    let heap_mb = heap::peak_mb();
    let rates = ladder();
    let mut phases = Vec::new();
    for (k, &rate) in rates.iter().enumerate() {
        let share = match k {
            0 => LO_SHARE,
            1 => HI_SHARE,
            _ => RUNG_SHARE,
        };
        // lo and hi always run; the ladder climbs while every rung passes.
        if k >= 2 && !phases.iter().all(|p: &Phase| p.rung().meets_limit()) {
            break;
        }
        phases.push(open_loop(
            server,
            inputs,
            rate,
            budget.mul_f64(share),
            seed,
        )?);
    }
    let rungs: Vec<Rung> = phases.iter().map(Phase::rung).collect();
    let mut lines: Vec<String> = phases.iter().map(Phase::describe).collect();
    let rate_ips = max_rate(&rungs);
    lines.push(format!(
        "highest rung meeting p99 <= {P99_LIMIT_MS} ms and backlog <= {BACKLOG_LIMIT}: {rate_ips} img/s"
    ));
    for p in &phases {
        tally.add(p.tally);
    }
    Ok(Run {
        tally,
        lo_p50: Summary::of(&phases[0].latencies).p50,
        hi_p50: Summary::of(&phases[1].latencies).p50,
        rate_ips,
        heap_mb,
        lines,
    })
}

/// How far behind connection 0 each further connection starts in the
/// odd episodes of a closed-loop phase; even episodes start them together.
/// Two closed-loop clients phase-lock to the batching windows: started
/// together they share every batch, started a window apart they never do,
/// and the lock holds for a whole run. Alternating the start samples both
/// in every run instead of one per run.
const STAGGER: Duration = Duration::from_millis(3);

/// What a closed-loop phase observed.
pub struct ClosedLoop {
    /// Round trips (ms) of each episode, in send order.
    pub episodes: Vec<Vec<f64>>,
    pub tally: Tally,
    pub secs: f64,
}

impl ClosedLoop {
    pub fn all(&self) -> Vec<f64> {
        self.episodes.concat()
    }

    /// Mean over episodes of each episode's median round trip.
    pub fn p50(&self) -> f64 {
        mean_of_medians(&self.episodes)
    }

    /// Correct replies per second.
    pub fn rate(&self) -> f64 {
        self.episodes.iter().map(Vec::len).sum::<usize>() as f64 / self.secs
    }
}

/// `conns` closed-loop `FleetClient`s for `episodes` equal slices of
/// `duration`: each sends its next request when the reply arrives. Every
/// episode starts from a barrier, see [`STAGGER`].
pub fn closed_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    conns: usize,
    episodes: u32,
    duration: Duration,
    seed: u64,
    seq: &AtomicU64,
) -> Result<ClosedLoop, String> {
    let clients = (0..conns)
        .map(|_| FleetClient::connect(addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let barrier = Barrier::new(conns);
    let episode = duration / episodes;
    let start = Instant::now();
    type Sent = Vec<Vec<(Instant, f64)>>;
    let per_conn: Vec<(Sent, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut pick = Inputs::picker(seed, 2000 + c as u64);
                    let mut tally = Tally::default();
                    let mut sent_episodes = Vec::new();
                    for e in 0..episodes {
                        barrier.wait();
                        let until = Instant::now() + episode;
                        if e % 2 == 1 {
                            std::thread::sleep(STAGGER * c as u32);
                        }
                        let mut rtts = Vec::new();
                        repeat_until(until, || {
                            let index = pick();
                            let n = seq.fetch_add(1, Ordering::Relaxed);
                            let sent = Instant::now();
                            let reply = {
                                let _s = span("serve::wire", || format!("infer#{n}"));
                                client.infer(MODEL, &inputs.images[index])
                            };
                            let rtt = sent.elapsed();
                            if tally.check(inputs, index, &reply) {
                                rtts.push((sent, ms(rtt)));
                            }
                        });
                        sent_episodes.push(rtts);
                    }
                    (sent_episodes, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut merged: Vec<Vec<(Instant, f64)>> = vec![Vec::new(); episodes as usize];
    for (conn_episodes, t) in per_conn {
        tally.add(t);
        for (all, mine) in merged.iter_mut().zip(conn_episodes) {
            all.extend(mine);
        }
    }
    let episodes = merged
        .into_iter()
        .map(|mut e| {
            e.sort_by_key(|&(sent, _)| sent);
            e.into_iter().map(|(_, rtt)| rtt).collect()
        })
        .collect();
    Ok(ClosedLoop {
        episodes,
        tally,
        secs,
    })
}

/// Share of the budget for the one-connection phase.
const C1_SHARE: f64 = 0.3;

/// Episodes of the two-connection phase: half start together, half
/// staggered.
const C2_EPISODES: u32 = 10;

/// `fleet-tcp`: closed-loop `FleetClient`s over loopback into a
/// two-replica `FleetServer` — one connection, then two.
fn fleet_tcp(fleet: &Fleet, inputs: &Inputs, budget: Duration, seed: u64) -> Result<Run, String> {
    let seq = AtomicU64::new(0);
    let phase = |conns, episodes, duration, seed| {
        closed_loop(fleet.addr(), inputs, conns, episodes, duration, seed, &seq)
    };
    // Warm both phases' shapes: two connections for two episodes started
    // together and two staggered, so the batch shapes and replica
    // placements of the timed phases have been served before the heap is
    // read.
    let warm = [
        phase(1, 1, Duration::from_millis(100), seed)?,
        phase(2, 4, Duration::from_millis(800), seed ^ 1)?,
    ];
    let heap_mb = heap::peak_mb();
    let lo = phase(1, 1, budget.mul_f64(C1_SHARE), seed)?;
    let hi = phase(2, C2_EPISODES, budget.mul_f64(1.0 - C1_SHARE), seed ^ 1)?;
    let mut tally = Tally::default();
    for phase in warm.iter().chain([&lo, &hi]) {
        tally.add(phase.tally);
    }
    let episode_p50s: Vec<String> = hi
        .episodes
        .iter()
        .map(|e| format!("{:.2}", crate::stats::median(e)))
        .collect();
    let lines = vec![
        format!(
            "1 connection round trip:  {}",
            Summary::of(&lo.all()).describe("ms")
        ),
        format!(
            "2 connections round trip: {}",
            Summary::of(&hi.all()).describe("ms")
        ),
        format!(
            "2 connections p50 per episode (even: started together, odd: staggered {} ms): {}; mean {:.3} ms",
            STAGGER.as_millis(),
            episode_p50s.join(" "),
            hi.p50()
        ),
        format!("2 connections achieved:   {:.1} img/s", hi.rate()),
    ];
    Ok(Run {
        tally,
        lo_p50: lo.p50(),
        hi_p50: hi.p50(),
        rate_ips: hi.rate(),
        heap_mb,
        lines,
    })
}
