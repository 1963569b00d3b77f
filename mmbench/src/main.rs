//! `mmbench` — the repository benchmark.
//!
//! ```text
//! mmbench --workload offline|serve-open|fleet-tcp --seed N --seconds S --trace 0|1
//! mmbench --manifest        # print BENCHMARK.json from the metric table
//! ```
//!
//! One run sets up resnet-mini (`ResNetConfig::mini(10).with_act_bits(4)`,
//! quantized for the XC7Z045 at 3x16x16 with a fixed model seed) several
//! times, draws a seeded pool of inputs whose reference logits are
//! pairwise distinct, drives the named workload through the public API
//! for about `S` seconds, and checks every output bit-exactly.
//!
//! With `--trace 0` it reports the end-to-end metrics. With `--trace 1` it
//! runs the workload untraced and traced (the tracing overhead), runs every
//! per-layer probe under spans, writes a chrome trace to `.bench_out/`,
//! prints each layer's self time, and reports the per-layer metrics.
//!
//! Every metric is printed by name with its unit; the last line of stdout
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`. The
//! exit code is 1 when an output check fails or a typed error occurs, 2 on
//! a usage error.

mod fixture;
mod heap;
mod metrics;
mod probes;
mod schedule;
mod stats;
mod tracing;
mod workloads;

use fixture::Inputs;
use metrics::{END_TO_END, RUN_SECONDS};
use mixmatch::obs::trace;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
pub use tracing::span;
use workloads::Tally;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const USAGE: &str = "usage: mmbench --workload offline|serve-open|fleet-tcp --seed N --seconds S --trace 0|1\n       mmbench --manifest";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Offline,
    ServeOpen,
    FleetTcp,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Offline, Workload::ServeOpen, Workload::FleetTcp];

    /// The workloads `BENCHMARK.json` lists. `serve-open` runs by name but
    /// is left out: its open-loop latencies track the host's wake-up
    /// latency, and on a shared 2-core host their run-to-run spread
    /// (about 0.3 of the median) exceeds the largest allowed bound. The
    /// server and batcher layers it stresses are still probed in every
    /// traced run.
    pub const LISTED: [Workload; 2] = [Workload::Offline, Workload::FleetTcp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Offline => "offline",
            Workload::ServeOpen => "serve-open",
            Workload::FleetTcp => "fleet-tcp",
        }
    }

    /// Loop type, load, and which layers it stresses and bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Offline => "closed loop, 1 caller on the 2-thread pool: run_plan_batch x32 and run_plan x1; engine, kernels and pool only, bypasses server, fleet and wire",
            Workload::ServeOpen => "open loop, Poisson at 300 then 700 img/s, then a 1.1x ladder until p99 > 100 ms into ModelServer; the only workload with a queue, bypasses fleet and wire",
            Workload::FleetTcp => "closed loop, 1 then 2 FleetClient connections over loopback to 2 FleetServer replicas; crosses wire, router and two coalesce windows, kernels minor",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |key: &str| flags.get(key).copied().ok_or(format!("{key} is required"));
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key} needs a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// What one invocation reports.
struct Outcome {
    lines: Vec<String>,
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Every output matched its reference and no typed error occurred.
    fn correct(&self) -> bool {
        self.tally.mismatched == 0 && self.tally.errors == 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed(),
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--manifest"] {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, started) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", outcome.json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("mmbench: output check failed: {:?}", outcome.tally);
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("mmbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args, started: Instant) -> Result<Outcome, String> {
    let setup = fixture::setup(args.workload, started)?;
    let setup_s = stats::median(&setup.times);
    let inputs = Inputs::generate(&setup.compiled, args.seed)?;
    let budget = Duration::from_secs(args.seconds);
    let mut lines = vec![
        format!(
            "=== mmbench {} (seed {}, {} s, trace {}; resnet-mini 3x{}x{}, {} cores, benchmark default {} s) ===",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            fixture::INPUT_HW,
            fixture::INPUT_HW,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            RUN_SECONDS,
        ),
        format!("workload: {}", args.workload.why()),
        fixture::describe_setup(&setup.times),
    ];
    let (tally, values) = if args.trace {
        traced(args, &setup, &inputs, budget, &mut lines)?
    } else {
        let run = workloads::run(&setup, &inputs, budget, args.seed)?;
        lines.extend(run.lines);
        lines.push(format!(
            "resident set high-water mark (VmHWM, not gated): {:.2} MB",
            fixture::peak_rss_mb()?
        ));
        let values: BTreeMap<String, f64> = [
            ("setup_s", setup_s),
            ("peak_heap_mb", run.heap_mb),
            ("lo_p50_ms", run.lo_p50),
            ("hi_p50_ms", run.hi_p50),
            ("rate_ips", run.rate_ips),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        (run.tally, values)
    };
    let defs: Vec<(String, &'static str, String)> = if args.trace {
        metrics::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit, format!("moves {}", m.moves)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit, m.meaning.to_string()))
            .collect()
    };
    let mut metrics = Vec::with_capacity(defs.len());
    lines.push(format!(
        "--- metrics (attempted {}, failed {}, error share {}) ---",
        tally.attempted,
        tally.failed(),
        tally.failed() as f64 / tally.attempted.max(1) as f64
    ));
    for (name, unit, note) in defs {
        let value = *values
            .get(&name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !metrics::valid_name(&name) {
            return Err(format!("metric name {name:?} breaks the naming rule"));
        }
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        lines.push(format!("{name:<36} {value:>14.4} {unit:<6} {note}"));
        metrics.push((name, value, unit));
    }
    Ok(Outcome {
        lines,
        tally,
        metrics,
    })
}

/// The traced run: the workload untraced then traced (tracing overhead),
/// every per-layer probe under spans, the chrome trace and self times.
fn traced(
    args: &Args,
    setup: &fixture::Setup,
    inputs: &Inputs,
    budget: Duration,
    lines: &mut Vec<String>,
) -> Result<(Tally, BTreeMap<String, f64>), String> {
    let base = workloads::run(setup, inputs, budget.mul_f64(0.3), args.seed)?;
    trace::set_ring_capacity(1 << 20);
    trace::enable(true);
    let traced = workloads::run(setup, inputs, budget.mul_f64(0.3), args.seed)?;
    let probes = probes::run(setup, inputs, budget.mul_f64(0.4), args.seed);
    trace::enable(false);
    trace::flush_local();
    let probes = probes?;
    let dropped = trace::dropped();
    let events = trace::drain();

    let (base_p50, traced_p50) = (base.lo_p50, traced.lo_p50);
    let overhead = (traced_p50 / base_p50 - 1.0) * 100.0;
    lines.push(format!("untraced: {}", base.lines.join(" | ")));
    lines.push(format!("traced:   {}", traced.lines.join(" | ")));
    lines.push(format!(
        "tracing overhead on lo_p50_ms: {base_p50:.4} -> {traced_p50:.4} ms ({overhead:+.2}%)"
    ));
    lines.push("--- per-layer probes (traced) ---".into());
    lines.extend(probes.lines);
    let path = tracing::write_chrome_trace(
        &events,
        &format!("trace-{}-seed{}.json", args.workload.name(), args.seed),
    )?;
    lines.push(format!(
        "--- self time by layer ({} events, {dropped} dropped; chrome trace {}) ---",
        events.len(),
        path.display()
    ));
    let mut self_times: Vec<_> = tracing::self_times(&events).into_iter().collect();
    self_times.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_us));
    for (cat, t) in self_times {
        let origin = if tracing::LAYERS.contains(&cat) {
            "benchmark span"
        } else {
            "program span"
        };
        lines.push(format!(
            "{cat:<18} self {:>12.3} ms  total {:>12.3} ms  spans {:>7}  ({origin})",
            t.self_us as f64 / 1e3,
            t.total_us as f64 / 1e3,
            t.spans
        ));
    }
    let mut tally = base.tally;
    tally.add(traced.tally);
    tally.add(probes.tally);
    let mut values = probes.values;
    values.insert("obs.trace_overhead_pct".into(), overhead);
    values.insert("obs.trace_dropped".into(), dropped as f64);
    Ok((tally, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&args(
            "--workload serve-open --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeOpen, 3, 10, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload offline --seed 1 --seconds 0 --trace 0",
            "--workload offline --seed x --seconds 1 --trace 0",
            "--workload offline --seed 1 --seconds 1 --trace 2",
            "--workload offline --seed 1 --seconds 1",
            "--workload offline --seed 1 --seconds 1 --trace 0 --extra",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            lines: Vec::new(),
            tally: Tally {
                attempted: 10,
                refused: 1,
                ..Tally::default()
            },
            metrics: vec![("lo_p50_ms".into(), 1.25, "ms")],
        };
        assert_eq!(
            outcome.json(),
            r#"{"correct": true, "attempted": 10, "failed": 1, "metrics": {"lo_p50_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
    }
}
