//! The metric table: every metric the benchmark reports, its unit, its
//! direction and — for per-layer metrics — the end-to-end metric and
//! workload it should move. `BENCHMARK.json` is generated from this table
//! (`mmbench --manifest`), and a test keeps the committed file in step.

use crate::Workload;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 45;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric, measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it measures on each workload.
    pub meaning: &'static str,
}

/// The end-to-end metrics. Every workload reports all of them: `lo_p50_ms`
/// is its light phase, `hi_p50_ms` its loaded phase. Tail percentiles are printed
/// for every series but not gated: on a shared 2-core host their
/// run-to-run spread exceeds the largest allowed bound.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median over reps of quantize -> export -> import/load to the first servable state (first rep from process start)",
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
        meaning: "high-water mark of live heap bytes from process start through the workload's warm-up (set-up reps torn down one by one), so work moved into set-up shows",
    },
    EndToEnd {
        name: "lo_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "offline: run_plan per call at batch 1 (mean of 20 round medians) | serve-open: scheduled arrival to reply at 300 img/s | fleet-tcp: round trip, 1 connection",
    },
    EndToEnd {
        name: "hi_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "offline: run_plan_batch per call at batch 32 (mean of 20 round medians) | serve-open: scheduled arrival to reply at 700 img/s | fleet-tcp: round trip, 2 connections (mean of 10 episode medians)",
    },
    EndToEnd {
        name: "rate_ips",
        unit: "img/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "offline: 32 / hi_p50_ms | serve-open: highest ladder rung meeting the limit | fleet-tcp: achieved rate, 2 connections",
    },
];

/// A per-layer metric, from the traced run.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric(s) and workload(s) it should move.
    pub moves: &'static str,
}

/// Plan-step slots reported as `engine.step.NN.us_per_image`: resnet-mini's
/// optimized plan has 20 steps. Absent steps read 0; extra steps are
/// reported in the text output only.
pub const STEP_SLOTS: usize = 20;

pub fn step_metric(index: usize) -> String {
    format!("engine.step.{index:02}.us_per_image")
}

/// The per-layer metrics, named after the repository's modules.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let m = |name: &str, unit, better, moves| PerLayer {
        name: name.to_string(),
        unit,
        better,
        moves,
    };
    let mut out = vec![
        // setup: quant::pipeline, optimize, verify, export; fpga pricing.
        m("pipeline.quantize_ms", "ms", Lower, "setup_s (all)"),
        m("optimize.optimize_ms", "ms", Lower, "setup_s (all)"),
        m(
            "verify.verify_ms",
            "ms",
            Lower,
            "setup_s (serve-open, fleet-tcp)",
        ),
        m("export.export_ms", "ms", Lower, "setup_s (all)"),
        m("export.import_ms", "ms", Lower, "setup_s (all)"),
        m("server.load_ms", "ms", Lower, "setup_s (serve-open)"),
        m("fleet.load_ms", "ms", Lower, "setup_s (fleet-tcp)"),
        m("fpga.price_ms", "ms", Lower, "setup_s (fleet-tcp)"),
        // quant::engine
        m(
            "engine.call_setup_us",
            "us",
            Lower,
            "lo_p50_ms (offline, serve-open, fleet-tcp); not rate_ips (offline)",
        ),
        m(
            "engine.b1_us",
            "us",
            Lower,
            "lo_p50_ms (offline, serve-open), lo_p50_ms and hi_p50_ms (fleet-tcp)",
        ),
        m("engine.b1_profiled_us", "us", Lower, "lo_p50_ms (offline)"),
        m(
            "engine.b1_unattributed_us",
            "us",
            Lower,
            "lo_p50_ms (offline)",
        ),
        m(
            "engine.b32_us_per_image",
            "us",
            Lower,
            "rate_ips, hi_p50_ms (offline, serve-open)",
        ),
    ];
    out.extend((0..STEP_SLOTS).map(|i| PerLayer {
        name: step_metric(i),
        unit: "us",
        better: Lower,
        moves: "rate_ips, hi_p50_ms (offline)",
    }));
    out.extend([
        m("engine.plan_steps", "count", Lower, "lo_p50_ms (offline)"),
        m(
            "engine.arena_high_water_bytes",
            "bytes",
            Lower,
            "peak_heap_mb (all)",
        ),
        // kernels: quant::integer GemmPlan, tensor::simd, tensor::im2col
        m(
            "kernel.conv_chain_us_per_image",
            "us",
            Lower,
            "rate_ips (offline)",
        ),
        m("kernel.ops.mults", "count", Lower, "rate_ips (offline)"),
        m("kernel.ops.shifts", "count", Lower, "rate_ips (offline)"),
        m("kernel.ops.adds", "count", Lower, "rate_ips (offline)"),
        m(
            "kernel.bytes_moved_per_image",
            "bytes",
            Lower,
            "rate_ips (offline)",
        ),
        m("kernel.packed_rows", "count", Higher, "rate_ips (offline)"),
        m("kernel.dense_rows", "count", Lower, "rate_ips (offline)"),
        // tensor::pool
        m("pool.run_us", "us", Lower, "lo_p50_ms (offline, fleet-tcp)"),
        // serve::server and serve::batcher
        m(
            "server.admit_p50_us",
            "us",
            Lower,
            "lo_p50_ms, hi_p50_ms (serve-open)",
        ),
        m("server.admit_p99_us", "us", Lower, "hi_p50_ms (serve-open)"),
        m(
            "server.lone_request_us",
            "us",
            Lower,
            "lo_p50_ms (serve-open)",
        ),
        m(
            "server.mean_batch.lo",
            "img",
            Higher,
            "lo_p50_ms (serve-open)",
        ),
        m(
            "server.mean_batch.hi",
            "img",
            Higher,
            "hi_p50_ms, rate_ips (serve-open)",
        ),
        m("server.rejected", "count", Lower, "failed (serve-open)"),
        m(
            "loadgen.late_p99_ms",
            "ms",
            Lower,
            "validates lo_p50_ms, hi_p50_ms (serve-open)",
        ),
        // serve::fleet, serve::router, serve::health
        m(
            "fleet.share.r0",
            "ratio",
            Lower,
            "hi_p50_ms, rate_ips (fleet-tcp)",
        ),
        m(
            "fleet.share.r1",
            "ratio",
            Higher,
            "hi_p50_ms, rate_ips (fleet-tcp)",
        ),
        m("fleet.inproc_p50_us", "us", Lower, "lo_p50_ms (fleet-tcp)"),
        m("fleet.mean_batch", "img", Higher, "hi_p50_ms (fleet-tcp)"),
        m(
            "fleet.unhealthy_replicas",
            "count",
            Lower,
            "failed (fleet-tcp)",
        ),
        // serve::wire
        m(
            "wire.stats_rtt_p50_us",
            "us",
            Lower,
            "lo_p50_ms (fleet-tcp)",
        ),
        m(
            "wire.stats_rtt_p99_us",
            "us",
            Lower,
            "lo_p50_ms (fleet-tcp)",
        ),
        m("wire.codec_us", "us", Lower, "lo_p50_ms (fleet-tcp)"),
        // obs
        m(
            "obs.trace_overhead_pct",
            "%",
            Lower,
            "traced vs untraced lo_p50_ms (each workload)",
        ),
        m(
            "obs.trace_dropped",
            "count",
            Lower,
            "trust in the traced run (each workload)",
        ),
    ]);
    out
}

/// The metric-name rule: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders `BENCHMARK.json` from the table.
pub fn manifest() -> String {
    let quote = |s: &str| format!("\"{s}\"");
    let workloads: Vec<String> = Workload::LISTED
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name()),
                quote(w.why())
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(&m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"mmbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"mmbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn name_rule() {
        assert!(valid_name("engine.step.07.us_per_image"));
        assert!(valid_name("fleet-tcp_2"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("p99 ms"));
        assert!(!valid_name("latency/ms"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn metric_table_follows_the_rules() {
        let layers = per_layer();
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut seen = HashSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(layers.iter().map(|m| m.name.as_str()));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n') && !w.why().contains('"'));
        }
    }

    #[test]
    fn committed_manifest_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `mmbench --manifest`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
