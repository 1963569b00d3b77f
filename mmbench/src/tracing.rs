//! The traced run's plumbing: spans the benchmark opens around its calls
//! into each layer, per-layer self time, and the chrome trace file.

use mixmatch::obs::trace::{self, EventKind, SpanGuard, TraceEvent};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Opens a span named by `name()` when tracing is on; the name is only
/// built when it will be recorded.
pub fn span(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    if trace::enabled() {
        trace::span(cat, name())
    } else {
        trace::span(cat, "")
    }
}

/// The categories of the benchmark's own spans: the layer each wrapped
/// call enters. Any other category is a span recorded inside the program.
pub const LAYERS: [&str; 12] = [
    "quant::pipeline",
    "quant::optimize",
    "quant::verify",
    "quant::export",
    "fpga",
    "quant::engine",
    "quant::integer",
    "tensor::pool",
    "serve::server",
    "serve::batcher",
    "serve::fleet",
    "serve::wire",
];

/// Self time of one category: its spans' durations minus the parts their
/// direct children (same thread, one level deeper) cover.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SelfTime {
    pub spans: u64,
    pub total_us: u64,
    pub self_us: u64,
}

pub fn self_times(events: &[TraceEvent]) -> BTreeMap<&'static str, SelfTime> {
    let mut spans: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    spans.sort_by_key(|e| (e.tid, e.ts_us, e.depth));
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    let mut children_us = vec![0u64; spans.len()];
    // Open ancestors on the current thread, as indices into `spans`.
    let mut stack: Vec<usize> = Vec::new();
    for (i, e) in spans.iter().enumerate() {
        while let Some(&top) = stack.last() {
            let t = spans[top];
            if t.tid == e.tid && t.depth < e.depth && t.ts_us + t.dur_us >= e.ts_us {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            if spans[parent].depth + 1 == e.depth {
                children_us[parent] += e.dur_us;
            }
        }
        stack.push(i);
    }
    for (e, child) in spans.iter().zip(children_us) {
        let entry = out.entry(e.cat).or_default();
        entry.spans += 1;
        entry.total_us += e.dur_us;
        entry.self_us += e.dur_us.saturating_sub(child);
    }
    out
}

/// Writes `events` as a chrome trace under `.bench_out/` in the working
/// directory and returns the path.
pub fn write_chrome_trace(events: &[TraceEvent], file: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, trace::chrome_trace(events))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cat: &'static str, tid: u64, ts_us: u64, dur_us: u64, depth: u32) -> TraceEvent {
        TraceEvent {
            name: String::new(),
            cat,
            tid,
            ts_us,
            dur_us,
            depth,
            kind: EventKind::Span,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = [
            ev("outer", 1, 0, 100, 0),
            ev("mid", 1, 10, 50, 1),
            ev("leaf", 1, 20, 30, 2),
            ev("mid", 1, 70, 20, 1),
            // Another thread's span overlaps but is nobody's child.
            ev("other", 2, 15, 40, 0),
            ev("outer", 1, 200, 10, 0),
        ];
        let t = self_times(&events);
        assert_eq!(
            t["outer"],
            SelfTime {
                spans: 2,
                total_us: 110,
                self_us: 40
            }
        );
        assert_eq!(
            t["mid"],
            SelfTime {
                spans: 2,
                total_us: 70,
                self_us: 40
            }
        );
        assert_eq!(t["leaf"].self_us, 30);
        assert_eq!(t["other"].self_us, 40);
    }
}
