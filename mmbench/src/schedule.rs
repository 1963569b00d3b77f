//! Seeded load shapes: the Poisson arrival schedule of the `serve-open`
//! workload and its fixed rate ladder with the stop rule.

/// SplitMix64: a tiny deterministic generator, so a schedule depends only
/// on its seed and never on a library's sampling internals.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Derives an independent stream seed from a run seed and a stream tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Arrival offsets in seconds of a Poisson process at `rate` per second
/// over `[0, duration_s)`: exponential gaps drawn from `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, duration_s: f64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity((rate * duration_s * 1.2) as usize + 16);
    loop {
        at += -(1.0 - rng.next_f64()).ln() / rate;
        if at >= duration_s {
            return out;
        }
        out.push(at);
    }
}

/// The low fixed rate, images per second.
pub const LO_RATE: f64 = 300.0;
/// The high fixed rate, images per second.
pub const HI_RATE: f64 = 700.0;
/// Ratio between consecutive ladder rungs above [`HI_RATE`].
pub const LADDER_STEP: f64 = 1.1;
/// Rungs above [`HI_RATE`].
pub const LADDER_RUNGS: usize = 12;
/// Latency limit a rung must meet: p99 from scheduled arrival to reply
/// (the median of per-window p99s, see `stats::windowed_p99`).
pub const P99_LIMIT_MS: f64 = 100.0;
/// Requests unanswered at once above which the backlog counts as growing:
/// three quarters of the server's 256-deep queue. The sender stops there,
/// so an overloaded rung ends before admission starts refusing.
pub const BACKLOG_LIMIT: usize = 192;

/// Every offered rate in order: lo, hi, then the geometric ladder, each
/// rounded to a whole image per second. Absolute, never scaled to a
/// capacity measured in the same run.
pub fn ladder() -> Vec<f64> {
    let mut rates = vec![LO_RATE, HI_RATE];
    rates.extend((1..=LADDER_RUNGS).map(|k| (HI_RATE * LADDER_STEP.powi(k as i32)).round()));
    rates
}

/// What one rung of the ladder observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate: f64,
    pub p99_ms: f64,
    /// Requests refused, errored or answered with wrong bits.
    pub failed: u64,
    /// Most requests unanswered at once.
    pub backlog: usize,
}

impl Rung {
    /// The latency limit: p99 within [`P99_LIMIT_MS`], no failed request
    /// and no growing backlog.
    pub fn meets_limit(&self) -> bool {
        self.failed == 0 && self.p99_ms <= P99_LIMIT_MS && self.backlog <= BACKLOG_LIMIT
    }
}

/// The highest rate met before the first rung that misses the limit; 0
/// when the first rung already misses it.
pub fn max_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.meets_limit())
        .last()
        .map_or(0.0, |r| r.rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_exactly_per_seed() {
        let a = poisson_schedule(42, 700.0, 2.0);
        let b = poisson_schedule(42, 700.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(43, 700.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
    }

    #[test]
    fn schedule_has_the_offered_rate() {
        let n = poisson_schedule(7, 500.0, 20.0).len() as f64;
        // 10_000 expected arrivals, standard deviation 100.
        assert!((n - 10_000.0).abs() < 500.0, "{n}");
    }

    #[test]
    fn ladder_is_fixed_and_geometric() {
        let rates = ladder();
        assert_eq!(&rates[..3], &[300.0, 700.0, 770.0]);
        assert_eq!(rates.len(), 2 + LADDER_RUNGS);
        for w in rates[1..].windows(2) {
            let step = w[1] / w[0];
            assert!((step - LADDER_STEP).abs() < 0.01, "{w:?}");
        }
    }

    fn rung(rate: f64, p99_ms: f64) -> Rung {
        Rung {
            rate,
            p99_ms,
            failed: 0,
            backlog: 0,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_miss() {
        let over = P99_LIMIT_MS + 1.0;
        let rungs = [
            rung(300.0, 5.0),
            rung(700.0, 9.0),
            rung(770.0, over),
            // A later rung that happens to pass does not count.
            rung(847.0, 10.0),
        ];
        assert_eq!(max_rate(&rungs), 700.0);
        assert_eq!(max_rate(&rungs[..2]), 700.0);
        assert_eq!(max_rate(&[rung(300.0, over)]), 0.0);
        assert_eq!(max_rate(&[]), 0.0);
    }

    #[test]
    fn failures_and_backlog_miss_the_limit() {
        assert!(rung(700.0, P99_LIMIT_MS).meets_limit());
        let refused = Rung {
            failed: 1,
            ..rung(700.0, 1.0)
        };
        let backlogged = Rung {
            backlog: BACKLOG_LIMIT + 1,
            ..rung(700.0, 1.0)
        };
        assert!(!refused.meets_limit());
        assert!(!backlogged.meets_limit());
        assert_eq!(max_rate(&[rung(300.0, 1.0), refused]), 300.0);
    }

    #[test]
    fn derived_streams_differ() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(9, 3), derive(9, 3));
    }
}
