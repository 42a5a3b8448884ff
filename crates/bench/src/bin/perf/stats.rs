//! Sample summaries, the percentile rule, host-side probes.

use std::time::Instant;

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported figure: the median of the samples.
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// A figure that was read once (a count, a virtual statistic, peak
    /// memory).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            min: value,
            max: value,
            n: 1,
        }
    }

    /// Summary of repeated measurements.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: every metric is measured at least once.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let sorted = sorted(samples);
        let mid = sorted.len() / 2;
        let value = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            0.5 * (sorted[mid - 1] + sorted[mid])
        };
        Summary {
            value,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }
}

/// Ascending copy (total order, so a stray NaN cannot panic the sort).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it among `n` samples (the choosing-metrics
/// rule for how far into the tail a sample count lets one report).
/// `None` below 20 samples, where not even the median qualifies.
pub fn highest_percentile(n: usize) -> Option<f64> {
    // In per-mille, so that "exactly ten beyond" is an integer comparison.
    [990, 950, 900, 750, 500]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10_000)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// Seconds `f` took, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over a stream of 64-bit words: the `virtual_digest` of a run.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 210 timed GD steps: p95 leaves 10.5 beyond, p99 only 2.1.
        assert_eq!(highest_percentile(210), Some(95.0));
        // One strategy's 35 steps support the median and nothing beyond it;
        // below 20 samples not even that.
        assert_eq!(highest_percentile(35), Some(50.0));
        assert_eq!(highest_percentile(19), None);
        // The serve workloads' job counts support p99 with room to spare
        // (the ladder stops there).
        assert_eq!(highest_percentile(3_000), Some(99.0));
        assert_eq!(highest_percentile(40_000), Some(99.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(100), Some(90.0));
    }

    #[test]
    fn summary_reports_the_median() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.value, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        assert_eq!(Summary::of(&[4.0, 1.0, 2.0, 3.0]).value, 2.5);
        assert_eq!(Summary::single(7.0).n, 1);
    }

    #[test]
    fn digest_depends_on_every_word_and_their_order() {
        let digest = |words: &[u64]| {
            let mut h = Fnv::new();
            words.iter().for_each(|&w| h.word(w));
            h.finish()
        };
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 3, 2]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[1, 2]));
    }
}
