//! Per-phase time accounting for iteration rounds.
//!
//! The engine splits every completed round's service time into phases.
//! Two independent instances live in a `ServiceReport`:
//!
//! * **virtual** — decomposed from the event-driven clock, so the split
//!   is deterministic and identical across execution backends. By
//!   construction `dispatch + compute + collect + decode` sums exactly
//!   to the total round span (encode and verify are instantaneous on
//!   the virtual clock: encode happens at admission, verification is a
//!   master-side check folded into decode).
//! * **wall** — measured with `std::time::Instant` by the numeric
//!   backends (encode/decode/verify in the master, real thread busy
//!   time from `ThreadedCluster`). Nondeterministic; never exported
//!   into trace logs or diffed outputs.

/// Accumulated seconds per phase of an iteration round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    /// Encoding the model matrix (wall only: virtual encode is folded
    /// into admission).
    pub encode: f64,
    /// Shipping inputs to workers (leader's input transfer time).
    pub dispatch: f64,
    /// Worker compute occupancy.
    pub compute: f64,
    /// Shipping results back (completing worker's reply transfer).
    pub collect: f64,
    /// Master-side decode of the round's coverage.
    pub decode: f64,
    /// Verification: computing the reference result and comparing the
    /// decoded output against it (wall only: free on the virtual clock).
    pub verify: f64,
}

impl PhaseTotals {
    /// All-zero totals.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum across all phases.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.encode + self.dispatch + self.compute + self.collect + self.decode + self.verify
    }

    /// Element-wise accumulate.
    pub fn add(&mut self, other: &Self) {
        self.encode += other.encode;
        self.dispatch += other.dispatch;
        self.compute += other.compute;
        self.collect += other.collect;
        self.decode += other.decode;
        self.verify += other.verify;
    }

    /// `(name, seconds)` pairs in canonical order — the order exporters
    /// and tables use.
    #[must_use]
    pub fn named(&self) -> [(&'static str, f64); 6] {
        [
            ("encode", self.encode),
            ("dispatch", self.dispatch),
            ("compute", self.compute),
            ("collect", self.collect),
            ("decode", self.decode),
            ("verify", self.verify),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_all_phases() {
        let p = PhaseTotals {
            encode: 1.0,
            dispatch: 2.0,
            compute: 3.0,
            collect: 4.0,
            decode: 5.0,
            verify: 6.0,
        };
        assert_eq!(p.total(), 21.0);
    }

    #[test]
    fn add_accumulates_elementwise() {
        let mut a = PhaseTotals {
            compute: 1.5,
            ..PhaseTotals::new()
        };
        let b = PhaseTotals {
            compute: 0.5,
            decode: 2.0,
            ..PhaseTotals::new()
        };
        a.add(&b);
        assert_eq!(a.compute, 2.0);
        assert_eq!(a.decode, 2.0);
        assert_eq!(a.total(), 4.0);
    }

    #[test]
    fn named_order_is_pipeline_order() {
        let names: Vec<_> = PhaseTotals::new().named().iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            vec!["encode", "dispatch", "compute", "collect", "decode", "verify"]
        );
    }
}
