//! Benchmark harness regenerating every figure of the S²C² paper.
//!
//! Each module under [`experiments`] implements one figure (or figure
//! family) as a pure function from a scale-reduced but shape-preserving
//! configuration to a [`report::Table`]. The `figures` binary (`cargo run
//! -p s2c2-bench --release --bin figures -- all`) prints those tables and
//! writes CSVs under `results/`; the `perf` binary is the one harness for
//! host and virtual time (see the README's Measuring section).
//!
//! Absolute numbers differ from the paper (our substrate is a simulator,
//! not a 13-node Xeon cluster); each experiment module's doc states the
//! expected shape, and its tests assert it.

#![warn(missing_docs)]
// Library code (tests excepted) names every variant it matches.
#![cfg_attr(
    not(test),
    deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )
)]

pub mod experiments;
pub mod report;

/// Lint canary for this crate's own `clippy.toml` (the workspace one
/// minus the clock ban): one deliberately bad item per ban, each under
/// the `#[expect]` that must catch it, so a dropped ban is an
/// `unfulfilled_lint_expectations` error under `-D warnings`. It proves
/// the configuration is wired, not this crate's lint levels: `#[expect]`
/// sets the level locally.
#[cfg(clippy)]
mod lint_canary {
    #![expect(dead_code, reason = "canary: items exist to be linted, never used")]

    #[expect(clippy::disallowed_types, reason = "canary: HashMap is banned")]
    type Unordered = std::collections::HashMap<u8, u8>;

    #[expect(clippy::disallowed_types, reason = "canary: HashSet is banned")]
    type UnorderedSet = std::collections::HashSet<u8>;

    #[expect(clippy::disallowed_methods, reason = "canary: partial_cmp is banned")]
    fn partial_order(a: f64, b: f64) -> Option<std::cmp::Ordering> {
        a.partial_cmp(&b)
    }
}
