//! Justified waivers silence the catch-all and hash-order lints, and
//! because they cover live findings they are not stale.

#[expect(
    clippy::disallowed_types,
    reason = "fixture: keyed lookups only, never iterated in order"
)]
use std::collections::HashMap;

pub enum EventKind {
    JobArrival,
    TaskComplete,
    BatchFlush,
}

#[expect(
    clippy::wildcard_enum_match_arm,
    reason = "fixture: forwarding shim, variants handled downstream"
)]
pub fn interpret(k: EventKind) -> u32 {
    match k {
        EventKind::JobArrival => 1,
        _ => 0,
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "fixture: all weights are equal so summation order cannot matter"
)]
pub fn total(weights: &HashMap<u32, f64>) -> f64 {
    weights.values().sum::<f64>()
}
