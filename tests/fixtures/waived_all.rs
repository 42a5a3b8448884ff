//! Every ban violated once, every violation under a justified
//! `#[expect]`: this file must produce zero diagnostics. An expectation
//! that catches nothing is itself an error, so each one covers a live
//! finding.

#[expect(
    clippy::disallowed_types,
    reason = "fixture: measurement-only helper mirrored from backend.rs"
)]
use std::time::Instant;

#[expect(
    clippy::disallowed_types,
    reason = "fixture: keyed lookups only, never iterated"
)]
use std::collections::HashMap;

#[expect(
    clippy::disallowed_methods,
    clippy::unwrap_used,
    reason = "fixture: inputs proven finite by the caller"
)]
pub fn order(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap()
}

#[expect(
    clippy::disallowed_types,
    reason = "fixture: parameter type only, nothing iterates it"
)]
pub fn timed(map: &HashMap<u64, f64>) -> f64 {
    #[expect(clippy::disallowed_types, reason = "fixture: measurement-only site")]
    let t0 = Instant::now();
    map.len() as f64 + t0.elapsed().as_secs_f64()
}

#[expect(
    unsafe_code,
    reason = "fixture: the pointer derives from a live reference"
)]
pub fn read(x: &f64) -> f64 {
    // SAFETY: the pointer derives from a live reference.
    unsafe { *std::ptr::from_ref(x) }
}
