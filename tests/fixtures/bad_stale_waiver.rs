//! Known-bad: a waiver whose hazard is gone. The `HashMap` it once
//! covered was deleted, so the expectation is unfulfilled.

#[expect(
    clippy::disallowed_types,
    reason = "fixture: covered a HashMap that no longer exists"
)]
pub fn nothing_hazardous_here() -> u32 {
    7
}
