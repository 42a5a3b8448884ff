//! Known-bad: waivers that must themselves be findings.

#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

#[expect(clippy::not_a_real_lint, reason = "fixture: the lint name is unknown")]
pub fn noop(_m: HashMap<u64, u64>) {}
