//! Known-bad: HashMap/HashSet in an order-sensitive path.

use std::collections::{HashMap, HashSet};

pub fn tally(events: &[(u64, f64)]) -> (Vec<(u64, f64)>, usize) {
    let mut by_job: HashMap<u64, f64> = HashMap::new();
    for &(job, t) in events {
        *by_job.entry(job).or_default() += t;
    }
    let mut seen: HashSet<u64> = HashSet::new();
    seen.extend(by_job.keys().copied());
    (by_job.into_iter().collect(), seen.len())
}
