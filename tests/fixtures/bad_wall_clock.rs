//! Known-bad: wall-clock reads in a decision path.

use std::time::Instant;

pub fn decide(deadline: f64) -> bool {
    let now = Instant::now();
    now.elapsed().as_secs_f64() < deadline
}

pub fn also_bad() -> std::time::SystemTime {
    std::time::SystemTime::now()
}
