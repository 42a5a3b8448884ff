//! Known-bad: a deleted variant arm. No catch-all is left behind, so
//! the compiler's exhaustiveness check must name `BatchFlush`.

pub enum EventKind {
    JobArrival,
    TaskComplete,
    BatchFlush,
}

pub fn interpret(k: EventKind) -> u32 {
    match k {
        EventKind::JobArrival => 1,
        EventKind::TaskComplete => 2,
    }
}
