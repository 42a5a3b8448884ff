//! Known-bad: a wildcard arm over an engine enum.
//! `clippy::wildcard_enum_match_arm` must fire at the `_` arm.

pub enum EventKind {
    JobArrival,
    TaskComplete,
    BatchFlush,
}

pub fn interpret(k: EventKind) -> u32 {
    match k {
        EventKind::JobArrival => 1,
        _ => 0,
    }
}
