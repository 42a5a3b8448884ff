//! Edge cases that must produce zero diagnostics: generics with
//! where-clauses, guards, nested matches, wrapped patterns, macro bodies,
//! and ordered float reductions.

pub enum EventKind {
    JobArrival,
    TaskComplete,
    BatchFlush,
}

pub struct Holder<T>
where
    T: Clone + Into<EventKind>,
{
    items: Vec<T>,
}

impl<T> Holder<T>
where
    T: Clone + Into<EventKind>,
{
    pub fn classify(&self, k: EventKind, flag: bool) -> u32 {
        match k {
            EventKind::JobArrival if flag => 10,
            EventKind::JobArrival => 1,
            EventKind::TaskComplete => match flag {
                true => 2,
                false => 3,
            },
            EventKind::BatchFlush => self.items.len() as u32,
        }
    }

    pub fn label(&self, k: &EventKind) -> &'static str {
        match k {
            EventKind::JobArrival => "arrive",
            EventKind::TaskComplete => "done",
            EventKind::BatchFlush => "flush",
        }
    }
}

pub fn wrapped(k: Option<EventKind>) -> u32 {
    match k {
        Some(EventKind::BatchFlush) => 1,
        Some(_) => 2,
        None => 0,
    }
}

pub fn totals(xs: &[f64], v: &[f64]) -> f64 {
    let head: f64 = xs.iter().take(3).sum();
    let scaled = v.iter().map(|x| x * 2.0).sum::<f64>();
    let peak = xs.iter().copied().fold(0.0, f64::max);
    let count: usize = macro_made().iter().sum();
    head + scaled + peak + count as f64
}

fn macro_made() -> Vec<usize> {
    let mut out = vec![0usize; 4];
    out.push(format!("{:?} {:?}", "EventKind::JobArrival", "match _ =>").len());
    out
}
