//! Known-bad: panic-prone constructs in library code.

pub fn lookup(map: &std::collections::BTreeMap<u64, f64>, id: u64) -> f64 {
    let direct = map.get(&id).unwrap();
    let described = map.get(&id).expect("job is resident");
    if direct.to_bits() != described.to_bits() {
        panic!("diverged");
    }
    match id {
        0 => unreachable!(),
        _ => *direct,
    }
}
