//! Regenerates every table and figure of the paper, plus the service
//! scenarios — driven by the experiment registry, so `--help` always
//! lists exactly what is runnable.
//!
//! ```text
//! cargo run -p s2c2-bench --release --bin figures -- all
//! cargo run -p s2c2-bench --release --bin figures -- fig6 serve
//! cargo run -p s2c2-bench --release --bin figures -- --quick all
//! ```
//!
//! Tables are printed to stdout and written as CSV under `results/`.

use s2c2_bench::experiments::{registry, Scale};
use s2c2_bench::report::Table;
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    PathBuf::from("results")
}

fn emit(table: &Table, file: &str) {
    println!("{}", table.render());
    let path = out_dir().join(file);
    if let Err(e) = table.write_csv(&path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[written {}]", path.display());
    }
    println!();
}

fn print_usage() {
    eprintln!("usage: figures [--quick] <experiment>...\n");
    eprintln!("experiments:");
    for def in registry() {
        let alias = if def.aliases.is_empty() {
            String::new()
        } else {
            format!(" (also: {})", def.aliases.join(", "))
        };
        eprintln!("  {:<12} {}{alias}", def.name, def.summary);
    }
    eprintln!("  {:<12} runs every experiment above", "all");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    // Flags are validated as strictly as experiment names: a typo like
    // `--quik` must not silently run the full-scale suite.
    let unknown_flags: Vec<&str> = args
        .iter()
        .filter(|a| a.starts_with("--") && *a != "--quick")
        .map(String::as_str)
        .collect();
    if !unknown_flags.is_empty() {
        eprintln!("unknown flag(s): {}\n", unknown_flags.join(", "));
        print_usage();
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let selected = if selected.is_empty() {
        vec!["all"]
    } else {
        selected
    };

    let reg = registry();
    // Reject unknown selectors up front, with the full listing — new
    // experiments are discoverable instead of silently skipped.
    let known = |name: &str| {
        name == "all"
            || reg
                .iter()
                .any(|d| d.name == name || d.aliases.contains(&name))
    };
    let unknown: Vec<&str> = selected.iter().copied().filter(|s| !known(s)).collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment(s): {}\n", unknown.join(", "));
        print_usage();
        std::process::exit(2);
    }

    let all = selected.contains(&"all");
    for def in &reg {
        let wanted =
            all || selected.contains(&def.name) || def.aliases.iter().any(|a| selected.contains(a));
        if wanted {
            (def.run)(scale, &mut emit);
        }
    }
}
