//! Fixture-based tests of the static gate: each known-bad snippet must
//! trip the lint that bans it, and waived or edge-case snippets must
//! pass clean.
//!
//! A fixture under `tests/fixtures/` is compiled as the `lib.rs` of a
//! scratch crate set up like a chosen workspace crate. The scratch crate
//! gets the workspace's `[workspace.package]` and `[workspace.lints]`
//! tables verbatim, and the host crate's crate-level `deny`/`forbid`
//! attributes ahead of the fixture. `CLIPPY_CONF_DIR` points at the host
//! crate, so clippy finds the same `clippy.toml` it would there. Then
//! `cargo clippy -- -D warnings` runs on it, as CI does on the workspace.
//! The `lint_canary` modules prove the `clippy.toml` bans are wired;
//! these tests also prove the lint levels.

use std::path::Path;
use std::process::Command;
use std::sync::{Mutex, PoisonError};

/// The workspace root: this file belongs to the root facade package.
const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The strictest host: every crate-level deny applies in `serve`.
const SERVE: &str = "crates/serve";

/// One clippy run at a time keeps memory use flat.
static CLIPPY: Mutex<()> = Mutex::new(());

/// A diagnostic the gate printed: its lint or error code and its
/// rendered text, still JSON-escaped.
#[derive(Debug)]
struct Diagnostic {
    code: String,
    rendered: String,
}

/// Runs the gate on `fixture` compiled as the library of the workspace
/// crate at `host` (a path relative to the root, e.g. `crates/serve`).
fn gate(host: &str, fixture: &str) -> Vec<Diagnostic> {
    let root = Path::new(ROOT);
    let read = |path: &Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("lint-fixtures")
        .join(format!("{}-{fixture}", host.replace('/', "-")));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch crate is removable");
    }
    std::fs::create_dir_all(dir.join("src")).expect("scratch crate dir is creatable");
    let manifest = scratch_manifest(&read(&root.join("Cargo.toml")));
    std::fs::write(dir.join("Cargo.toml"), manifest).expect("scratch manifest is writable");
    let denies = crate_denies(&read(&root.join(host).join("src/lib.rs")));
    assert!(
        !denies.is_empty(),
        "{host}/src/lib.rs has no crate-level deny"
    );
    let fixture_src = read(&root.join("tests/fixtures").join(fixture));
    std::fs::write(dir.join("src/lib.rs"), denies + &fixture_src)
        .expect("scratch lib.rs is writable");

    let _one_at_a_time = CLIPPY.lock().unwrap_or_else(PoisonError::into_inner);
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--offline", "--quiet", "--message-format=json"])
        .arg("--manifest-path")
        .arg(dir.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(dir.join("target"))
        .args(["--", "-D", "warnings"])
        .env("CLIPPY_CONF_DIR", root.join(host))
        .output()
        .expect("cargo clippy starts");
    let found: Vec<Diagnostic> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|line| line.starts_with(r#"{"reason":"compiler-message""#))
        .filter_map(|line| {
            Some(Diagnostic {
                code: string_after(line, r#""code":{"code":"#)?,
                rendered: string_after(line, r#""rendered":"#).unwrap_or_default(),
            })
        })
        .collect();
    assert!(
        out.status.success() || !found.is_empty(),
        "clippy failed without a diagnostic:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    found
}

/// A standalone manifest for the scratch crate: it is its own workspace,
/// holding the real workspace's package and lint tables verbatim.
fn scratch_manifest(workspace_manifest: &str) -> String {
    let mut out = String::from(
        "[package]\nname = \"lint-fixture\"\nversion.workspace = true\n\
         edition.workspace = true\nrust-version.workspace = true\n\n\
         [lints]\nworkspace = true\n\n[workspace]\n",
    );
    let mut keep = false;
    for line in workspace_manifest.lines() {
        if line.starts_with('[') {
            keep = line == "[workspace.package]" || line.starts_with("[workspace.lints");
        }
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The crate-level `#![…]` attributes of a `lib.rs` that deny or forbid
/// lints, each possibly spanning several lines.
fn crate_denies(lib: &str) -> String {
    let mut out = String::new();
    let mut attr = String::new();
    let mut depth = 0usize;
    for line in lib.lines() {
        if depth == 0 && !line.starts_with("#![") {
            continue;
        }
        depth = (depth + line.matches('[').count()).saturating_sub(line.matches(']').count());
        attr.push_str(line);
        attr.push('\n');
        if depth == 0 {
            if attr.contains("deny(") || attr.contains("forbid(") {
                out.push_str(&attr);
            }
            attr.clear();
        }
    }
    out
}

/// The JSON string that follows the first `key` in `line`, left escaped;
/// `None` when `key` is absent or its value is not a string.
fn string_after(line: &str, key: &str) -> Option<String> {
    let rest = line[line.find(key)? + key.len()..].strip_prefix('"')?;
    let mut escaped = false;
    let end = rest.find(|c| {
        let closes = c == '"' && !escaped;
        escaped = c == '\\' && !escaped;
        closes
    })?;
    Some(rest[..end].to_string())
}

fn hits(found: &[Diagnostic], code: &str) -> usize {
    found.iter().filter(|d| d.code == code).count()
}

// --- known-bad fixtures: every ban fires ---------------------------------

#[test]
fn bad_wall_clock_fires() {
    let found = gate(SERVE, "bad_wall_clock.rs");
    // The `use`, the `Instant::now()` call and both `SystemTime` paths.
    assert!(hits(&found, "clippy::disallowed_types") >= 3, "{found:#?}");
}

#[test]
fn bad_wall_clock_is_allowed_in_measurement_site() {
    // The bench harnesses read the clock by design: their clippy.toml
    // drops the clock ban and keeps the rest.
    let found = gate("crates/bench", "bad_wall_clock.rs");
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn bad_unordered_fires() {
    // The hash-container ban is workspace-wide, trace included.
    for host in [SERVE, "crates/trace"] {
        let found = gate(host, "bad_unordered.rs");
        assert!(
            hits(&found, "clippy::disallowed_types") >= 2,
            "{host}: {found:#?}"
        );
    }
}

#[test]
fn bad_panic_fires_all_constructs() {
    let found = gate(SERVE, "bad_panic.rs");
    for code in [
        "clippy::unwrap_used",
        "clippy::expect_used",
        "clippy::panic",
        "clippy::unreachable",
    ] {
        assert_eq!(hits(&found, code), 1, "{code}: {found:#?}");
    }
    // Panic-freedom spans serve's dependency closure, not serve alone.
    let found = gate("crates/linalg", "bad_panic.rs");
    assert_eq!(hits(&found, "clippy::panic"), 1, "{found:#?}");
}

#[test]
fn bad_waivers_are_findings_and_do_not_silence() {
    let found = gate(SERVE, "bad_waiver.rs");
    // A bare `#[allow]` without a reason is denied twice over…
    assert_eq!(hits(&found, "clippy::allow_attributes"), 1, "{found:#?}");
    assert_eq!(
        hits(&found, "clippy::allow_attributes_without_reason"),
        1,
        "{found:#?}"
    );
    // …an `#[expect]` naming an unknown lint is an error…
    assert_eq!(hits(&found, "unknown_lints"), 1, "{found:#?}");
    // …and the HashMap parameter it failed to cover still fires.
    assert_eq!(hits(&found, "clippy::disallowed_types"), 1, "{found:#?}");
}

// --- waived fixture: justified waivers silence everything ----------------

#[test]
fn justified_waivers_silence_every_rule() {
    let found = gate(SERVE, "waived_all.rs");
    assert!(found.is_empty(), "{found:#?}");
}

// --- lexer edge cases: zero false positives ------------------------------

#[test]
fn lexer_edge_cases_produce_zero_findings() {
    let found = gate(SERVE, "clean_lexer_edges.rs");
    assert!(found.is_empty(), "{found:#?}");
}

// --- match and waiver fixtures -------------------------------------------

#[test]
fn semantic_catch_all_over_registered_enum_fires() {
    let found = gate(SERVE, "bad_event_catch_all.rs");
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(found[0].code, "clippy::wildcard_enum_match_arm");
    assert!(
        found[0].rendered.contains("EventKind::BatchFlush"),
        "the covered variants are spelled out: {}",
        found[0].rendered
    );
}

#[test]
fn semantic_deleted_variant_arm_fires() {
    let found = gate(SERVE, "bad_event_missing_variant.rs");
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(found[0].code, "E0004");
    assert!(
        found[0].rendered.contains("BatchFlush"),
        "missing variant named: {}",
        found[0].rendered
    );
}

#[test]
fn semantic_stale_waiver_fires() {
    let found = gate(SERVE, "bad_stale_waiver.rs");
    assert_eq!(found.len(), 1, "{found:#?}");
    assert_eq!(found[0].code, "unfulfilled_lint_expectations");
    assert!(
        found[0].rendered.contains("disallowed_types"),
        "stale lint named: {}",
        found[0].rendered
    );
}

#[test]
fn semantic_waivers_silence_and_are_not_stale() {
    let found = gate(SERVE, "waived_semantic.rs");
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn semantic_edge_cases_produce_zero_findings() {
    let found = gate(SERVE, "clean_semantic_edges.rs");
    assert!(found.is_empty(), "{found:#?}");
}
