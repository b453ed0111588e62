//! Source gate: the fleet engine, the serve front-end, the telemetry
//! layer and the verifier side of the proof system hold a no-panic
//! contract on their non-test code — anything that can go wrong comes
//! back as a typed error (`SimError`, `ServeError`, `DecodeError`,
//! `HyperPlonkError`, `SumCheckError`) or degrades silently (a recorder
//! must never take the code it observes down), never an `.expect(...)` /
//! `.unwrap()` panic that kills a simulation, the live service, an
//! instrumented prover thread, or a verifier fed untrusted bytes.
//!
//! This scan is the enforcement: it walks `crates/fleet/src`,
//! `crates/serve/src`, `crates/telemetry/src`, `crates/hyperplonk/src`,
//! `crates/pcs/src` and `crates/transcript/src`, plus the SumCheck
//! verifier's two files (the prover-side `plan.rs` / `prover.rs` /
//! `zerocheck.rs` may assert on their own inputs), strips test modules
//! and comments, and fails on any surviving `.expect(` or
//! `.unwrap()`. Explicit
//! `panic!`/`assert!` builder validations and the documented panicking
//! *wrappers* (`EventQueue::push` over `try_push`) are allowed — the
//! contract bans the implicit panics, where the error message says
//! nothing about what broke.

use std::fs;
use std::path::{Path, PathBuf};

/// Collects `path:line: source` for every banned call outside test
/// code and comments.
fn scan_file(path: &Path, violations: &mut Vec<String>) {
    let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    for (i, line) in src.lines().enumerate() {
        let trimmed = line.trim_start();
        // Test modules sit at the bottom of each file by repo
        // convention; everything from the cfg(test) marker down is out
        // of scope for the gate.
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.starts_with("//") {
            continue;
        }
        if line.contains(".expect(") || line.contains(".unwrap()") {
            violations.push(format!("{}:{}: {trimmed}", path.display(), i + 1));
        }
    }
}

fn scan_dir(dir: &Path, violations: &mut Vec<String>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read dir {}: {e}", dir.display()));
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            scan_dir(&path, violations);
        } else if path.extension().is_some_and(|x| x == "rs") {
            scan_file(&path, violations);
        }
    }
}

#[test]
fn fleet_serve_and_telemetry_sources_never_panic_implicitly() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate lives one level below the workspace root");
    let mut violations = Vec::new();
    for src in [
        "crates/fleet/src",
        "crates/serve/src",
        "crates/telemetry/src",
        "crates/hyperplonk/src",
        "crates/pcs/src",
        "crates/transcript/src",
        "crates/sumcheck/src/verifier.rs",
        "crates/sumcheck/src/interp.rs",
    ] {
        let path = repo_root.join(src);
        if path.is_dir() {
            scan_dir(&path, &mut violations);
        } else {
            assert!(path.is_file(), "missing {}", path.display());
            scan_file(&path, &mut violations);
        }
    }
    assert!(
        violations.is_empty(),
        "implicit panic paths in no-panic code (return a typed error \
         instead):\n{}",
        violations.join("\n")
    );
}
