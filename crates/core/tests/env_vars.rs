//! The `MAJIC_*` environment variables the engine reads, kept honest.
//!
//! A session is configured by its `EngineOptions`; the only variables
//! the engine's code reads are the ones that cannot change a result:
//! `MAJIC_THREADS` (kernels stay bitwise identical to sequential) and
//! `MAJIC_TRACE` / `MAJIC_EXPLAIN` (observers). This test scans the
//! non-test code of every crate (each `crates/*/src/**/*.rs` up to its
//! first `#[cfg(test)]`) for `env::var` reads and checks that set, and
//! that README's environment table documents exactly those names, so a
//! new knob has to be documented before it can land.
//!
//! `majic-testkit` is skipped: it is test support (a dev-dependency),
//! and its `MAJIC_PROP_*` variables drive the property-test runner, not
//! a session.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const ENGINE_VARS: [&str; 3] = ["MAJIC_EXPLAIN", "MAJIC_THREADS", "MAJIC_TRACE"];

fn crates_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates directory")
        .to_path_buf()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The string literal each `env::var(` / `env::var_os(` call in `code`
/// passes, panicking on a call whose name is not a literal (a name the
/// scan could not see).
fn env_reads(code: &str, file: &Path, out: &mut BTreeSet<String>) {
    for call in ["env::var(", "env::var_os("] {
        for (at, _) in code.match_indices(call) {
            let arg = code[at + call.len()..].trim_start();
            let name = arg
                .strip_prefix('"')
                .and_then(|rest| rest.split('"').next())
                .unwrap_or_else(|| panic!("{}: `{call}` without a literal name", file.display()));
            out.insert(name.to_owned());
        }
    }
}

#[test]
fn engine_reads_only_the_documented_variables() {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(crates_dir()).expect("crates directory") {
        let krate = krate.expect("directory entry").path();
        let src = krate.join("src");
        if krate.file_name().is_some_and(|n| n == "testkit") || !src.is_dir() {
            continue;
        }
        rust_files(&src, &mut files);
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());

    let mut read = BTreeSet::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        env_reads(code, file, &mut read);
    }
    let majic: BTreeSet<&str> = read
        .iter()
        .map(String::as_str)
        .filter(|n| n.starts_with("MAJIC_"))
        .collect();
    assert_eq!(majic, BTreeSet::from(ENGINE_VARS), "all reads: {read:?}");

    let readme = std::fs::read_to_string(crates_dir().join("../README.md")).expect("README.md");
    let table = readme
        .split("## Environment variables")
        .nth(1)
        .expect("README has an environment section");
    let documented: BTreeSet<&str> = table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .collect();
    assert_eq!(documented, majic, "README environment table");
}
