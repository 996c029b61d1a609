//! Hermeticity guard: the workspace must build with zero network access,
//! which means no external crates anywhere in the dependency graph. This
//! walks every `Cargo.toml` in the repo and fails if any dependency section
//! names a crate that is not an in-tree `pscp-*` workspace member. A
//! teammate adding `rand = "0.8"` back gets a test failure with the file
//! and line, not a registry timeout three PRs later.

use std::path::{Path, PathBuf};

/// All Cargo.toml files: the workspace root plus every crate.
fn manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    let entries = std::fs::read_dir(&crates).expect("read crates/");
    for entry in entries {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            out.push(manifest);
        }
    }
    assert!(out.len() > 10, "expected the workspace root plus every crate, got {}", out.len());
    out
}

/// Dependency keys allowed everywhere: in-tree workspace members only.
fn is_internal(name: &str) -> bool {
    name.starts_with("pscp-")
}

/// Extracts `(line_number, dependency_name)` pairs from every dependency
/// section of a manifest. Hand-rolled because the repo has no TOML crate —
/// the format in-tree is plain `name = { ... }` / `name.workspace = true`
/// lines under `[...dependencies...]` headers.
fn dependency_names(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('[') {
            // [dependencies], [dev-dependencies], [build-dependencies],
            // [workspace.dependencies], [target.'...'.dependencies]
            in_dep_section = line.trim_end_matches(']').ends_with("dependencies");
            continue;
        }
        if !in_dep_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(key) = line.split('=').next() {
            let name = key.trim().split('.').next().unwrap_or("").trim();
            if !name.is_empty() {
                out.push((i + 1, name.to_string()));
            }
        }
    }
    out
}

#[test]
fn no_external_dependencies_anywhere() {
    let mut violations = Vec::new();
    for manifest in manifests() {
        let text = std::fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
        for (line, name) in dependency_names(&text) {
            if !is_internal(&name) {
                violations
                    .push(format!("{}:{line}: external dependency `{name}`", manifest.display()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "external dependencies break the offline build:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn workspace_dependency_table_is_path_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let text = std::fs::read_to_string(root).expect("read workspace manifest");
    let mut in_table = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_table = line == "[workspace.dependencies]";
            continue;
        }
        if in_table && !line.is_empty() && !line.starts_with('#') {
            assert!(
                line.contains("path ="),
                "[workspace.dependencies] entry without a path (registry dep?): {line}"
            );
        }
    }
}

#[test]
fn every_crate_is_a_pscp_crate() {
    // The `cargo tree` acceptance criterion, testable without cargo: every
    // package name in the workspace is either the root or `pscp-*`.
    for manifest in manifests() {
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        let name = text
            .lines()
            .skip_while(|l| l.trim() != "[package]")
            .find_map(|l| l.trim().strip_prefix("name = "))
            .map(|v| v.trim_matches('"').to_string());
        if let Some(name) = name {
            assert!(
                name == "periscope-repro" || name.starts_with("pscp-"),
                "unexpected package `{name}` in {}",
                manifest.display()
            );
        }
    }
}

/// One session driver (DESIGN.md §16): outside its tests, `pscp-client`
/// records a session's start, plays its arrivals out, records its end and
/// builds its `SessionOutcome` in exactly one place each. A second call
/// site means a transport grew its own prelude or epilogue again.
#[test]
fn a_session_is_assembled_in_one_place() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/client/src");
    let mut code = String::new();
    for entry in std::fs::read_dir(&src).expect("read crates/client/src") {
        let text = std::fs::read_to_string(entry.expect("dir entry").path()).expect("read source");
        // A file's unit tests follow its `#[cfg(test)]` line.
        code.push_str(text.split("\n#[cfg(test)]").next().unwrap_or(""));
    }
    // What to count, and the contexts that are not a use of it.
    for (what, not_a_use) in [
        (
            "SessionOutcome {",
            &["struct SessionOutcome", "impl SessionOutcome", "-> SessionOutcome"][..],
        ),
        ("trace_session_start(", &["fn trace_session_start("]),
        ("trace_session_end(", &["fn trace_session_end("]),
        ("run_playback(", &["fn run_playback("]),
    ] {
        let uses = code
            .lines()
            .filter(|line| !line.trim_start().starts_with("//"))
            .filter(|line| line.contains(what) && !not_a_use.iter().any(|x| line.contains(x)))
            .count();
        assert_eq!(uses, 1, "`{what}` is used {uses} times outside tests, not once");
    }
}

/// One `unsafe` block in the product (DESIGN.md §10): the call into the
/// AVX2 instantiation of the frame-body kernel, under the feature detection
/// that justifies it. The counting allocator is test apparatus and keeps its
/// own. A second block is a reviewed decision, not drift.
#[test]
fn the_only_unsafe_block_is_the_kernel_dispatch() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut found = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("read crates/") {
        let src = krate.expect("dir entry").path().join("src");
        let mut dirs = vec![src];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).into_iter().flatten() {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    dirs.push(path);
                } else if path.extension().is_some_and(|e| e == "rs")
                    && !path.ends_with("obs/src/alloc_count.rs")
                {
                    let text = std::fs::read_to_string(&path).expect("read source");
                    let code = text.split("\n#[cfg(test)]").next().unwrap_or("");
                    let blocks = code
                        .lines()
                        .filter(|line| !line.trim_start().starts_with("//"))
                        .filter(|line| line.contains("unsafe {"))
                        .count();
                    found.extend(std::iter::repeat_n(path, blocks));
                }
            }
        }
    }
    assert_eq!(found.len(), 1, "`unsafe {{` outside tests: {found:?}");
    assert!(found[0].ends_with("media/src/bitstream.rs"), "{found:?}");
}

/// One front door (DESIGN.md §17): outside its tests, `crates/bench/src`
/// ends the process in one place, never panics on an artifact it cannot
/// write, and spells a verb's name only in the verb table — a second
/// `"chaos"` means a dispatch chain or a hand-written usage grew back.
#[test]
fn repro_has_one_exit_no_panicking_write_and_one_table() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src");
    let mut files = Vec::new();
    let mut dirs = vec![src.clone()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("read crates/bench/src") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let text = std::fs::read_to_string(&path).expect("read source");
                let code: Vec<String> = text
                    .split("\n#[cfg(test)]")
                    .next()
                    .unwrap_or("")
                    .lines()
                    .filter(|line| !line.trim_start().starts_with("//"))
                    .map(String::from)
                    .collect();
                files.push((path, code));
            }
        }
    }
    let count = |what: &str| {
        files.iter().flat_map(|(_, code)| code).filter(|line| line.contains(what)).count()
    };
    assert_eq!(count("process::exit("), 1, "one place ends the process");
    assert_eq!(count(".expect(\"write") + count(".expect(\"create"), 0, "a write that panics");
    assert_eq!(count("panic!(\"write"), 0, "a write that panics");

    let table = src.join("verbs.rs");
    let rows = &files.iter().find(|(path, _)| *path == table).expect("the verb table").1;
    let names: Vec<&str> = rows
        .iter()
        .filter_map(|line| line.trim().strip_prefix("name: \"")?.strip_suffix("\","))
        .collect();
    assert!(names.len() >= 20 && names.contains(&"chaos"), "table rows not found: {names:?}");
    for front_door in ["bin/repro.rs", "cli.rs", "cli/parse.rs", "run.rs"] {
        let code =
            &files.iter().find(|(path, _)| *path == src.join(front_door)).expect(front_door).1;
        for name in &names {
            let literal = format!("\"{name}\"");
            let uses = code.iter().filter(|line| line.contains(&literal)).count();
            assert_eq!(uses, 0, "verb `{name}` is spelled in {front_door}, outside the table");
        }
    }
}
