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

/// The test build optimizes (`[profile.dev] opt-level = 1`) but keeps its
/// checks: under `cargo test` a `debug_assert!` fires and an overflow
/// panics. CI never runs this suite with `--release`.
#[test]
fn tests_build_with_debug_assertions() {
    let panics = |check: fn()| std::panic::catch_unwind(check).is_err();
    assert!(panics(|| debug_assert!(std::hint::black_box(false))), "debug assertions are off");
    assert!(panics(|| _ = std::hint::black_box(u8::MAX) + 1), "overflow checks are off");
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

/// The non-test, non-comment lines of every `.rs` file under `dir`, one
/// `(path, lines)` per file: a file's unit tests follow its `#[cfg(test)]`
/// line.
fn code_under(dir: &Path) -> Vec<(PathBuf, Vec<String>)> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
        for entry in entries {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("read source");
                let code = text.split("\n#[cfg(test)]").next().unwrap_or("").lines();
                let code = code.filter(|line| !line.trim_start().starts_with("//"));
                files.push((path, code.map(String::from).collect()));
            }
        }
    }
    files
}

/// `crates/<name>/src` of every workspace crate, with `<name>`.
fn crate_sources() -> Vec<(String, PathBuf)> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let dirs = std::fs::read_dir(&crates).expect("read crates/");
    let mut out: Vec<(String, PathBuf)> = dirs
        .map(|entry| entry.expect("dir entry").path())
        .filter(|dir| dir.join("src/lib.rs").is_file())
        .map(|dir| (dir.file_name().unwrap().to_string_lossy().into_owned(), dir.join("src")))
        .collect();
    out.sort();
    assert!(out.len() > 10, "expected every crate, got {}", out.len());
    out
}

/// One session driver (DESIGN.md §16): outside its tests, `pscp-client`
/// records a session's start, plays its arrivals out, records its end and
/// builds its `SessionOutcome` in exactly one place each. A second call
/// site means a transport grew its own prelude or epilogue again.
#[test]
fn a_session_is_assembled_in_one_place() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/client/src");
    let files = code_under(&src);
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
        let uses = files
            .iter()
            .flat_map(|(_, code)| code)
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
    let mut found = Vec::new();
    for (_, src) in crate_sources() {
        for (path, code) in code_under(&src) {
            if !path.ends_with("obs/src/alloc_count.rs") {
                let blocks = code.iter().filter(|line| line.contains("unsafe {")).count();
                found.extend(std::iter::repeat_n(path, blocks));
            }
        }
    }
    assert_eq!(found.len(), 1, "`unsafe {{` outside tests: {found:?}");
    assert!(found[0].ends_with("media/src/bitstream.rs"), "{found:?}");
}

/// One front door (DESIGN.md §17): outside its tests, `crates/bench/src`
/// ends the process in one place, never panics on an artifact it cannot
/// write, and spells a verb's name only in the verb table — a second
/// `"chaos"` means a dispatch chain or a hand-written usage grew back. An
/// artifact member of the same name (`.key("scale")`) is not a verb.
#[test]
fn repro_has_one_exit_no_panicking_write_and_one_table() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench/src");
    let files = code_under(&src);
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
            let member = format!(".key({literal})");
            let uses = code.iter().filter(|l| l.contains(&literal) && !l.contains(&member)).count();
            assert_eq!(uses, 0, "verb `{name}` is spelled in {front_door}, outside the table");
        }
    }
}

/// True where `word` stands in `text` with no identifier character before
/// it, nor after it unless `word` itself ends in `::`.
fn names(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(at, _)| {
        let after = &text[at + word.len()..];
        !text[..at].ends_with(is_ident) && (word.ends_with(':') || !after.starts_with(is_ident))
    })
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Only what runs (DESIGN.md §2): every module a crate's `lib.rs` declares
/// `pub mod`, or re-exports items from, is named — as `m::` or by one of
/// those items — in the non-test source of some other file; from another
/// crate, through this crate's name. The declaring `mod`/`pub use` lines do
/// not count and `#[cfg(test)]` modules are exempt. A module that fails
/// this is compiled, documented and tested for no caller: delete it, or
/// call it.
#[test]
fn every_public_module_has_a_caller_outside_itself() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = crate_sources();
    // One string of code per file: a `use` may span lines.
    let mut sources = Vec::new();
    let dirs = ["src", "examples", "benchmark/src"].map(|dir| root.join(dir));
    for dir in crates.iter().map(|(_, src)| src).chain(&dirs) {
        sources.extend(code_under(dir).into_iter().map(|(path, code)| (path, code.join("\n"))));
    }
    let mut unreached = Vec::new();
    for (krate, src) in &crates {
        let lib = src.join("lib.rs");
        let lib_code = &sources.iter().find(|(path, _)| *path == lib).expect("lib.rs").1;
        // `lib.rs` apart: its `mod`/`pub use` declarations (one may span
        // lines, up to its `;`), and everything else.
        let (mut decls, mut rest, mut open) = (Vec::<String>::new(), String::new(), false);
        for line in lib_code.lines() {
            if ["pub mod ", "mod ", "pub use "].iter().any(|d| line.starts_with(d)) {
                decls.push(String::new());
                open = true;
            }
            let part =
                if open { decls.last_mut().expect("an open declaration") } else { &mut rest };
            part.push_str(line);
            part.push('\n');
            open &= !line.contains(';');
        }
        // Module → the names it is reached by.
        let mut modules = std::collections::BTreeMap::<&str, Vec<&str>>::new();
        for decl in &decls {
            let decl = decl.trim_end();
            if let Some(m) = decl.strip_prefix("pub mod ").and_then(|d| d.strip_suffix(';')) {
                modules.entry(m).or_default();
            } else if let Some((m, items)) =
                decl.strip_prefix("pub use ").and_then(|d| d.split_once("::"))
            {
                let items = items.split(|c| !is_ident(c));
                modules.entry(m).or_default().extend(items.filter(|item| !item.is_empty()));
            }
        }
        assert!(!modules.is_empty(), "no modules found in {}", lib.display());
        let from_outside = [format!("pscp_{krate}::"), format!("periscope_repro::{krate}::")];
        for (m, items) in modules {
            let (own_file, own_dir) = (src.join(format!("{m}.rs")), src.join(m));
            let reached = sources.iter().any(|(path, code)| {
                if *path == own_file || path.starts_with(&own_dir) {
                    false
                } else if path.starts_with(src) {
                    let code = if *path == lib { &rest } else { code };
                    names(code, &format!("{m}::")) || items.iter().any(|item| names(code, item))
                } else {
                    // `pscp_x::m`, `pscp_x::Item`, or either inside the braces
                    // of `use pscp_x::{…};`.
                    let uses = from_outside.iter().flat_map(|x| code.split(x.as_str()).skip(1));
                    uses.map(|tail| match tail.strip_prefix('{') {
                        Some(group) => group.split(';').next().unwrap_or(""),
                        None => tail.split(|c| !is_ident(c)).next().unwrap_or(""),
                    })
                    .any(|path| names(path, m) || items.iter().any(|item| names(path, item)))
                }
            });
            if !reached {
                unreached.push(format!("{krate}::{m}"));
            }
        }
    }
    assert!(unreached.is_empty(), "modules no non-test source calls: {unreached:?}");
}

/// DESIGN.md §2–§3 are the paper → code index every later change starts
/// from: each backticked `crate::module[::item…]` there is a file under
/// `crates/<crate>/src`, and each item a word in that file. A row that
/// names a module nobody wrote, or one deleted since, fails here.
#[test]
fn design_index_paths_resolve() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let start = design.find("\n## 2. ").expect("DESIGN.md §2");
    let index = &design[start..design.find("\n## 4. ").expect("DESIGN.md §4")];
    let mut checked = 0;
    let mut unresolved = Vec::new();
    // Odd pieces of a split on '`' are the backticked spans.
    for path in index.split('`').skip(1).step_by(2) {
        let mut parts = path.split("::");
        let (Some(krate), Some(module)) = (parts.next(), parts.next()) else { continue };
        if !path.chars().all(|c| is_ident(c) || c == ':') {
            continue;
        }
        checked += 1;
        let file = root.join(format!("crates/{krate}/src/{module}.rs"));
        match std::fs::read_to_string(&file) {
            Ok(text) => unresolved.extend(
                parts.filter(|item| !names(&text, item)).map(|item| format!("`{path}`: {item}")),
            ),
            Err(_) => unresolved.push(format!("`{path}`: no {krate}/src/{module}.rs")),
        }
    }
    assert!(checked >= 20, "index rows not found: {checked} paths");
    assert!(unresolved.is_empty(), "DESIGN.md §2–§3 paths that do not resolve: {unresolved:#?}");
}

/// One JSON writer (DESIGN.md §15): outside `pscp_proto::json`, no
/// non-test source spells a JSON member key into a string literal — a
/// `\"key\":` in an ordinary literal, `"key":` in a raw one. Every artifact
/// and API body is written through `json::Writer`, which escapes keys,
/// formats numbers one way and asserts ascending keys; a hand-rolled
/// emitter grows back here first.
#[test]
fn json_is_written_by_one_writer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let writer = root.join("crates/proto/src/json.rs");
    let mut dirs: Vec<PathBuf> = crate_sources().into_iter().map(|(_, src)| src).collect();
    dirs.extend(["src", "examples"].map(|dir| root.join(dir)));
    let mut found = Vec::new();
    for dir in dirs {
        for (path, code) in code_under(&dir) {
            if path == writer {
                continue;
            }
            let keys = code.iter().filter(|line| json_key_literal(line)).count();
            if keys > 0 {
                let shown = path.strip_prefix(root).unwrap_or(&path).display().to_string();
                found.push(format!("{shown} ({keys} lines)"));
            }
        }
    }
    found.sort();
    assert!(
        found.is_empty(),
        "hand-written JSON keys, not json::Writer:\n  {}",
        found.join("\n  ")
    );
}

/// Whether `line` holds `"key":` or `\"key\":` — a quote, one or more key
/// characters (a `{…}` format argument counts), a quote, a colon.
fn json_key_literal(line: &str) -> bool {
    let key_char = |c: char| is_ident(c) || ".-/{}".contains(c);
    line.match_indices("\":").any(|(at, _)| {
        let before = line[..at].strip_suffix('\\').unwrap_or(&line[..at]);
        let key = before.trim_end_matches(key_char);
        key.len() < before.len() && key.ends_with('"')
    })
}
