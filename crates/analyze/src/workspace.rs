//! Workspace discovery: members, crate names, and the analyzed file
//! set.
//!
//! The member list is derived from the root `Cargo.toml`'s
//! `[workspace] members` globs — there is deliberately no hand-curated
//! crate list anywhere in the gate, so a newly added crate is covered
//! by `cargo xtask check`'s clippy step and every analyzer pass from
//! its first commit ([`workspace_members`] is also what xtask feeds to
//! clippy `-p`). Shim crates (`shims/*`, vendored stand-ins for
//! third-party dev-dependencies) are flagged so passes can exempt them
//! from first-party-only rules while still covering them with the
//! `forbid(unsafe_code)` check.

use std::path::{Path, PathBuf};

use crate::lexer::{self, Token};

/// One workspace member crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// The `package.name` from the member's `Cargo.toml`.
    pub name: String,
    /// Workspace-relative directory (`"crates/engine"`).
    pub path: String,
    /// Whether this is a vendored shim (`shims/*`) rather than
    /// first-party code.
    pub is_shim: bool,
}

/// What kind of target a source file belongs to, which decides which
/// passes apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Library or binary code (`src/**`) — full rule set.
    Library,
    /// Integration tests and benches (`tests/**`, `benches/**`) —
    /// exempt from the panic/lock lints, still scanned for `unsafe`.
    Test,
}

/// One source file, pre-lexed.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Full source text.
    pub text: String,
    /// The file's target kind.
    pub role: FileRole,
    /// Owning crate's package name (root package for `src/`+`tests/`).
    pub crate_name: String,
    /// Whether the owning crate is a vendored shim.
    pub is_shim: bool,
    /// Whether this file is a crate root (`lib.rs`, `main.rs`, or a
    /// `src/bin/*.rs`) and must carry `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
    /// The lexed token stream.
    pub tokens: Vec<Token>,
    /// Per-token flag: inside a `#[cfg(test)]`/`#[test]` region.
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// Builds (and lexes) a source file record.
    #[must_use]
    pub fn new(
        rel_path: &str,
        text: String,
        role: FileRole,
        crate_name: &str,
        is_shim: bool,
        is_crate_root: bool,
    ) -> Self {
        let tokens = lexer::lex(&text);
        let test_mask = lexer::test_mask(&text, &tokens);
        Self {
            rel_path: rel_path.to_string(),
            text,
            role,
            crate_name: crate_name.to_string(),
            is_shim,
            is_crate_root,
            tokens,
            test_mask,
        }
    }
}

/// The full input to an analysis run: every source file of every
/// workspace member (plus the root package), pre-lexed.
#[derive(Debug, Default)]
pub struct AnalysisInput {
    /// All files, in deterministic (sorted) order.
    pub files: Vec<SourceFile>,
}

impl AnalysisInput {
    /// An input built from in-memory files — the fixture path used by
    /// the analyzer's own tests.
    #[must_use]
    pub fn from_files(files: Vec<SourceFile>) -> Self {
        Self { files }
    }
}

/// Reads and minimally parses a `Cargo.toml`, returning the
/// `package.name` if the file declares one.
fn package_name(manifest: &Path) -> Result<Option<String>, String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("read {}: {e}", manifest.display()))?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let v = rest.trim().trim_matches('"');
                    return Ok(Some(v.to_string()));
                }
            }
        }
    }
    Ok(None)
}

/// Expands the `[workspace] members` list of `<root>/Cargo.toml`
/// (including trailing-`*` globs like `"crates/*"`) into concrete
/// member records, appending the root package itself if the root
/// manifest also declares one.
pub fn workspace_members(root: &Path) -> Result<Vec<Member>, String> {
    let manifest_path = root.join("Cargo.toml");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("read {}: {e}", manifest_path.display()))?;
    // Pull the bracketed list following `members`; the workspace keeps
    // it on one line, but tolerate a wrapped list too.
    let after = manifest
        .split_once("members")
        .ok_or("Cargo.toml: no [workspace] members list")?
        .1;
    let open = after.find('[').ok_or("members: missing `[`")?;
    let close = after
        .get(open..)
        .and_then(|s| s.find(']').map(|i| open + i))
        .ok_or("members: missing `]`")?;
    let list = after.get(open + 1..close).unwrap_or("");
    let mut dirs: Vec<PathBuf> = Vec::new();
    for entry in list.split(',') {
        let pat = entry.trim().trim_matches('"');
        if pat.is_empty() {
            continue;
        }
        if let Some(prefix) = pat.strip_suffix("/*") {
            let dir = root.join(prefix);
            let iter =
                std::fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let mut expanded: Vec<PathBuf> = iter
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect();
            expanded.sort();
            dirs.extend(expanded);
        } else {
            dirs.push(root.join(pat));
        }
    }
    let mut members = Vec::new();
    for dir in dirs {
        let Some(name) = package_name(&dir.join("Cargo.toml"))? else {
            continue;
        };
        let rel = dir
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .to_string_lossy()
            .replace('\\', "/");
        let is_shim = rel.starts_with("shims/");
        members.push(Member {
            name,
            path: rel,
            is_shim,
        });
    }
    // The root manifest's own [package] (the umbrella crate).
    if let Some(name) = package_name(&manifest_path)? {
        members.push(Member {
            name,
            path: String::new(),
            is_shim: false,
        });
    }
    Ok(members)
}

/// Recursively collects `.rs` files under `dir` (sorted), skipping
/// `fixtures` subtrees — fixture corpora contain *deliberate*
/// violations for the analyzer's own tests.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let iter = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = iter.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            if entry.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Loads the analyzed file set of the workspace at `root`: for every
/// member, `src/**` (role [`FileRole::Library`]) plus `tests/**` and
/// `benches/**` (role [`FileRole::Test`]); shims contribute `src/`
/// only.
pub fn load_workspace(root: &Path) -> Result<AnalysisInput, String> {
    let members = workspace_members(root)?;
    let mut files = Vec::new();
    for m in &members {
        let base = if m.path.is_empty() {
            root.to_path_buf()
        } else {
            root.join(&m.path)
        };
        let mut sections: Vec<(&str, FileRole)> = vec![("src", FileRole::Library)];
        if !m.is_shim {
            sections.push(("tests", FileRole::Test));
            sections.push(("benches", FileRole::Test));
        }
        for (sub, role) in sections {
            let mut paths = Vec::new();
            collect_rs(&base.join(sub), &mut paths)?;
            for p in paths {
                let rel = p
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .to_string_lossy()
                    .replace('\\', "/");
                let text = std::fs::read_to_string(&p)
                    .map_err(|e| format!("read {}: {e}", p.display()))?;
                let fname = p.file_name().map(|n| n.to_string_lossy().to_string());
                let in_bin_dir = p
                    .parent()
                    .and_then(Path::file_name)
                    .is_some_and(|n| n == "bin");
                let is_crate_root = role == FileRole::Library
                    && (matches!(fname.as_deref(), Some("lib.rs" | "main.rs")) || in_bin_dir);
                files.push(SourceFile::new(
                    &rel,
                    text,
                    role,
                    &m.name,
                    m.is_shim,
                    is_crate_root,
                ));
            }
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(AnalysisInput::from_files(files))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The analyzer's own workspace root (two levels above this
    /// crate's manifest dir).
    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("analyze invariant: crate sits two levels below the workspace root")
            .to_path_buf()
    }

    #[test]
    fn members_are_derived_not_hand_listed() {
        let members = workspace_members(&repo_root()).expect("workspace parses");
        let names: Vec<&str> = members.iter().map(|m| m.name.as_str()).collect();
        // Spot checks: every layer of the system, the root package,
        // xtask, this crate itself, and the shims (flagged).
        for expected in [
            "sqs-util",
            "sqs-core",
            "sqs-engine",
            "sqs-service",
            "sqs-store",
            "sqs-analyze",
            "xtask",
            "streaming-quantiles",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        assert!(members
            .iter()
            .any(|m| m.is_shim && m.name.contains("proptest")));
        assert!(members
            .iter()
            .all(|m| m.is_shim == m.path.starts_with("shims/")));
    }

    #[test]
    fn load_workspace_roles_and_roots() {
        let input = load_workspace(&repo_root()).expect("workspace loads");
        let file = |path: &str| input.files.iter().find(|f| f.rel_path == path);
        let engine = file("crates/engine/src/lib.rs").expect("engine crate root present");
        assert!(engine.is_crate_root);
        assert_eq!(engine.role, FileRole::Library);
        assert_eq!(engine.crate_name, "sqs-engine");
        let stress = file("crates/engine/tests/stress.rs").expect("engine stress tests present");
        assert_eq!(stress.role, FileRole::Test);
        // Fixture corpora are never part of the analyzed tree.
        assert!(input
            .files
            .iter()
            .all(|f| !f.rel_path.contains("/fixtures/")));
    }
}
