//! Workspace discovery: members, crate names, and the analyzed file
//! set.
//!
//! The member list is derived from the root `Cargo.toml`'s
//! `[workspace] members` globs — there is deliberately no hand-curated
//! crate list anywhere in the gate, so a newly added crate is covered
//! by every analyzer pass from its first commit. Shim crates
//! (`shims/*`, vendored stand-ins for third-party dev-dependencies)
//! are flagged and left out of the analyzed file set.

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

/// One source file, pre-lexed.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Full source text.
    pub text: String,
    /// The lexed token stream.
    pub tokens: Vec<Token>,
    /// Per-token flag: inside a `#[cfg(test)]`/`#[test]` region.
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// Builds (and lexes) a source file record.
    #[must_use]
    pub fn new(rel_path: &str, text: String) -> Self {
        let tokens = lexer::lex(&text);
        let test_mask = lexer::test_mask(&text, &tokens);
        Self {
            rel_path: rel_path.to_string(),
            text,
            tokens,
            test_mask,
        }
    }
}

/// The full input to an analysis run: the library and binary sources
/// (`src/**`) of every first-party member, pre-lexed.
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

/// Recursively collects `.rs` files under `dir` (sorted).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let iter = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = iter.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs(&entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push(entry);
        }
    }
    Ok(())
}

/// Loads the analyzed file set of the workspace at `root`: `src/**`
/// of every first-party member. Integration tests, benches, shims and
/// the analyzer's fixture corpora (deliberate violations, under
/// `tests/fixtures/`) are left out — no rule applies to them.
pub fn load_workspace(root: &Path) -> Result<AnalysisInput, String> {
    let mut files = Vec::new();
    for m in workspace_members(root)?.iter().filter(|m| !m.is_shim) {
        let mut paths = Vec::new();
        collect_rs(&root.join(&m.path).join("src"), &mut paths)?;
        for p in paths {
            let rel = p
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .to_string_lossy()
                .replace('\\', "/");
            let text =
                std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
            files.push(SourceFile::new(&rel, text));
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

    /// The lines of the manifest table headed `header`, trimmed and
    /// with spaces removed (`unsafe_code="forbid"`).
    fn table<'a>(manifest: &'a str, header: &'a str) -> impl Iterator<Item = String> + 'a {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(move |l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(|l| l.replace(' ', ""))
    }

    /// rustc forbids `unsafe` in every target of every member — tests,
    /// examples and the shims included — because every manifest either
    /// inherits `[workspace.lints]`, whose `unsafe_code` is `forbid`, or
    /// forbids it in its own `[lints.rust]`.
    #[test]
    fn every_manifest_forbids_unsafe_code() {
        let root = repo_root();
        let read = |dir: &str| {
            std::fs::read_to_string(root.join(dir).join("Cargo.toml"))
                .expect("test invariant: every member has a manifest")
        };
        let forbid = r#"unsafe_code="forbid""#;
        assert!(
            table(&read(""), "[workspace.lints.rust]").any(|l| l == forbid),
            "the root manifest's [workspace.lints.rust] must forbid unsafe_code"
        );
        let members = workspace_members(&root).expect("workspace parses");
        for m in &members {
            let manifest = read(&m.path);
            let inherits = table(&manifest, "[lints]").any(|l| l == "workspace=true");
            let own = table(&manifest, "[lints.rust]").any(|l| l == forbid);
            assert!(
                inherits || own,
                "{} ({}/Cargo.toml) neither inherits [workspace.lints] nor forbids \
                 unsafe_code in [lints.rust]",
                m.name,
                m.path
            );
        }
    }

    #[test]
    fn load_workspace_reads_first_party_sources_only() {
        let input = load_workspace(&repo_root()).expect("workspace loads");
        let has = |path: &str| input.files.iter().any(|f| f.rel_path == path);
        assert!(has("crates/engine/src/lib.rs"));
        assert!(has("src/lib.rs"), "the root package's own sources");
        assert!(has("xtask/src/main.rs"));
        // Integration tests, shims and fixture corpora are never part
        // of the analyzed tree.
        assert!(!has("crates/engine/tests/stress.rs"));
        assert!(input.files.iter().all(|f| f.rel_path.contains("src/")
            && !f.rel_path.starts_with("shims/")
            && !f.rel_path.contains("/fixtures/")));
    }
}
