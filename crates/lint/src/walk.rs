//! Workspace traversal: every `.rs` file the analyzer should see.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".claude"];

/// Path prefixes (workspace-relative, `/`-separated) excluded from the
/// walk: the lint fixtures deliberately contain violations.
const SKIP_PREFIXES: &[&str] = &["crates/lint/tests/fixtures/"];

/// A workspace source file: its path relative to the root (with `/`
/// separators, so rules are platform-independent) and
/// its absolute path on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkedFile {
    /// Workspace-relative, `/`-separated.
    pub rel_path: String,
    /// Absolute path for reading.
    pub abs_path: PathBuf,
}

/// Collects every `.rs` file under `root`, sorted by relative path.
pub fn walk_workspace(root: &Path) -> io::Result<Vec<WalkedFile>> {
    let mut files = Vec::new();
    walk_dir(root, root, &mut files)?;
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(files)
}

fn walk_dir(root: &Path, dir: &Path, out: &mut Vec<WalkedFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let file_type = entry.file_type()?;
        if file_type.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            let dir_rel = format!("{}/", rel_of(root, &path));
            if SKIP_PREFIXES.iter().any(|p| dir_rel.starts_with(p)) {
                continue;
            }
            walk_dir(root, &path, out)?;
        } else if file_type.is_file() && name.ends_with(".rs") {
            let rel_path = rel_of(root, &path);
            if SKIP_PREFIXES.iter().any(|p| rel_path.starts_with(p)) {
                continue;
            }
            out.push(WalkedFile {
                rel_path,
                abs_path: path,
            });
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated.
fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locates the workspace root by walking up from `start` until a
/// directory containing a `Cargo.toml` with a `[workspace]` table is
/// found.
pub fn find_workspace_root(start: &Path) -> io::Result<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)?;
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no workspace root (Cargo.toml with [workspace]) above the current directory",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_workspace() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let files = walk_workspace(&root).expect("walk");
        let rels: Vec<&str> = files.iter().map(|f| f.rel_path.as_str()).collect();
        assert!(rels.contains(&"crates/wire/src/frame.rs"));
        assert!(rels.contains(&"src/lib.rs"));
        assert!(rels.iter().all(|r| !r.starts_with("target/")));
        assert!(rels
            .iter()
            .all(|r| !r.starts_with("crates/lint/tests/fixtures/")));
    }

    #[test]
    fn rel_paths_are_sorted_and_slash_separated() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("root");
        let files = walk_workspace(&root).expect("walk");
        let rels: Vec<&String> = files.iter().map(|f| &f.rel_path).collect();
        let mut sorted = rels.clone();
        sorted.sort();
        assert_eq!(rels, sorted);
        assert!(rels.iter().all(|r| !r.contains('\\')));
    }
}
