//! The one reader of a Go source tree, shared by the static tier, the
//! race tier and `leakprofd racecheck`.
//!
//! Files are read as raw bytes and fingerprinted before any decoding, so
//! a file that is not valid UTF-8 is still a file with a fingerprint:
//! each consumer decides what such a file means (the static tier pins
//! it as a parse error, the race tier as a compile error) instead of the
//! read failing.

use std::io;
use std::path::{Path, PathBuf};

use shardmap::{fnv1a, Fnv1a};

/// One `.go` file of a source tree.
#[derive(Debug, Clone)]
pub struct GoFile {
    /// Forward-slash path relative to the tree root, matching the
    /// `pkg/file.go` paths goroutine profiles carry.
    pub rel: String,
    /// Raw contents; not necessarily valid UTF-8.
    pub bytes: Vec<u8>,
    /// FNV-1a over `bytes`.
    pub fp: u64,
}

/// Reads every `.go` file under `root`, recursively, sorted by relative
/// path (component by component, as [`Path`] orders).
///
/// # Errors
///
/// Returns an IO error if a directory cannot be listed or a file cannot
/// be read.
pub fn read_go_tree(root: &Path) -> io::Result<Vec<GoFile>> {
    let mut paths = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let bytes = std::fs::read(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            Ok(GoFile {
                rel,
                fp: fnv1a(&bytes),
                bytes,
            })
        })
        .collect()
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "go") {
            out.push(path);
        }
    }
    Ok(())
}

/// One fingerprint of the whole tree: FNV-1a over every `(path,
/// contents)` pair, so any edit, rename, addition or deletion changes
/// it.
pub(crate) fn tree_fingerprint(files: &[GoFile]) -> u64 {
    let mut h = Fnv1a::default();
    for f in files {
        h.write(f.rel.as_bytes());
        h.write(&[0]);
        h.write(&f.bytes);
        h.write(&[0xff]);
    }
    h.finish()
}

/// The tree as the `(text, path)` pairs the compiler takes.
///
/// # Errors
///
/// Returns the relative path of the first file that is not valid UTF-8.
pub fn into_sources(files: Vec<GoFile>) -> Result<Vec<(String, String)>, String> {
    files
        .into_iter()
        .map(|f| match String::from_utf8(f.bytes) {
            Ok(text) => Ok((text, f.rel)),
            Err(_) => Err(f.rel),
        })
        .collect()
}
