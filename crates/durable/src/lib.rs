//! Durable state files: one crash-safety rule for everything a process
//! persists.
//!
//! * Whole files go through [`write_atomic`] and [`read_json`]: write a
//!   sibling `<file>.tmp`, `sync_data` it, rename it over the target. A
//!   crash leaves the old file or the new one, and a leftover `.tmp` is
//!   never read.
//! * Logs go through [`AppendLog`]: one JSON record per line, line and
//!   newline in a single `write_all`, so a crash can only tear the last
//!   line. A record is committed once its newline is written. Loading
//!   drops a torn last line (unterminated or unparsable) and cuts it
//!   from the file, so the next append starts on a fresh line; a bad
//!   line anywhere else is corruption and an error.
//!
//! Directories are never fsynced, and loading clean state writes nothing.

#![warn(missing_docs)]

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Replaces `path` with `bytes` atomically via `<file>.tmp`.
///
/// # Errors
///
/// IO errors writing, syncing, or renaming the temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    std::fs::rename(&tmp, path)
}

/// Reads a JSON file; a missing file is `Ok(None)`.
///
/// # Errors
///
/// IO errors, or [`io::ErrorKind::InvalidData`] naming the path when
/// the file does not parse as `T`.
pub fn read_json<T: serde::Deserialize>(path: &Path) -> io::Result<Option<T>> {
    match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| invalid_data(format!("{}: {e}", path.display()))),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// The records of a JSONL log, oldest first.
#[derive(Debug)]
pub struct JsonlLoad<T> {
    /// Records parsed, oldest first.
    pub records: Vec<T>,
    /// Why a torn last line was dropped, if one was.
    pub dropped_trailing: Option<String>,
}

/// Reads a JSONL file under the torn-tail rule without modifying it
/// (a missing file is empty). Also returns the length of the file's
/// committed prefix: everything before a dropped torn line.
fn load_jsonl<T: serde::Deserialize>(path: &Path) -> io::Result<(JsonlLoad<T>, u64)> {
    // Bytes, not a String: a torn write can split a UTF-8 sequence, and
    // that must only tear its own line.
    let content = match std::fs::read(path) {
        Ok(content) => content,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut lines = Vec::new();
    let mut offset = 0;
    for raw in content.split_inclusive(|b| *b == b'\n') {
        if !raw.trim_ascii().is_empty() {
            lines.push((offset, raw));
        }
        offset += raw.len();
    }
    let mut load = JsonlLoad {
        records: Vec::with_capacity(lines.len()),
        dropped_trailing: None,
    };
    let mut committed = content.len();
    for (i, &(start, raw)) in lines.iter().enumerate() {
        let parsed = match raw.strip_suffix(b"\n") {
            Some(line) => std::str::from_utf8(line)
                .map_err(|e| e.to_string())
                .and_then(|line| serde_json::from_str::<T>(line).map_err(|e| e.to_string())),
            None => Err("no trailing newline".to_string()),
        };
        match parsed {
            Ok(r) => load.records.push(r),
            Err(e) if i + 1 == lines.len() => {
                load.dropped_trailing = Some(e);
                committed = start;
            }
            Err(e) => {
                return Err(invalid_data(format!(
                    "{}: corrupt record on line {} of {}: {e}",
                    path.display(),
                    i + 1,
                    lines.len()
                )));
            }
        }
    }
    Ok((load, committed as u64))
}

/// How far an [`AppendLog`] pushes each write before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Hand it to the OS: survives `kill -9`, not a power loss.
    Flush,
    /// Also `sync_data` it: survives a power loss.
    Data,
}

/// An append-only JSONL log: a path plus a [`SyncMode`] fixed by its
/// owner. [`AppendLog::load`] it before appending, so a torn tail left
/// by a crash is cut away first.
#[derive(Debug, Clone)]
pub struct AppendLog {
    path: PathBuf,
    sync: SyncMode,
}

impl AppendLog {
    /// The log at `path`. Touches no file; the first append creates it.
    pub fn open(path: impl Into<PathBuf>, sync: SyncMode) -> AppendLog {
        AppendLog {
            path: path.into(),
            sync,
        }
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn sync(&self, f: &File) -> io::Result<()> {
        match self.sync {
            SyncMode::Flush => Ok(()),
            SyncMode::Data => f.sync_data(),
        }
    }

    /// Loads every committed record and truncates a dropped torn line
    /// from the file. A clean log is only read.
    ///
    /// # Errors
    ///
    /// IO errors, or [`io::ErrorKind::InvalidData`] for corruption
    /// before the last line.
    pub fn load<T: serde::Deserialize>(&self) -> io::Result<JsonlLoad<T>> {
        let (load, committed) = load_jsonl(&self.path)?;
        if load.dropped_trailing.is_some() {
            let f = OpenOptions::new().write(true).open(&self.path)?;
            f.set_len(committed)?;
            self.sync(&f)?;
        }
        Ok(load)
    }

    /// Appends `record` as one line in a single `write_all`. Returns the
    /// bytes appended.
    ///
    /// # Errors
    ///
    /// IO errors, or [`io::ErrorKind::InvalidInput`] if `record` does
    /// not serialize.
    pub fn append<T: serde::Serialize>(&self, record: &T) -> io::Result<usize> {
        let mut line = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        line.push('\n');
        let mut f = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(line.as_bytes())?;
        self.sync(&f)?;
        Ok(line.len())
    }

    /// Empties the log, creating it if missing.
    ///
    /// # Errors
    ///
    /// IO errors creating or syncing the file.
    pub fn truncate(&self) -> io::Result<()> {
        self.sync(&File::create(&self.path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Rec {
        n: u64,
        tag: String,
    }

    fn rec(n: u64) -> Rec {
        Rec {
            n,
            tag: format!("record-{n}"),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn numbers(load: &JsonlLoad<Rec>) -> Vec<u64> {
        load.records.iter().map(|r| r.n).collect()
    }

    #[test]
    fn append_then_load_roundtrips() {
        let path = temp_path("roundtrip");
        let log = AppendLog::open(&path, SyncMode::Flush);
        assert!(log.load::<Rec>().unwrap().records.is_empty());
        assert!(!path.exists(), "loading a missing log creates nothing");
        for n in 0..5 {
            log.append(&rec(n)).unwrap();
        }
        let load = log.load::<Rec>().unwrap();
        assert_eq!(numbers(&load), vec![0, 1, 2, 3, 4]);
        assert_eq!(load.records[4], rec(4));
        assert!(load.dropped_trailing.is_none());
        log.truncate().unwrap();
        assert!(log.load::<Rec>().unwrap().records.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_truncated_before_appending() {
        // A crash mid-append leaves half a record at the end of the file.
        let path = temp_path("torn");
        let log = AppendLog::open(&path, SyncMode::Data);
        log.append(&rec(1)).unwrap();
        log.append(&rec(2)).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let cut = content.len() - content.len() / 4;
        std::fs::write(&path, &content[..cut]).unwrap();

        // The loader alone drops the torn line and leaves the file.
        let (peek, committed) = load_jsonl::<Rec>(&path).unwrap();
        assert_eq!(numbers(&peek), vec![1]);
        assert!(peek.dropped_trailing.is_some());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), cut as u64);
        assert_eq!(committed as usize, content.find('\n').unwrap() + 1);

        let load = log.load::<Rec>().unwrap();
        assert_eq!(
            numbers(&load),
            vec![1],
            "the torn record goes, the rest stays"
        );
        assert!(load.dropped_trailing.is_some());
        // The torn bytes were cut, so appends stay loadable.
        log.append(&rec(3)).unwrap();
        log.append(&rec(4)).unwrap();
        let load = log.load::<Rec>().unwrap();
        assert_eq!(numbers(&load), vec![1, 3, 4]);
        assert!(load.dropped_trailing.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_write_inside_a_utf8_sequence_tears_only_its_line() {
        let path = temp_path("utf8");
        let log = AppendLog::open(&path, SyncMode::Flush);
        let wide = |n| Rec {
            n,
            tag: "blocked in µ-service".into(),
        };
        log.append(&wide(1)).unwrap();
        log.append(&wide(2)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mu = bytes.iter().rposition(|b| *b == 0xB5).unwrap();
        std::fs::write(&path, &bytes[..mu]).unwrap();
        let load = log.load::<Rec>().unwrap();
        assert_eq!(numbers(&load), vec![1]);
        log.append(&wide(3)).unwrap();
        assert_eq!(numbers(&log.load::<Rec>().unwrap()), vec![1, 3]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_without_its_newline_is_not_committed() {
        // A write torn exactly before the newline still parses, but the
        // append never completed: it is dropped like any torn line.
        let path = temp_path("unterminated");
        let one = serde_json::to_string(&rec(1)).unwrap();
        let two = serde_json::to_string(&rec(2)).unwrap();
        std::fs::write(&path, format!("{one}\n{two}")).unwrap();
        let log = AppendLog::open(&path, SyncMode::Flush);
        let load = log.load::<Rec>().unwrap();
        assert_eq!(numbers(&load), vec![1]);
        assert_eq!(
            load.dropped_trailing.as_deref(),
            Some("no trailing newline")
        );
        log.append(&rec(3)).unwrap();
        assert_eq!(numbers(&log.load::<Rec>().unwrap()), vec![1, 3]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = temp_path("midfile");
        let log = AppendLog::open(&path, SyncMode::Flush);
        log.append(&rec(1)).unwrap();
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{{torn write").unwrap();
            writeln!(f, "{}", serde_json::to_string(&rec(2)).unwrap()).unwrap();
        }
        // Corruption that is NOT the trailing line is data loss: refuse,
        // and leave the file alone.
        let len = std::fs::metadata(&path).unwrap().len();
        let err = log.load::<Rec>().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2 of 3"), "{err}");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn leftover_tmp_never_shadows_the_committed_file() {
        let path = temp_path("atomic.json");
        let tmp = PathBuf::from(format!("{}.tmp", path.display()));
        let _ = std::fs::remove_file(&tmp);
        assert_eq!(read_json::<Rec>(&path).unwrap(), None);
        write_atomic(&path, serde_json::to_string(&rec(1)).unwrap().as_bytes()).unwrap();
        assert!(!tmp.exists(), "the temp file is renamed away");
        // A crash mid-write leaves a half-written temp file behind.
        std::fs::write(&tmp, "{\"n\": 2, \"ta").unwrap();
        assert_eq!(read_json::<Rec>(&path).unwrap(), Some(rec(1)));
        // The next commit replaces both.
        write_atomic(&path, serde_json::to_string(&rec(3)).unwrap().as_bytes()).unwrap();
        assert_eq!(read_json::<Rec>(&path).unwrap(), Some(rec(3)));
        assert!(!tmp.exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unparsable_json_names_the_path() {
        let path = temp_path("bad.json");
        std::fs::write(&path, "{ not json").unwrap();
        let err = read_json::<Rec>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
