//! Crash-safety: a store killed mid-append must reopen to a consistent
//! prefix of what was written — never a parse failure, never data from
//! the torn batch, never loss of anything before it.

use timeseries::{RollupSpec, StoreConfig, TsStore};

fn config(snapshot_every: u64) -> StoreConfig {
    StoreConfig {
        raw_capacity: 256,
        rollups: vec![RollupSpec {
            step: 4,
            capacity: 256,
        }],
        snapshot_every,
    }
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ts-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes `n` batches and returns the store dir (dropped without flush,
/// so the WAL carries everything since the last automatic snapshot).
fn write_batches(dir: &std::path::Path, n: u64, snapshot_every: u64) {
    let mut s = TsStore::open(dir, config(snapshot_every)).unwrap();
    for t in 0..n {
        s.append(t, &[("rms", t as f64), ("total", 2.0 * t as f64)])
            .unwrap();
    }
}

#[test]
fn torn_trailing_wal_line_recovers_to_prefix() {
    let dir = temp_dir("torn");
    write_batches(&dir, 10, 0); // snapshot never: all 10 batches in WAL
    let wal = dir.join("wal.jsonl");
    let content = std::fs::read_to_string(&wal).unwrap();
    assert_eq!(content.lines().count(), 10);
    // Kill -9 mid-append: chop the last line in half, no newline.
    let cut = content.len() - content.lines().last().unwrap().len() / 2 - 1;
    std::fs::write(&wal, &content[..cut]).unwrap();

    let s = TsStore::open(&dir, config(0)).unwrap();
    let pts = s.query("rms", 0, 100, Some(1));
    assert_eq!(pts.len(), 9, "the torn batch is dropped, the rest survives");
    assert_eq!(pts.last().unwrap().last, 8.0);
    // Both series lose exactly the torn batch.
    assert_eq!(s.query("total", 0, 100, Some(1)).len(), 9);

    // Appending after recovery must not glue onto the torn bytes: the
    // next recovery keeps the prefix plus both new batches.
    let mut s = s;
    for t in 9..11u64 {
        s.append(t, &[("rms", t as f64), ("total", 2.0 * t as f64)])
            .unwrap();
    }
    drop(s);
    let s = TsStore::open(&dir, config(0)).unwrap();
    let pts = s.query("rms", 0, 100, Some(1));
    assert_eq!(
        pts.iter().map(|p| p.last).collect::<Vec<_>>(),
        (0..11).map(|t| t as f64).collect::<Vec<_>>()
    );
    assert_eq!(s.query("total", 0, 100, Some(1)).len(), 11);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mid_wal_corruption_is_an_error_not_silent_loss() {
    let dir = temp_dir("midwal");
    write_batches(&dir, 5, 0);
    let wal = dir.join("wal.jsonl");
    let content = std::fs::read_to_string(&wal).unwrap();
    let lines: Vec<&str> = content.lines().collect();
    let mut patched: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    patched[2] = "{torn".into();
    std::fs::write(&wal, patched.join("\n") + "\n").unwrap();

    let err = TsStore::open(&dir, config(0)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_plus_wal_recovers_everything_after_hard_kill() {
    let dir = temp_dir("snapwal");
    // snapshot_every 4: snapshots at t=3 and t=7, WAL holds 8..=10.
    write_batches(&dir, 11, 4);
    let s = TsStore::open(&dir, config(4)).unwrap();
    let pts = s.query("rms", 0, 100, Some(1));
    assert_eq!(pts.len(), 11, "snapshot + WAL replay is lossless");
    for (i, p) in pts.iter().enumerate() {
        assert_eq!(p.last, i as f64);
    }
    // Rollups recovered too, with the same totals as raw.
    let raw_sum: f64 = pts.iter().map(|p| p.sum).sum();
    let rolled_sum: f64 = s.query("rms", 0, 100, Some(4)).iter().map(|p| p.sum).sum();
    assert_eq!(raw_sum, rolled_sum);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_after_recovery_continues_appending() {
    let dir = temp_dir("continue");
    write_batches(&dir, 6, 0);
    {
        let mut s = TsStore::open(&dir, config(0)).unwrap();
        s.append(6, &[("rms", 6.0)]).unwrap();
        s.flush().unwrap();
    }
    // After flush the WAL is empty and the snapshot carries everything.
    let wal = std::fs::read_to_string(dir.join("wal.jsonl")).unwrap();
    assert!(wal.is_empty(), "flush truncates the WAL");
    let s = TsStore::open(&dir, config(0)).unwrap();
    assert_eq!(s.query("rms", 0, 100, Some(1)).len(), 7);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_dir_opens_fresh() {
    let dir = temp_dir("fresh");
    let s = TsStore::open(&dir, config(0)).unwrap();
    assert!(s.series_ids().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}
