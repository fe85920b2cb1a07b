//! Upgrade compatibility: state files and a wire body written before the
//! streaming codec must still load, re-render byte for byte, and recover
//! the same ranking.
//!
//! The fixtures under `tests/golden/` come from a daemon over
//! `DemoFleet::build(6, 1, 7)` (threshold 2, top 10, `snapshot_every: 2`)
//! after three cycles, advancing the fleet one day after each, followed
//! by a telemetry flush: `state/` is its state dir (the snapshot after
//! cycle 2, the WAL line of cycle 3, the ledger and the ts store),
//! `api_snapshot.json` its `/api/snapshot` body, and `ranking.txt` the
//! report a daemon restarted on that dir ranks.

use std::path::{Path, PathBuf};

use collector::{
    ApiSnapshot, Daemon, DaemonConfig, DaemonSnapshot, DemoFleet, LedgerConfig, ReportLedger,
    WalEntry, WalRecord,
};
use serde_json::Value;
use timeseries::{StoreConfig, TsStore};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

fn golden(rel: &str) -> String {
    let path = Path::new(GOLDEN).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A private copy of the golden state dir (loading may write to it).
fn state_copy(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("ts")).unwrap();
    for rel in ["snapshot.json", "wal.jsonl", "ledger.json", "ts/store.json"] {
        std::fs::copy(Path::new(GOLDEN).join("state").join(rel), dir.join(rel)).unwrap();
    }
    dir
}

/// `text` parses as `T`, and as a [`Value`], and each renders back to
/// exactly `text`.
fn assert_rerenders<T: serde::Serialize + serde::Deserialize>(text: &str, pretty: bool) {
    let typed: T = serde_json::from_str(text).expect("fixture parses");
    let value: Value = serde_json::from_str(text).expect("fixture parses as a Value");
    let (typed, value) = if pretty {
        (
            serde_json::to_string_pretty(&typed),
            serde_json::to_string_pretty(&value),
        )
    } else {
        (serde_json::to_string(&typed), serde_json::to_string(&value))
    };
    // `assert!`, not `assert_eq!`: a mismatch would dump kilobytes.
    assert!(
        typed.unwrap() == text,
        "typed re-render differs from the fixture"
    );
    assert!(
        value.unwrap() == text,
        "Value re-render differs from the fixture"
    );
}

#[test]
fn wal_line_rerenders_byte_for_byte() {
    let text = golden("state/wal.jsonl");
    let line = text.strip_suffix('\n').expect("one committed line");
    assert!(!line.contains('\n'), "the fixture holds one WAL line");
    assert_rerenders::<WalEntry>(line, false);
    // The daemon appends a borrowed record, not an owned entry.
    let entry: WalEntry = serde_json::from_str(line).unwrap();
    let record = serde_json::to_string(&WalRecord::from(&entry)).unwrap();
    assert!(
        record == line,
        "WalRecord renders differently from WalEntry"
    );
}

#[test]
fn daemon_snapshot_rerenders_byte_for_byte() {
    assert_rerenders::<DaemonSnapshot>(&golden("state/snapshot.json"), true);
}

#[test]
fn api_snapshot_body_rerenders_byte_for_byte() {
    assert_rerenders::<ApiSnapshot>(&golden("api_snapshot.json"), true);
}

#[test]
fn ledger_reloads_and_saves_byte_for_byte() {
    let dir = state_copy("ledger");
    let path = dir.join("ledger.json");
    let mut ledger = ReportLedger::open(&path, LedgerConfig::default()).unwrap();
    // Merging an empty ledger changes nothing but saves the file.
    ledger
        .merge_from(&ReportLedger::new(LedgerConfig::default()))
        .unwrap();
    assert!(std::fs::read_to_string(&path).unwrap() == golden("state/ledger.json"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ts_store_reopens_and_flushes_byte_for_byte() {
    let dir = state_copy("ts");
    let text = golden("state/ts/store.json");
    let value: Value = serde_json::from_str(&text).unwrap();
    assert!(value.to_string() == text, "Value re-render differs");
    let mut store = TsStore::open(dir.join("ts"), StoreConfig::default()).unwrap();
    store.flush().unwrap();
    assert!(std::fs::read_to_string(dir.join("ts/store.json")).unwrap() == text);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_restarted_on_golden_state_recovers_the_same_ranking() {
    let dir = state_copy("recover");
    let demo = DemoFleet::build(6, 1, 7);
    let config = DaemonConfig {
        state_dir: Some(dir.clone()),
        snapshot_every: 2,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::new(config, demo.leakprof(2, 10), Vec::new()).unwrap();
    assert_eq!(
        daemon.recovered_cycle(),
        3,
        "snapshot at 2 plus the WAL'd cycle 3"
    );
    let ranking = demo
        .leakprof(2, 10)
        .report_from_accumulator(daemon.accumulator())
        .render();
    assert_eq!(ranking, golden("ranking.txt"));
    let _ = std::fs::remove_dir_all(&dir);
}
