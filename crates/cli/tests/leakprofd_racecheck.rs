//! End-to-end exit-code contract of `leakprofd racecheck --dir PATH`:
//! 1 with a `DATA RACE` report for a racy tree, 0 for a clean one, 2
//! when the tree has no `.go` files or holds one that is not valid
//! UTF-8.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_leakprofd");

const RACY: &str = "package acct\n\nfunc TestUpdate() {\n\tdone := make(chan int)\n\ttotal := 0\n\tgo func() {\n\t\ttotal = total + 1\n\t\tdone <- 1\n\t}()\n\ttotal = total + 1\n\t<-done\n}\n";
const CLEAN: &str = "package ok\n\nfunc TestHandoff() {\n\tdata := 0\n\tch := make(chan int)\n\tgo func() {\n\t\tdata = 42\n\t\tch <- 1\n\t}()\n\t<-ch\n\tsim.Work(data)\n}\n";

/// A fresh source tree holding the given files, removed on drop.
struct Tree(PathBuf);

impl Tree {
    fn new(tag: &str, files: &[(&str, &[u8])]) -> Tree {
        let dir =
            std::env::temp_dir().join(format!("leakprofd-racecheck-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("tree dir");
        for (name, bytes) in files {
            std::fs::write(dir.join(name), bytes).expect("write source");
        }
        Tree(dir)
    }
}

impl Drop for Tree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn racecheck(dir: &Path) -> Output {
    Command::new(BIN)
        .args(["racecheck", "--dir"])
        .arg(dir)
        .output()
        .expect("run leakprofd racecheck")
}

#[test]
fn racy_tree_exits_1_and_reports_a_data_race() {
    let tree = Tree::new("racy", &[("acct.go", RACY.as_bytes())]);
    let out = racecheck(&tree.0);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DATA RACE"), "stdout:\n{stdout}");
}

#[test]
fn clean_tree_exits_0() {
    let tree = Tree::new("clean", &[("acct.go", CLEAN.as_bytes())]);
    let out = racecheck(&tree.0);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn tree_without_go_files_exits_2() {
    let tree = Tree::new("empty", &[("README.md", b"no sources here\n")]);
    let out = racecheck(&tree.0);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no .go files"), "stderr:\n{stderr}");
}

#[test]
fn non_utf8_go_file_exits_2() {
    let tree = Tree::new(
        "binary",
        &[
            ("acct.go", CLEAN.as_bytes()),
            ("bin.go", &[0xff, 0xfe, 0x00, 0x41]),
        ],
    );
    let out = racecheck(&tree.0);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bin.go"), "stderr:\n{stderr}");
}
