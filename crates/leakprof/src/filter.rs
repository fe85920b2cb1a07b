//! Criterion 2: AST-level filtering of trivially-transient operations
//! (paper Section V-A).
//!
//! Some blocking sites can be shown to unblock eventually: a `select`
//! whose arms all listen on `time.After`/`time.Tick`/`ctx.Done()`
//! channels, or a bare receive from a timer channel. LeakProf runs a
//! small static analysis over the source AST to drop such sites before
//! alerting.
//!
//! The analysis runs once per file, when the file is indexed
//! ([`VerdictSet::compute_file`]): it extracts the full set of transient
//! sites, and the AST is dropped. Filtering a blocked location is then a
//! set lookup ([`is_transient`]). Because the verdicts are plain data,
//! the collection daemon caches them keyed by source-content
//! fingerprint and answers filter queries without re-parsing anything.

use std::collections::{BTreeMap, BTreeSet};

use minigo::ast::{walk_stmts, File, RecvSrc, SelCase, Stmt};
use serde::{Deserialize, Serialize};

use crate::signature::{BlockedOp, ChanOpKind};

/// Precomputed criterion-2 verdicts: for every *covered* file, the set
/// of `(line, op kind)` sites whose blocking operation is trivially
/// transient.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictSet {
    files: BTreeMap<String, BTreeSet<(u32, ChanOpKind)>>,
}

impl VerdictSet {
    /// Creates an empty verdict set (covers nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts the transient sites of one parsed file. Only the first
    /// statement on each line (in walk order) is judged; a transient
    /// verdict is recorded under the op kind that statement can block
    /// as:
    ///
    /// * a `select` all of whose arms receive from timer/`ctx.Done`
    ///   channels, or any `select` with a `default` arm (non-blocking,
    ///   so it can never leak), as [`ChanOpKind::Select`];
    /// * a bare receive from `time.After`/`time.Tick`/`ctx.Done()`, as
    ///   [`ChanOpKind::Recv`].
    ///
    /// `for v := range time.Tick(d)` is not expressible in the subset;
    /// every other shape is kept.
    pub fn compute_file(file: &File) -> Vec<(u32, ChanOpKind)> {
        let mut seen_lines = BTreeSet::new();
        let mut out = Vec::new();
        for f in &file.funcs {
            walk_stmts(&f.body, &mut |s| {
                if !seen_lines.insert(s.line()) {
                    return;
                }
                match s {
                    Stmt::Select { cases, default, .. } => {
                        let transient = default.is_some()
                            || (!cases.is_empty()
                                && cases.iter().all(|c| match c {
                                    SelCase::Recv { src, .. } => src_is_transient(src),
                                    SelCase::Send { .. } => false,
                                }));
                        if transient {
                            out.push((s.line(), ChanOpKind::Select));
                        }
                    }
                    Stmt::Recv { src, .. } if src_is_transient(src) => {
                        out.push((s.line(), ChanOpKind::Recv));
                    }
                    _ => {}
                }
            });
        }
        out
    }

    /// Marks `path` as covered with the given transient sites (typically
    /// the output of [`VerdictSet::compute_file`], possibly replayed
    /// from a cache), replacing any earlier verdicts for it.
    pub fn insert_file(&mut self, path: &str, transient: &[(u32, ChanOpKind)]) {
        self.files
            .insert(path.to_string(), transient.iter().copied().collect());
    }

    /// Convenience: compute and insert in one step.
    pub fn add_file(&mut self, file: &File) {
        let t = Self::compute_file(file);
        self.insert_file(&file.path, &t);
    }

    /// True when verdicts for `path` are available.
    pub fn covers(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Number of covered files.
    pub fn files(&self) -> usize {
        self.files.len()
    }

    /// True when no files are covered.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

fn src_is_transient(src: &RecvSrc) -> bool {
    matches!(
        src,
        RecvSrc::TimeAfter(_) | RecvSrc::TimeTick(_) | RecvSrc::CtxDone(_)
    )
}

/// Returns true when the blocking operation is trivially transient and
/// should be filtered from reports (see [`VerdictSet::compute_file`]
/// for the shapes). Ops in files the set does not cover are
/// conservatively kept.
pub fn is_transient(verdicts: &VerdictSet, op: &BlockedOp) -> bool {
    verdicts
        .files
        .get(&*op.loc.file)
        .is_some_and(|sites| sites.contains(&(op.loc.line, op.kind)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gosim::Loc;

    fn index_of(src: &str, path: &str) -> VerdictSet {
        let mut ix = VerdictSet::new();
        ix.add_file(&minigo::parse_file(src, path).expect("test source parses"));
        ix
    }

    #[test]
    fn transient_select_on_tick_and_done() {
        let src = r#"
package p

func Loop(ctx context.Context) {
	for {
		select {
		case <-time.Tick(100):
			sim.Work(1)
		case <-ctx.Done():
			return
		}
	}
}
"#;
        let ix = index_of(src, "p/loop.go");
        let op = BlockedOp {
            kind: ChanOpKind::Select,
            loc: Loc::new("p/loop.go", 6),
        };
        assert!(is_transient(&ix, &op));
    }

    #[test]
    fn select_with_real_channel_arm_is_kept() {
        let src = r#"
package p

func Wait(ch chan int, ctx context.Context) {
	select {
	case v := <-ch:
		_ = v
	case <-ctx.Done():
		return
	}
}
"#;
        let ix = index_of(src, "p/wait.go");
        let op = BlockedOp {
            kind: ChanOpKind::Select,
            loc: Loc::new("p/wait.go", 5),
        };
        assert!(
            !is_transient(&ix, &op),
            "a real channel arm can block forever"
        );
    }

    #[test]
    fn bare_timer_recv_is_transient() {
        let src = r#"
package p

func Tickle() {
	for {
		<-time.After(50)
		sim.Work(1)
	}
}
"#;
        let ix = index_of(src, "p/tickle.go");
        let op = BlockedOp {
            kind: ChanOpKind::Recv,
            loc: Loc::new("p/tickle.go", 6),
        };
        assert!(is_transient(&ix, &op));
    }

    #[test]
    fn plain_channel_recv_is_kept() {
        let src = r#"
package p

func Drain(ch chan int) {
	<-ch
}
"#;
        let ix = index_of(src, "p/drain.go");
        let op = BlockedOp {
            kind: ChanOpKind::Recv,
            loc: Loc::new("p/drain.go", 5),
        };
        assert!(!is_transient(&ix, &op));
    }

    #[test]
    fn unknown_location_is_kept() {
        let ix = VerdictSet::new();
        let op = BlockedOp {
            kind: ChanOpKind::Recv,
            loc: Loc::new("nowhere.go", 1),
        };
        assert!(!is_transient(&ix, &op));
        assert!(ix.is_empty());
    }

    const EQUIV_SOURCES: [&str; 4] = [
        "package p\n\nfunc Loop(ctx context.Context) {\n\tfor {\n\t\tselect {\n\t\tcase <-time.Tick(100):\n\t\t\tsim.Work(1)\n\t\tcase <-ctx.Done():\n\t\t\treturn\n\t\t}\n\t}\n}\n",
        "package p\n\nfunc Wait(ch chan int, ctx context.Context) {\n\tselect {\n\tcase v := <-ch:\n\t\t_ = v\n\tcase <-ctx.Done():\n\t\treturn\n\t}\n}\n",
        "package p\n\nfunc Tickle() {\n\tfor {\n\t\t<-time.After(50)\n\t\tsim.Work(1)\n\t}\n}\n",
        "package p\n\nfunc Drain(ch chan int) {\n\t<-ch\n\tselect {\n\tcase <-ch:\n\t\tsim.Work(1)\n\tdefault:\n\t\tsim.Work(2)\n\t}\n}\n",
    ];

    /// The `(line, kind)` sites the filter drops in each of
    /// `EQUIV_SOURCES`, pinned from the AST-resolving evaluator this
    /// set lookup replaced.
    const EQUIV_DROPPED: [&[(u32, ChanOpKind)]; 4] = [
        &[(5, ChanOpKind::Select)],
        &[],
        &[(5, ChanOpKind::Recv)],
        &[(5, ChanOpKind::Select)],
    ];

    #[test]
    fn filter_drops_exactly_the_pinned_sites_on_every_line_and_kind() {
        for (i, src) in EQUIV_SOURCES.iter().enumerate() {
            let path = format!("p/equiv_{i}.go");
            let ix = index_of(src, &path);
            let nlines = src.lines().count() as u32;
            let mut dropped = Vec::new();
            for line in 1..=nlines {
                for kind in [ChanOpKind::Send, ChanOpKind::Recv, ChanOpKind::Select] {
                    let op = BlockedOp {
                        kind,
                        loc: Loc::new(path.as_str(), line),
                    };
                    if is_transient(&ix, &op) {
                        dropped.push((line, kind));
                    }
                }
            }
            assert_eq!(dropped, EQUIV_DROPPED[i], "dropped sites of {path}");
        }
    }

    #[test]
    fn verdicts_roundtrip_through_json() {
        let src = EQUIV_SOURCES[0];
        let mut vs = VerdictSet::new();
        vs.add_file(&minigo::parse_file(src, "p/e.go").unwrap());
        let json = serde_json::to_string(&vs).unwrap();
        let back: VerdictSet = serde_json::from_str(&json).unwrap();
        assert_eq!(vs, back);
        assert!(back.covers("p/e.go"));
        assert!(!back.covers("p/other.go"));
        assert_eq!(back.files(), 1);
    }
}
