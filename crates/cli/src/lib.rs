//! Shared plumbing for the leaklab command-line tools.
//!
//! The binaries in this crate are the "downstream user" face of the
//! toolchain:
//!
//! * `mgo` — compile and run mini-Go programs on the simulated runtime,
//!   with goleak verification and profile dumps;
//! * `golint` — run the static analyzers (pathcheck/absint/modelcheck/
//!   rangeclose) over `.go` files;
//! * `leakprof-cli` — analyze goroutine-profile JSON files offline, the
//!   way the paper's LeakProf consumes pprof dumps;
//! * `corpusgen` — materialize a ground-truth-labelled corpus on disk;
//! * `leakprofd` — the continuous networked collection daemon: serve a
//!   demo fleet over loopback TCP, scrape it concurrently, and stream
//!   profiles into the incremental analyzer.
//!
//! Every command declares its flags once, as a [`Spec`] of [`Flag`]s;
//! [`parse`] checks the command line against it and the usage text is
//! rendered from it, so the two cannot drift apart. A flag the spec does
//! not know, a value flag without a value, a value that does not parse
//! and a stray positional all exit 2 naming the offender.

#![warn(missing_docs)]

use std::any::Any;
use std::fmt::{Display, Write as _};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// Reads a source file, exiting with a message on failure.
pub fn read_source(path: &Path) -> Result<String, ExitCode> {
    fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {}: {e}", path.display());
        ExitCode::from(2)
    })
}

/// Expands arguments into `.go` files: plain files pass through,
/// directories are walked recursively.
pub fn collect_go_files(args: &[String]) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for a in args {
        let p = PathBuf::from(a);
        if p.is_dir() {
            walk(&p, &mut out);
        } else {
            out.push(p);
        }
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().map(|e| e == "go").unwrap_or(false) {
            out.push(p);
        }
    }
}

/// How a flag takes its value.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `--name` alone; never takes the next token as a value.
    Switch,
    /// `--name VALUE`, at most once.
    Value,
    /// `--name VALUE`, any number of times, values kept in order.
    Repeated,
}

/// One declared flag: name, kind, value parser, default and help line.
/// Build it with [`switch`] or [`value`].
pub struct Flag {
    name: &'static str,
    kind: Kind,
    meta: &'static str,
    parse: fn(&str) -> Result<Box<dyn Any>, String>,
    default: Option<&'static str>,
    required: bool,
    help: &'static str,
}

fn parse_as<T: FromStr + 'static>(s: &str) -> Result<Box<dyn Any>, String>
where
    T::Err: Display,
{
    s.parse::<T>()
        .map(|v| Box::new(v) as Box<dyn Any>)
        .map_err(|e| e.to_string())
}

/// A switch: on when present.
pub const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        kind: Kind::Switch,
        ..value::<bool>(name, "", help)
    }
}

/// A value flag parsed as `T`; `meta` names the value in usage text.
pub const fn value<T: FromStr + 'static>(
    name: &'static str,
    meta: &'static str,
    help: &'static str,
) -> Flag
where
    T::Err: Display,
{
    Flag {
        name,
        kind: Kind::Value,
        meta,
        parse: parse_as::<T>,
        default: None,
        required: false,
        help,
    }
}

impl Flag {
    /// Lets a value flag repeat, keeping every value in order.
    pub const fn repeated(self) -> Flag {
        Flag {
            kind: Kind::Repeated,
            ..self
        }
    }

    /// The value used when the flag is absent; parsed like a given one.
    pub const fn default(self, value: &'static str) -> Flag {
        Flag {
            default: Some(value),
            ..self
        }
    }

    /// The command cannot run without at least one value of this flag.
    pub const fn required(self) -> Flag {
        Flag {
            required: true,
            ..self
        }
    }
}

/// One command (or subcommand) and the flags it reads.
pub struct Spec {
    /// The command and its positional arguments as usage text shows
    /// them: `<name>` takes exactly one argument, `<name...>` one or
    /// more, and a synopsis without `<` takes none.
    pub synopsis: &'static str,
    /// One-line description (and exit codes, where they matter).
    pub about: &'static str,
    /// Every flag the command reads.
    pub flags: &'static [Flag],
}

impl Spec {
    /// The words that select the command, e.g. `leakprofd serve`.
    fn name(&self) -> &'static str {
        self.synopsis.split(" <").next().unwrap_or_default()
    }
}

/// A command line checked against its [`Spec`]: positionals plus typed
/// flag values, with defaults filled in.
pub struct Args {
    spec: &'static Spec,
    values: Vec<(&'static str, Box<dyn Any>)>,
    /// The positional arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// The value of a flag that was given or has a default.
    ///
    /// Panics when the flag is not declared with type `T` or has
    /// neither: both are bugs in the calling command, not user errors.
    pub fn get<T: Clone + 'static>(&self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("--{name} has no default"))
    }

    /// The value of a flag, if given or defaulted (the first value of a
    /// repeated flag).
    pub fn opt<T: Clone + 'static>(&self, name: &str) -> Option<T> {
        self.all(name).into_iter().next()
    }

    /// Every value of a flag, in command-line order.
    pub fn all<T: Clone + 'static>(&self, name: &str) -> Vec<T> {
        assert!(
            self.spec.flags.iter().any(|f| f.name == name),
            "{} does not declare --{name}",
            self.spec.name()
        );
        self.values
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| {
                v.downcast_ref::<T>()
                    .unwrap_or_else(|| panic!("--{name} is declared with another type"))
                    .clone()
            })
            .collect()
    }

    /// Whether a switch was given.
    pub fn on(&self, name: &str) -> bool {
        self.opt(name).unwrap_or(false)
    }

    fn given(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| *n == name)
    }
}

/// Checks `args` against `spec`, returning the typed values or a message
/// naming the offending flag or argument.
fn try_parse(spec: &'static Spec, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        spec,
        values: Vec::new(),
        positional: Vec::new(),
    };
    let positional = spec.synopsis.find('<').map(|i| &spec.synopsis[i..]);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let Some(name) = arg.strip_prefix("--") else {
            let many = positional.is_some_and(|p| p.ends_with("...>"));
            if positional.is_none() || (!many && !out.positional.is_empty()) {
                return Err(format!("unexpected argument {arg:?}"));
            }
            out.positional.push(arg);
            continue;
        };
        let Some(flag) = spec.flags.iter().find(|f| f.name == name) else {
            return Err(format!("unknown flag --{name}"));
        };
        if flag.kind != Kind::Repeated && out.given(name) {
            return Err(format!("--{name} given more than once"));
        }
        let value = match flag.kind {
            Kind::Switch => Box::new(true),
            Kind::Value | Kind::Repeated => {
                let Some(v) = args.next().filter(|v| !v.starts_with("--")) else {
                    return Err(format!("--{name} needs a value ({})", flag.meta));
                };
                (flag.parse)(&v).map_err(|e| format!("--{name} {v}: {e}"))?
            }
        };
        out.values.push((flag.name, value));
    }
    let absent: Vec<&Flag> = spec.flags.iter().filter(|f| !out.given(f.name)).collect();
    for f in absent {
        if f.required {
            return Err(format!("--{} {} is required", f.name, f.meta));
        }
        if let Some(d) = f.default {
            let value = (f.parse)(d)
                .unwrap_or_else(|e| panic!("default {d:?} of --{} does not parse: {e}", f.name));
            out.values.push((f.name, value));
        }
    }
    match positional {
        Some(what) if out.positional.is_empty() => Err(format!("missing {what}")),
        _ => Ok(out),
    }
}

/// Checks the command line against `spec` and returns the typed values,
/// exiting through [`usage_error`] when it does not fit.
pub fn parse(spec: &'static Spec, args: impl IntoIterator<Item = String>) -> Args {
    try_parse(spec, args).unwrap_or_else(|e| usage_error(spec, &e))
}

/// Prints `error` and the command's usage, then exits 2.
pub fn usage_error(spec: &Spec, error: &str) -> ! {
    eprint!("error: {}: {error}\n\nusage: {}", spec.name(), usage(spec));
    std::process::exit(2)
}

/// Picks the subcommand named by the first argument and [`parse`]s the
/// rest against its spec. Without a known subcommand, prints the usage of
/// every one and exits 2.
pub fn parse_command<R>(
    tool: &str,
    commands: &'static [(Spec, R)],
    mut args: impl Iterator<Item = String>,
) -> (&'static R, Args) {
    let sub = args.next().unwrap_or_default();
    let Some((spec, run)) = commands
        .iter()
        .find(|(spec, _)| spec.name().split_once(' ').map(|(_, s)| s) == Some(sub.as_str()))
    else {
        if !sub.is_empty() {
            eprintln!("error: {tool}: unknown command {sub:?}\n");
        }
        eprintln!("usage: {tool} <command> [flags]\n\ncommands:");
        for (spec, _) in commands {
            eprint!("\n{}", usage(spec));
        }
        std::process::exit(2)
    };
    (run, parse(spec, args))
}

/// The usage text of one command, rendered from its spec: the synopsis,
/// the description, then one line per flag.
fn usage(spec: &Spec) -> String {
    let mut out = format!("{} [flags]\n  {}\n", spec.synopsis, spec.about);
    for f in spec.flags {
        let synopsis = format!("--{} {}", f.name, f.meta);
        let _ = write!(out, "    {:<22}  {}", synopsis.trim_end(), f.help);
        if f.required {
            out.push_str(" (required)");
        }
        if f.kind == Kind::Repeated {
            out.push_str(" (repeatable)");
        }
        if let Some(d) = f.default {
            let _ = write!(out, " (default {d})");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        value::<u64>("seed", "N", "seed").default("7"),
        switch("verbose", "talk more"),
        value::<std::net::SocketAddr>("addr", "HOST:PORT", "peer").repeated(),
        value::<String>("out", "PATH", "output"),
    ];
    const MANY: Spec = Spec {
        synopsis: "tool <files...>",
        about: "test tool",
        flags: FLAGS,
    };
    const ONE: Spec = Spec {
        synopsis: "tool <dir>",
        about: "test command",
        flags: FLAGS,
    };
    const NONE: Spec = Spec {
        synopsis: "tool sub",
        about: "test subcommand",
        flags: &[value::<String>("dir", "PATH", "tree").required()],
    };

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn typed_values_defaults_and_positionals() {
        let a = try_parse(&MANY, args("a.go --seed 9 b.go --verbose c.go")).unwrap();
        assert_eq!(a.positional, ["a.go", "b.go", "c.go"]);
        assert_eq!(a.get::<u64>("seed"), 9);
        assert!(a.on("verbose"));
        assert_eq!(a.opt::<String>("out"), None);

        let a = try_parse(&MANY, args("a.go")).unwrap();
        assert_eq!(a.get::<u64>("seed"), 7, "default fills in");
        assert!(!a.on("verbose"));
    }

    #[test]
    fn a_switch_never_swallows_the_next_token() {
        let a = try_parse(&MANY, args("--verbose x.go")).unwrap();
        assert!(a.on("verbose"));
        assert_eq!(a.positional, ["x.go"]);
    }

    #[test]
    fn repeated_values_keep_their_order() {
        let a = try_parse(&MANY, args("f --addr 127.0.0.1:1 --addr 127.0.0.1:2")).unwrap();
        let addrs: Vec<std::net::SocketAddr> = a.all("addr");
        assert_eq!(addrs.len(), 2);
        assert_eq!(addrs[1].port(), 2);
    }

    #[test]
    fn bad_command_lines_name_the_offender() {
        for (line, want) in [
            ("f --sed 1", "unknown flag --sed"),
            ("f --seed", "--seed needs a value"),
            ("f --seed --verbose", "--seed needs a value"),
            ("f --seed x", "--seed x:"),
            ("f --seed 1 --seed 2", "--seed given more than once"),
            ("f --addr nothost", "--addr nothost:"),
            ("--verbose", "missing <files...>"),
        ] {
            let err = try_parse(&MANY, args(line)).err().unwrap_or_default();
            assert!(err.contains(want), "{line:?} gave {err:?}");
        }
        let err = try_parse(&ONE, args("a b")).err().unwrap_or_default();
        assert!(err.contains("unexpected argument \"b\""), "{err}");
        let err = try_parse(&NONE, args("x --dir d"))
            .err()
            .unwrap_or_default();
        assert!(err.contains("unexpected argument \"x\""), "{err}");
        let err = try_parse(&NONE, args("")).err().unwrap_or_default();
        assert!(err.contains("--dir PATH is required"), "{err}");
    }

    #[test]
    fn usage_lists_every_flag_with_its_default() {
        let text = usage(&MANY);
        assert!(
            text.starts_with("tool <files...> [flags]\n  test tool\n"),
            "{text}"
        );
        for want in [
            "--seed N",
            "(default 7)",
            "--verbose",
            "--addr HOST:PORT",
            "(repeatable)",
        ] {
            assert!(text.contains(want), "{want} missing from\n{text}");
        }
        assert!(usage(&NONE).contains("(required)"));
    }
}
