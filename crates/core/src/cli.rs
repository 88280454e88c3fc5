//! The one flag parser every tool in the workspace uses.
//!
//! A tool declares its flags as a table of `(name, what it takes)` and
//! reads them back by name; a typo, a missing or malformed value, a zero
//! where at least one is needed or a name outside a closed list stops
//! the run with one line on stderr and exit code 2 before anything is
//! built. Adding a flag is one entry in the tool's table.
//!
//! ```
//! use pibench::cli::{Arg, Flags};
//! const SPEC: &[(&str, Arg)] = &[("--threads", Arg::Int(1)), ("--dram", Arg::Switch)];
//! let args = ["--threads".to_string(), "4".to_string()];
//! let f = Flags::parse(&args, SPEC).unwrap();
//! assert_eq!((f.int("--threads"), f.on("--dram")), (Some(4), false));
//! assert!(Flags::parse(&["--threads".to_string(), "0".to_string()], SPEC).is_err());
//! ```

use std::collections::BTreeMap;

/// What a flag takes.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    /// Nothing: the flag is on or off.
    Switch,
    /// An integer no smaller than the bound (`Int(1)` rejects zero).
    Int(u64),
    /// An integer within the inclusive bounds.
    IntIn(u64, u64),
    /// A finite number.
    Float,
    /// Free text: an address, a path, or a list a typed parser checks
    /// (see [`Flags::parsed`]).
    Text,
    /// One name of a closed list.
    OneOf(&'static [&'static str]),
}

/// A tool's flags. A name without a leading `--` is a positional
/// argument, filled in table order.
pub type Spec<'a> = &'a [(&'a str, Arg)];

enum Value {
    On,
    Int(u64),
    Float(f64),
    Text(String),
}

/// The parsed flags of one invocation.
pub struct Flags(BTreeMap<String, Value>);

/// The process arguments after the program name. The only place the
/// workspace reads `std::env::args`.
pub fn args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Print `msg` and exit 2: the command line was wrong.
pub fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// `spec` on one line, with the values each flag accepts.
fn usage(spec: Spec) -> String {
    let one = |(name, arg): &(&str, Arg)| match arg {
        Arg::Switch => name.to_string(),
        Arg::Int(0) => format!("{name} N"),
        Arg::Int(min) => format!("{name} N>={min}"),
        Arg::IntIn(min, max) => format!("{name} {min}<=N<={max}"),
        Arg::Float => format!("{name} X"),
        Arg::Text => format!("{name} TEXT"),
        Arg::OneOf(names) => format!("{name} {}", names.join("|")),
    };
    spec.iter().map(one).collect::<Vec<_>>().join(", ")
}

impl Arg {
    fn check(&self, name: &str, v: &str) -> Result<Value, String> {
        match *self {
            Arg::Switch => unreachable!("switches take no value"),
            Arg::Int(min) => match v.parse() {
                Ok(n) if n >= min => Ok(Value::Int(n)),
                _ => Err(format!("{name} expects an integer >= {min}, got {v:?}")),
            },
            Arg::IntIn(min, max) => match v.parse() {
                Ok(n) if (min..=max).contains(&n) => Ok(Value::Int(n)),
                _ => Err(format!(
                    "{name} expects an integer in {min}..={max}, got {v:?}"
                )),
            },
            Arg::Float => match v.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Value::Float(x)),
                _ => Err(format!("{name} expects a number, got {v:?}")),
            },
            Arg::Text => Ok(Value::Text(v.to_string())),
            Arg::OneOf(names) if names.contains(&v) => Ok(Value::Text(v.to_string())),
            Arg::OneOf(names) => Err(format!(
                "{name} expects one of {}, got {v:?}",
                names.join("|")
            )),
        }
    }
}

impl Flags {
    /// Parse `args` against `spec`; the error is the line to print
    /// before exiting 2.
    pub fn parse(args: &[String], spec: Spec) -> Result<Flags, String> {
        let mut flags = BTreeMap::new();
        let mut positionals = spec.iter().filter(|(name, _)| !name.starts_with("--"));
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let entry = if arg.starts_with('-') {
                spec.iter().find(|(name, _)| name == arg)
            } else {
                positionals.next()
            };
            let Some((name, kind)) = entry else {
                return Err(format!("unknown flag {arg:?}; expected: {}", usage(spec)));
            };
            let value = match kind {
                Arg::Switch => Value::On,
                _ if !arg.starts_with('-') => kind.check(name, arg)?,
                _ => kind.check(name, it.next().ok_or(format!("{name} expects a value"))?)?,
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Flags(flags))
    }

    /// Parse the process arguments, or print the error and exit 2.
    pub fn from_env(spec: Spec) -> Flags {
        Flags::parse(&args(), spec).unwrap_or_else(|msg| fail(&msg))
    }

    /// Whether the switch `name` was given (or the flag `name` at all).
    pub fn on(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The value of integer flag `name`.
    pub fn int(&self, name: &str) -> Option<u64> {
        match self.0.get(name)? {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value of number flag `name`.
    pub fn float(&self, name: &str) -> Option<f64> {
        match self.0.get(name)? {
            Value::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value of text or closed-list flag `name`.
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.0.get(name)? {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Text flag `name`, if given, through a typed parser such as
    /// `OpMix::parse`, whose error says what the flag expects; exits 2
    /// on a bad value.
    pub fn parsed<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Option<T> {
        let parsed = self.text(name).map(parse).transpose();
        parsed.unwrap_or_else(|e| fail(&format!("{name} {e}")))
    }
}
