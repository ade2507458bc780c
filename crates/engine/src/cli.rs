//! The one command-line cursor every binary of the workspace parses with.
//!
//! A binary declares its flags once (`const FLAGS: &[&str]`; `bhsim` adds
//! the [`crate::knobs`] table's) and hands them to [`Args`] with its name
//! and its `usage` text.  [`Args::next`] then
//! yields the arguments to `match` on, and anything that looks like a flag
//! but is not in the list is rejected *here* — with a did-you-mean from
//! [`crate::suggest`] — so the list that words the suggestion is the list
//! that decides what is accepted.  [`Args::value`] and [`Args::number`]
//! fetch a flag's value.
//!
//! `--help` and `-h` belong to every binary and are answered here: the
//! usage goes to stdout and the process exits 0.  Every rejection prints one
//! `prog: …` line, then the usage, to stderr and exits 2 ([`reject`]).

use std::str::FromStr;

/// Cursor over a binary's arguments.
pub struct Args {
    prog: &'static str,
    flags: Vec<&'static str>,
    usage: fn() -> String,
    rest: std::vec::IntoIter<String>,
}

/// The flags every binary answers without declaring them.
const HELP: [&str; 2] = ["--help", "-h"];

impl Args {
    /// Cursor over the process's own arguments (program name skipped).
    pub fn from_env(prog: &'static str, flags: &[&'static str], usage: fn() -> String) -> Args {
        Args::new(prog, flags, usage, std::env::args().skip(1).collect())
    }

    /// Cursor over an explicit argument list.
    pub fn new(
        prog: &'static str,
        flags: &[&'static str],
        usage: fn() -> String,
        args: Vec<String>,
    ) -> Args {
        let flags = flags.iter().copied().chain(HELP).collect();
        Args { prog, flags, usage, rest: args.into_iter() }
    }

    /// The next argument: a declared flag, or a positional word.  `--help`
    /// and `-h` print the usage to stdout and exit 0; a flag-shaped argument
    /// that was not declared exits through [`Args::unknown`].
    #[allow(clippy::should_implement_trait)] // exits the process, so not an Iterator
    pub fn next(&mut self) -> Option<String> {
        let arg = self.rest.next()?;
        if HELP.contains(&arg.as_str()) {
            print!("{}", (self.usage)());
            std::process::exit(0)
        }
        if arg.starts_with('-') && !self.flags.contains(&arg.as_str()) {
            self.unknown(&arg)
        }
        Some(arg)
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        match self.rest.next() {
            Some(value) => value,
            None => self.reject(&format!("{flag} requires a value")),
        }
    }

    /// The value following `flag`, parsed as a number.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> T {
        let text = self.value(flag);
        self.parse(flag, &text)
    }

    /// Parses `text` — the value of `flag`, or one element of it — as a
    /// number.
    pub fn parse<T: FromStr>(&self, flag: &str, text: &str) -> T {
        match parse_number(flag, text) {
            Ok(n) => n,
            Err(message) => self.reject(&message),
        }
    }

    /// Rejects `arg` as an unknown option, naming the nearest declared flag.
    /// [`Args::next`] calls it for undeclared flags; a binary that takes no
    /// positional words calls it from its `match`'s fall-through arm.
    pub fn unknown(&self, arg: &str) -> ! {
        self.reject(&unknown_flag(arg, &self.flags))
    }

    /// Prints `prog: message` and the usage to stderr, then exits 2.
    pub fn reject(&self, message: &str) -> ! {
        reject(self.prog, self.usage, message)
    }
}

/// Prints `prog: message` and the usage to stderr, then exits 2: the one
/// way a binary refuses its command line, inside [`Args`] or after it.
pub fn reject(prog: &str, usage: fn() -> String, message: &str) -> ! {
    eprintln!("{prog}: {message}");
    eprint!("{}", usage());
    std::process::exit(2)
}

fn unknown_flag(arg: &str, flags: &[&str]) -> String {
    match crate::suggest::suggest(arg, flags.iter().copied()) {
        Some(near) => format!("unknown option: {arg} (did you mean {near}?)"),
        None => format!("unknown option: {arg}"),
    }
}

fn parse_number<T: FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("invalid value for {flag}: {text:?} is not a valid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[&str] = &["--steps", "--seed", "--json"];

    fn unreachable_usage() -> String {
        panic!("a well-formed command line must not reach usage")
    }

    #[test]
    fn cursor_yields_flags_values_numbers_and_positionals() {
        let line = ["--steps", "4", "a.json", "--json", "--seed", "7"];
        let mut args = Args::new(
            "test",
            FLAGS,
            unreachable_usage,
            line.iter().map(|s| s.to_string()).collect(),
        );
        assert_eq!(args.next().as_deref(), Some("--steps"));
        assert_eq!(args.number::<usize>("--steps"), 4);
        assert_eq!(args.next().as_deref(), Some("a.json"));
        assert_eq!(args.next().as_deref(), Some("--json"));
        assert_eq!(args.next().as_deref(), Some("--seed"));
        assert_eq!(args.value("--seed"), "7");
        assert_eq!(args.next(), None);
    }

    #[test]
    fn unknown_flags_name_the_nearest_declared_one() {
        assert_eq!(
            unknown_flag("--stpes", FLAGS),
            "unknown option: --stpes (did you mean --steps?)"
        );
        assert_eq!(unknown_flag("--frobnicate", FLAGS), "unknown option: --frobnicate");
        let args = Args::new("test", FLAGS, unreachable_usage, Vec::new());
        assert_eq!(
            unknown_flag("--hlep", &args.flags),
            "unknown option: --hlep (did you mean --help?)"
        );
    }

    #[test]
    fn numbers_name_the_flag_and_the_offending_text() {
        assert_eq!(parse_number::<u64>("--seed", "12"), Ok(12));
        assert_eq!(parse_number::<f64>("--theta", "0.5"), Ok(0.5));
        let err = parse_number::<usize>("--steps", "four").unwrap_err();
        assert_eq!(err, "invalid value for --steps: \"four\" is not a valid number");
        assert!(parse_number::<usize>("--steps", "-1").is_err());
    }
}
