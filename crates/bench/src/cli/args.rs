//! The one command-line parser every bench binary goes through.
//!
//! A binary declares its flags as a [`Cli`] table and calls
//! [`Args::from_env`]; [`Args::parse`] is the same parser over an
//! explicit argument list, so tests need no child process. Unknown,
//! repeated or value-less flags and stray positionals are rejected
//! before the binary reads a value, and typed access ([`Args::get`],
//! [`Args::parse_with`]) names the flag and the bad value.

use std::fmt::Display;
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::exit;
use std::str::FromStr;

/// One declared flag: `--name` alone, or `--name <metavar>`, and what
/// it does (the `--help` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag as typed, e.g. `--rounds`.
    pub name: &'static str,
    /// The value placeholder; `None` for a switch.
    pub metavar: Option<&'static str>,
    /// One line saying what the flag does.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes one value.
    pub const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Self {
        Self {
            name,
            metavar: Some(metavar),
            help,
        }
    }

    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            metavar: None,
            help,
        }
    }
}

/// A binary's command line: its name (the prefix of every diagnostic),
/// its flags in groups (so shared sets such as [`super::GRID_FLAGS`] are
/// declared once) and how many positional arguments it takes at most.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The binary's name.
    pub bin: &'static str,
    /// The accepted flags.
    pub flags: &'static [&'static [Flag]],
    /// The most positional arguments (subcommands, files) accepted.
    pub positionals: usize,
}

impl Cli {
    /// A binary taking `flags` and no positional argument.
    pub const fn new(bin: &'static str, flags: &'static [&'static [Flag]]) -> Self {
        Self {
            bin,
            flags,
            positionals: 0,
        }
    }

    fn all(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// `unknown flag`, plus the nearest declared flag if one is close.
    fn unknown(&self, token: &str) -> String {
        let nearest = self
            .all()
            .map(|f| (edit_distance(token, f.name), f.name))
            .filter(|(d, _)| *d <= 2)
            .min_by_key(|(d, _)| *d);
        match nearest {
            Some((_, name)) => format!("unknown flag `{token}` (did you mean `{name}`?)"),
            None => format!("unknown flag `{token}`"),
        }
    }

    /// The `--help` text: the usage text (or a generic line), then the flags.
    fn help(&self, usage: &str) -> String {
        let mut out = match usage {
            "" => format!("usage: {} [flags]\n\nflags:\n", self.bin),
            _ => format!("{usage}\nflags:\n"),
        };
        let usage =
            |f: &Flag| f.name.to_string() + &f.metavar.map_or(String::new(), |m| format!(" <{m}>"));
        let width = self.all().map(|f| usage(f).len()).max().unwrap_or(0);
        for flag in self.all() {
            out.push_str(&format!("  {:width$}  {}\n", usage(flag), flag.help));
        }
        out + &format!("  {:width$}  print this help\n", "-h, --help")
    }
}

/// Levenshtein distance, for the unknown-flag hint.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = i;
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let above = row[j + 1];
            row[j + 1] = (diagonal + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(above + 1);
            diagonal = above;
        }
    }
    row[b.len()]
}

/// A number type flags carry: the range every flag of the type accepts
/// and how a diagnostic names it.
pub trait FlagNumber: FromStr {
    /// What the flag wants, e.g. `a positive integer`.
    const WANTS: &'static str;
    /// Whether a parsed value is in range.
    fn in_range(&self) -> bool {
        true
    }
}

impl FlagNumber for u64 {
    const WANTS: &'static str = "a non-negative integer";
}

impl FlagNumber for usize {
    const WANTS: &'static str = "a non-negative integer";
}

impl FlagNumber for NonZeroUsize {
    const WANTS: &'static str = "a positive integer";
}

impl FlagNumber for NonZeroU64 {
    const WANTS: &'static str = "a positive integer";
}

impl FlagNumber for f64 {
    const WANTS: &'static str = "a positive finite number";
    fn in_range(&self) -> bool {
        self.is_finite() && *self > 0.0
    }
}

/// Parses `token` as a `T` in its range.
///
/// # Errors
///
/// Returns ``wants <range>, got `<token>` `` otherwise.
pub(crate) fn number<T: FlagNumber>(token: &str) -> Result<T, String> {
    let token = token.trim();
    token
        .parse()
        .ok()
        .filter(T::in_range)
        .ok_or_else(|| format!("wants {}, got `{token}`", T::WANTS))
}

/// A parsed command line: each given flag (at most once) with its
/// value, and the positional arguments.
#[derive(Debug, Clone)]
pub struct Args {
    cli: Cli,
    flags: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
    help: bool,
}

impl Args {
    /// Parses `argv` (without the program name) against `cli`.
    ///
    /// `--help`/`-h` stops parsing. Every other token starting with
    /// `--` must be a declared flag, given once; a value flag takes the
    /// next token unless that starts with `--` too. Anything else (`-`
    /// and `-1` included) is a value or a positional.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown, repeated or value-less
    /// flag, or the stray positional.
    pub fn parse<I>(cli: &Cli, argv: I) -> Result<Self, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut args = Self {
            cli: *cli,
            flags: Vec::new(),
            positionals: Vec::new(),
            help: false,
        };
        let mut argv = argv.into_iter().map(Into::into).peekable();
        while let Some(token) = argv.next() {
            if token == "--help" || token == "-h" {
                args.help = true;
                break;
            }
            if !token.starts_with("--") {
                if args.positionals.len() == cli.positionals {
                    return Err(format!("unexpected argument `{token}`"));
                }
                args.positionals.push(token);
                continue;
            }
            let flag = cli
                .all()
                .find(|f| f.name == token)
                .ok_or_else(|| cli.unknown(&token))?;
            if args.has(flag.name) {
                return Err(format!("{} given twice", flag.name));
            }
            let value = match flag.metavar {
                None => None,
                Some(metavar) => match argv.next_if(|t| !t.starts_with("--")) {
                    Some(value) => Some(value),
                    None => {
                        let got = argv
                            .peek()
                            .map_or(String::new(), |t| format!(", got `{t}`"));
                        return Err(format!("{} wants a value <{metavar}>{got}", flag.name));
                    }
                },
            };
            args.flags.push((flag.name, value));
        }
        Ok(args)
    }

    /// Parses the process arguments; prints the `--help` text (with
    /// `usage` ahead of the flag list) and exits 0, or prints a
    /// `<bin>: <message>` diagnostic and exits 2, instead of returning.
    pub fn from_env(cli: &Cli, usage: &str) -> Self {
        let args = Self::parse(cli, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{}: {e}", cli.bin);
            exit(2);
        });
        if args.help {
            print!("{}", cli.help(usage));
            exit(0);
        }
        args
    }

    /// Prints `<bin>: <message>` to stderr and exits 2.
    pub fn fail(&self, message: impl Display) -> ! {
        eprintln!("{}: {message}", self.cli.bin);
        exit(2);
    }

    /// Unwraps `result`, or fails with its message.
    pub fn ok<T>(&self, result: Result<T, String>) -> T {
        result.unwrap_or_else(|e| self.fail(e))
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.entry(name).is_some()
    }

    /// The raw value of `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.entry(name).and_then(Option::as_deref)
    }

    fn entry(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(self.cli.all().any(|f| f.name == name), "undeclared {name}");
        self.flags.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// The value of `name` as a number in its type's range.
    ///
    /// # Errors
    ///
    /// Returns ``<name> wants <range>, got `<value>` `` otherwise.
    pub fn get<T: FlagNumber>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| number(v).map_err(|e| format!("{name} {e}")))
            .transpose()
    }

    /// The value of `name` decoded by `parse`.
    ///
    /// # Errors
    ///
    /// Returns `parse`'s message prefixed with `<name>: `.
    pub fn parse_with<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| parse(v).map_err(|e| format!("{name}: {e}")))
            .transpose()
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> Vec<&str> {
        self.positionals.iter().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Cli = Cli {
        bin: "test",
        flags: &[
            &[
                Flag::value("--csv", "path|-", "write the CSV"),
                Flag::value("--target", "mph", "target speed"),
                Flag::switch("--honest", "no attacker"),
            ],
            &[
                Flag::value("--golden", "name", "a golden grid"),
                Flag::value("--threads", "k", "worker threads"),
            ],
        ],
        positionals: 1,
    };

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(&TEST, argv.iter().copied())
    }

    #[test]
    fn dash_and_negative_numbers_are_values() {
        let args = parse(&["--csv", "-", "--target", "-1"]).unwrap();
        assert_eq!(args.value("--csv"), Some("-"));
        assert_eq!(args.value("--target"), Some("-1"));
        // Range checks, not the parser, reject the negative.
        assert_eq!(
            args.get::<f64>("--target").unwrap_err(),
            "--target wants a positive finite number, got `-1`"
        );
    }

    #[test]
    fn a_value_flag_never_takes_the_next_flag_as_its_value() {
        assert_eq!(
            parse(&["--golden", "--honest"]).unwrap_err(),
            "--golden wants a value <name>, got `--honest`"
        );
        assert_eq!(
            parse(&["--honest", "--golden"]).unwrap_err(),
            "--golden wants a value <name>"
        );
    }

    #[test]
    fn unknown_flags_name_the_nearest_declared_one() {
        assert_eq!(
            parse(&["--threds", "2"]).unwrap_err(),
            "unknown flag `--threds` (did you mean `--threads`?)"
        );
        assert_eq!(
            parse(&["--allow-invisible"]).unwrap_err(),
            "unknown flag `--allow-invisible`"
        );
    }

    #[test]
    fn repeated_flags_are_rejected() {
        assert_eq!(
            parse(&["--honest", "--honest"]).unwrap_err(),
            "--honest given twice"
        );
        assert_eq!(
            parse(&["--csv", "a", "--csv", "b"]).unwrap_err(),
            "--csv given twice"
        );
    }

    #[test]
    fn positionals_beyond_the_declared_count_are_rejected() {
        let args = parse(&["check", "--honest"]).unwrap();
        assert_eq!(args.positionals(), vec!["check"]);
        assert!(args.has("--honest") && !args.has("--csv"));
        assert_eq!(
            parse(&["check", "x"]).unwrap_err(),
            "unexpected argument `x`"
        );
    }

    #[test]
    fn help_stops_parsing_and_lists_every_flag() {
        for help in ["--help", "-h"] {
            assert!(parse(&[help, "--bogus"]).unwrap().help);
        }
        let text = TEST.help("usage: test <cmd>\n");
        assert!(text.starts_with("usage: test <cmd>\n\nflags:\n"), "{text}");
        for line in [
            "  --csv <path|->   write the CSV\n",
            "  --honest         no attacker\n",
            "  --threads <k>    worker threads\n",
            "  -h, --help       print this help\n",
        ] {
            assert!(text.contains(line), "{text}");
        }
        assert!(TEST.help("").starts_with("usage: test [flags]\n"));
    }

    #[test]
    fn typed_access_names_the_flag_and_the_value() {
        let args = parse(&["--threads", "0", "--golden", "x"]).unwrap();
        assert_eq!(
            args.get::<NonZeroUsize>("--threads").unwrap_err(),
            "--threads wants a positive integer, got `0`"
        );
        assert_eq!(args.get::<u64>("--threads").unwrap(), Some(0));
        assert_eq!(args.get::<u64>("--csv").unwrap(), None);
        assert_eq!(
            args.parse_with("--golden", |v| Err::<(), _>(format!("bad `{v}`")))
                .unwrap_err(),
            "--golden: bad `x`"
        );
    }

    #[test]
    fn edit_distance_counts_insertions_deletions_and_substitutions() {
        assert_eq!(edit_distance("--fuserz", "--fusers"), 1);
        assert_eq!(edit_distance("--jsno", "--json"), 2);
        assert_eq!(edit_distance("--f", "--fault"), 4);
        assert_eq!(edit_distance("", "ab"), 2);
    }
}
