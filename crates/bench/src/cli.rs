//! The one argument parser the bench binaries share.
//!
//! Each binary declares the options it accepts as a [`Cli`]. Anything
//! else is a usage error — an unknown flag, a flag without its value, a
//! non-numeric number, a zero worker count, an unknown `--rows` name —
//! and [`Cli::args`] reports it with a usage line and exit status 2
//! instead of panicking.

use std::str::FromStr;
use std::time::Duration;

/// One option a binary accepts.
#[derive(Clone, Copy, Debug)]
pub enum Opt {
    /// A positional per-cell timeout in seconds, with its default.
    Timeout(u64),
    /// `--json PATH`: write a machine-readable snapshot.
    Json,
    /// `--rows A,B,..`: restrict to the named rows; the function says
    /// which names exist.
    Rows(fn(&str) -> bool),
    /// `--worker-sweep N,M,..`: re-run cells at these worker counts.
    WorkerSweep,
    /// `--sample N`: seeded random walks per row.
    Sample,
    /// `--seed S`: the sampling seed.
    Seed,
    /// `--subsample STRIDE`: stride the generated corpora.
    Subsample,
    /// A boolean switch such as `--no-flat`.
    Switch(&'static str),
}

impl Opt {
    /// The flag and value placeholder, as the usage line shows them.
    fn syntax(self) -> (&'static str, &'static str) {
        match self {
            Opt::Timeout(_) => ("", "timeout-secs"),
            Opt::Json => ("--json", "PATH"),
            Opt::Rows(_) => ("--rows", "A,B,.."),
            Opt::WorkerSweep => ("--worker-sweep", "N,M,.."),
            Opt::Sample => ("--sample", "N"),
            Opt::Seed => ("--seed", "S"),
            Opt::Subsample => ("--subsample", "STRIDE"),
            Opt::Switch(flag) => (flag, ""),
        }
    }
}

/// A binary's name and the options it accepts.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    /// Binary name, for messages.
    pub bin: &'static str,
    /// Accepted options, in usage-line order.
    pub opts: &'static [Opt],
}

/// Parsed options. Options a binary does not accept keep these
/// defaults.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// Per-cell timeout (the [`Opt::Timeout`] default unless given).
    pub timeout: Duration,
    /// `--json` snapshot path.
    pub json: Option<String>,
    /// `--rows` selection.
    pub rows: Option<Vec<String>>,
    /// `--worker-sweep` counts, all positive.
    pub worker_sweep: Vec<usize>,
    /// `--sample` walk count.
    pub sample: Option<u64>,
    /// `--seed` (default 0).
    pub seed: u64,
    /// `--subsample` stride.
    pub subsample: Option<usize>,
    switches: Vec<&'static str>,
}

impl Args {
    /// Whether the boolean switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

impl Cli {
    /// Parse `args` (without the program name).
    pub fn parse_args<I: IntoIterator<Item = String>>(&self, args: I) -> Result<Args, String> {
        let default_timeout = self.opts.iter().find_map(|o| match o {
            Opt::Timeout(secs) => Some(*secs),
            _ => None,
        });
        let mut out = Args {
            timeout: Duration::from_secs(default_timeout.unwrap_or(0)),
            ..Args::default()
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let opt = self.opts.iter().copied().find(|o| match o {
                Opt::Timeout(_) => false,
                o => o.syntax().0 == arg,
            });
            let Some(opt) = opt else {
                if default_timeout.is_some() && !arg.starts_with('-') {
                    out.timeout = Duration::from_secs(parse(&arg, "timeout")?);
                    continue;
                }
                return Err(format!("unknown argument: {arg}"));
            };
            if let Opt::Switch(flag) = opt {
                out.switches.push(flag);
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            match opt {
                Opt::Json => out.json = Some(value),
                Opt::Rows(known) => {
                    let rows: Vec<String> = value.split(',').map(str::to_string).collect();
                    if let Some(bad) = rows.iter().find(|r| !known(r)) {
                        return Err(format!("unknown --rows spec `{bad}`"));
                    }
                    out.rows = Some(rows);
                }
                Opt::WorkerSweep => out.worker_sweep = parse_worker_list(&value)?,
                Opt::Sample => out.sample = Some(parse(&value, &arg)?),
                Opt::Seed => out.seed = parse(&value, &arg)?,
                Opt::Subsample => out.subsample = Some(parse(&value, &arg)?),
                Opt::Timeout(_) | Opt::Switch(_) => unreachable!("handled above"),
            }
        }
        Ok(out)
    }

    /// Parse the process arguments, or exit 2 with a usage line.
    pub fn args(&self) -> Args {
        self.parse_args(std::env::args().skip(1))
            .unwrap_or_else(|e| self.fail(&e))
    }

    /// `usage: BIN [OPTION]..` for this binary.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {}", self.bin);
        for opt in self.opts {
            out.push_str(&match opt.syntax() {
                ("", value) => format!(" [{value}]"),
                (flag, "") => format!(" [{flag}]"),
                (flag, value) => format!(" [{flag} {value}]"),
            });
        }
        out
    }

    /// Report a usage error and exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        die(self.bin, msg, &self.usage())
    }
}

/// Parse `value` as the number `flag` takes.
pub fn parse<T: FromStr>(value: &str, flag: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value {value:?}"))
}

/// Print `BIN: MSG` and the usage line to stderr and exit 2.
pub fn die(bin: &str, msg: &str, usage: &str) -> ! {
    eprintln!("{bin}: {msg}\n{usage}");
    std::process::exit(2);
}

/// Parse a `--worker-sweep 1,2,4,8` list of strictly positive counts.
pub fn parse_worker_list(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|w| match parse(w.trim(), "--worker-sweep")? {
            0 => Err("--worker-sweep: worker counts must be positive".to_string()),
            n => Ok(n),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_row(name: &str) -> bool {
        name.starts_with("SL")
    }

    const CLI: Cli = Cli {
        bin: "demo",
        opts: &[
            Opt::Timeout(60),
            Opt::Json,
            Opt::Rows(is_row),
            Opt::WorkerSweep,
            Opt::Sample,
            Opt::Switch("--no-flat"),
        ],
    };

    fn run(args: &[&str]) -> Result<Args, String> {
        CLI.parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_every_option_kind() {
        let a = run(&[
            "30",
            "--json",
            "out.json",
            "--rows",
            "SLA-1,SLC-2",
            "--worker-sweep",
            "1,2",
            "--sample",
            "8",
            "--no-flat",
        ])
        .expect("valid arguments");
        assert_eq!(a.timeout, Duration::from_secs(30));
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.rows, Some(vec!["SLA-1".into(), "SLC-2".into()]));
        assert_eq!(a.worker_sweep, vec![1, 2]);
        assert_eq!(a.sample, Some(8));
        assert!(a.switch("--no-flat"));
        assert!(!a.switch("--por-sweep"));
    }

    #[test]
    fn defaults_apply_without_arguments() {
        let a = run(&[]).expect("no arguments is valid");
        assert_eq!(a.timeout, Duration::from_secs(60));
        assert_eq!((a.json, a.rows, a.sample, a.seed), (None, None, None, 0));
        assert!(a.worker_sweep.is_empty());
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = run(&["--json"]).unwrap_err();
        assert!(e.contains("--json needs a value"), "{e}");
    }

    #[test]
    fn non_numeric_value_is_an_error() {
        assert!(run(&["--sample", "x"])
            .unwrap_err()
            .contains("invalid value"));
        assert!(run(&["abc"]).unwrap_err().contains("timeout"));
    }

    #[test]
    fn zero_worker_count_is_an_error() {
        let e = run(&["--worker-sweep", "1,0,4"]).unwrap_err();
        assert!(e.contains("positive"), "{e}");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(run(&["--bogus"]).unwrap_err().contains("unknown argument"));
        // accepted by other binaries, not by this one
        assert!(run(&["--seed", "1"]).is_err());
    }

    #[test]
    fn unknown_rows_spec_is_an_error() {
        let e = run(&["--rows", "SLA-1,XYZ-9"]).unwrap_err();
        assert!(e.contains("`XYZ-9`"), "{e}");
    }

    #[test]
    fn positional_argument_without_timeout_is_unknown() {
        let cli = Cli {
            bin: "demo",
            opts: &[Opt::Subsample],
        };
        assert!(cli.parse_args(["5".to_string()]).is_err());
    }

    #[test]
    fn usage_lists_the_accepted_options() {
        assert_eq!(
            CLI.usage(),
            "usage: demo [timeout-secs] [--json PATH] [--rows A,B,..] \
             [--worker-sweep N,M,..] [--sample N] [--no-flat]"
        );
    }

    #[test]
    fn parse_worker_list_accepts_sweeps() {
        assert_eq!(parse_worker_list("1,2,4,8"), Ok(vec![1, 2, 4, 8]));
        assert_eq!(parse_worker_list(" 3 "), Ok(vec![3]));
    }

    #[test]
    fn parse_worker_list_rejects_zero() {
        assert!(parse_worker_list("1,0,4").unwrap_err().contains("positive"));
        assert!(parse_worker_list("1,x").is_err());
    }
}
