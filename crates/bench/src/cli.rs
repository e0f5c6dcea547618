//! Minimal `--key value` argument parsing for the figure binaries
//! (keeps the workspace free of CLI dependencies).

use std::collections::HashMap;

/// Parsed command-line arguments: `--key value` pairs and bare `--flag`s.
#[derive(Debug, Default)]
pub struct Args {
    kv: HashMap<String, String>,
    flags: Vec<String>,
    binary: String,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn parse() -> Self {
        Self::from_args(std::env::args())
    }

    /// Parses an explicit iterator (tests).
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut out = Args::default();
        let mut it = iter.into_iter();
        out.binary = it.next().unwrap_or_default();
        let mut pending: Option<String> = None;
        for a in it {
            if let Some(stripped) = a.strip_prefix("--") {
                if let Some(flag) = pending.take() {
                    out.flags.push(flag);
                }
                pending = Some(stripped.to_string());
            } else if let Some(key) = pending.take() {
                out.kv.insert(key, a);
            }
            // Bare positional values are ignored.
        }
        if let Some(flag) = pending {
            out.flags.push(flag);
        }
        out
    }

    /// The value of `--key`, parsed, or `default`.
    ///
    /// # Panics
    ///
    /// Panics with a readable message if the value does not parse.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.kv.get(key) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|e| panic!("--{key} {v}: unparsable ({e:?})")),
            None => default,
        }
    }

    /// Whether bare `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name) || self.kv.contains_key(name)
    }

    /// The seed (`--seed`, default 42).
    pub fn seed(&self) -> u64 {
        self.get("seed", 42u64)
    }

    /// Whether to run at the paper's full scale (`--paper`).
    pub fn paper_scale(&self) -> bool {
        self.flag("paper")
    }
}

/// Prints a `#`-prefixed metadata line.
pub fn meta(line: &str) {
    println!("# {line}");
}

/// Prints the RMASAN summary line (`# SAN diags <n>`). The count is the
/// process-wide total of sanitizer diagnostics; a clean run — and any
/// run without `CLAMPI_SAN=1` — prints 0. CI's san-test stage runs every
/// figure binary that calls this under `CLAMPI_SAN=1` and asserts 0.
pub fn san_summary() {
    meta(&format!("SAN diags {}", clampi_rma::check::total_diags()));
}

/// Prints a TSV row.
pub fn row<S: std::fmt::Display>(cells: &[S]) {
    let joined: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
    println!("{}", joined.join("\t"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_args(std::iter::once("bin".to_string()).chain(s.iter().map(|s| s.to_string())))
    }

    #[test]
    fn parses_key_values_and_flags() {
        let a = args(&["--seed", "7", "--paper", "--ranks", "16"]);
        assert_eq!(a.seed(), 7);
        assert!(a.paper_scale());
        assert_eq!(a.get("ranks", 2usize), 16);
        assert_eq!(a.get("missing", 3usize), 3);
    }

    #[test]
    fn trailing_flag_is_a_flag() {
        let a = args(&["--verbose"]);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    #[should_panic(expected = "unparsable")]
    fn bad_value_panics() {
        let a = args(&["--seed", "xyz"]);
        let _ = a.seed();
    }
}
