//! Alternating parent/change pairs of benchmark workloads — the
//! comparison a performance claim in this repository rests on.
//!
//! ```text
//! ab_pairs --parent <rev> --workload <name>[,<name>...]|all [--pairs 10]
//!          [--seed 801] [--seconds 14] [--work-dir <dir>] [--parent-dir <dir>]
//! ```
//!
//! Checks `<rev>` out with `git worktree add --detach` under `--work-dir`
//! (default `target/ab_pairs`), or uses an existing checkout given as
//! `--parent-dir`, and builds each side's `benchmark/` into its own
//! `CARGO_TARGET_DIR` under the work directory. Then, for each workload
//! of the comma-separated list (`all`: every workload of
//! [`clampi_bench::pairs::WORKLOADS`]), it runs `--pairs` pairs of
//! `benchmark/run.sh --workload <name> --seed <s> --seconds <n> --trace
//! 0`, one per seed from `--seed` on, both sides on the same seed,
//! alternating which side runs first. Per workload it prints every pair's
//! end-to-end metrics and `failed` count, then per metric each side's
//! median and quartiles, the change's wins, losses and ties, and the
//! verdict of [`clampi_bench::pairs::verdict`]: `gain`, `loss` or
//! `unresolved`; and in how many pairs the virtual-time metrics read
//! bit-equal, naming each pair where they did not (a host-only change
//! must show all of them equal). It writes nothing under `benchmark/`
//! except what `run.sh` itself writes to the git-ignored
//! `benchmark/out/`; the worktree stays for the next invocation (`git
//! worktree remove` it).
//!
//! Exit status: 0 when every run succeeded, 1 otherwise.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use clampi_bench::pairs::{
    failed, metric, quartiles, verdict, virtual_equal, END_TO_END, VIRTUAL, WORKLOADS,
};

struct Opts {
    parent: Option<String>,
    parent_dir: Option<PathBuf>,
    workloads: Vec<String>,
    pairs: u64,
    seed: u64,
    seconds: String,
    work_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("ab_pairs: {msg}");
    eprintln!(
        "usage: ab_pairs --parent <rev> | --parent-dir <dir>  \
         --workload <name>[,<name>...]|all [--pairs 10] [--seed 801] [--seconds 14] \
         [--work-dir <dir>]"
    );
    std::process::exit(2)
}

fn parse() -> Opts {
    let mut o = Opts {
        parent: None,
        parent_dir: None,
        workloads: Vec::new(),
        pairs: 10,
        seed: 801,
        seconds: "14".into(),
        work_dir: PathBuf::from("target/ab_pairs"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let number = |v: &str| v.parse().unwrap_or_else(|_| usage(&format!("bad {flag}")));
        match flag.as_str() {
            "--parent" => o.parent = Some(value),
            "--parent-dir" => o.parent_dir = Some(value.into()),
            "--workload" if value == "all" => o.workloads = WORKLOADS.map(String::from).to_vec(),
            "--workload" => {
                o.workloads = (value.split(',').filter(|w| !w.is_empty()))
                    .map(String::from)
                    .collect()
            }
            "--pairs" => o.pairs = number(&value),
            "--seed" => o.seed = number(&value),
            "--seconds" => o.seconds = value,
            "--work-dir" => o.work_dir = value.into(),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if o.workloads.is_empty() || o.parent.is_none() == o.parent_dir.is_none() {
        usage("give --workload and exactly one of --parent, --parent-dir");
    }
    o
}

/// Runs `cmd` and returns its stdout; an error if it cannot start or
/// exits nonzero.
fn stdout_of(cmd: &mut Command) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("{cmd:?}: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{cmd:?} exited {}: {err}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// One side of the comparison: a checkout and its own target directory.
struct Side {
    name: &'static str,
    root: PathBuf,
    target: PathBuf,
}

impl Side {
    fn command(&self, program: &str) -> Command {
        let mut cmd = Command::new(program);
        cmd.current_dir(&self.root)
            .env("CARGO_TARGET_DIR", &self.target);
        cmd
    }

    fn build(&self) -> Result<(), String> {
        let manifest = self.root.join("benchmark/Cargo.toml");
        let mut cmd = self.command("cargo");
        cmd.args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(manifest);
        stdout_of(&mut cmd).map(drop)
    }

    /// One untraced run of `workload`; its result object (the last line
    /// of stdout).
    fn run(&self, o: &Opts, workload: &str, seed: u64) -> Result<String, String> {
        let mut cmd = self.command("bash");
        cmd.arg("benchmark/run.sh")
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &o.seconds, "--trace", "0"]);
        let out = stdout_of(&mut cmd)?;
        let last = out.lines().last().unwrap_or_default();
        Ok(last.to_string())
    }
}

fn absolute(p: &Path) -> PathBuf {
    std::env::current_dir().map_or_else(|_| p.to_path_buf(), |cwd| cwd.join(p))
}

fn sides(o: &Opts) -> Result<[Side; 2], String> {
    let top = stdout_of(Command::new("git").args(["rev-parse", "--show-toplevel"]))?;
    let change_root = PathBuf::from(top.trim());
    let work_dir = absolute(&o.work_dir);
    let parent_root = match (&o.parent_dir, &o.parent) {
        (Some(dir), _) => absolute(dir),
        (None, Some(rev)) => {
            let sha = stdout_of(Command::new("git").args(["rev-parse", "--short", rev]))?;
            let dir = work_dir.join(format!("parent-{}", sha.trim()));
            if !dir.exists() {
                let mut add = Command::new("git");
                add.args(["worktree", "add", "--detach"])
                    .arg(&dir)
                    .arg(sha.trim());
                stdout_of(&mut add)?;
            }
            dir
        }
        (None, None) => unreachable!("parse checked"),
    };
    Ok([
        Side {
            name: "parent",
            root: parent_root,
            target: work_dir.join("target-parent"),
        },
        Side {
            name: "change",
            root: change_root,
            target: work_dir.join("target-change"),
        },
    ])
}

/// Runs the pairs of one workload and prints them, the verdict table and
/// the virtual-time check. Returns whether every run succeeded.
fn compare(o: &Opts, sides: &[Side; 2], workload: &str) -> bool {
    // values[metric][side] = one value per pair.
    let mut values = vec![[Vec::new(), Vec::new()]; END_TO_END.len()];
    let mut ok = true;
    let mut unequal = Vec::new();
    println!("# ab_pairs {workload} --seconds {}", o.seconds);
    for i in 0..o.pairs {
        let seed = o.seed + i;
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut results = [String::new(), String::new()];
        for s in order {
            match sides[s].run(o, workload, seed) {
                Ok(r) => results[s] = r,
                Err(e) => {
                    eprintln!("ab_pairs: pair {i}, {}: {e}", sides[s].name);
                    ok = false;
                }
            }
        }
        let mut line = format!("pair {i:>2} seed {seed} first {}", sides[order[0]].name);
        for (s, side) in sides.iter().enumerate() {
            let fails = failed(&results[s]);
            ok &= fails == Some(0);
            line += &format!(
                " | {} failed {}",
                side.name,
                fails.map_or("?".into(), |f| f.to_string())
            );
            for (m, (name, _)) in END_TO_END.iter().enumerate() {
                let v = metric(&results[s], name);
                line += &format!(" {name} {}", v.map_or("?".into(), |v| format!("{v:.4}")));
                values[m][s].push(v.unwrap_or(f64::NAN));
            }
        }
        println!("{line}");
        if !virtual_equal(&results[0], &results[1]) {
            unequal.push(format!("pair {i} (seed {seed})"));
        }
    }
    println!("# metric side q1 median q3 | wins losses ties gap spread verdict");
    for (m, &(name, higher)) in END_TO_END.iter().enumerate() {
        let [parent, change] = &values[m];
        for (s, side) in sides.iter().enumerate() {
            let (q1, med, q3) = quartiles(&values[m][s]);
            println!("{name} {} {q1:.4} {med:.4} {q3:.4}", side.name);
        }
        let v = verdict(parent, change, higher);
        let word = match (v.gain, v.loss) {
            (true, _) => "gain",
            (_, true) => "loss",
            _ => "unresolved",
        };
        println!(
            "{name} verdict | {} {} {} {:+.4} {:.4} {word}",
            v.wins, v.losses, v.ties, v.gap, v.spread
        );
    }
    let equal = o.pairs as usize - unequal.len();
    let mut line = format!(
        "# {workload} {} bit-equal in {equal}/{} pairs",
        VIRTUAL.join(" and "),
        o.pairs
    );
    if !unequal.is_empty() {
        line += &format!("; not in {}", unequal.join(", "));
    }
    println!("{line}");
    ok
}

fn main() -> ExitCode {
    let o = parse();
    let sides = match sides(&o) {
        Ok(s) => s,
        Err(e) => usage(&e),
    };
    for side in &sides {
        eprintln!("ab_pairs: building {} ({})", side.name, side.root.display());
        if let Err(e) = side.build() {
            eprintln!("ab_pairs: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut ok = true;
    for workload in &o.workloads {
        ok &= compare(&o, &sides, workload);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
