//! `xlint` — the workspace's in-tree, dependency-free lint pass.
//!
//! Five rules, all lexical: sources are stripped of comments and string
//! literals before matching, so prose and message text never trip a rule.
//!
//! | rule             | scope                         | what it enforces            |
//! |------------------|-------------------------------|-----------------------------|
//! | `hermeticity`    | every `Cargo.toml`            | all dependency entries are `path`/`workspace` (offline build contract) |
//! | `no-std-time`    | sim-path crates, `src/`       | no `std::time::{Instant,SystemTime}` — simulation code uses virtual clocks |
//! | `no-unwrap`      | `crates/{rma,clampi}/src/`    | no `.unwrap()` / `.expect(` in library code |
//! | `safety-comment` | every `.rs`                   | each `unsafe` carries a `// SAFETY:` comment nearby |
//! | `no-println`     | sim-path crates, `src/`       | no `print!`/`println!` — binaries own stdout |
//!
//! Escapes: append `// xlint: allow(<rule>)` to the offending line or put
//! it on the line directly above. A `#[cfg(test)]` attribute suppresses
//! `no-unwrap`, `no-std-time` and `no-println` from that line to end of
//! file (`safety-comment` stays active: test `unsafe` still needs a
//! `// SAFETY:`).
//!
//! Usage:
//!   `xlint [--root DIR] [--rule a,b] [--list] [--self-test [RULE]]`
//!
//! `--self-test` proves the rules still bite by running them against the
//! known-offending fixtures under `ci/fixtures/` and checking that each
//! seeded violation — and nothing else — is flagged. Exit status is 1 on
//! any violation (or failed self-test), 0 otherwise.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates whose `src/` is simulation-path code: they run under the
/// virtual clock and must not read wall-clock time or chat on stdout.
/// (`bench` is exempt — its binaries own stdout and time real builds.)
const SIM_CRATES: &[&str] = &["rma", "clampi", "datatype", "workloads", "apps", "prng"];

/// Crates whose `src/` must not panic via `.unwrap()`/`.expect(`. The
/// apps crate is in scope because its data structures (DHT buckets,
/// octree records) decode wire bytes — exactly where a stray `.unwrap()`
/// turns a short read into a rank-killing panic that fails the whole run.
const UNWRAP_CRATES: &[&str] = &["rma", "clampi", "apps"];

/// How far above an `unsafe` token a `// SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 3;

const RULES: &[(&str, &str)] = &[
    (
        "hermeticity",
        "every dependency entry in every Cargo.toml is path/workspace (offline build contract)",
    ),
    (
        "no-std-time",
        "no std::time::{Instant,SystemTime} in simulation-path crate src (virtual clocks only)",
    ),
    (
        "no-unwrap",
        "no .unwrap()/.expect( in crates/{rma,clampi,apps} library code",
    ),
    (
        "safety-comment",
        "every `unsafe` carries a // SAFETY: comment on the same line or within 3 lines above",
    ),
    (
        "no-println",
        "no print!/println! in simulation-path crate src (binaries own stdout)",
    ),
];

#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

// ------------------------------------------------------------- stripper --

#[derive(Clone, Copy)]
enum St {
    Code,
    Line,
    Block(u32),
    /// `None` = escaped string (`"` / `b"`); `Some(h)` = raw string closed
    /// by `"` followed by `h` hashes.
    Str(Option<usize>),
}

/// Returns `src` with comments and string/char literals blanked to spaces
/// (newlines preserved), so token matching never fires inside prose.
fn strip_rust(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = String::with_capacity(n);
    let mut st = St::Code;
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut i = 0;
    while i < n {
        let c = b[i];
        match st {
            St::Code => {
                if c == '/' && i + 1 < n && b[i + 1] == '/' {
                    st = St::Line;
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && i + 1 < n && b[i + 1] == '*' {
                    st = St::Block(1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = St::Str(None);
                    out.push(' ');
                    i += 1;
                } else if (c == 'r' || c == 'b') && (i == 0 || !is_ident(b[i - 1])) {
                    // String literal prefixes: r"..", r#".."#, b"..", br"..".
                    let mut j = i + 1;
                    let mut raw = c == 'r';
                    if c == 'b' && j < n && b[j] == 'r' {
                        raw = true;
                        j += 1;
                    }
                    let mut hashes = 0usize;
                    if raw {
                        while j < n && b[j] == '#' {
                            hashes += 1;
                            j += 1;
                        }
                    }
                    if j < n && b[j] == '"' {
                        for _ in i..=j {
                            out.push(' ');
                        }
                        st = St::Str(if raw { Some(hashes) } else { None });
                        i = j + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime.
                    if i + 1 < n && b[i + 1] == '\\' {
                        // Escaped char literal: the escaped char is at i+2,
                        // the closing quote somewhere after it ('\u{..}').
                        let mut j = i + 3;
                        while j < n && b[j] != '\'' && j - i < 14 {
                            j += 1;
                        }
                        if j < n && b[j] == '\'' {
                            for _ in i..=j {
                                out.push(' ');
                            }
                            i = j + 1;
                        } else {
                            out.push(c);
                            i += 1;
                        }
                    } else if i + 2 < n && b[i + 2] == '\'' && b[i + 1] != '\'' {
                        out.push_str("   ");
                        i += 3;
                    } else {
                        // Lifetime ('a, 'static): keep the tick, move on.
                        out.push(c);
                        i += 1;
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            St::Line => {
                if c == '\n' {
                    st = St::Code;
                }
                out.push(blank(c));
                i += 1;
            }
            St::Block(d) => {
                if c == '/' && i + 1 < n && b[i + 1] == '*' {
                    st = St::Block(d + 1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && i + 1 < n && b[i + 1] == '/' {
                    st = if d == 1 { St::Code } else { St::Block(d - 1) };
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(blank(c));
                    i += 1;
                }
            }
            St::Str(None) => {
                if c == '\\' && i + 1 < n {
                    out.push(blank(c));
                    out.push(blank(b[i + 1]));
                    i += 2;
                } else {
                    if c == '"' {
                        st = St::Code;
                    }
                    out.push(blank(c));
                    i += 1;
                }
            }
            St::Str(Some(h)) => {
                if c == '"' && b[i + 1..].iter().take(h).filter(|&&x| x == '#').count() == h {
                    for &x in &b[i..=i + h] {
                        out.push(blank(x));
                    }
                    st = St::Code;
                    i += 1 + h;
                } else {
                    out.push(blank(c));
                    i += 1;
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------- token match --

/// Whole-word occurrence of `tok` in `line` (ident boundaries both sides).
fn has_token(line: &str, tok: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(tok) {
        let p = start + pos;
        let before_ok = p == 0 || !is_ident(bytes[p - 1] as char);
        let after = p + tok.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after] as char);
        if before_ok && after_ok {
            return true;
        }
        start = p + 1;
    }
    false
}

/// Macro invocation `name!` with an ident boundary before `name`.
fn has_macro(line: &str, name: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(name) {
        let p = start + pos;
        let before_ok = p == 0 || !is_ident(bytes[p - 1] as char);
        let after = p + name.len();
        if before_ok && after < bytes.len() && bytes[after] == b'!' {
            return true;
        }
        start = p + 1;
    }
    false
}

/// `// xlint: allow(<rule>)` on the flagged line or the line directly
/// above (checked against the raw text: escapes live in comments).
fn escaped(raw_lines: &[&str], idx: usize, rule: &str) -> bool {
    let needle = format!("xlint: allow({rule})");
    raw_lines[idx].contains(&needle) || (idx > 0 && raw_lines[idx - 1].contains(&needle))
}

// ------------------------------------------------------------ rust scan --

fn in_crate_src(rel: &str, crates: &[&str]) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    parts.len() >= 4 && parts[0] == "crates" && crates.contains(&parts[1]) && parts[2] == "src"
}

fn rust_rule_in_scope(rule: &str, rel: &str) -> bool {
    match rule {
        "no-std-time" | "no-println" => in_crate_src(rel, SIM_CRATES),
        "no-unwrap" => in_crate_src(rel, UNWRAP_CRATES),
        "safety-comment" => true,
        _ => false,
    }
}

fn scan_rust(raw: &str, rel: &str, rules: &[&'static str], force_scope: bool) -> Vec<Violation> {
    let stripped = strip_rust(raw);
    let raw_lines: Vec<&str> = raw.lines().collect();
    let strip_lines: Vec<&str> = stripped.lines().collect();
    // First #[cfg(test)] in *stripped* text: from there to EOF is test
    // code for the panicking/printing rules.
    let test_from = strip_lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(usize::MAX);

    let mut out = Vec::new();
    for (idx, line) in strip_lines.iter().enumerate() {
        for &rule in rules {
            if rule == "hermeticity" || (!force_scope && !rust_rule_in_scope(rule, rel)) {
                continue;
            }
            if idx >= test_from && rule != "safety-comment" {
                continue;
            }
            let msg: Option<String> = match rule {
                "no-std-time" => {
                    if has_token(line, "Instant") || has_token(line, "SystemTime") {
                        Some(
                            "wall-clock time in simulation-path code (use the virtual clock)"
                                .into(),
                        )
                    } else {
                        None
                    }
                }
                "no-unwrap" => {
                    if line.contains(".unwrap()") || line.contains(".expect(") {
                        Some("panicking extractor in library code (bubble the error or justify with an escape)".into())
                    } else {
                        None
                    }
                }
                "no-println" => {
                    if has_macro(line, "println") || has_macro(line, "print") {
                        Some("stdout chatter in library code (binaries own stdout)".into())
                    } else {
                        None
                    }
                }
                "safety-comment" => {
                    if has_token(line, "unsafe") {
                        let lo = idx.saturating_sub(SAFETY_WINDOW);
                        let documented = raw_lines[lo..=idx].iter().any(|l| l.contains("SAFETY:"));
                        if documented {
                            None
                        } else {
                            Some("`unsafe` without a nearby // SAFETY: comment".into())
                        }
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(msg) = msg {
                if !escaped(&raw_lines, idx, rule) {
                    out.push(Violation {
                        file: rel.to_string(),
                        line: idx + 1,
                        rule,
                        msg,
                    });
                }
            }
        }
    }
    out
}

// ------------------------------------------------------- manifest scan --

/// Truncates a TOML line at the first `#` outside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut quote: Option<char> = None;
    for (i, c) in line.char_indices() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
            }
            None => {
                if c == '"' || c == '\'' {
                    quote = Some(c);
                } else if c == '#' {
                    return &line[..i];
                }
            }
        }
    }
    line
}

fn is_dep_word(s: &str) -> bool {
    matches!(
        s,
        "dependencies" | "dev-dependencies" | "build-dependencies"
    )
}

/// `dependencies` / `workspace.dependencies` / `target.<cfg>.dependencies`
/// (plus the dev-/build- variants): a section whose *entries* are deps.
fn is_dep_section_path(inner: &str) -> bool {
    if is_dep_word(inner) {
        return true;
    }
    if let Some(rest) = inner.strip_prefix("workspace.") {
        return is_dep_word(rest);
    }
    if inner.starts_with("target.") {
        if let Some(last) = inner.rsplit('.').next() {
            return is_dep_word(last);
        }
    }
    false
}

/// `[<dep-section>.<name>]` — the table form, one dependency per section.
fn dep_table_header(inner: &str) -> bool {
    if let Some(pos) = inner.rfind("dependencies.") {
        let sect = &inner[..pos + "dependencies".len()];
        is_dep_section_path(sect) && inner.len() > pos + "dependencies.".len()
    } else {
        false
    }
}

/// `name = ...` or `name.key = ...` with a bare dependency-ish name.
fn is_dep_entry(t: &str) -> bool {
    let name_len = t
        .bytes()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == b'_' || *c == b'-')
        .count();
    if name_len == 0 {
        return false;
    }
    let rest = t[name_len..].trim_start();
    rest.starts_with('=') || rest.starts_with('.')
}

/// `key` followed by `=` (any spacing), whole-word.
fn has_key(t: &str, key: &str) -> bool {
    let bytes = t.as_bytes();
    let mut start = 0;
    while let Some(pos) = t[start..].find(key) {
        let p = start + pos;
        let before_ok = p == 0 || !is_ident(bytes[p - 1] as char);
        let mut after = p + key.len();
        while after < bytes.len() && (bytes[after] == b' ' || bytes[after] == b'\t') {
            after += 1;
        }
        if before_ok && after < bytes.len() && bytes[after] == b'=' {
            return true;
        }
        start = p + 1;
    }
    false
}

fn has_workspace_true(t: &str) -> bool {
    if let Some(pos) = t.find("workspace") {
        let rest = t[pos + "workspace".len()..].trim_start();
        if let Some(rest) = rest.strip_prefix('=') {
            return rest.trim_start().starts_with("true");
        }
    }
    false
}

fn scan_manifest(raw: &str, rel: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_dep = false;
    // (line number, header text) of an open `[dependencies.<name>]` table
    // that has not yet shown a path/workspace key.
    let mut table: Option<(usize, String)> = None;
    let mut table_ok = false;
    let flush =
        |table: &mut Option<(usize, String)>, table_ok: &mut bool, out: &mut Vec<Violation>| {
            if let Some((line, hdr)) = table.take() {
                if !*table_ok {
                    out.push(Violation {
                        file: rel.to_string(),
                        line,
                        rule: "hermeticity",
                        msg: format!("external dependency table `{hdr}` (no path/workspace key)"),
                    });
                }
            }
            *table_ok = false;
        };
    for (idx, raw_line) in raw.lines().enumerate() {
        let t = strip_toml_comment(raw_line).trim();
        if t.starts_with('[') {
            flush(&mut table, &mut table_ok, &mut out);
            in_dep = false;
            if let Some(inner) = t.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let inner = inner.trim();
                if is_dep_section_path(inner) {
                    in_dep = true;
                } else if dep_table_header(inner) {
                    table = Some((idx + 1, t.to_string()));
                }
            }
            continue;
        }
        if table.is_some() && (has_key(t, "path") || has_workspace_true(t)) {
            table_ok = true;
        }
        if in_dep && is_dep_entry(t) && !has_key(t, "path") && !has_workspace_true(t) {
            out.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                rule: "hermeticity",
                msg: format!("external dependency entry `{t}`"),
            });
        }
    }
    flush(&mut table, &mut table_ok, &mut out);
    out
}

// ----------------------------------------------------------------- walk --

fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut entries: Vec<_> = rd.flatten().collect();
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let p = e.path();
        let name = e.file_name().to_string_lossy().into_owned();
        if p.is_dir() {
            // `ci/` holds deliberately-offending fixtures (exercised only
            // by --self-test); `results/` and `target/` are build output.
            if name.starts_with('.')
                || matches!(name.as_str(), "target" | "ci" | "results" | "node_modules")
            {
                continue;
            }
            walk(&p, files);
        } else if name == "Cargo.toml" || name.ends_with(".rs") {
            files.push(p);
        }
    }
}

fn rel_of(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .into_owned()
}

// ------------------------------------------------------------ self-test --

/// Seeded fixture expectations: (file, rule, violation count). Every
/// fixture file must produce *exactly* these and nothing else.
const LINT_FIXTURES: &[(&str, &str, usize)] = &[
    ("bad_time.rs", "no-std-time", 2),
    ("bad_unwrap.rs", "no-unwrap", 2),
    ("bad_unwrap_apps.rs", "no-unwrap", 2),
    ("bad_unsafe.rs", "safety-comment", 1),
    ("bad_println.rs", "no-println", 1),
    ("clean.rs", "", 0),
];

fn self_test(root: &Path, rules: &[&'static str]) -> Result<(), String> {
    if rules.contains(&"hermeticity") {
        let rel = "ci/fixtures/offending/Cargo.toml";
        let raw = fs::read_to_string(root.join(rel))
            .map_err(|e| format!("self-test: cannot read {rel}: {e}"))?;
        let vs = scan_manifest(&raw, rel);
        let msgs: Vec<&str> = vs.iter().map(|v| v.msg.as_str()).collect();
        if vs.len() != 2 {
            return Err(format!(
                "self-test FAILED: hermeticity flagged {} entries in {rel}, want 2: {msgs:?}",
                vs.len()
            ));
        }
        for offender in ["inline-bad", "table-bad"] {
            if !msgs.iter().any(|m| m.contains(offender)) {
                return Err(format!(
                    "self-test FAILED: hermeticity missed `{offender}` in {rel}"
                ));
            }
        }
        for clean in ["inline-ok", "table-ok", "table-ws-ok"] {
            if msgs.iter().any(|m| m.contains(clean)) {
                return Err(format!(
                    "self-test FAILED: hermeticity flagged clean entry `{clean}` in {rel}"
                ));
            }
        }
        println!("self-test ok: hermeticity (2 fixture offenders flagged, 3 clean entries passed)");
    }

    let rust_rules: Vec<&'static str> = rules
        .iter()
        .copied()
        .filter(|r| *r != "hermeticity")
        .collect();
    if !rust_rules.is_empty() {
        for &(file, rule, count) in LINT_FIXTURES {
            let rel = format!("ci/fixtures/lint/{file}");
            let raw = fs::read_to_string(root.join(&rel))
                .map_err(|e| format!("self-test: cannot read {rel}: {e}"))?;
            let vs = scan_rust(&raw, &rel, &rust_rules, true);
            let expect = if !rule.is_empty() && rust_rules.contains(&rule) {
                count
            } else {
                0
            };
            let of_rule = vs.iter().filter(|v| v.rule == rule).count();
            if of_rule != expect || vs.len() != of_rule {
                let got: Vec<String> = vs
                    .iter()
                    .map(|v| format!("{}:{} [{}]", v.file, v.line, v.rule))
                    .collect();
                return Err(format!(
                    "self-test FAILED: {rel} expected exactly {expect} x [{rule}], got {got:?}"
                ));
            }
        }
        println!(
            "self-test ok: {} ({} fixture files, seeded violations all caught, clean file clean)",
            rust_rules.join(","),
            LINT_FIXTURES.len()
        );
    }
    Ok(())
}

// ----------------------------------------------------------------- main --

fn usage() -> String {
    "usage: xlint [--root DIR] [--rule a,b] [--list] [--self-test [RULE]]".to_string()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut rules: Vec<&'static str> = RULES.iter().map(|(n, _)| *n).collect();
    let mut do_self_test = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for (name, desc) in RULES {
                    println!("{name:<16} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--root" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("{}", usage());
                    return ExitCode::from(2);
                };
                root = PathBuf::from(dir);
            }
            "--rule" => {
                i += 1;
                let Some(list) = args.get(i) else {
                    eprintln!("{}", usage());
                    return ExitCode::from(2);
                };
                rules = Vec::new();
                for want in list.split(',') {
                    match RULES.iter().find(|(n, _)| *n == want) {
                        Some((n, _)) => rules.push(n),
                        None => {
                            eprintln!("unknown rule '{want}' (try: xlint --list)");
                            return ExitCode::from(2);
                        }
                    }
                }
            }
            "--self-test" => {
                do_self_test = true;
                // Optional rule operand: `--self-test hermeticity`.
                if let Some(next) = args.get(i + 1) {
                    if let Some((n, _)) = RULES.iter().find(|(n, _)| n == next) {
                        rules = vec![n];
                        i += 1;
                    }
                }
            }
            other => {
                eprintln!("unknown argument '{other}'\n{}", usage());
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if do_self_test {
        return match self_test(&root, &rules) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut files = Vec::new();
    walk(&root, &mut files);
    let mut violations: Vec<Violation> = Vec::new();
    let mut n_manifests = 0usize;
    let mut n_rust = 0usize;
    for p in &files {
        let rel = rel_of(&root, p);
        let Ok(raw) = fs::read_to_string(p) else {
            continue;
        };
        if rel.ends_with("Cargo.toml") {
            n_manifests += 1;
            if rules.contains(&"hermeticity") {
                violations.extend(scan_manifest(&raw, &rel));
            }
        } else {
            n_rust += 1;
            violations.extend(scan_rust(&raw, &rel, &rules, false));
        }
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    for v in &violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.msg);
    }
    if violations.is_empty() {
        println!(
            "xlint: clean ({n_manifests} manifests, {n_rust} rust files, rules: {})",
            rules.join(",")
        );
        ExitCode::SUCCESS
    } else {
        let mut by_rule: BTreeMap<&str, usize> = BTreeMap::new();
        for v in &violations {
            *by_rule.entry(v.rule).or_default() += 1;
        }
        let summary: Vec<String> = by_rule.iter().map(|(r, c)| format!("{r}: {c}")).collect();
        eprintln!(
            "xlint: {} violation(s) ({})",
            violations.len(),
            summary.join(", ")
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_blanks_comments_strings_and_char_literals() {
        let src = "let a = \"x.unwrap()\"; // .unwrap()\nlet b = '\\n'; /* unsafe */ let c: &'static str = r#\"println!\"#;\n";
        let s = strip_rust(src);
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("unsafe"));
        assert!(!s.contains("println"));
        assert!(s.contains("&'static str"), "lifetime survives: {s}");
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn nested_block_comments_and_raw_strings_close_correctly() {
        let src = "/* a /* b */ still comment unsafe */ let x = 1;\nlet y = r##\"tricky \"# unsafe\"##; let z = 2;\n";
        let s = strip_rust(src);
        assert!(!s.contains("unsafe"));
        assert!(s.contains("let x = 1;"));
        assert!(s.contains("let z = 2;"));
    }

    #[test]
    fn token_and_macro_boundaries() {
        assert!(has_token("use std::time::Instant;", "Instant"));
        assert!(!has_token("let InstantX = 1;", "Instant"));
        assert!(has_macro("    println!(\"hi\")", "println"));
        assert!(!has_macro("    eprintln!(\"hi\")", "println"));
        assert!(!has_macro("fn println() {}", "println"));
    }

    #[test]
    fn no_unwrap_scope_covers_apps_but_not_bench() {
        let src = "fn lib(v: Option<u32>) -> u32 { v.unwrap() }\n";
        let hit = |rel: &str| {
            scan_rust(src, rel, &["no-unwrap"], false)
                .iter()
                .filter(|v| v.rule == "no-unwrap")
                .count()
        };
        assert_eq!(hit("crates/apps/src/dht/mod.rs"), 1, "apps src in scope");
        assert_eq!(hit("crates/rma/src/lib.rs"), 1);
        assert_eq!(hit("crates/bench/src/bin/fig_dht.rs"), 0, "bench exempt");
        assert_eq!(hit("crates/apps/tests/prop_dht.rs"), 0, "tests exempt");
    }

    #[test]
    fn cfg_test_suppresses_to_eof_except_safety() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); unsafe { z() } }\n}\n";
        let vs = scan_rust(
            src,
            "crates/rma/src/lib.rs",
            &["no-unwrap", "safety-comment"],
            false,
        );
        let unwraps: Vec<usize> = vs
            .iter()
            .filter(|v| v.rule == "no-unwrap")
            .map(|v| v.line)
            .collect();
        assert_eq!(unwraps, vec![1], "only the pre-cfg(test) unwrap: {vs:?}");
        assert_eq!(vs.iter().filter(|v| v.rule == "safety-comment").count(), 1);
    }

    #[test]
    fn escapes_work_on_same_line_and_line_above() {
        let src = "a.unwrap(); // xlint: allow(no-unwrap) startup invariant\n// xlint: allow(no-unwrap) ditto\nb.unwrap();\nc.unwrap();\n";
        let vs = scan_rust(src, "crates/clampi/src/lib.rs", &["no-unwrap"], false);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 4);
    }

    #[test]
    fn scope_limits_rules_to_their_crates() {
        let src = "use std::time::Instant;\nx.unwrap();\nprintln!(\"hi\");\n";
        assert_eq!(
            scan_rust(
                src,
                "crates/bench/src/main.rs",
                &["no-std-time", "no-unwrap", "no-println"],
                false
            )
            .len(),
            0
        );
        assert_eq!(
            scan_rust(
                src,
                "crates/datatype/src/lib.rs",
                &["no-std-time", "no-println"],
                false
            )
            .len(),
            2
        );
        assert_eq!(
            scan_rust(src, "crates/rma/src/window.rs", &["no-unwrap"], false).len(),
            1
        );
    }

    #[test]
    fn safety_comment_window_is_three_lines() {
        let ok = "// SAFETY: p is valid\n//\n//\nunsafe { *p }\n";
        assert_eq!(scan_rust(ok, "x.rs", &["safety-comment"], true).len(), 0);
        let far = "// SAFETY: p is valid\n//\n//\n//\nunsafe { *p }\n";
        assert_eq!(scan_rust(far, "x.rs", &["safety-comment"], true).len(), 1);
    }

    #[test]
    fn manifest_inline_and_table_forms() {
        let toml = "[dependencies]\ngood = { path = \"../good\" }\nws.workspace = true\nbad = \"1.0\"\n\n[dependencies.tbl]\nversion = \"2\"\n\n[dependencies.tblok]\npath = \"../x\"\n";
        let vs = scan_manifest(toml, "Cargo.toml");
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert_eq!(vs[0].line, 4);
        assert!(vs[1].msg.contains("tbl"), "{vs:?}");
        assert!(!vs.iter().any(|v| v.msg.contains("tblok")));
    }

    #[test]
    fn manifest_target_sections_and_comments() {
        let toml = "[target.'cfg(unix)'.dev-dependencies]\nbad = \"1\" # registry\nok = { path = \"p\" } # fine\n[package]\nname = \"x\"\n";
        let vs = scan_manifest(toml, "Cargo.toml");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 2);
    }
}
