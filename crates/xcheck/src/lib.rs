#![forbid(unsafe_code)]
//! Workspace static-analysis pass (text/token level, no external
//! parser deps — build hosts have no crates.io access).
//!
//! Rules, tuned to this codebase's determinism requirements:
//!
//! * **`wallclock`** — `SystemTime::now` / `Instant::now` /
//!   `thread::sleep` are forbidden outside wall-clock-ok modules
//!   (feeders, benches, the `bsync::time` facade itself). Everything
//!   on a deterministic path must take time from `bsync::time::Clock`.
//! * **`unwrap`** — `.unwrap()` / `.expect(` are forbidden in
//!   non-test library code of the stream/broker hot-path crates
//!   (core, broker, mq, analytics, corsaro, bsync, mrt, rib) and of
//!   `vendor/flate-lite`, the first code to touch untrusted archive
//!   bytes; convert to typed errors or justify with an inline
//!   `// xcheck:allow(unwrap) — why`.
//! * **`facade`** — importing `parking_lot`, `crossbeam::channel`, or
//!   `std::sync::{Mutex,RwLock,Condvar,atomic,mpsc,…}` anywhere but
//!   `crates/bsync` bypasses the sync facade (and with it the
//!   loom-lite model checker); forbidden.
//! * **`unsafe-root`** — every crate root (including vendor shims)
//!   must carry `#![forbid(unsafe_code)]`.
//! * **`exit`** — `process::exit(` / `process::abort(` are forbidden
//!   in library code: they skip destructors, tear down sibling worker
//!   threads mid-write, and make the process un-supervisable. Return
//!   a typed error (or `ExitCode` from `main`) instead; CLI gates
//!   that genuinely must exit are waived in `xcheck.allow`.
//! * **`catch-unwind`** — `catch_unwind(` is an isolation boundary
//!   that silently converts panics into control flow; every use must
//!   be a reviewed recovery point justified with an inline
//!   `// xcheck:allow(catch-unwind) — why` (the shard worker loop in
//!   `corsaro/src/runtime/session.rs`, whose panics the supervisor in
//!   `runtime/supervisor.rs` recovers).
//! * **`buf-getter`** — `bytes::Buf` getters (`.get_u8()` …
//!   `.get_u128()`) and `.advance(` are forbidden in non-test library
//!   code of every crate: each panics on short input, and every wire
//!   format and serialized state decodes through
//!   `bgp_types::codec::Reader`, whose reads fail with a `CodecError`.
//!   The vendored `bytes` shim has no `Buf` at all; the rule keeps it
//!   out should the shim give way to the real crate.
//!
//! Suppression is explicit and reviewable: either an inline
//! `// xcheck:allow(<rule>)` comment on (or directly above) the line,
//! or a `<rule> <path-prefix>` entry in the checked-in `xcheck.allow`
//! at the workspace root. `#[cfg(test)]` modules and functions inside
//! `src/` are skipped (tests may sleep and unwrap); `tests/`,
//! `benches/` and `examples/` directories are never scanned.

use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose non-test library code must not panic via
/// `.unwrap()`/`.expect(` (the stream/broker hot paths, and the BGP
/// wire grammar every record is parsed with).
const HOT_PATH_CRATES: &[&str] = &[
    "analytics",
    "bgp-types",
    "broker",
    "bsync",
    "core",
    "corsaro",
    "mq",
    "mrt",
    "rib",
];

/// Vendor shims that get the same `unwrap` audit (and no other line
/// rule: they are stand-ins for external crates, outside the facade
/// and clock conventions).
const AUDITED_VENDOR_CRATES: &[&str] = &["flate-lite"];

const WALLCLOCK_TOKENS: &[&str] = &["SystemTime::now", "Instant::now", "thread::sleep"];
const UNWRAP_TOKENS: &[&str] = &[".unwrap()", ".expect("];
const EXIT_TOKENS: &[&str] = &["process::exit(", "process::abort("];
const CATCH_UNWIND_TOKENS: &[&str] = &["catch_unwind("];
const BUF_GETTER_TOKENS: &[&str] = &[
    ".get_u8()",
    ".get_u16()",
    ".get_u32()",
    ".get_u64()",
    ".get_u128()",
    ".advance(",
];
const STD_SYNC_BANNED: &[&str] = &["Mutex", "RwLock", "Condvar", "atomic", "mpsc", "Barrier"];

/// One violation, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// `(rule, path-prefix)` pairs from `xcheck.allow`.
pub type AllowList = Vec<(String, String)>;

/// Parse the allowlist format: one `<rule> <path-prefix>` per line,
/// `#` comments and blanks ignored.
pub fn parse_allowlist(text: &str) -> AllowList {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (rule, prefix) = l.split_once(char::is_whitespace)?;
            Some((rule.to_string(), prefix.trim().to_string()))
        })
        .collect()
}

fn allowed(allow: &AllowList, rule: &str, rel: &str) -> bool {
    allow
        .iter()
        .any(|(r, prefix)| r == rule && rel.starts_with(prefix.as_str()))
}

/// Lexer state carried across lines (block comments and multi-line
/// string literals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lex {
    Code,
    BlockComment,
    Str,
    /// Raw string with this many `#`s in its delimiter.
    RawStr(usize),
}

/// Strip comments, string literals and char literals from one line so
/// token matching never fires on prose or patterns-in-strings.
/// Returns the stripped code and the lexer state for the next line.
fn strip_line(line: &str, mut st: Lex) -> (String, Lex) {
    let b = line.as_bytes();
    let n = b.len();
    let mut out = String::with_capacity(n);
    let mut i = 0;
    while i < n {
        match st {
            Lex::BlockComment => {
                if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    st = Lex::Code;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Lex::Str => {
                if b[i] == b'\\' {
                    i += 2;
                } else if b[i] == b'"' {
                    st = Lex::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Lex::RawStr(hashes) => {
                if b[i] == b'"'
                    && b[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&c| c == b'#')
                        .count()
                        == hashes
                {
                    st = Lex::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
            Lex::Code => {
                let prev_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'/' {
                    break; // line comment (incl. /// and //!)
                } else if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    st = Lex::BlockComment;
                    out.push(' ');
                    i += 2;
                } else if b[i] == b'"' {
                    st = Lex::Str;
                    out.push(' ');
                    i += 1;
                } else if (b[i] == b'r' || b[i] == b'b') && !prev_ident {
                    // Possible raw/byte string: r"…", r#"…"#, b"…", br"…".
                    let mut j = i;
                    if b[j] == b'b' {
                        j += 1;
                    }
                    let is_raw = j < n && b[j] == b'r';
                    if is_raw {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while j < n && b[j] == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < n && b[j] == b'"' && (is_raw || hashes == 0) {
                        st = if is_raw {
                            Lex::RawStr(hashes)
                        } else {
                            Lex::Str
                        };
                        out.push(' ');
                        i = j + 1;
                    } else {
                        out.push(b[i] as char);
                        i += 1;
                    }
                } else if b[i] == b'\'' {
                    // Char literal vs lifetime.
                    if i + 1 < n && b[i + 1] == b'\\' {
                        // Escaped char literal: skip to closing quote.
                        let mut j = i + 2;
                        while j < n && b[j] != b'\'' {
                            j += 1;
                        }
                        out.push(' ');
                        i = (j + 1).min(n);
                    } else if i + 2 < n && b[i + 2] == b'\'' {
                        out.push(' ');
                        i += 3;
                    } else {
                        // Lifetime: keep as-is (harmless for tokens).
                        out.push('\'');
                        i += 1;
                    }
                } else {
                    out.push(b[i] as char);
                    i += 1;
                }
            }
        }
    }
    // A string interrupted by end-of-line continues on the next line
    // (multi-line literal); comments/raw strings likewise.
    (out, st)
}

fn brace_delta(code: &str) -> i64 {
    let mut d = 0;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

fn has_allow_marker(raw: &str, rule: &str) -> bool {
    raw.contains(&format!("xcheck:allow({rule})"))
}

/// Does this stripped line import/use a sync primitive that bypasses
/// the facade?
fn facade_violation(code: &str) -> Option<&'static str> {
    if code.contains("parking_lot") {
        return Some("direct `parking_lot` use bypasses the bsync facade");
    }
    if code.contains("crossbeam::channel") {
        return Some("direct `crossbeam::channel` use bypasses the bsync facade");
    }
    if let Some(pos) = code.find("std::sync::") {
        let rest = &code[pos..];
        if STD_SYNC_BANNED.iter().any(|t| rest.contains(t)) {
            return Some(
                "direct `std::sync` primitive bypasses the bsync facade (Arc alone is fine)",
            );
        }
    }
    None
}

/// Which rule families apply to a workspace-relative path.
#[derive(Debug, Clone, Copy)]
pub struct RuleScope {
    pub wallclock: bool,
    pub unwrap: bool,
    pub facade: bool,
    pub exit: bool,
    pub catch_unwind: bool,
    pub buf_getter: bool,
}

/// Scope from path conventions: `crates/*/src` and root `src/` get the
/// full pass (facade excepted for `crates/bsync`, which *is* the
/// facade; unwrap only on hot-path crates); `vendor/flate-lite/src`
/// gets the unwrap audit alone; everything else — the other vendor
/// shims, tests/, examples/, benches/ — only sees the crate-root
/// `unsafe-root` check, handled separately.
pub fn scope_for(rel: &str) -> Option<RuleScope> {
    let src_of = |parent: &str| {
        let (crate_name, path) = rel.strip_prefix(parent)?.split_once('/')?;
        path.starts_with("src/").then_some(crate_name)
    };
    if rel.starts_with("vendor/") {
        let crate_name = src_of("vendor/")?;
        return AUDITED_VENDOR_CRATES
            .contains(&crate_name)
            .then_some(RuleScope {
                wallclock: false,
                unwrap: true,
                facade: false,
                exit: false,
                catch_unwind: false,
                buf_getter: false,
            });
    }
    if rel.starts_with("crates/") {
        let crate_name = src_of("crates/")?;
        return Some(RuleScope {
            wallclock: true,
            unwrap: HOT_PATH_CRATES.contains(&crate_name),
            facade: crate_name != "bsync",
            exit: true,
            catch_unwind: true,
            buf_getter: true,
        });
    }
    if rel.starts_with("src/") {
        return Some(RuleScope {
            wallclock: true,
            unwrap: false,
            facade: true,
            exit: true,
            catch_unwind: true,
            buf_getter: false,
        });
    }
    None
}

/// Run the line rules over one file's contents.
pub fn scan_file(rel: &str, content: &str, scope: RuleScope, allow: &AllowList) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let raw_lines: Vec<&str> = content.lines().collect();
    let mut st = Lex::Code;
    // `#[cfg(test)]`-gated item skipping.
    let mut pending_cfg_test = false;
    let mut skip_depth: Option<i64> = None;
    for (idx, raw) in raw_lines.iter().enumerate() {
        let (code, next_st) = strip_line(raw, st);
        st = next_st;
        if let Some(depth) = &mut skip_depth {
            *depth += brace_delta(&code);
            if *depth <= 0 {
                skip_depth = None;
            }
            continue;
        }
        if code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
            let d = brace_delta(&code);
            if d > 0 {
                // `#[cfg(test)] mod t { …` on one line.
                skip_depth = Some(d);
                pending_cfg_test = false;
            }
            continue;
        }
        if pending_cfg_test {
            let t = code.trim_start();
            if t.starts_with("#[") {
                // Further attributes; keep waiting for the item.
            } else {
                let d = brace_delta(&code);
                if d > 0 {
                    skip_depth = Some(d);
                }
                // `mod x;` / `use …;` — single-line item, nothing to skip.
                pending_cfg_test = false;
            }
            continue;
        }

        let line_no = idx + 1;
        let marker_here = |rule: &str| {
            has_allow_marker(raw, rule)
                || (idx > 0 && has_allow_marker(raw_lines[idx - 1], rule))
                || allowed(allow, rule, rel)
        };
        if scope.wallclock && !marker_here("wallclock") {
            for tok in WALLCLOCK_TOKENS {
                if code.contains(tok) {
                    diags.push(Diagnostic {
                        file: rel.to_string(),
                        line: line_no,
                        rule: "wallclock",
                        message: format!(
                            "`{tok}` on a deterministic path; take time from bsync::time::Clock"
                        ),
                    });
                }
            }
        }
        if scope.unwrap && !marker_here("unwrap") {
            for tok in UNWRAP_TOKENS {
                if code.contains(tok) {
                    diags.push(Diagnostic {
                        file: rel.to_string(),
                        line: line_no,
                        rule: "unwrap",
                        message: format!(
                            "`{tok}` in hot-path library code; use a typed error or justify with `xcheck:allow(unwrap)`",
                            tok = tok.trim_end_matches('(')
                        ),
                    });
                }
            }
        }
        if scope.facade && !marker_here("facade") {
            if let Some(msg) = facade_violation(&code) {
                diags.push(Diagnostic {
                    file: rel.to_string(),
                    line: line_no,
                    rule: "facade",
                    message: msg.to_string(),
                });
            }
        }
        if scope.exit && !marker_here("exit") {
            for tok in EXIT_TOKENS {
                if code.contains(tok) {
                    diags.push(Diagnostic {
                        file: rel.to_string(),
                        line: line_no,
                        rule: "exit",
                        message: format!(
                            "`{}` in library code skips destructors and kills sibling workers; return a typed error (or ExitCode from main)",
                            tok.trim_end_matches('(')
                        ),
                    });
                }
            }
        }
        if scope.catch_unwind && !marker_here("catch-unwind") {
            for tok in CATCH_UNWIND_TOKENS {
                if code.contains(tok) {
                    diags.push(Diagnostic {
                        file: rel.to_string(),
                        line: line_no,
                        rule: "catch-unwind",
                        message: "`catch_unwind` is an isolation boundary; justify with `xcheck:allow(catch-unwind) — why`".to_string(),
                    });
                }
            }
        }
        if scope.buf_getter && !marker_here("buf-getter") {
            for tok in BUF_GETTER_TOKENS {
                if code.contains(tok) {
                    diags.push(Diagnostic {
                        file: rel.to_string(),
                        line: line_no,
                        rule: "buf-getter",
                        message: format!(
                            "`{}` panics on short input; decode through bgp_types::codec::Reader",
                            tok.trim_end_matches(['(', ')'])
                        ),
                    });
                }
            }
        }
    }
    diags
}

/// Check a crate-root file for `#![forbid(unsafe_code)]`.
pub fn check_crate_root(rel: &str, content: &str) -> Option<Diagnostic> {
    if content.contains("#![forbid(unsafe_code)]") {
        None
    } else {
        Some(Diagnostic {
            file: rel.to_string(),
            line: 1,
            rule: "unsafe-root",
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        })
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs = vec![root.to_path_buf()];
    for parent in ["crates", "vendor"] {
        if let Ok(entries) = std::fs::read_dir(root.join(parent)) {
            let mut v: Vec<_> = entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            v.sort();
            dirs.extend(v);
        }
    }
    dirs
}

/// Walk upward from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
pub fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Run the whole pass over a workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> Vec<Diagnostic> {
    let allow = std::fs::read_to_string(root.join("xcheck.allow"))
        .map(|t| parse_allowlist(&t))
        .unwrap_or_default();
    let mut diags = Vec::new();

    // Line rules over every member's src/; `scope_for` says which.
    let mut files = Vec::new();
    for dir in crate_dirs(root) {
        collect_rs(&dir.join("src"), &mut files);
    }
    for path in &files {
        let rel = rel_str(root, path);
        let Some(scope) = scope_for(&rel) else {
            continue;
        };
        if let Ok(content) = std::fs::read_to_string(path) {
            diags.extend(scan_file(&rel, &content, scope, &allow));
        }
    }

    // Crate-root unsafe check for every member, vendor included.
    for dir in crate_dirs(root) {
        for name in ["lib.rs", "main.rs"] {
            let path = dir.join("src").join(name);
            if path.is_file() {
                if let Ok(content) = std::fs::read_to_string(&path) {
                    let rel = rel_str(root, &path);
                    diags.extend(check_crate_root(&rel, &content));
                }
            }
        }
    }

    diags.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: RuleScope = RuleScope {
        wallclock: true,
        unwrap: true,
        facade: true,
        exit: true,
        catch_unwind: true,
        buf_getter: true,
    };

    #[test]
    fn bad_fixture_trips_every_rule() {
        let bad = include_str!("../fixtures/bad.rs");
        let diags = scan_file("crates/core/src/bad.rs", bad, FULL, &Vec::new());
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"wallclock"), "diags: {diags:?}");
        assert!(rules.contains(&"unwrap"), "diags: {diags:?}");
        assert!(rules.contains(&"facade"), "diags: {diags:?}");
        assert!(rules.contains(&"exit"), "diags: {diags:?}");
        assert!(rules.contains(&"catch-unwind"), "diags: {diags:?}");
        let getters = rules.iter().filter(|&&r| r == "buf-getter").count();
        assert_eq!(getters, BUF_GETTER_TOKENS.len(), "diags: {diags:?}");
        assert!(
            check_crate_root("crates/core/src/bad.rs", bad).is_some(),
            "fixture must also miss forbid(unsafe_code)"
        );
        // file:line diagnostics point at real lines.
        for d in &diags {
            assert!(d.line > 0 && d.line <= bad.lines().count());
        }
    }

    #[test]
    fn clean_fixture_passes() {
        let clean = include_str!("../fixtures/clean.rs");
        let diags = scan_file("crates/core/src/clean.rs", clean, FULL, &Vec::new());
        assert!(diags.is_empty(), "diags: {diags:?}");
        assert!(check_crate_root("crates/core/src/clean.rs", clean).is_none());
    }

    #[test]
    fn inline_allow_comment_suppresses() {
        let src = "fn f() {\n    // xcheck:allow(unwrap) — impossible by construction\n    let x: Option<u8> = Some(1); let _ = x.unwrap();\n}\n";
        assert!(scan_file("crates/core/src/x.rs", src, FULL, &Vec::new()).is_empty());
        let same_line =
            "fn f() { let _ = std::time::Instant::now(); } // xcheck:allow(wallclock)\n";
        assert!(scan_file("crates/core/src/x.rs", same_line, FULL, &Vec::new()).is_empty());
    }

    #[test]
    fn allowlist_file_suppresses_by_prefix() {
        let allow = parse_allowlist(
            "# comment\nwallclock crates/collector-sim/src/feeder.rs\nunwrap crates/bench/\n",
        );
        let src = "fn f() { std::thread::sleep(d); }\n";
        assert!(scan_file(
            "crates/collector-sim/src/feeder.rs",
            src,
            RuleScope {
                wallclock: true,
                unwrap: false,
                facade: true,
                exit: true,
                catch_unwind: true,
                buf_getter: true,
            },
            &allow
        )
        .is_empty());
        // Same content elsewhere still trips.
        assert_eq!(
            scan_file("crates/collector-sim/src/lib.rs", src, FULL, &allow).len(),
            1
        );
    }

    #[test]
    fn strings_and_comments_do_not_trip() {
        let src = r##"fn f() {
    let s = "call .unwrap() and Instant::now here";
    let r = r#"parking_lot::Mutex inside raw string"#;
    /* std::sync::Mutex in block comment */
    // std::sync::Condvar in line comment
    let _ = (s, r);
}
"##;
        assert!(scan_file("crates/core/src/x.rs", src, FULL, &Vec::new()).is_empty());
    }

    #[test]
    fn cfg_test_modules_and_fns_are_skipped() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let _ = std::time::Instant::now(); Some(1).unwrap(); }\n}\n";
        assert!(scan_file("crates/core/src/x.rs", src, FULL, &Vec::new()).is_empty());
        let fn_gated = "#[cfg(test)]\npub fn helper() {\n    std::thread::sleep(d);\n}\nfn real() { Some(1).unwrap(); }\n";
        let diags = scan_file("crates/core/src/x.rs", fn_gated, FULL, &Vec::new());
        assert_eq!(diags.len(), 1, "only the non-test unwrap: {diags:?}");
        assert_eq!(diags[0].rule, "unwrap");
    }

    #[test]
    fn facade_rule_spares_arc_and_scope() {
        let ok = "use std::sync::Arc;\nuse crossbeam::scope;\n";
        assert!(scan_file("crates/core/src/x.rs", ok, FULL, &Vec::new()).is_empty());
        let bad = "use std::sync::{Arc, Mutex};\n";
        assert_eq!(
            scan_file("crates/core/src/x.rs", bad, FULL, &Vec::new()).len(),
            1
        );
        let atomics = "use std::sync::atomic::AtomicU64;\n";
        assert_eq!(
            scan_file("crates/core/src/x.rs", atomics, FULL, &Vec::new()).len(),
            1
        );
    }

    #[test]
    fn scope_rules_follow_paths() {
        assert!(scope_for("crates/broker/src/service.rs").unwrap().unwrap);
        assert!(scope_for("crates/rib/src/table.rs").unwrap().unwrap);
        assert!(scope_for("crates/bgp-types/src/message.rs").unwrap().unwrap);
        assert!(!scope_for("crates/topology/src/lib.rs").unwrap().unwrap);
        assert!(!scope_for("crates/bsync/src/lib.rs").unwrap().facade);
        for decoder in [
            "crates/bgp-types/src/codec.rs",
            "crates/corsaro/src/rt.rs",
            "crates/rib/src/table.rs",
            "crates/bmp/src/msg.rs",
        ] {
            assert!(scope_for(decoder).unwrap().buf_getter, "{decoder}");
        }
        assert!(scope_for("crates/mrt/src/reader.rs").unwrap().buf_getter);
        assert!(!scope_for("src/worlds.rs").unwrap().buf_getter);
        assert!(scope_for("src/worlds.rs").unwrap().wallclock);
        assert!(scope_for("crates/broker/tests/live.rs").is_none());
        assert!(scope_for("vendor/parking_lot/src/lib.rs").is_none());
        assert!(scope_for("vendor/flate-lite/tests/hostile.rs").is_none());
    }

    #[test]
    fn the_vendored_inflater_gets_the_unwrap_audit_and_nothing_else() {
        let scope = scope_for("vendor/flate-lite/src/inflate.rs").expect("in scope");
        let bad = include_str!("../fixtures/bad.rs");
        let diags = scan_file("vendor/flate-lite/src/bad.rs", bad, scope, &Vec::new());
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, ["unwrap", "unwrap"], "diags: {diags:?}");
    }
}
