//! The `lint.toml` configuration: which directories to scan, which modules
//! are on the per-cycle hot path, which crates the determinism and panic
//! policies govern.
//!
//! Like everything in this workspace that reads a config format, the parser
//! is hand-rolled (no external TOML crate): it accepts the small TOML
//! subset the file actually uses — `[section]` headers, `key = "string"`
//! and `key = ["a", "b", …]` (single line or multiline) — and rejects
//! everything else with a line-numbered error, so a typo in `lint.toml`
//! fails the lint run instead of silently disabling a gate.

use std::path::Path;

/// Parsed `lint.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Directories (relative to the workspace root) scanned for `.rs` files.
    pub roots: Vec<String>,
    /// Path prefixes excluded from the scan (fixture trees).
    pub exclude: Vec<String>,
    /// Per-cycle entry points seeding the call-graph reachability pass:
    /// `Type::method`, `Trait::method` (fans out to every impl), or a bare
    /// free-function name.
    pub entry_points: Vec<String>,
    /// The pre-reachability hand-listed hot-path files, kept as a
    /// regression guard: the derived hot set must still cover every file
    /// here (each must contain at least one hot function).
    pub legacy_files: Vec<String>,
    /// Reachability cut points: when the hot walk reaches a function whose
    /// name (or `Type::name`) is listed here, it is neither enforced nor
    /// traversed — constructors and other cold code that legitimately
    /// allocates.
    pub cold_fns: Vec<String>,
    /// Crate directories where `std::time` and `rand` are forbidden.
    pub determinism_crates: Vec<String>,
    /// Crate directories where `HashMap`/`HashSet` use is policed: point
    /// use is a warning (prefer a `BTreeMap`), iteration a hard error.
    pub map_crates: Vec<String>,
    /// Crate directories whose library code must justify every
    /// `unwrap`/`expect`/`panic!` with an allow marker.
    pub panic_crates: Vec<String>,
    /// Crate-root files that must carry `#![forbid(unsafe_code)]`.
    pub crate_roots: Vec<String>,
    /// `file:Struct` pairs whose public fields must all be consumed by
    /// [`Config::stats_consumer`].
    pub stats_structs: Vec<String>,
    /// The file that must reference every public stat field.
    pub stats_consumer: String,
}

impl Config {
    /// Reads and parses a config file.
    ///
    /// # Errors
    /// Returns a line-numbered message for unreadable files, syntax errors,
    /// or unknown sections/keys (typos must not silently disable a rule).
    pub fn load(path: &Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Parses config text. See [`Config::load`].
    ///
    /// # Errors
    /// Returns a line-numbered message for syntax errors or unknown
    /// sections/keys.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                let known = [
                    "workspace",
                    "hot-path-alloc",
                    "determinism",
                    "panic",
                    "unsafe-policy",
                    "stats-coverage",
                ];
                if !known.contains(&section.as_str()) {
                    return Err(format!("line {lineno}: unknown section [{section}]"));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "line {lineno}: expected `key = value`, got '{line}'"
                ));
            };
            let key = key.trim();
            let mut value = value.trim().to_string();
            // Multiline arrays: keep consuming lines until the bracket
            // closes (strings in this file never contain brackets).
            while value.starts_with('[') && !value.ends_with(']') {
                let Some((_, next)) = lines.next() else {
                    return Err(format!("line {lineno}: unterminated array for '{key}'"));
                };
                value.push_str(strip_comment(next).trim());
            }
            let place = |v: &str| -> Result<Vec<String>, String> {
                parse_array(v).map_err(|e| format!("line {lineno}: {e}"))
            };
            match (section.as_str(), key) {
                ("workspace", "roots") => config.roots = place(&value)?,
                ("workspace", "exclude") => config.exclude = place(&value)?,
                ("hot-path-alloc", "entry_points") => config.entry_points = place(&value)?,
                ("hot-path-alloc", "legacy_files") => config.legacy_files = place(&value)?,
                ("hot-path-alloc", "cold_fns") => config.cold_fns = place(&value)?,
                ("determinism", "crates") => config.determinism_crates = place(&value)?,
                ("determinism", "map_crates") => config.map_crates = place(&value)?,
                ("panic", "crates") => config.panic_crates = place(&value)?,
                ("unsafe-policy", "crate_roots") => config.crate_roots = place(&value)?,
                ("stats-coverage", "structs") => config.stats_structs = place(&value)?,
                ("stats-coverage", "consumer") => {
                    config.stats_consumer =
                        parse_string(&value).map_err(|e| format!("line {lineno}: {e}"))?;
                }
                _ => {
                    return Err(format!("line {lineno}: unknown key '{key}' in [{section}]"));
                }
            }
        }
        if config.roots.is_empty() {
            return Err("missing [workspace] roots".to_string());
        }
        Ok(config)
    }
}

/// Strips a trailing `#` comment (this subset never puts `#` in strings).
fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Parses `"…"`.
fn parse_string(value: &str) -> Result<String, String> {
    let v = value.trim();
    v.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got '{v}'"))
}

/// Parses `["a", "b", …]` (possibly with a trailing comma).
fn parse_array(value: &str) -> Result<Vec<String>, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| format!("expected an array, got '{v}'"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_shape() {
        let c = Config::parse(
            r#"
# comment
[workspace]
roots = ["src", "crates"]
exclude = ["crates/lint/tests/fixtures"]

[hot-path-alloc]
entry_points = ["Processor::run_capped_observed", "CommitEngine::wake"]
legacy_files = [
    "crates/core/src/sliq.rs",  # per-line comment
    "crates/core/src/iq.rs",
]
cold_fns = ["new"]

[determinism]
crates = ["crates/core"]
map_crates = ["crates/sim"]

[panic]
crates = ["crates/isa"]

[unsafe-policy]
crate_roots = ["src/lib.rs"]

[stats-coverage]
structs = ["crates/sim/src/stats.rs:SimStats"]
consumer = "crates/bench/src/report.rs"
"#,
        )
        .unwrap();
        assert_eq!(c.roots, ["src", "crates"]);
        assert_eq!(
            c.entry_points,
            ["Processor::run_capped_observed", "CommitEngine::wake"]
        );
        assert_eq!(
            c.legacy_files,
            ["crates/core/src/sliq.rs", "crates/core/src/iq.rs"]
        );
        assert_eq!(c.stats_consumer, "crates/bench/src/report.rs");
    }

    #[test]
    fn unknown_sections_and_keys_fail() {
        assert!(Config::parse("[nope]\n").is_err());
        assert!(Config::parse("[workspace]\nbogus = [\"x\"]\n").is_err());
        assert!(Config::parse("[workspace]\nroots = 3\n").is_err());
    }

    #[test]
    fn missing_roots_fail() {
        assert!(Config::parse("[panic]\ncrates = []\n").is_err());
    }
}
