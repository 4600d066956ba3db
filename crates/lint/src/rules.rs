//! The lint rules: token-stream checks over a [`FileScan`], plus the
//! cross-file checks (crate-root `#![forbid(unsafe_code)]`, stats-field
//! coverage). Each check appends [`Finding`]s; suppression and exit-code
//! policy live in the crate root.

use crate::config::Config;
use crate::lex::TokKind;
use crate::reach::HotMarks;
use crate::scan::FileScan;
use serde::Serialize;

/// One reported violation.
#[derive(Debug, Clone, Serialize)]
pub struct Finding {
    /// Rule name (`hot-path-alloc`, `hot-path-indirect`, `determinism`,
    /// `panic`, `unsafe-policy`, `stats-coverage`, `suppression`,
    /// `callgraph`).
    pub rule: String,
    /// `"error"` or `"warning"` — informational only: *any* unsuppressed
    /// finding fails the run.
    pub severity: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// What went wrong and how to fix or justify it.
    pub message: String,
}

impl Finding {
    fn error(rule: &str, scan: &FileScan, line: u32, message: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            severity: "error".to_string(),
            file: scan.path.clone(),
            line,
            message,
        }
    }

    fn warning(rule: &str, scan: &FileScan, line: u32, message: String) -> Finding {
        Finding {
            severity: "warning".to_string(),
            ..Finding::error(rule, scan, line, message)
        }
    }
}

/// Methods that iterate a map in storage order — the determinism hazard.
const MAP_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Whether `path` sits in the library source of one of `crates` (each entry
/// a crate directory such as `crates/core`, or `.` for the workspace root
/// package). Integration tests (`<crate>/tests/`) are outside `src/` and
/// therefore exempt from crate-scoped rules.
fn in_crate_src(path: &str, crates: &[String]) -> bool {
    crates.iter().any(|c| {
        if c == "." {
            path.starts_with("src/")
        } else {
            path.starts_with(&format!("{c}/src/"))
        }
    })
}

/// Whether `path` is binary (CLI) code rather than library code.
fn is_bin(path: &str) -> bool {
    path.contains("/bin/") || path.ends_with("/main.rs")
}

/// Runs every per-file rule on one scan. `hot` carries the call-graph
/// reachability marks for this file: the alloc rule is enforced on exactly
/// the hot functions, and the determinism/panic rules — normally scoped to
/// the crates configured in `lint.toml` — additionally follow the hot path
/// into any crate it escapes to.
pub fn check_file(scan: &FileScan, config: &Config, hot: &HotMarks, findings: &mut Vec<Finding>) {
    hot_path_alloc(scan, config, hot, findings);
    if in_crate_src(&scan.path, &config.determinism_crates) {
        determinism_sources(scan, None, findings);
    } else if hot.any_hot() {
        determinism_sources(scan, Some(hot), findings);
    }
    if in_crate_src(&scan.path, &config.map_crates) {
        determinism_maps(scan, None, findings);
    } else if hot.any_hot() {
        determinism_maps(scan, Some(hot), findings);
    }
    if in_crate_src(&scan.path, &config.panic_crates) && !is_bin(&scan.path) {
        panic_policy(scan, None, findings);
    } else if hot.any_hot() && !is_bin(&scan.path) {
        panic_policy(scan, Some(hot), findings);
    }
    unsafe_tokens(scan, findings);
}

/// `hot-path-alloc` / `hot-path-indirect`: allocation constructors are
/// banned in every function reachable from the configured `entry_points`
/// (cut at `cold_fns`). Findings in files the old hand-list knew about keep
/// the `hot-path-alloc` name (so existing waivers stay valid); findings in
/// files the list missed get `hot-path-indirect` — the wider net the
/// call graph casts. Either way the message cites the seeding chain.
fn hot_path_alloc(scan: &FileScan, config: &Config, hot: &HotMarks, findings: &mut Vec<Finding>) {
    let legacy = config.legacy_files.iter().any(|f| f == &scan.path);
    for i in 0..scan.code.len() {
        if scan.in_test[i] {
            continue;
        }
        let Some(chain) = hot.chain_at(i) else {
            continue;
        };
        let what = if scan.matches(i, &["Vec", ":", ":", "new"])
            || scan.matches(i, &["Vec", ":", ":", "with_capacity"])
        {
            Some("Vec construction")
        } else if scan.matches(i, &["Box", ":", ":", "new"]) {
            Some("Box::new")
        } else if scan.matches(i, &["String", ":", ":", "from"])
            || scan.matches(i, &["String", ":", ":", "new"])
        {
            Some("String construction")
        } else if scan.matches(i, &["vec", "!"]) {
            Some("vec! macro")
        } else if scan.matches(i, &["format", "!"]) {
            Some("format! macro")
        } else if scan.matches(i, &[".", "collect"]) {
            Some(".collect()")
        } else if scan.matches(i, &[".", "to_vec"]) {
            Some(".to_vec()")
        } else {
            None
        };
        if let Some(what) = what {
            let line = scan.tok(i).line;
            let rule = if legacy {
                "hot-path-alloc"
            } else {
                "hot-path-indirect"
            };
            findings.push(Finding::error(
                rule,
                scan,
                line,
                format!(
                    "{what} in per-cycle code (hot via {chain}) — allocate \
                     in a constructor (cold fn) instead, justify with \
                     `// koc-lint: allow({rule}, \"reason\")`, or cut the \
                     function with a `cold_fns` entry if it is genuinely \
                     cold"
                ),
            ));
        }
    }
}

/// Scope suffix for a finding outside the rule's crate list that was
/// reached through the hot path.
fn via(chain: Option<&str>) -> String {
    match chain {
        Some(c) => format!(" (hot via {c})"),
        None => String::new(),
    }
}

/// `determinism` (sources): wall-clock time and unseeded randomness are
/// banned in the simulation crates outright, and — when `hot` is given —
/// in any hot function elsewhere.
fn determinism_sources(scan: &FileScan, hot: Option<&HotMarks>, findings: &mut Vec<Finding>) {
    for i in 0..scan.code.len() {
        if scan.in_test[i] {
            continue;
        }
        let chain = match hot {
            None => None,
            Some(h) => match h.chain_at(i) {
                Some(c) => Some(c),
                None => continue,
            },
        };
        if scan.matches(i, &["std", ":", ":", "time"]) {
            findings.push(Finding::error(
                "determinism",
                scan,
                scan.tok(i).line,
                format!(
                    "std::time in simulation code{} — wall-clock reads break \
                     bit-exact reproducibility; derive timing from cycle \
                     counts",
                    via(chain)
                ),
            ));
        }
        if scan.tok(i).is_ident("rand")
            && (scan.matches(i + 1, &[":", ":"]) || (i > 0 && scan.tok(i - 1).is_ident("use")))
        {
            findings.push(Finding::error(
                "determinism",
                scan,
                scan.tok(i).line,
                format!(
                    "`rand` in simulation code{} — randomness belongs only \
                     in seeded workload generation (koc-workloads)",
                    via(chain)
                ),
            ));
        }
    }
}

/// `determinism` (maps): `HashMap`/`HashSet` presence is a warning (prefer
/// a `BTreeMap`/`BTreeSet` or a dense `Vec`); iterating one is a hard error, because iteration
/// order depends on the hasher and breaks cycle-exact determinism. With
/// `hot` given, only violations inside hot functions are reported (the
/// bindings are still collected file-wide, so a hot loop over a cold-side
/// field is caught).
fn determinism_maps(scan: &FileScan, hot: Option<&HotMarks>, findings: &mut Vec<Finding>) {
    let gate = |i: usize| match hot {
        None => Some(None),
        Some(h) => h.chain_at(i).map(Some),
    };
    // Pass 1: flag every type mention and collect the binding names
    // declared with a hash-map type (`name: HashMap<…>`, possibly behind a
    // `std::collections::` path, or `let name = HashMap::new()`).
    let mut bindings: Vec<String> = Vec::new();
    for i in 0..scan.code.len() {
        if scan.in_test[i] {
            continue;
        }
        let t = scan.tok(i);
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        if let Some(chain) = gate(i) {
            findings.push(Finding::warning(
                "determinism",
                scan,
                t.line,
                format!(
                    "{} in simulation code{} — use a BTreeMap/BTreeSet \
                     (ordered, no hashing) or a dense Vec indexed by \
                     handle; iteration over it is a hard error",
                    t.text,
                    via(chain)
                ),
            ));
        }
        // Walk back over `ident ::` path segments to the head of the path.
        let mut j = i;
        while j >= 3
            && scan.tok(j - 1).is_punct(':')
            && scan.tok(j - 2).is_punct(':')
            && scan.tok(j - 3).kind == TokKind::Ident
        {
            j -= 3;
        }
        if j >= 2 && scan.tok(j - 2).kind == TokKind::Ident {
            let prev = scan.tok(j - 1);
            let is_type_ann = prev.is_punct(':') && !(j >= 3 && scan.tok(j - 3).is_punct(':'));
            if (is_type_ann || prev.is_punct('=')) && !bindings.contains(&scan.tok(j - 2).text) {
                bindings.push(scan.tok(j - 2).text.clone());
            }
        }
    }
    if bindings.is_empty() {
        return;
    }
    // Pass 2: any iteration over a collected binding is an error.
    for i in 0..scan.code.len() {
        if scan.in_test[i] {
            continue;
        }
        let t = scan.tok(i);
        if t.kind != TokKind::Ident || !bindings.contains(&t.text) {
            continue;
        }
        let Some(chain) = gate(i) else {
            continue;
        };
        if scan.code.get(i + 1).is_some() && scan.tok(i + 1).is_punct('.') {
            let m = &scan.tok(i + 2);
            if m.kind == TokKind::Ident && MAP_ITER_METHODS.contains(&m.text.as_str()) {
                findings.push(Finding::error(
                    "determinism",
                    scan,
                    t.line,
                    format!(
                        ".{}() iterates hash-map `{}` in storage order{} — \
                         nondeterministic; use a BTreeMap or a dense Vec \
                         with stable indices",
                        m.text,
                        t.text,
                        via(chain)
                    ),
                ));
            }
        }
        // `for … in [&[mut]] [self.]binding {` — direct loop iteration.
        if i >= 1 {
            let mut k = i - 1;
            while k > 0 && (scan.tok(k).is_punct('&') || scan.tok(k).is_ident("mut")) {
                k -= 1;
            }
            // Step over a `self .` qualifier.
            if k >= 2 && scan.tok(k).is_punct('.') && scan.tok(k - 1).is_ident("self") {
                k = k.saturating_sub(2);
                while k > 0 && (scan.tok(k).is_punct('&') || scan.tok(k).is_ident("mut")) {
                    k -= 1;
                }
            }
            if scan.tok(k).is_ident("in") {
                findings.push(Finding::error(
                    "determinism",
                    scan,
                    t.line,
                    format!(
                        "`for … in {}` iterates a hash map in storage \
                         order{} — nondeterministic; use a BTreeMap or a \
                         dense Vec with stable indices",
                        t.text,
                        via(chain)
                    ),
                ));
            }
        }
    }
}

/// `panic`: library code must justify every `unwrap`/`expect`/`panic!`.
/// With `hot` given, enforcement follows the hot path into crates outside
/// the configured `panic` crate list.
fn panic_policy(scan: &FileScan, hot: Option<&HotMarks>, findings: &mut Vec<Finding>) {
    for i in 0..scan.code.len() {
        if scan.in_test[i] {
            continue;
        }
        let chain = match hot {
            None => None,
            Some(h) => match h.chain_at(i) {
                Some(c) => Some(c),
                None => continue,
            },
        };
        let what = if scan.matches(i, &[".", "unwrap", "("]) {
            Some(".unwrap()")
        } else if scan.matches(i, &[".", "expect", "("]) {
            Some(".expect()")
        } else if scan.matches(i, &["panic", "!"]) {
            Some("panic!")
        } else {
            None
        };
        if let Some(what) = what {
            findings.push(Finding::error(
                "panic",
                scan,
                scan.tok(i).line,
                format!(
                    "{what} in library code{} — return an error or justify \
                     the invariant with `// koc-lint: allow(panic, \
                     \"reason\")`",
                    via(chain)
                ),
            ));
        }
    }
}

/// `unsafe-policy` (per file): no `unsafe` token anywhere; the per-crate
/// `#![forbid(unsafe_code)]` attribute is checked separately in
/// [`check_crate_roots`].
fn unsafe_tokens(scan: &FileScan, findings: &mut Vec<Finding>) {
    for i in 0..scan.code.len() {
        if scan.tok(i).is_ident("unsafe") {
            findings.push(Finding::error(
                "unsafe-policy",
                scan,
                scan.tok(i).line,
                "`unsafe` is forbidden workspace-wide".to_string(),
            ));
        }
    }
}

/// `unsafe-policy` (cross-file): every configured crate root must *carry*
/// `#![forbid(unsafe_code)]` — verified in the token stream, not trusted.
pub fn check_crate_roots(scans: &[FileScan], config: &Config, findings: &mut Vec<Finding>) {
    for root in &config.crate_roots {
        let Some(scan) = scans.iter().find(|s| &s.path == root) else {
            findings.push(Finding {
                rule: "unsafe-policy".to_string(),
                severity: "error".to_string(),
                file: root.clone(),
                line: 1,
                message: "configured crate root was not found in the scan".to_string(),
            });
            continue;
        };
        let has_forbid = (0..scan.code.len())
            .any(|i| scan.matches(i, &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"]));
        if !has_forbid {
            findings.push(Finding::error(
                "unsafe-policy",
                scan,
                1,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            ));
        }
    }
}

/// `stats-coverage`: every public field of the configured stats structs
/// must be referenced (by identifier) in the configured consumer file, so a
/// newly added counter cannot silently stay out of the bench report.
pub fn check_stats_coverage(scans: &[FileScan], config: &Config, findings: &mut Vec<Finding>) {
    if config.stats_consumer.is_empty() {
        return;
    }
    let Some(consumer) = scans.iter().find(|s| s.path == config.stats_consumer) else {
        findings.push(Finding {
            rule: "stats-coverage".to_string(),
            severity: "error".to_string(),
            file: config.stats_consumer.clone(),
            line: 1,
            message: "configured stats consumer was not found in the scan".to_string(),
        });
        return;
    };
    let mut consumed: Vec<&str> = (0..consumer.code.len())
        .filter(|&i| consumer.tok(i).kind == TokKind::Ident)
        .map(|i| consumer.tok(i).text.as_str())
        .collect();
    consumed.sort_unstable();
    consumed.dedup();

    for entry in &config.stats_structs {
        let Some((file, struct_name)) = entry.split_once(':') else {
            findings.push(Finding {
                rule: "stats-coverage".to_string(),
                severity: "error".to_string(),
                file: entry.clone(),
                line: 1,
                message: "stats-coverage structs entries must be `file:Struct`".to_string(),
            });
            continue;
        };
        let Some(scan) = scans.iter().find(|s| s.path == file) else {
            findings.push(Finding {
                rule: "stats-coverage".to_string(),
                severity: "error".to_string(),
                file: file.to_string(),
                line: 1,
                message: format!("stats file for struct {struct_name} was not found in the scan"),
            });
            continue;
        };
        let fields = pub_fields(scan, struct_name);
        if fields.is_empty() {
            findings.push(Finding::error(
                "stats-coverage",
                scan,
                1,
                format!("struct {struct_name} with public fields not found in {file}"),
            ));
            continue;
        }
        for (field, line) in fields {
            if consumed.binary_search(&field.as_str()).is_err() {
                findings.push(Finding::error(
                    "stats-coverage",
                    scan,
                    line,
                    format!(
                        "public stat field `{struct_name}.{field}` never \
                         appears in {} — add it to the report formatting \
                         so the counter is visible in bench output",
                        config.stats_consumer
                    ),
                ));
            }
        }
    }
}

/// Extracts the public field names (with lines) of `struct struct_name`.
fn pub_fields(scan: &FileScan, struct_name: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let Some(start) = (0..scan.code.len())
        .find(|&i| scan.tok(i).is_ident("struct") && scan.matches(i + 1, &[struct_name]))
    else {
        return out;
    };
    // Find the body's opening brace (a `;` first means a unit/tuple struct).
    let mut i = start;
    while i < scan.code.len() && !scan.tok(i).is_punct('{') {
        if scan.tok(i).is_punct(';') {
            return out;
        }
        i += 1;
    }
    let mut depth = 0usize;
    while i < scan.code.len() {
        let t = scan.tok(i);
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1
            && t.is_ident("pub")
            && scan.code.get(i + 1).is_some()
            && scan.tok(i + 1).kind == TokKind::Ident
            && scan.code.get(i + 2).is_some()
            && scan.tok(i + 2).is_punct(':')
        {
            out.push((scan.tok(i + 1).text.clone(), scan.tok(i + 1).line));
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;
    use crate::reach::Reachability;

    fn scan(src: &str) -> FileScan {
        FileScan::new("crates/sim/src/x.rs".into(), src)
    }

    fn cfg() -> Config {
        Config {
            roots: vec!["crates".into()],
            entry_points: vec!["X::tick".into(), "S::tick".into(), "tick".into()],
            legacy_files: vec!["crates/sim/src/x.rs".into()],
            cold_fns: vec!["new".into()],
            determinism_crates: vec!["crates/sim".into()],
            map_crates: vec!["crates/sim".into()],
            panic_crates: vec!["crates/sim".into()],
            ..Config::default()
        }
    }

    fn run_at(path: &str, src: &str, config: &Config) -> Vec<Finding> {
        let scans = vec![FileScan::new(path.into(), src)];
        let graph = CallGraph::build(&scans);
        let reach = Reachability::compute(&graph, &config.entry_points, &config.cold_fns);
        let hot = HotMarks::for_file(&graph, &reach, 0);
        let mut f = Vec::new();
        check_file(&scans[0], config, &hot, &mut f);
        f
    }

    fn run(src: &str) -> Vec<Finding> {
        run_at("crates/sim/src/x.rs", src, &cfg())
    }

    #[test]
    fn allocs_flagged_in_hot_fns_not_cold_or_tests() {
        let f = run("impl X {\n fn new() -> X { let v = Vec::new(); X }\n fn tick(&mut self) { let v = Vec::new(); }\n}\n#[cfg(test)]\nmod t { fn u() { let v = Vec::new(); } }\n");
        let hot: Vec<_> = f.iter().filter(|f| f.rule == "hot-path-alloc").collect();
        assert_eq!(hot.len(), 1, "{f:?}");
        assert_eq!(hot[0].line, 3);
        assert!(
            hot[0].message.contains("hot via X::tick"),
            "{}",
            hot[0].message
        );
    }

    #[test]
    fn indirect_rule_names_the_chain_outside_legacy_files() {
        // File outside every crate scope and outside legacy_files: the
        // call graph alone convicts `helper` via X::tick.
        let src = "struct X;\nimpl X {\n fn tick(&mut self) { helper(); }\n}\n\
                   fn helper(x: Option<u8>) { let v = Vec::new(); let _ = x.unwrap(); }\n";
        let f = run_at("crates/bench/src/helper.rs", src, &cfg());
        let alloc: Vec<_> = f.iter().filter(|f| f.rule == "hot-path-indirect").collect();
        assert_eq!(alloc.len(), 1, "{f:?}");
        assert!(
            alloc[0].message.contains("X::tick → helper"),
            "{}",
            alloc[0].message
        );
        // The panic rule follows the hot path out of the configured crates.
        let p: Vec<_> = f.iter().filter(|f| f.rule == "panic").collect();
        assert_eq!(p.len(), 1, "{f:?}");
        assert!(p[0].message.contains("hot via X::tick → helper"));
    }

    #[test]
    fn cold_fn_cut_point_suppresses_indirect_findings() {
        let src = "struct X;\nimpl X {\n fn tick(&mut self) { helper(); }\n}\n\
                   fn helper() { let v = Vec::new(); }\n";
        let mut config = cfg();
        config.cold_fns.push("helper".into());
        let f = run_at("crates/bench/src/helper.rs", src, &config);
        assert!(!f.iter().any(|f| f.rule.starts_with("hot-path")), "{f:?}");
    }

    #[test]
    fn map_iteration_is_an_error_point_use_a_warning() {
        let f = run(
            "use std::collections::HashMap;\nstruct S { m: HashMap<u64, u64> }\nimpl S {\n fn tick(&self) { for (k, v) in &self.m { } }\n fn get(&self) -> Option<&u64> { self.m.get(&0) }\n}\n",
        );
        let errors: Vec<_> = f
            .iter()
            .filter(|f| f.rule == "determinism" && f.severity == "error")
            .collect();
        assert_eq!(errors.len(), 1, "{f:?}");
        assert_eq!(errors[0].line, 4);
        assert!(f
            .iter()
            .any(|f| f.rule == "determinism" && f.severity == "warning"));
    }

    #[test]
    fn map_method_iteration_is_an_error() {
        let f = run("struct S { m: HashMap<u64, u64> }\nimpl S {\n fn sum(&self) -> u64 { self.m.values().sum() }\n}\n");
        assert!(f
            .iter()
            .any(|f| f.rule == "determinism" && f.severity == "error" && f.line == 3));
    }

    #[test]
    fn panic_policy_flags_unwrap_expect_panic() {
        let f = run("fn a(x: Option<u8>) -> u8 { x.unwrap() }\nfn b(x: Option<u8>) -> u8 { x.expect(\"y\") }\nfn c() { panic!(\"boom\"); }\nfn ok(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n");
        let p: Vec<_> = f.iter().filter(|f| f.rule == "panic").collect();
        assert_eq!(p.len(), 3, "{p:?}");
    }

    #[test]
    fn std_time_and_rand_flagged() {
        let f = run("use std::time::Instant;\nuse rand::Rng;\n");
        assert_eq!(f.iter().filter(|f| f.rule == "determinism").count(), 2);
    }

    #[test]
    fn unsafe_token_flagged_and_forbid_attr_checked() {
        let f = run("fn x() { let p = unsafe { *(0 as *const u8) }; }\n");
        assert!(f.iter().any(|f| f.rule == "unsafe-policy"));

        let mut config = cfg();
        config.crate_roots = vec!["crates/sim/src/x.rs".into()];
        let with = scan("#![forbid(unsafe_code)]\nfn x() {}\n");
        let without = scan("fn x() {}\n");
        let mut f = Vec::new();
        check_crate_roots(&[with], &config, &mut f);
        assert!(f.is_empty(), "{f:?}");
        check_crate_roots(&[without], &config, &mut f);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn stats_coverage_reports_missing_fields() {
        let stats = FileScan::new(
            "crates/sim/src/stats.rs".into(),
            "pub struct SimStats {\n pub cycles: u64,\n pub missing_one: u64,\n}\n",
        );
        let consumer = FileScan::new(
            "crates/bench/src/report.rs".into(),
            "fn rows(s: &SimStats) { row(s.cycles); }\n",
        );
        let mut config = cfg();
        config.stats_structs = vec!["crates/sim/src/stats.rs:SimStats".into()];
        config.stats_consumer = "crates/bench/src/report.rs".into();
        let mut f = Vec::new();
        check_stats_coverage(&[stats, consumer], &config, &mut f);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("missing_one"));
    }
}
