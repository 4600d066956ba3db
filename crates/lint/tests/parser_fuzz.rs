//! Property test: the lexer, the structural scan and the token rules
//! never panic, no matter how mangled the input source is. They walk raw
//! token streams with hand-maintained depth counters and index arithmetic
//! — the classic place for an off-by-one on unbalanced braces, a truncated
//! attribute or a pattern that runs off the end of the stream — so we
//! throw random fragment soup at them and require graceful degradation
//! (garbage in, some findings out, never a crash).

use koc_lint::config::Config;
use koc_lint::rules;
use koc_lint::scan::FileScan;
use proptest::prelude::*;

/// Fragments chosen to hit the scanner's and the rules' decision points:
/// item keywords, attributes, paths, hash-map bindings and iteration,
/// panicking calls, comments and stray delimiters that never balance.
const FRAGMENTS: &[&str] = &[
    "fn",
    "impl",
    "trait",
    "for",
    "struct",
    "enum",
    "mod",
    "pub",
    "self",
    "Self",
    "where",
    "dyn",
    "f",
    "Type",
    "Trait",
    "x",
    "tick",
    "cycle",
    "(",
    ")",
    "{",
    "}",
    "<",
    ">",
    "[",
    "]",
    ",",
    ";",
    ":",
    "::",
    "->",
    "=>",
    "|",
    "&",
    "&mut",
    ".",
    "#",
    "#[cfg(test)]",
    "'a",
    "0",
    "1.5",
    "\"s\"",
    "|x|",
    ".m()",
    "T::m()",
    "self.m()",
    "vec![",
    "// c\n",
    "HashMap",
    "m: HashMap<u64, u64>",
    "in",
    "in &self.m",
    ".values()",
    "std::time",
    "rand::",
    "use",
    ".unwrap(",
    ".expect(",
    "panic!",
    "unsafe",
    "#![forbid(unsafe_code)]",
    "// koc-lint: allow(panic, \"r\")\n",
    "// koc-lint: allow(nope)\n",
];

fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..FRAGMENTS.len(), 0..120).prop_map(|picks| {
        let mut s = String::new();
        for (i, p) in picks.iter().enumerate() {
            if i % 7 == 0 {
                s.push('\n');
            } else {
                s.push(' ');
            }
            s.push_str(FRAGMENTS[*p]);
        }
        s
    })
}

proptest! {
    #[test]
    fn parser_never_panics_on_fragment_soup(src in soup()) {
        let path = "crates/sim/src/fuzz.rs";
        let scan = FileScan::new(path.to_string(), &src);
        // The test-region marks are parallel to the code-token list.
        prop_assert_eq!(scan.in_test.len(), scan.code.len());
        // Every token rule runs on the soup: the file sits in each rule's
        // crate scope.
        let scope = vec!["crates/sim".to_string()];
        let config = Config {
            roots: vec!["crates".to_string()],
            determinism_crates: scope.clone(),
            map_crates: scope.clone(),
            panic_crates: scope,
            ..Config::default()
        };
        let mut findings = Vec::new();
        rules::check_file(&scan, &config, &mut findings);
        for f in &findings {
            prop_assert!(f.line >= 1);
            prop_assert_eq!(f.file.as_str(), path);
        }
    }
}
