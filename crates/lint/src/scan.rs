//! Per-file structural scan over the token stream: which tokens sit inside
//! `#[cfg(test)]` / `#[test]` code, which function each token belongs to,
//! and the `// koc-lint: allow(rule, "reason")` suppression markers.

use crate::lex::{lex, TokKind, Token};

/// The rule names suppressions may reference. (`suppression` findings
/// report broken markers and are deliberately absent: they cannot be
/// waived.)
pub const RULES: &[&str] = &["determinism", "panic", "unsafe-policy", "stats-coverage"];

/// One parsed suppression marker.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule the marker suppresses.
    pub rule: String,
    /// The mandatory justification. `None` when the marker is malformed
    /// (which is itself reported as a `suppression` finding).
    pub reason: Option<String>,
    /// Source line of the marker comment.
    pub line: u32,
    /// The line whose findings this marker suppresses: the marker's own
    /// line for trailing comments, the next code line for comments that
    /// stand alone on their line.
    pub target_line: u32,
}

/// A lexed file plus the structural facts every rule needs.
#[derive(Debug)]
pub struct FileScan {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// All tokens, including comments.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order — the
    /// stream rules pattern-match so a comment can never split a pattern.
    pub code: Vec<usize>,
    /// Per *code* index: inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: Vec<bool>,
    /// Per *code* index: enclosing function name, if any.
    pub fn_name: Vec<Option<u32>>,
    /// Function-name table for `fn_name`.
    pub fn_names: Vec<String>,
    /// Parsed suppression markers.
    pub allows: Vec<Allow>,
    /// Malformed markers: `(line, message)` — reported unsuppressably.
    pub bad_markers: Vec<(u32, String)>,
}

impl FileScan {
    /// Lexes and scans one file.
    pub fn new(path: String, source: &str) -> FileScan {
        let tokens = lex(source);
        let mut scan = FileScan {
            path,
            code: Vec::new(),
            in_test: Vec::new(),
            fn_name: Vec::new(),
            fn_names: Vec::new(),
            allows: Vec::new(),
            bad_markers: Vec::new(),
            tokens,
        };
        scan.walk();
        scan
    }

    /// The token behind code index `i`.
    pub fn tok(&self, i: usize) -> &Token {
        &self.tokens[self.code[i]]
    }

    /// Whether the code token at `i` starts the sequence of identifiers and
    /// punctuation in `pattern` (e.g. `&["Vec", ":", ":", "new"]`).
    pub fn matches(&self, i: usize, pattern: &[&str]) -> bool {
        pattern.iter().enumerate().all(|(k, want)| {
            self.code.get(i + k).is_some_and(|_| {
                let t = self.tok(i + k);
                match t.kind {
                    TokKind::Ident => t.text == *want,
                    TokKind::Punct => want.len() == 1 && t.text == *want,
                    _ => false,
                }
            })
        })
    }

    fn walk(&mut self) {
        let mut depth = 0usize;
        // Depths at which a test region opened.
        let mut test_stack: Vec<usize> = Vec::new();
        // (name index, depth at the body's opening brace).
        let mut fn_stack: Vec<(u32, usize)> = Vec::new();
        // A `#[test]`-ish attribute was seen; waiting for the item body.
        let mut pending_test = false;
        let mut pending_test_depth = 0usize;
        // A `fn` keyword was seen; waiting for the name, then the body.
        let mut pending_fn: Option<u32> = None;
        let mut awaiting_fn_name = false;

        // First pass over raw tokens: suppressions come from plain `//`
        // comments. Doc comments (`///`, `//!`) are documentation — they
        // may *describe* the marker syntax without enacting it.
        for (idx, tok) in self.tokens.iter().enumerate() {
            let is_doc = tok.text.starts_with("///")
                || tok.text.starts_with("//!")
                || tok.text.starts_with("/**")
                || tok.text.starts_with("/*!");
            if tok.is_comment() && !is_doc && tok.text.contains("koc-lint:") {
                let target_line = if tok.first_on_line {
                    // A standalone marker governs the next code line.
                    self.tokens[idx + 1..]
                        .iter()
                        .find(|t| !t.is_comment())
                        .map_or(tok.line, |t| t.line)
                } else {
                    tok.line
                };
                match parse_marker(&tok.text) {
                    Ok((rule, reason)) => self.allows.push(Allow {
                        rule,
                        reason: Some(reason),
                        line: tok.line,
                        target_line,
                    }),
                    Err(msg) => self.bad_markers.push((tok.line, msg)),
                }
            }
        }

        for idx in 0..self.tokens.len() {
            if self.tokens[idx].is_comment() {
                continue;
            }
            // Attribute recognition works on the raw neighborhood.
            if self.tokens[idx].is_punct('#') && self.attr_is_test(idx) {
                pending_test = true;
                pending_test_depth = depth;
            }
            let t = &self.tokens[idx];
            match t.kind {
                TokKind::Ident if t.text == "fn" => {
                    awaiting_fn_name = true;
                }
                TokKind::Ident if awaiting_fn_name => {
                    self.fn_names.push(t.text.clone());
                    pending_fn = Some(self.fn_names.len() as u32 - 1);
                    awaiting_fn_name = false;
                }
                TokKind::Punct if t.text == "{" => {
                    if pending_test {
                        test_stack.push(depth);
                        pending_test = false;
                    }
                    if let Some(name) = pending_fn.take() {
                        fn_stack.push((name, depth));
                    }
                    depth += 1;
                }
                TokKind::Punct if t.text == "}" => {
                    depth = depth.saturating_sub(1);
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                    while fn_stack.last().is_some_and(|&(_, d)| d >= depth) {
                        fn_stack.pop();
                    }
                }
                TokKind::Punct if t.text == ";" => {
                    // `#[cfg(test)] use …;` or a bodyless trait method: the
                    // pending state never found a body.
                    if pending_test && depth == pending_test_depth {
                        pending_test = false;
                    }
                    pending_fn = None;
                }
                _ => {}
            }
            self.code.push(idx);
            self.in_test.push(!test_stack.is_empty());
            self.fn_name.push(fn_stack.last().map(|&(n, _)| n));
        }
    }

    /// Whether the attribute opening at raw token index `i` (a `#`) marks
    /// test-only code: `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]`.
    fn attr_is_test(&self, i: usize) -> bool {
        let mut j = i + 1;
        // Inner attributes (`#![…]`) configure the whole file, not an item.
        if self.tokens.get(j).is_some_and(|t| t.is_punct('!')) {
            return false;
        }
        if !self.tokens.get(j).is_some_and(|t| t.is_punct('[')) {
            return false;
        }
        j += 1;
        let mut bracket_depth = 1usize;
        while let Some(t) = self.tokens.get(j) {
            if t.is_punct('[') {
                bracket_depth += 1;
            } else if t.is_punct(']') {
                bracket_depth -= 1;
                if bracket_depth == 0 {
                    return false;
                }
            } else if t.is_ident("test") {
                return true;
            }
            j += 1;
        }
        false
    }
}

/// Parses one `koc-lint: allow(rule, "reason")` marker out of a comment.
///
/// # Errors
/// Returns a message when the marker is malformed, names an unknown rule,
/// or omits the mandatory reason.
fn parse_marker(comment: &str) -> Result<(String, String), String> {
    let after = comment
        .split("koc-lint:")
        .nth(1)
        .expect("caller checked the prefix") // koc-lint: allow(panic, "caller checked the marker prefix is present")
        .trim();
    let Some(args) = after.strip_prefix("allow") else {
        return Err(format!(
            "malformed marker '{}' (expected `koc-lint: allow(<rule>, \"reason\")`)",
            after
        ));
    };
    let args = args.trim();
    let inner = args
        .strip_prefix('(')
        .and_then(|a| a.rfind(')').map(|end| &a[..end]))
        .ok_or_else(|| "marker missing parentheses: `allow(<rule>, \"reason\")`".to_string())?;
    let (rule, reason) = match inner.split_once(',') {
        Some((rule, reason)) => (rule.trim(), reason.trim()),
        None => (inner.trim(), ""),
    };
    if !RULES.contains(&rule) {
        return Err(format!(
            "unknown rule '{rule}' in allow marker (known: {})",
            RULES.join(", ")
        ));
    }
    let reason = reason.trim_matches('"').trim();
    if reason.is_empty() {
        return Err(format!(
            "allow({rule}) without a reason — suppressions must say why \
             (`koc-lint: allow({rule}, \"reason\")`)"
        ));
    }
    Ok((rule.to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_cover_their_block_only() {
        let src = "fn live() { a(); }\n#[cfg(test)]\nmod tests {\n    fn t() { b(); }\n}\nfn after() { c(); }\n";
        let s = FileScan::new("x.rs".into(), src);
        let at = |name: &str| {
            (0..s.code.len())
                .find(|&i| s.tok(i).is_ident(name))
                .unwrap()
        };
        assert!(!s.in_test[at("a")]);
        assert!(s.in_test[at("b")]);
        assert!(!s.in_test[at("c")]);
    }

    #[test]
    fn test_attr_without_body_does_not_poison_the_rest() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() { a(); }\n";
        let s = FileScan::new("x.rs".into(), src);
        let i = (0..s.code.len()).find(|&i| s.tok(i).is_ident("a")).unwrap();
        assert!(!s.in_test[i]);
    }

    #[test]
    fn fn_names_attach_to_their_bodies() {
        let src = "impl X {\n  fn new() { alloc(); }\n  fn tick(&mut self) { work(); }\n}\n";
        let s = FileScan::new("x.rs".into(), src);
        let at = |name: &str| {
            (0..s.code.len())
                .find(|&i| s.tok(i).is_ident(name))
                .unwrap()
        };
        let name_of = |i: usize| s.fn_name[i].map(|n| s.fn_names[n as usize].as_str());
        assert_eq!(name_of(at("alloc")), Some("new"));
        assert_eq!(name_of(at("work")), Some("tick"));
    }

    #[test]
    fn trailing_and_standalone_markers_pick_target_lines() {
        let src = "let a = x.unwrap(); // koc-lint: allow(panic, \"seeded\")\n\
                   // koc-lint: allow(determinism, \"point lookup\")\n\
                   map.get(&k);\n";
        let s = FileScan::new("x.rs".into(), src);
        assert_eq!(s.allows.len(), 2, "{:?}", s.bad_markers);
        assert_eq!(s.allows[0].rule, "panic");
        assert_eq!(s.allows[0].target_line, 1);
        assert_eq!(s.allows[1].rule, "determinism");
        assert_eq!(s.allows[1].target_line, 3);
    }

    #[test]
    fn markers_without_reason_or_with_unknown_rule_are_bad() {
        let s = FileScan::new(
            "x.rs".into(),
            "// koc-lint: allow(panic)\n// koc-lint: allow(made-up, \"x\")\n",
        );
        assert!(s.allows.is_empty());
        assert_eq!(s.bad_markers.len(), 2);
        assert!(s.bad_markers[0].1.contains("without a reason"));
        assert!(s.bad_markers[1].1.contains("unknown rule"));
    }

    #[test]
    fn matches_sees_through_comments() {
        let s = FileScan::new("x.rs".into(), "Vec:: /* why */ new()");
        assert!(s.matches(0, &["Vec", ":", ":", "new"]));
    }
}
