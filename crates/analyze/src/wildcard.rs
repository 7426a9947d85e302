//! Rule family 3 — wildcard arms over safety-critical enums.
//!
//! A `_` (or bare-binding) arm in a match over `cdd::error::IoError`,
//! `sim_core::fault::FaultEvent` or the cdd `ReadSource` silently
//! swallows every variant added later — exactly the enums where a new
//! fault kind or read path must force every handler to be revisited.
//! This rule bans them: matches are classified as safety-critical when
//! any arm pattern names one of those enums as a path (`IoError::…`),
//! and a critical match may not contain an arm whose whole pre-guard
//! pattern is `_` or a plain binding identifier. Test-scope matches
//! are exempt, and `matches!` macro uses are out of scope (they cannot
//! grow arms).

use crate::lexer::{TokKind, Token};
use crate::matchexpr::find_matches;
use crate::{Finding, ParsedFile};

/// Stable rule id for this family.
pub const RULE: &str = "wildcard-match";

/// Enums whose matches must stay exhaustive variant-by-variant.
const CRITICAL_ENUMS: [&str; 3] = ["IoError", "FaultEvent", "ReadSource"];

/// The critical enum named by a path in this pattern range, if any.
fn critical_enum(toks: &[Token], range: (usize, usize)) -> Option<&'static str> {
    (range.0..range.1.saturating_sub(1)).find_map(|k| {
        let t = &toks[k];
        let path = toks[k + 1].is_punct(':') && toks.get(k + 2).is_some_and(|n| n.is_punct(':'));
        CRITICAL_ENUMS.iter().find(|&&e| t.is_ident(e) && path).copied()
    })
}

/// Is this whole-arm pattern a wildcard: `_`, `x`, or `mut x`?
fn is_wildcard(toks: &[Token], range: (usize, usize)) -> bool {
    let slice = &toks[range.0..range.1];
    let idents: Vec<&Token> = slice.iter().collect();
    match idents.as_slice() {
        [t] => {
            t.is_ident("_")
                || (t.kind == TokKind::Ident
                    && !matches!(t.text.as_str(), "true" | "false")
                    && t.text.chars().next().is_some_and(|c| c.is_ascii_lowercase()))
        }
        [m, t] => {
            m.is_ident("mut")
                && is_wildcard(toks, (range.0 + 1, range.1))
                && t.kind == TokKind::Ident
        }
        _ => false,
    }
}

/// Scan one parsed file for wildcard arms in critical matches.
pub fn scan(pf: &ParsedFile) -> Vec<Finding> {
    let toks = &pf.lex.tokens;
    let mut out = Vec::new();
    for m in find_matches(toks) {
        if pf.in_test(m.line) {
            continue;
        }
        let Some(enum_name) = m.arms.iter().find_map(|a| critical_enum(toks, a.pattern)) else {
            continue;
        };
        for arm in &m.arms {
            if is_wildcard(toks, arm.pattern) {
                let shown: String =
                    toks[arm.pattern.0..arm.pattern.1].iter().map(|t| t.text.as_str()).collect();
                out.push(Finding {
                    rule: RULE,
                    file: pf.path.clone(),
                    line: arm.line,
                    message: format!(
                        "wildcard arm `{shown}` in match over safety-critical enum {enum_name} — \
                         spell out the remaining variants"
                    ),
                    acknowledged: false,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SourceFile;

    fn scan_src(src: &str) -> Vec<Finding> {
        scan(&ParsedFile::parse(&SourceFile::new("cdd/src/x.rs", src)))
    }

    #[test]
    fn underscore_and_binding_wildcards_flagged() {
        let src = "\
fn f(e: IoError) -> u32 {
    match e {
        IoError::DataLoss { lb } => lb as u32,
        _ => 0,
    }
}
fn g(e: FaultEvent) -> u32 {
    match e {
        FaultEvent::DiskFail { .. } => 1,
        other => drop_it(other),
    }
}
";
        let f = scan_src(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("IoError"));
        assert!(f[1].message.contains("FaultEvent"));
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn exhaustive_and_noncritical_matches_clean() {
        let src = "\
fn f(e: IoError) -> u32 {
    match e {
        IoError::DataLoss { lb } => lb as u32,
        IoError::Lock(c) => c.len(),
    }
}
fn g(n: u32) -> u32 {
    match n {
        0 => 1,
        _ => 2,
    }
}
";
        assert!(scan_src(src).is_empty(), "{:?}", scan_src(src));
    }

    #[test]
    fn guards_do_not_hide_wildcards_and_tests_are_exempt() {
        let src = "\
fn f(e: ReadSource) -> u32 {
    match e {
        ReadSource::Primary(a) => a,
        x if check(x) => 1,
        _ => 0,
    }
}
#[cfg(test)]
mod tests {
    fn t(e: IoError) -> u32 {
        match e { IoError::DataLoss { .. } => 1, _ => 0 }
    }
}
";
        let f = scan_src(src);
        // The guarded binding arm and the `_` arm both flag; the test
        // module's wildcard does not.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.line < 8));
    }

    #[test]
    fn matches_macro_is_out_of_scope() {
        let src = "fn f(e: ReadSource) -> bool { matches!(e, ReadSource::Image(_)) }\n";
        assert!(scan_src(src).is_empty());
    }
}
