//! Lines-of-code counting, for the measured Figure 2 series.
//!
//! Our verifier is organized into feature-stage modules
//! ([`verifier::features::FEATURE_MODULES`]); counting each stage's
//! source regenerates — from this artifact — the growth curve the paper
//! measured over `kernel/bpf/verifier.c`.

use std::path::{Path, PathBuf};

use ebpf::version::KernelVersion;

/// Counts non-blank, non-comment-only lines in Rust source text, up to
/// its `#[cfg(test)]` module: unit tests are not verifier code, and every
/// verifier source keeps them in one trailing module.
///
/// Block comments are tracked across lines; a line containing code before
/// a `//` comment counts.
pub fn loc_of_source(source: &str) -> usize {
    let mut count = 0usize;
    let mut in_block = 0usize;
    for line in source.lines() {
        if in_block == 0 && line.trim() == "#[cfg(test)]" {
            break;
        }
        let mut code = false;
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if in_block > 0 {
                if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    in_block -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            match bytes[i] {
                b'/' if bytes.get(i + 1) == Some(&b'/') => break,
                b'/' if bytes.get(i + 1) == Some(&b'*') => {
                    in_block += 1;
                    i += 2;
                }
                c if c.is_ascii_whitespace() => i += 1,
                _ => {
                    code = true;
                    i += 1;
                }
            }
        }
        if code {
            count += 1;
        }
    }
    count
}

/// Counts LoC of a file on disk. Panics with the path when it cannot be
/// read: a renamed verifier source must fail Figure 2, not drop its stage.
pub fn loc_of_file(path: &Path) -> usize {
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    loc_of_source(&source)
}

/// The verifier crate's `src/` directory, resolved relative to this
/// crate's manifest (works for any in-repo invocation).
pub fn verifier_src_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../verifier/src")
}

/// The measured Figure 2 series: cumulative verifier LoC at each feature
/// stage, labelled with the kernel version the stage models.
pub fn verifier_loc_by_stage() -> Vec<(KernelVersion, &'static str, usize)> {
    let src = verifier_src_dir();
    let mut cumulative = 0usize;
    let mut out = Vec::new();
    for (version, label, files) in verifier::features::FEATURE_MODULES {
        let stage: usize = files.iter().map(|f| loc_of_file(&src.join(f))).sum();
        cumulative += stage;
        out.push((*version, *label, cumulative));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_not_comments() {
        let src = r#"
// comment only
fn f() { // trailing comment counts the line
    /* block */ let x = 1;
    /* multi
       line
       comment */
    x
}
"#;
        // Lines: fn f(), let x (after block), x, } = 4.
        assert_eq!(loc_of_source(src), 4);
    }

    #[test]
    fn the_test_module_does_not_count() {
        let src = "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        assert_eq!(loc_of_source(src), 1);
        let types = std::fs::read_to_string(verifier_src_dir().join("types.rs")).unwrap();
        let (code, _) = types.split_once("#[cfg(test)]").unwrap();
        assert_eq!(loc_of_source(&types), loc_of_source(code));
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(loc_of_source(""), 0);
        assert_eq!(loc_of_source("\n\n  \n"), 0);
        assert_eq!(loc_of_source("// a\n/* b */\n"), 0);
    }

    #[test]
    fn measured_fig2_series_is_monotone_and_substantial() {
        let stages = verifier_loc_by_stage();
        assert_eq!(stages.len(), verifier::features::FEATURE_MODULES.len());
        let mut prev = 0;
        for (version, label, loc) in &stages {
            assert!(*loc > prev, "{version} {label} did not grow");
            prev = *loc;
        }
        // The base stage alone is four digits, like the 2014 verifier.
        assert!(stages[0].2 > 1000, "base stage {} LoC", stages[0].2);
    }
}
