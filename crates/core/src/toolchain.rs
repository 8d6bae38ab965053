//! The trusted userspace toolchain (§3.1, "Decoupling static code
//! analysis").
//!
//! Instead of an in-kernel verifier, safety is checked where the full
//! language toolchain lives: userspace. The toolchain (1) enforces the
//! *only safe Rust* policy by lexing the extension source and rejecting
//! any `unsafe` token or forbidden escape-hatch API — the moral
//! equivalent of `#![forbid(unsafe_code)]` enforced by a party the kernel
//! trusts — and (2) packages and **signs** the result, binding the
//! artifact's identity to its source hash.
//!
//! Substitution note (see DESIGN.md): a real deployment compiles the
//! checked source to native code. In this reproduction, extension code is
//! compiled into the host binary and bound by `entry_symbol`; the
//! artifact carries the source hash so loader-side identity checking is
//! still real.

use ebpf::program::ProgType;
use signing::{sha256, Signature, SigningKey};

/// Why the toolchain refused to build an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ToolchainError {
    /// An `unsafe` token in extension source.
    UnsafeCode {
        /// 1-based line number.
        line: usize,
    },
    /// A forbidden escape-hatch API.
    ForbiddenApi {
        /// 1-based line number.
        line: usize,
        /// The offending identifier.
        api: String,
    },
    /// No source given.
    EmptySource,
}

impl std::fmt::Display for ToolchainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolchainError::UnsafeCode { line } => {
                write!(f, "`unsafe` is not allowed in extensions (line {line})")
            }
            ToolchainError::ForbiddenApi { line, api } => {
                write!(f, "forbidden API `{api}` (line {line})")
            }
            ToolchainError::EmptySource => write!(f, "empty source"),
        }
    }
}

impl std::error::Error for ToolchainError {}

/// Identifiers that reopen unsafety even without the `unsafe` keyword at
/// the use site (macro or wrapper tricks); the toolchain bans them
/// outright in extension source.
pub const FORBIDDEN_APIS: &[&str] = &["transmute", "asm", "global_asm", "from_raw", "as_ptr_mut"];

/// What the safety scan measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyReport {
    /// Source lines scanned.
    pub lines: usize,
    /// Identifiers checked.
    pub idents_checked: usize,
}

/// Lexes `source` and rejects `unsafe` blocks and forbidden APIs.
///
/// The lexer understands line/block comments (nested), string literals
/// (with escapes), raw strings, and char literals, so `"unsafe"` in a
/// string or comment does not false-positive.
///
/// # Examples
///
/// ```
/// use safe_ext::toolchain::{check_source, ToolchainError};
///
/// assert!(check_source("fn f() { let x = 1; } // unsafe in a comment is fine").is_ok());
/// assert!(matches!(
///     check_source("fn f() { unsafe { } }"),
///     Err(ToolchainError::UnsafeCode { line: 1 })
/// ));
/// ```
pub fn check_source(source: &str) -> Result<SafetyReport, ToolchainError> {
    if source.trim().is_empty() {
        return Err(ToolchainError::EmptySource);
    }
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut idents = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'r' if matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#')) => {
                // Raw string: r"..." or r#"..."# etc.
                let mut hashes = 0;
                let mut j = i + 1;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    j += 1;
                    'raw: while j < bytes.len() {
                        if bytes[j] == b'\n' {
                            line += 1;
                        }
                        if bytes[j] == b'"' {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while seen < hashes && bytes.get(k) == Some(&b'#') {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    i = j;
                } else {
                    // Just an identifier starting with r.
                    let (next, ident) = scan_ident(bytes, i);
                    check_ident(&ident, line)?;
                    idents += 1;
                    i = next;
                }
            }
            b'\'' => {
                // Char literal or lifetime. 'x' / '\n' are literals; 'a
                // (no closing quote nearby) is a lifetime.
                if bytes.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal.
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != b'\'' {
                        j += 1;
                    }
                    i = j + 1;
                } else if bytes.get(i + 2) == Some(&b'\'') {
                    i += 3;
                } else {
                    // Lifetime: skip the quote, the ident is scanned next.
                    i += 1;
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let (next, ident) = scan_ident(bytes, i);
                check_ident(&ident, line)?;
                idents += 1;
                i = next;
            }
            _ => i += 1,
        }
    }
    Ok(SafetyReport {
        lines: line,
        idents_checked: idents,
    })
}

fn scan_ident(bytes: &[u8], start: usize) -> (usize, String) {
    let mut end = start;
    while end < bytes.len() && (bytes[end] == b'_' || bytes[end].is_ascii_alphanumeric()) {
        end += 1;
    }
    (
        end,
        String::from_utf8_lossy(&bytes[start..end]).into_owned(),
    )
}

fn check_ident(ident: &str, line: usize) -> Result<(), ToolchainError> {
    if ident == "unsafe" {
        return Err(ToolchainError::UnsafeCode { line });
    }
    if FORBIDDEN_APIS.contains(&ident) {
        return Err(ToolchainError::ForbiddenApi {
            line,
            api: ident.to_string(),
        });
    }
    Ok(())
}

/// A built (but unsigned) extension artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Extension name.
    pub name: String,
    /// Attachment type.
    pub prog_type: ProgType,
    /// SHA-256 of the checked source.
    pub source_hash: [u8; 32],
    /// The pre-linked entry symbol the loader binds to.
    pub entry_symbol: String,
    /// Kernel-crate capabilities the extension needs (resolved by the
    /// loader's load-time fixup).
    pub requires: Vec<String>,
}

const ARTIFACT_MAGIC: &[u8; 4] = b"UEXT";
const ARTIFACT_VERSION: u8 = 1;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn get_str(bytes: &[u8], at: &mut usize) -> Option<String> {
    let len = u32::from_le_bytes(bytes.get(*at..*at + 4)?.try_into().ok()?) as usize;
    *at += 4;
    let s = String::from_utf8(bytes.get(*at..*at + len)?.to_vec()).ok()?;
    *at += len;
    Some(s)
}

impl Artifact {
    /// Serializes to the wire format the signature covers.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(ARTIFACT_MAGIC);
        out.push(ARTIFACT_VERSION);
        out.push(prog_type_code(self.prog_type));
        put_str(&mut out, &self.name);
        out.extend_from_slice(&self.source_hash);
        put_str(&mut out, &self.entry_symbol);
        out.extend_from_slice(&(self.requires.len() as u32).to_le_bytes());
        for r in &self.requires {
            put_str(&mut out, r);
        }
        out
    }

    /// Parses the wire format.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 6 || &bytes[..4] != ARTIFACT_MAGIC || bytes[4] != ARTIFACT_VERSION {
            return None;
        }
        let prog_type = prog_type_from_code(bytes[5])?;
        let mut at = 6;
        let name = get_str(bytes, &mut at)?;
        let source_hash: [u8; 32] = bytes.get(at..at + 32)?.try_into().ok()?;
        at += 32;
        let entry_symbol = get_str(bytes, &mut at)?;
        let n = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        let mut requires = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            requires.push(get_str(bytes, &mut at)?);
        }
        (at == bytes.len()).then_some(Artifact {
            name,
            prog_type,
            source_hash,
            entry_symbol,
            requires,
        })
    }
}

fn prog_type_code(pt: ProgType) -> u8 {
    match pt {
        ProgType::SocketFilter => 0,
        ProgType::Xdp => 1,
        ProgType::Kprobe => 2,
        ProgType::Tracepoint => 3,
        ProgType::Lsm => 4,
        ProgType::SchedExt => 5,
    }
}

fn prog_type_from_code(code: u8) -> Option<ProgType> {
    Some(match code {
        0 => ProgType::SocketFilter,
        1 => ProgType::Xdp,
        2 => ProgType::Kprobe,
        3 => ProgType::Tracepoint,
        4 => ProgType::Lsm,
        5 => ProgType::SchedExt,
        _ => return None,
    })
}

/// A signed artifact ready for loading.
#[derive(Debug, Clone)]
pub struct SignedArtifact {
    /// The serialized artifact the signature covers.
    pub bytes: Vec<u8>,
    /// The toolchain's signature.
    pub signature: Signature,
}

/// The trusted toolchain: checks and signs.
pub struct Toolchain {
    key: SigningKey,
}

impl Toolchain {
    /// Creates a toolchain holding `key`.
    pub fn new(key: SigningKey) -> Self {
        Toolchain { key }
    }

    /// Checks `source` for safety, then packages and signs the artifact.
    pub fn build(
        &self,
        source: &str,
        name: &str,
        prog_type: ProgType,
        entry_symbol: &str,
        requires: &[&str],
    ) -> Result<SignedArtifact, ToolchainError> {
        check_source(source)?;
        let artifact = Artifact {
            name: name.to_string(),
            prog_type,
            source_hash: sha256::digest(source.as_bytes()),
            entry_symbol: entry_symbol.to_string(),
            requires: requires.iter().map(|s| s.to_string()).collect(),
        };
        let bytes = artifact.to_bytes();
        let signature = self.key.sign(&bytes);
        Ok(SignedArtifact { bytes, signature })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn safe_source_accepted() {
        let report = check_source(
            r#"
            fn count(ctx: &ExtCtx) -> Result<u64, ExtError> {
                let pid = ctx.pid_tgid()? as u32;
                Ok(pid as u64)
            }
            "#,
        )
        .unwrap();
        assert!(report.idents_checked > 10);
        assert!(report.lines >= 5);
    }

    #[test]
    fn unsafe_block_rejected_with_line() {
        let err = check_source("fn f() {\n    unsafe { core::ptr::null::<u8>(); }\n}").unwrap_err();
        assert_eq!(err, ToolchainError::UnsafeCode { line: 2 });
    }

    #[test]
    fn unsafe_in_comment_or_string_is_fine() {
        check_source("// unsafe\nfn f() {}").unwrap();
        check_source("/* unsafe \n /* nested unsafe */ still */ fn f() {}").unwrap();
        check_source(r#"fn f() { let s = "unsafe"; }"#).unwrap();
        check_source("fn f() { let s = r#\"unsafe\"#; }").unwrap();
        check_source("fn f() { let c = 'u'; let l: &'static str = \"x\"; }").unwrap();
    }

    #[test]
    fn unsafe_as_substring_is_fine() {
        check_source("fn f() { let unsafer_looking = 1; let not_unsafe = 2; }").unwrap();
    }

    #[test]
    fn forbidden_apis_rejected() {
        let err = check_source("fn f() { let x = transmute(y); }").unwrap_err();
        assert!(matches!(err, ToolchainError::ForbiddenApi { .. }));
        assert!(check_source("fn f() { asm ; }").is_err());
    }

    #[test]
    fn empty_source_rejected() {
        assert_eq!(check_source("   \n  "), Err(ToolchainError::EmptySource));
    }

    #[test]
    fn artifact_roundtrip() {
        let artifact = Artifact {
            name: "probe".into(),
            prog_type: ProgType::Kprobe,
            source_hash: [7; 32],
            entry_symbol: "probe_entry".into(),
            requires: vec!["maps".into(), "task".into()],
        };
        let bytes = artifact.to_bytes();
        assert_eq!(Artifact::from_bytes(&bytes), Some(artifact));
        // Truncation and corruption are detected.
        assert!(Artifact::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Artifact::from_bytes(&bad).is_none());
    }

    #[test]
    fn build_signs_over_exact_bytes() {
        let toolchain = Toolchain::new(signing::SigningKey::derive(1));
        let signed = toolchain
            .build(
                "fn f() {}",
                "f",
                ProgType::SocketFilter,
                "f_entry",
                &["maps"],
            )
            .unwrap();
        let mut keyring = signing::KeyStore::new();
        keyring.enroll(&signing::SigningKey::derive(1)).unwrap();
        keyring.validate(&signed.bytes, &signed.signature).unwrap();
        // The artifact embeds the source hash.
        let artifact = Artifact::from_bytes(&signed.bytes).unwrap();
        assert_eq!(artifact.source_hash, sha256::digest(b"fn f() {}"));
    }

    #[test]
    fn build_refuses_unsafe_source() {
        let toolchain = Toolchain::new(signing::SigningKey::derive(1));
        assert!(toolchain
            .build(
                "fn f() { unsafe {} }",
                "f",
                ProgType::SocketFilter,
                "f_entry",
                &[],
            )
            .is_err());
    }
}
