//! The kernel-side loader: signature validation and load-time fixup.
//!
//! §3.1: "At load time, the kernel checks the signature to ensure safety.
//! The kernel may need to perform some amount of load-time fixup on the
//! program to resolve helper function addresses and other relocations,
//! but it does not incur the burden (and complexity) of checking safety
//! properties." That is the whole loader: validate, parse, resolve — no
//! symbolic execution, no abstract domains, O(artifact size).

use std::collections::HashMap;

use kernel_sim::{audit::EventKind, Kernel};
use signing::{KeyStore, SigError};

use crate::{
    ext::Extension,
    toolchain::{Artifact, SignedArtifact},
};

/// Why a load was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Signature validation failed.
    BadSignature(SigError),
    /// The artifact bytes are malformed.
    MalformedArtifact,
    /// The entry symbol is not linked into this kernel image.
    UnknownEntry(String),
    /// A required capability cannot be resolved.
    UnresolvedCapability(String),
    /// The artifact's program type disagrees with the linked entry's.
    ProgTypeMismatch,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadSignature(e) => write!(f, "signature validation failed: {e}"),
            LoadError::MalformedArtifact => write!(f, "malformed artifact"),
            LoadError::UnknownEntry(sym) => write!(f, "unknown entry symbol `{sym}`"),
            LoadError::UnresolvedCapability(cap) => {
                write!(f, "unresolved capability `{cap}`")
            }
            LoadError::ProgTypeMismatch => write!(f, "program type mismatch"),
        }
    }
}

impl std::error::Error for LoadError {}

/// The kernel-crate capabilities this kernel exposes; the loader's fixup
/// table (the analogue of helper-address relocation).
pub const KERNEL_CAPABILITIES: &[&str] = &[
    "maps", "packet", "task", "sockets", "locks", "ringbuf", "sys_bpf", "pool", "trace",
];

/// The pre-linked extension entry points (the "native code" the artifact
/// binds to by symbol; see the substitution note in [`crate::toolchain`]).
#[derive(Default)]
pub struct ExtensionRegistry {
    by_symbol: HashMap<String, Extension>,
}

impl ExtensionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Links an entry point under `symbol`.
    pub fn link(&mut self, symbol: &str, ext: Extension) {
        self.by_symbol.insert(symbol.to_string(), ext);
    }

    /// Looks up a symbol.
    pub fn get(&self, symbol: &str) -> Option<&Extension> {
        self.by_symbol.get(symbol)
    }

    /// Number of linked entries.
    pub fn len(&self) -> usize {
        self.by_symbol.len()
    }

    /// Whether no entries are linked.
    pub fn is_empty(&self) -> bool {
        self.by_symbol.is_empty()
    }
}

/// A successfully loaded extension.
#[derive(Debug, Clone)]
pub struct LoadedExtension {
    /// The runnable extension.
    pub extension: Extension,
    /// Its artifact metadata.
    pub artifact: Artifact,
    /// Capabilities resolved during load-time fixup.
    pub fixups_resolved: usize,
    /// Host nanoseconds the whole load took (signature + parse + fixup) —
    /// the number the load-time experiment compares against verification.
    pub load_ns: u128,
}

/// The loader.
pub struct Loader<'k> {
    kernel: &'k Kernel,
    keyring: KeyStore,
}

impl<'k> Loader<'k> {
    /// Creates a loader with the given (ideally sealed) keyring.
    pub fn new(kernel: &'k Kernel, keyring: KeyStore) -> Self {
        Loader { kernel, keyring }
    }

    /// Validates, parses, and fixes up a signed artifact.
    pub fn load(
        &self,
        signed: &SignedArtifact,
        registry: &ExtensionRegistry,
    ) -> Result<LoadedExtension, LoadError> {
        let started = std::time::Instant::now();
        let now = || self.kernel.clock.now_ns();
        let _load_span = self.kernel.trace.span(kernel_sim::trace::SpanKind::Load, 0);

        {
            let _sig_span = self
                .kernel
                .trace
                .span(kernel_sim::trace::SpanKind::SigCheck, 0);
            if let Err(e) = self.keyring.validate(&signed.bytes, &signed.signature) {
                self.kernel.audit.record(
                    now(),
                    EventKind::LoadRejected,
                    format!("load rejected: {e}"),
                );
                return Err(LoadError::BadSignature(e));
            }
        }

        let artifact = Artifact::from_bytes(&signed.bytes).ok_or_else(|| {
            self.kernel.audit.record(
                now(),
                EventKind::LoadRejected,
                "load rejected: malformed artifact",
            );
            LoadError::MalformedArtifact
        })?;

        // Load-time fixup: resolve every required capability.
        let mut fixups_resolved = 0;
        {
            let _fixup_span = self
                .kernel
                .trace
                .span(kernel_sim::trace::SpanKind::Fixup, 0);
            for cap in &artifact.requires {
                if !KERNEL_CAPABILITIES.contains(&cap.as_str()) {
                    self.kernel.audit.record(
                        now(),
                        EventKind::LoadRejected,
                        format!("load rejected: unresolved capability `{cap}`"),
                    );
                    return Err(LoadError::UnresolvedCapability(cap.clone()));
                }
                fixups_resolved += 1;
            }
        }

        let extension = registry
            .get(&artifact.entry_symbol)
            .cloned()
            .ok_or_else(|| {
                self.kernel.audit.record(
                    now(),
                    EventKind::LoadRejected,
                    format!("load rejected: unknown entry `{}`", artifact.entry_symbol),
                );
                LoadError::UnknownEntry(artifact.entry_symbol.clone())
            })?;

        if extension.prog_type != artifact.prog_type {
            self.kernel.audit.record(
                now(),
                EventKind::LoadRejected,
                "load rejected: prog type mismatch",
            );
            return Err(LoadError::ProgTypeMismatch);
        }

        self.kernel.audit.record(
            now(),
            EventKind::ExtensionLoaded,
            format!(
                "loaded `{}` ({}, {} fixups)",
                artifact.name, artifact.prog_type, fixups_resolved
            ),
        );
        Ok(LoadedExtension {
            extension,
            artifact,
            fixups_resolved,
            load_ns: started.elapsed().as_nanos(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toolchain::Toolchain;
    use ebpf::program::ProgType;
    use signing::SigningKey;

    fn setup() -> (Kernel, Toolchain, KeyStore, ExtensionRegistry) {
        let kernel = Kernel::new();
        let key = SigningKey::derive(7);
        let toolchain = Toolchain::new(key.clone());
        let mut keyring = KeyStore::new();
        keyring.enroll(&key).unwrap();
        keyring.seal();
        let mut registry = ExtensionRegistry::new();
        registry.link(
            "noop_entry",
            Extension::new("noop", ProgType::Kprobe, |_| Ok(0)),
        );
        (kernel, toolchain, keyring, registry)
    }

    #[test]
    fn signed_artifact_loads() {
        let (kernel, toolchain, keyring, registry) = setup();
        let signed = toolchain
            .build(
                "fn f() {}",
                "noop",
                ProgType::Kprobe,
                "noop_entry",
                &["maps"],
            )
            .unwrap();
        let loader = Loader::new(&kernel, keyring);
        let loaded = loader.load(&signed, &registry).unwrap();
        assert_eq!(loaded.fixups_resolved, 1);
        assert_eq!(loaded.artifact.name, "noop");
        assert_eq!(kernel.audit.count(EventKind::ExtensionLoaded), 1);
    }

    #[test]
    fn tampered_artifact_rejected() {
        let (kernel, toolchain, keyring, registry) = setup();
        let mut signed = toolchain
            .build("fn f() {}", "noop", ProgType::Kprobe, "noop_entry", &[])
            .unwrap();
        // Flip a byte in the (signed) name field.
        let idx = signed.bytes.len() / 2;
        signed.bytes[idx] ^= 1;
        let loader = Loader::new(&kernel, keyring);
        assert!(matches!(
            loader.load(&signed, &registry),
            Err(LoadError::BadSignature(_))
        ));
        assert_eq!(kernel.audit.count(EventKind::LoadRejected), 1);
    }

    #[test]
    fn unsigned_key_rejected() {
        let (kernel, _toolchain, keyring, registry) = setup();
        let rogue = Toolchain::new(SigningKey::derive(666));
        let signed = rogue
            .build("fn f() {}", "noop", ProgType::Kprobe, "noop_entry", &[])
            .unwrap();
        let loader = Loader::new(&kernel, keyring);
        assert!(matches!(
            loader.load(&signed, &registry),
            Err(LoadError::BadSignature(SigError::UnknownKey(_)))
        ));
    }

    #[test]
    fn unknown_capability_rejected() {
        let (kernel, toolchain, keyring, registry) = setup();
        let signed = toolchain
            .build(
                "fn f() {}",
                "noop",
                ProgType::Kprobe,
                "noop_entry",
                &["time-travel"],
            )
            .unwrap();
        let loader = Loader::new(&kernel, keyring);
        assert!(matches!(
            loader.load(&signed, &registry),
            Err(LoadError::UnresolvedCapability(cap)) if cap == "time-travel"
        ));
    }

    #[test]
    fn unknown_entry_rejected() {
        let (kernel, toolchain, keyring, registry) = setup();
        let signed = toolchain
            .build("fn f() {}", "ghost", ProgType::Kprobe, "ghost_entry", &[])
            .unwrap();
        let loader = Loader::new(&kernel, keyring);
        assert!(matches!(
            loader.load(&signed, &registry),
            Err(LoadError::UnknownEntry(_))
        ));
    }

    #[test]
    fn prog_type_mismatch_rejected() {
        let (kernel, toolchain, keyring, registry) = setup();
        let signed = toolchain
            .build("fn f() {}", "noop", ProgType::Xdp, "noop_entry", &[])
            .unwrap();
        let loader = Loader::new(&kernel, keyring);
        assert!(matches!(
            loader.load(&signed, &registry),
            Err(LoadError::ProgTypeMismatch)
        ));
    }
}
