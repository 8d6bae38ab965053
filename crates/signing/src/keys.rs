//! Keys, the boot-time root of trust, and detached signatures.
//!
//! §3.1: "we allow a trusted userspace Rust toolchain to sign extensions
//! and leverage secure key bootstrap mechanisms to validate signatures at
//! load time." This module models that trust chain: a [`SigningKey`] held
//! by the trusted toolchain, a [`KeyStore`] enrolled into the kernel at
//! boot (and sealed afterwards, as with the kernel's `.machine` keyring),
//! and detached [`Signature`]s over artifact bytes.

use crate::hmac::{hmac_sha256, verify_mac, HmacKey};
use crate::sha256::{digest, DIGEST_LEN};

/// Identifies a key: the SHA-256 of its secret material (a fingerprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(pub [u8; DIGEST_LEN]);

/// A signing key held by the trusted toolchain: the HMAC keyed with its
/// secret, which it does not keep.
#[derive(Debug, Clone)]
pub struct SigningKey {
    hmac: HmacKey,
    id: KeyId,
}

impl SigningKey {
    /// Derives a key from secret material.
    pub fn from_secret(secret: &[u8]) -> Self {
        Self {
            hmac: HmacKey::new(secret),
            id: KeyId(digest(secret)),
        }
    }

    /// Deterministically derives a key from a seed (for reproducible
    /// tests and examples).
    pub fn derive(seed: u64) -> Self {
        Self::from_secret(&hmac_sha256(
            b"untenable-key-derivation",
            &seed.to_le_bytes(),
        ))
    }

    /// The key's public fingerprint.
    pub fn id(&self) -> KeyId {
        self.id
    }

    /// Signs `artifact`, producing a detached signature.
    pub fn sign(&self, artifact: &[u8]) -> Signature {
        Signature {
            key: self.id,
            mac: self.hmac.mac(artifact),
        }
    }
}

/// A detached signature over artifact bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Fingerprint of the signing key.
    pub key: KeyId,
    /// The MAC.
    pub mac: [u8; DIGEST_LEN],
}

impl Signature {
    /// Serializes to bytes (fingerprint || mac).
    pub fn to_bytes(&self) -> [u8; DIGEST_LEN * 2] {
        let mut out = [0u8; DIGEST_LEN * 2];
        out[..DIGEST_LEN].copy_from_slice(&self.key.0);
        out[DIGEST_LEN..].copy_from_slice(&self.mac);
        out
    }

    /// Parses from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != DIGEST_LEN * 2 {
            return None;
        }
        let mut key = [0u8; DIGEST_LEN];
        let mut mac = [0u8; DIGEST_LEN];
        key.copy_from_slice(&bytes[..DIGEST_LEN]);
        mac.copy_from_slice(&bytes[DIGEST_LEN..]);
        Some(Signature {
            key: KeyId(key),
            mac,
        })
    }
}

/// Why signature validation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigError {
    /// The signing key is not enrolled in the kernel keyring.
    UnknownKey(KeyId),
    /// The MAC does not match the artifact.
    BadSignature,
    /// The keyring is sealed; no further enrollment allowed.
    KeyringSealed,
}

impl std::fmt::Display for SigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SigError::UnknownKey(id) => {
                write!(
                    f,
                    "unknown signing key {}",
                    crate::sha256::to_hex(&id.0[..4])
                )
            }
            SigError::BadSignature => write!(f, "signature verification failed"),
            SigError::KeyringSealed => write!(f, "keyring is sealed"),
        }
    }
}

impl std::error::Error for SigError {}

/// The kernel-side keyring: keys enrolled at boot, then sealed. It holds
/// each key's keyed HMAC state, never the raw secret.
#[derive(Debug, Default)]
pub struct KeyStore {
    trusted: Vec<(KeyId, HmacKey)>,
    sealed: bool,
}

impl KeyStore {
    /// Creates an empty, unsealed keyring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enrolls a key (boot-time only).
    pub fn enroll(&mut self, key: &SigningKey) -> Result<(), SigError> {
        if self.sealed {
            return Err(SigError::KeyringSealed);
        }
        self.trusted.push((key.id, key.hmac.clone()));
        Ok(())
    }

    /// Seals the keyring; later enrollment fails.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Whether the keyring is sealed.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Number of enrolled keys.
    pub fn len(&self) -> usize {
        self.trusted.len()
    }

    /// Whether no keys are enrolled.
    pub fn is_empty(&self) -> bool {
        self.trusted.is_empty()
    }

    /// Validates `sig` over `artifact`.
    pub fn validate(&self, artifact: &[u8], sig: &Signature) -> Result<(), SigError> {
        let (_, hmac) = self
            .trusted
            .iter()
            .find(|(id, _)| *id == sig.key)
            .ok_or(SigError::UnknownKey(sig.key))?;
        if verify_mac(&hmac.mac(artifact), &sig.mac) {
            Ok(())
        } else {
            Err(SigError::BadSignature)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_validate_roundtrip() {
        let key = SigningKey::derive(1);
        let mut store = KeyStore::new();
        store.enroll(&key).unwrap();
        store.seal();
        let sig = key.sign(b"artifact bytes");
        store.validate(b"artifact bytes", &sig).unwrap();
    }

    #[test]
    fn tampered_artifact_rejected() {
        let key = SigningKey::derive(2);
        let mut store = KeyStore::new();
        store.enroll(&key).unwrap();
        let sig = key.sign(b"artifact bytes");
        assert_eq!(
            store.validate(b"artifact bytez", &sig),
            Err(SigError::BadSignature)
        );
    }

    #[test]
    fn unknown_key_rejected() {
        let trusted = SigningKey::derive(3);
        let rogue = SigningKey::derive(4);
        let mut store = KeyStore::new();
        store.enroll(&trusted).unwrap();
        let sig = rogue.sign(b"data");
        assert!(matches!(
            store.validate(b"data", &sig),
            Err(SigError::UnknownKey(_))
        ));
    }

    #[test]
    fn sealed_keyring_rejects_enrollment() {
        let mut store = KeyStore::new();
        store.enroll(&SigningKey::derive(5)).unwrap();
        store.seal();
        assert!(store.is_sealed());
        assert_eq!(
            store.enroll(&SigningKey::derive(6)),
            Err(SigError::KeyringSealed)
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let sig = SigningKey::derive(7).sign(b"x");
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        assert!(Signature::from_bytes(&[0; 63]).is_none());
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        assert_eq!(SigningKey::derive(9).id(), SigningKey::derive(9).id());
        assert_ne!(SigningKey::derive(9).id(), SigningKey::derive(10).id());
    }

    #[test]
    fn debug_does_not_leak_secret() {
        let key = SigningKey::from_secret(b"super-secret-material");
        let dbg = format!("{key:?}");
        assert!(!dbg.contains("super-secret"));
    }

    #[test]
    fn keystore_debug_does_not_leak_secret() {
        let secret = b"super-secret-material";
        let mut store = KeyStore::new();
        store.enroll(&SigningKey::from_secret(secret)).unwrap();
        let dbg = format!("{store:?}");
        assert!(!dbg.contains("super-secret"));
        let bytes = format!("{:?}", secret.as_slice());
        assert!(!dbg.contains(bytes.trim_matches(['[', ']'])), "{dbg}");
    }
}
