//! Verifier feature stages.
//!
//! The real verifier accreted features release by release — each adding
//! checks, state, and code (Figure 2). Our verifier is organized the same
//! way: every capability is a [`VerifierFeatures`] flag, and
//! [`VerifierFeatures::for_version`] reconstructs the feature set of a
//! historical kernel. The `analysis` crate measures the source attributed
//! to each stage ([`FEATURE_MODULES`]) to regenerate Figure 2's growth
//! curve from this artifact.

use ebpf::version::KernelVersion;

/// Which verifier capabilities are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierFeatures {
    /// Map access via `ld_map_fd` + map helpers (v3.18 baseline).
    pub maps: bool,
    /// Direct packet access with pkt/pkt_end range tracking (~v4.9).
    pub packet_access: bool,
    /// bpf2bpf calls (~v4.14; the +500 LoC event of §2.1).
    pub calls: bool,
    /// Reference tracking for acquiring helpers (~v4.20).
    pub references: bool,
    /// Speculative-execution hardening (~v4.20).
    pub speculation: bool,
    /// `bpf_spin_lock` discipline checking (~v5.4).
    pub spin_locks: bool,
    /// Bounded loops: back edges allowed, convergence by pruning (~v5.4).
    pub bounded_loops: bool,
    /// Ring-buffer helpers (~v5.10).
    pub ringbuf: bool,
    /// `bpf_loop` callback verification (~v5.15).
    pub loop_helper: bool,
}

impl VerifierFeatures {
    /// Everything on: a modern kernel.
    pub const fn all() -> Self {
        VerifierFeatures {
            maps: true,
            packet_access: true,
            calls: true,
            references: true,
            speculation: true,
            spin_locks: true,
            bounded_loops: true,
            ringbuf: true,
            loop_helper: true,
        }
    }

    /// The 2014 baseline: maps only, no loops, no calls.
    pub const fn baseline() -> Self {
        VerifierFeatures {
            maps: true,
            packet_access: false,
            calls: false,
            references: false,
            speculation: false,
            spin_locks: false,
            bounded_loops: false,
            ringbuf: false,
            loop_helper: false,
        }
    }

    /// The feature set of a historical kernel release.
    pub fn for_version(v: KernelVersion) -> Self {
        VerifierFeatures {
            maps: true,
            packet_access: v >= KernelVersion::V4_9,
            calls: v >= KernelVersion::V4_14,
            references: v >= KernelVersion::V4_20,
            speculation: v >= KernelVersion::V4_20,
            spin_locks: v >= KernelVersion::V5_4,
            bounded_loops: v >= KernelVersion::V5_4,
            ringbuf: v >= KernelVersion::V5_10,
            loop_helper: v >= KernelVersion::V5_15,
        }
    }
}

impl Default for VerifierFeatures {
    fn default() -> Self {
        Self::all()
    }
}

/// Source files of this crate attributed to each feature stage, for the
/// measured Figure 2 series. Paths are relative to the crate's `src/`.
pub const FEATURE_MODULES: &[(KernelVersion, &str, &[&str])] = &[
    (
        KernelVersion::V3_18,
        "base verifier: ALU/branch tracking, stack, maps",
        &[
            "tnum.rs",
            "scalar.rs",
            "types.rs",
            "error.rs",
            "limits.rs",
            "features.rs",
            "stats.rs",
            "faults.rs",
            "lib.rs",
            "checker.rs",
            "check_mem.rs",
        ],
    ),
    (
        KernelVersion::V4_9,
        "direct packet access",
        &["check_packet.rs"],
    ),
    (KernelVersion::V4_14, "bpf2bpf calls", &["check_call.rs"]),
    (
        KernelVersion::V4_20,
        "reference tracking + speculation hardening",
        &["check_ref.rs", "spec.rs"],
    ),
    (
        KernelVersion::V5_4,
        "spin locks + bounded loops",
        &["check_lock.rs", "loops.rs"],
    ),
    (KernelVersion::V5_10, "ring buffers", &["check_ringbuf.rs"]),
    (
        KernelVersion::V5_15,
        "bpf_loop callbacks",
        &["check_loop_helper.rs"],
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_sets_grow_monotonically() {
        // Destructured, so a new feature flag does not compile here until
        // it is listed.
        let flags = |f: VerifierFeatures| {
            let VerifierFeatures {
                maps,
                packet_access,
                calls,
                references,
                speculation,
                spin_locks,
                bounded_loops,
                ringbuf,
                loop_helper,
            } = f;
            [
                maps,
                packet_access,
                calls,
                references,
                speculation,
                spin_locks,
                bounded_loops,
                ringbuf,
                loop_helper,
            ]
        };
        let mut prev = [false; 9];
        for v in KernelVersion::FIGURE_SERIES {
            let now = flags(VerifierFeatures::for_version(v));
            for (i, (&had, &has)) in prev.iter().zip(&now).enumerate() {
                assert!(has || !had, "{v} dropped feature #{i}");
            }
            prev = now;
        }
        assert_eq!(
            VerifierFeatures::for_version(KernelVersion::V6_1),
            VerifierFeatures::all()
        );
    }

    #[test]
    fn baseline_is_minimal() {
        let base = VerifierFeatures::baseline();
        assert!(base.maps);
        assert!(!base.calls);
        assert!(!base.bounded_loops);
    }

    #[test]
    fn v3_18_matches_baseline() {
        assert_eq!(
            VerifierFeatures::for_version(KernelVersion::V3_18),
            VerifierFeatures::baseline()
        );
    }

    #[test]
    fn feature_modules_name_every_source_file_once() {
        let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        let mut on_disk: Vec<String> = std::fs::read_dir(src)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".rs"))
            .collect();
        on_disk.sort();
        let mut named: Vec<&str> = FEATURE_MODULES
            .iter()
            .flat_map(|(_, _, files)| files.iter().copied())
            .collect();
        named.sort();
        assert_eq!(named, on_disk, "each verifier source in exactly one stage");
    }

    #[test]
    fn feature_modules_cover_all_versions_in_order() {
        for pair in FEATURE_MODULES.windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }
}
