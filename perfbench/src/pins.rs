//! Values pinned for this benchmark.

/// The seed whose outcome digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// The reference loop's rate (`host::RefLoop` steps per second of
/// process CPU time) the host-time metrics are reported in. Each slice
/// of a run's rates is multiplied by `REF_NOMINAL / ref_rate` and its
/// set-up time by `ref_rate / REF_NOMINAL`, where `ref_rate` is the
/// reference loop's rate measured around it, so a slowdown of the whole
/// host cancels out while the numbers stay in the units of the host this
/// was measured on (a 2-core x86-64 VM).
pub const REF_NOMINAL: f64 = 6.5e4;

/// Outcome digests over the prefix of the default seed's stream, per
/// workload, in backend order (ebpf, safe-ext, sandbox).
pub const DIGESTS: [(&str, [u64; 3]); 3] = [
    (
        "pkt-steady",
        [
            0x7c6a_1cc7_a015_607c,
            0x7c6a_1cc7_a015_607c,
            0x7c6a_1cc7_a015_607c,
        ],
    ),
    (
        "ctl-upgrade",
        [
            0xdee8_2081_6b88_cf35,
            0xaf78_62cf_4b31_be65,
            0xa3d0_8715_632a_09a5,
        ],
    ),
    (
        "fleet-churn",
        [
            0xddb4_a9c5_324a_7732,
            0xddb4_a9c5_324a_7732,
            0xddb4_a9c5_324a_7732,
        ],
    ),
];
