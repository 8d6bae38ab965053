//! A steady host-cost benchmark of the three extension backends.
//!
//! One process, one thread: each workload's seeded stream runs through
//! the verified eBPF JIT lane, safe-ext and the SFI sandbox JIT lane, all
//! through `tenancy::TenantRegistry`, interleaved in slices of a few
//! milliseconds with a std-only reference loop, so all three backends and
//! the reference see the same host conditions. See `run` for what one
//! run measures and checks.

pub mod host;
pub mod lane;
pub mod pins;
pub mod plan;
pub mod programs;
pub mod run;
pub mod trace;

/// splitmix64: every seeded choice in the benchmark derives from it.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
