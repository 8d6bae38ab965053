//! Simulated network stack: wire formats, an XDP-style RX hook,
//! connection tracking, and a deterministic traffic generator.
//!
//! The stack is the substrate for the paper's running examples — network
//! extensions on the packet path. It is deliberately small and fully
//! deterministic:
//!
//! * [`packet`] — Ethernet/IPv4/TCP/UDP parsing + serialization with
//!   RFC 1071 checksums; strict, total, panic-free.
//! * [`hook`] — XDP verdict codes ([`hook::XdpAction`]) and per-action
//!   RX counters.
//! * [`conntrack`] — a fixed-capacity flow table with a SYN/EST/FIN
//!   state machine and LRU eviction, plus a timestamp-free flow log
//!   whose fingerprint is the cross-framework determinism contract.
//! * [`traffic`] — a seeded generator of realistic mixes (elephant and
//!   mouse flows, SYN floods, malformed frames).
//!
//! A [`NetStack`] instance hangs off every [`crate::Kernel`] so that both
//! extension frameworks (eBPF helpers and safe-ext methods) observe the
//! same conntrack table and RX counters.

pub mod conntrack;
pub mod hook;
pub mod packet;
pub mod traffic;

use conntrack::Conntrack;
use hook::RxStats;

/// Default conntrack capacity for a freshly booted kernel. Large enough
/// that the canonical benchmark scenarios never hit eviction pressure
/// (eviction changes which flows are tracked, which would make verdicts
/// depend on cross-flow arrival order and break shard-count invariance);
/// eviction behaviour itself is exercised by dedicated unit tests.
pub const DEFAULT_CONNTRACK_CAPACITY: usize = 4096;

/// Per-kernel network state shared by both extension frameworks.
#[derive(Debug)]
pub struct NetStack {
    /// The connection-tracking table.
    pub conntrack: Conntrack,
    /// RX hook verdict counters.
    pub rx: RxStats,
}

impl Default for NetStack {
    fn default() -> Self {
        NetStack {
            conntrack: Conntrack::new(DEFAULT_CONNTRACK_CAPACITY),
            rx: RxStats::default(),
        }
    }
}
