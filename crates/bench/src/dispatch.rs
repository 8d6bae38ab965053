//! The proto-count dispatch scenario: a packet filter counting protocol
//! classes in a per-CPU array map, over index-steered shards.
//!
//! Packet `i` goes to [`shard_of`]`(seed, i, shards)`, a pure function,
//! and each shard arms one fault plan seeded by [`shard_fault_seed`].
//! `(lane, seed, shard_count, batch)` therefore fully determines the
//! merged audit stream; with tracing on, each packet is one trace task,
//! so the canonical trace is shard-count-invariant as well. The filter
//! counts in a **per-CPU** map, so the per-CPU map paths
//! (`elem_addr(index, cpu)` with a nonzero cpu) run exactly as on a
//! multi-core kernel and shard counts can be recovered per CPU slot.

use ebpf::maps::MapDef;
use ebpf::program::ProgType;
use kernel_sim::trace::{SpanKind, TraceEvent};
use kernel_sim::{splitmix64, FaultPlan, FaultPlanConfig};
use safe_ext::Extension;

use crate::engine::{self, DispatchError, RunReport, Scenario, Shard, ShardOut};
use crate::{workloads, Lane};

/// Number of protocol classes the dispatch workload tallies (packet byte
/// 0 masked to two bits).
pub const PROTO_CLASSES: usize = 4;

/// Consecutive kills before the safe runtime's breaker quarantines a
/// shard's filter.
const QUARANTINE_THRESHOLD: u32 = 3;

/// Dispatch configuration.
#[derive(Debug, Clone, Default)]
pub struct DispatchConfig {
    /// Number of worker shards (0 means 1); also the simulated CPU count.
    pub shards: usize,
    /// Master seed: drives packet->shard assignment and, when fault
    /// injection is enabled, every shard's fault plan.
    pub seed: u64,
    /// Fault-plan configuration to arm on every shard's kernel, or `None`
    /// to run without injection.
    pub fault: Option<FaultPlanConfig>,
    /// Enable per-CPU span tracing on every shard kernel. Recording
    /// never advances the virtual clock, so the simulated cost of a
    /// traced batch is identical to an untraced one.
    pub trace: bool,
}

/// Per-shard dispatch tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Runs that returned a value (accepted the packet).
    pub accepted: u64,
    /// Runs that aborted or errored.
    pub errors: u64,
    /// Per-protocol counts recovered from the per-CPU map, summed over
    /// CPU slots.
    pub proto_counts: [u64; PROTO_CLASSES],
}

impl engine::Stats for DispatchStats {
    fn merge(&mut self, other: &Self) {
        self.accepted += other.accepted;
        self.errors += other.errors;
        for (a, b) in self.proto_counts.iter_mut().zip(&other.proto_counts) {
            *a += b;
        }
    }
}

/// The shard packet `index` is dispatched to: a pure function of
/// `(seed, index)`, so the assignment replays identically at any thread
/// interleaving.
pub fn shard_of(seed: u64, index: u64, shards: usize) -> usize {
    (splitmix64(seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f)) % shards.max(1) as u64) as usize
}

/// The fault-plan seed for `shard`: derived, not shared, so each shard's
/// decision stream is independent of how many packets other shards see.
pub fn shard_fault_seed(seed: u64, shard: usize) -> u64 {
    splitmix64(seed ^ (shard as u64).wrapping_mul(0xd6e8_feb8_6659_fd93))
}

/// A deterministic batch of `n` packets with varied sizes and protocol
/// bytes (packet `i` is in protocol class `i % 4`).
pub fn make_packets(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let len = 4 + (i % 13);
            let mut pkt = vec![0u8; len];
            pkt[0] = (i % PROTO_CLASSES) as u8;
            for (j, b) in pkt.iter_mut().enumerate().skip(1) {
                *b = (splitmix64(i as u64 ^ (j as u64) << 32) & 0xff) as u8;
            }
            pkt
        })
        .collect()
}

/// The safe-dialect mirror of [`workloads::packet_filter`].
fn filter_ext(counts_fd: u32) -> Extension {
    Extension::new("dispatch-filter", ProgType::SocketFilter, move |ctx| {
        let pkt = ctx.packet()?;
        if pkt.len() < 2 {
            return Ok(0);
        }
        let proto = (pkt.load_u8(0)? & (PROTO_CLASSES as u8 - 1)) as u32;
        // Per-CPU slot: the handle resolves the current (pinned) CPU.
        ctx.percpu_array(counts_fd)?.fetch_add_u64(proto, 0, 1)?;
        Ok(pkt.len() as u64)
    })
}

/// Sums the per-CPU map's slots for each protocol class. The shard only
/// ever ran pinned, so all counts sit in its own CPU slot, but summing
/// every slot asserts nothing leaked into foreign slots.
fn proto_counts(shard: &Shard, fd: u32) -> Result<[u64; PROTO_CLASSES], DispatchError> {
    let mut out = [0u64; PROTO_CLASSES];
    for cpu in 0..shard.kernel.cpus.nr_cpus() {
        let counts: [u64; PROTO_CLASSES] = shard.counters(fd, cpu)?;
        for (total, n) in out.iter_mut().zip(counts) {
            *total += n;
        }
    }
    Ok(out)
}

struct Batch<'a> {
    cfg: &'a DispatchConfig,
    packets: &'a [Vec<u8>],
}

impl<'a> Scenario for Batch<'a> {
    type Item = (u64, &'a [u8]);
    type Stats = DispatchStats;

    fn shards(&self) -> usize {
        self.cfg.shards
    }

    fn items(&self, shards: usize) -> impl Iterator<Item = (usize, Self::Item)> {
        // Payloads are dealt by reference: the per-run copy happens on
        // the worker thread, so dealing the batch copies no packet bytes.
        let seed = self.cfg.seed;
        self.packets
            .iter()
            .enumerate()
            .map(move |(i, pkt)| (shard_of(seed, i as u64, shards), (i as u64, &pkt[..])))
    }

    fn run_shard(
        &self,
        lane: Lane,
        shard: &Shard,
        feed: impl Iterator<Item = Self::Item>,
    ) -> Result<ShardOut<DispatchStats>, DispatchError> {
        let kernel = &shard.kernel;
        let counts_fd = shard
            .maps
            .create(
                kernel,
                MapDef::percpu_array("proto-counts", 8, PROTO_CLASSES as u32),
            )
            .expect("map creation");
        // Arm after setup so injection timelines start at the same point
        // on every shard, as the soak harness does.
        if let Some(fault) = &self.cfg.fault {
            kernel.arm_fault_plan(FaultPlan::with_config(
                shard_fault_seed(self.cfg.seed, shard.id),
                *fault,
            ));
        }
        if self.cfg.trace {
            kernel.enable_tracing();
        }
        let prog = lane.load(
            shard,
            || workloads::packet_filter(counts_fd),
            || filter_ext(counts_fd),
            Some(QUARANTINE_THRESHOLD),
        );
        let mut out = ShardOut::<DispatchStats>::default();
        for (index, payload) in feed {
            kernel.trace.begin_task(index);
            let span = kernel.trace.span(SpanKind::Dispatch, payload.len() as u64);
            let outcome = prog(payload);
            drop(span);
            kernel.trace.end_task();
            match outcome {
                Some(_) => out.stats.accepted += 1,
                None => out.stats.errors += 1,
            }
            // Per-packet trace drain: the batch is never bounded by the
            // trace ring's capacity, as with a per-CPU ringbuf flush.
            if self.cfg.trace {
                drain_trace(shard, &mut out.trace)?;
            }
        }
        out.stats.proto_counts = proto_counts(shard, counts_fd)?;
        drain_trace(shard, &mut out.trace)?;
        let s = &out.stats;
        out.summary = format!(
            "dispatch shard {}: packets={} accepted={} errors={} proto_counts={:?}",
            shard.id,
            s.accepted + s.errors,
            s.accepted,
            s.errors,
            s.proto_counts
        );
        Ok(out)
    }
}

/// Moves the shard tracer's buffered events into `trace`.
///
/// # Errors
///
/// [`DispatchError::TraceOverflow`] when the ring overwrote events since
/// the last drain: span balance is then void, so the shard fails.
fn drain_trace(shard: &Shard, trace: &mut Vec<TraceEvent>) -> Result<(), DispatchError> {
    let tracer = &shard.kernel.trace;
    let dropped = tracer.dropped();
    if dropped != 0 {
        return Err(DispatchError::TraceOverflow {
            shard: shard.id,
            dropped,
        });
    }
    trace.extend(tracer.take());
    Ok(())
}

/// Dispatches `packets` over `cfg.shards` concurrent shards through
/// `lane` and merges the results deterministically.
///
/// # Errors
///
/// A shard panic, a map-recovery failure or a trace ring overflow.
pub fn run_batched(
    lane: Lane,
    cfg: &DispatchConfig,
    packets: &[Vec<u8>],
) -> Result<RunReport<DispatchStats>, DispatchError> {
    engine::run(&Batch { cfg, packets }, lane)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_assignment_is_pure_and_in_range() {
        for idx in 0..1000u64 {
            let a = shard_of(42, idx, 4);
            let b = shard_of(42, idx, 4);
            assert_eq!(a, b);
            assert!(a < 4);
        }
        // Different seeds produce different assignments somewhere.
        assert!((0..1000u64).any(|i| shard_of(1, i, 4) != shard_of(2, i, 4)));
    }

    #[test]
    fn trace_ring_overflow_is_a_typed_error() {
        let shard = Shard::boot(2, 1);
        let tracer = &shard.kernel.trace;
        tracer.enable();
        for arg in 0..=kernel_sim::trace::DEFAULT_RING_CAPACITY as u64 {
            tracer.instant(SpanKind::Fuel, arg);
        }
        let mut trace = Vec::new();
        assert_eq!(
            drain_trace(&shard, &mut trace),
            Err(DispatchError::TraceOverflow {
                shard: 1,
                dropped: 1
            })
        );
        assert!(trace.is_empty(), "an overflowed ring must not be merged");
    }

    #[test]
    fn assignment_spreads_over_shards() {
        let mut seen = [0u64; 8];
        for idx in 0..4096u64 {
            seen[shard_of(7, idx, 8)] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "some shard starved: {seen:?}");
    }
}
