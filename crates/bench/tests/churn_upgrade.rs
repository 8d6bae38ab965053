//! Property tests for hot upgrade under traffic: across randomized churn
//! schedules and shard counts, every packet is served by exactly the
//! version the RCU-drained swap sequence says it should see — packets
//! admitted before a swap complete on the old version, packets after it
//! see the new one — and the canonical churn log is byte-identical at
//! 1/2/4/8 shards.

use std::collections::HashMap;

use proptest::prelude::*;

use bench::churn::{ChurnConfig, CONTROL};
use bench::engine;
use bench::fleet::Fleet;
use bench::Lane;
use tenancy::TenantId;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn cfg(seed: u64, tenants: u32, packets: u64, control_every: u64, shards: usize) -> ChurnConfig {
    ChurnConfig {
        fleet: Fleet {
            shards,
            seed,
            tenants,
            items: packets,
            control_every,
            storm_armed: false,
            storm_victims: 0,
        },
    }
}

/// Replays the churn schedule against the canonical log: the verdict of
/// every packet must be `ok:<v>` where `v` is the version the swap
/// sequence (upgrades bump, reloads reset to 1) has installed for that
/// tenant at that global index.
fn assert_versions_partition(log: &str, tenants: u32) {
    let mut version: HashMap<TenantId, u32> = (0..tenants).map(|t| (t, 1)).collect();
    let mut packets_seen = 0u64;
    for line in log.lines() {
        let parts: Vec<&str> = line.split('|').collect();
        let idx: u64 = parts[0].parse().unwrap();
        let tenant: TenantId = parts[2].parse().unwrap();
        match parts[1] {
            "E" => {
                // Event lines order before the same-index packet, so the
                // version flips strictly between the two.
                match parts[3] {
                    "upgrade" => *version.get_mut(&tenant).unwrap() += 1,
                    "reload" => *version.get_mut(&tenant).unwrap() = 1,
                    other => panic!("unknown event kind {other} at idx {idx}"),
                }
                assert_eq!(
                    parts[4],
                    format!("v{}", version[&tenant]),
                    "event outcome disagrees with replay at idx {idx}"
                );
            }
            "P" => {
                packets_seen += 1;
                assert_eq!(
                    parts[3],
                    format!("ok:{}", version[&tenant]),
                    "tenant {tenant} packet at idx {idx} served by the wrong version"
                );
            }
            other => panic!("unknown record class {other}"),
        }
    }
    assert!(packets_seen > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The RCU-drain observational contract, for both dialects: with a
    /// randomized schedule of hot upgrades and unload/reloads interleaved
    /// into the packet stream, each packet's serving version partitions
    /// exactly at the swap points — at every shard count — and the
    /// canonical log never depends on the shard count.
    #[test]
    fn upgrades_partition_packets_by_version(
        seed in 0u64..1_000_000,
        tenants in 4u32..24,
        control_every in 3u64..15,
        ebpf in any::<bool>(),
    ) {
        let lane = if ebpf { Lane::Ebpf } else { Lane::SafeExt };
        let packets = 192u64;
        let mut logs = Vec::new();
        for shards in SHARD_COUNTS {
            let c = cfg(seed, tenants, packets, control_every, shards);
            let report = engine::run(&c, lane).unwrap();
            prop_assert_eq!(report.stats.ok, packets, "quiet run: every packet serves");
            logs.push(report.canonical_log);
        }
        for log in &logs[1..] {
            prop_assert_eq!(&logs[0], log, "canonical log diverged across shard counts");
        }
        // The schedule is non-trivial for these parameter ranges.
        let c = cfg(seed, tenants, packets, control_every, 1);
        prop_assert!(c.fleet.schedule(CONTROL).next().is_some());
        assert_versions_partition(&logs[0], tenants);
    }
}

/// Deterministic anchor: a hand-checked tiny schedule, upgrade then
/// reload for one tenant, verified line by line against the replay.
#[test]
fn version_replay_matches_on_a_fixed_schedule() {
    for lane in [Lane::Ebpf, Lane::SafeExt] {
        let c = cfg(7, 3, 60, 5, 2);
        let schedule: Vec<_> = c.fleet.schedule(CONTROL).collect();
        assert!(schedule.iter().any(|e| !e.reload));
        assert!(schedule.iter().any(|e| e.reload));
        let report = engine::run(&c, lane).unwrap();
        assert_eq!(
            report.stats.upgrades + report.stats.reloads,
            schedule.len() as u64
        );
        assert_versions_partition(&report.canonical_log, 3);
    }
}
