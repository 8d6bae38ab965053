//! The spinlock table against a model of who holds what: after every
//! acquire, release or forced release, `held_by` reports exactly the
//! model's locks for every owner. `held_by` returns at once while the
//! table's held count reads zero, so a count that drifts to zero while a
//! lock is held fails here.

use std::collections::BTreeSet;

use proptest::prelude::*;

use kernel_sim::inject::{FaultPlan, FaultPlanConfig};
use kernel_sim::locks::{LockError, LockId, OwnerId, PHANTOM_OWNER};
use kernel_sim::Kernel;

const OWNERS: u64 = 3;
const LOCKS: usize = 3;

#[derive(Debug, Clone, Copy)]
enum Step {
    Acquire(OwnerId, usize),
    Release(OwnerId, usize),
    ForceReleaseAll(OwnerId),
}

fn step() -> impl Strategy<Value = Step> {
    let owner = 1..=OWNERS;
    let acquire = (owner.clone(), 0..LOCKS).prop_map(|(o, l)| Step::Acquire(o, l));
    // Acquisitions are listed twice, so held sets build up between the
    // releases that empty them.
    prop_oneof![
        acquire.clone(),
        acquire,
        (owner.clone(), 0..LOCKS).prop_map(|(o, l)| Step::Release(o, l)),
        owner.prop_map(Step::ForceReleaseAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn held_by_matches_the_holder_model(
        seed in any::<u64>(),
        steps in prop::collection::vec(step(), 1..64),
    ) {
        let kernel = Kernel::new();
        let locks: Vec<LockId> = (0..LOCKS).map(|i| kernel.locks.create(&format!("l{i}"))).collect();
        // Free locks report transient contention a quarter of the time.
        kernel.arm_fault_plan(FaultPlan::with_config(
            seed,
            FaultPlanConfig {
                lock_busy_rate: 0.25,
                ..FaultPlanConfig::quiet()
            },
        ));
        let mut holder: [Option<OwnerId>; LOCKS] = [None; LOCKS];

        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Acquire(owner, l) => {
                    let got = kernel.locks.acquire(owner, locks[l]);
                    match holder[l] {
                        Some(h) if h == owner => {
                            prop_assert_eq!(got, Err(LockError::SelfDeadlock(locks[l])));
                        }
                        Some(h) => prop_assert_eq!(got, Err(LockError::Contended(locks[l], h))),
                        None => match got {
                            Ok(()) => holder[l] = Some(owner),
                            Err(e) => {
                                prop_assert_eq!(e, LockError::Contended(locks[l], PHANTOM_OWNER));
                            }
                        },
                    }
                }
                Step::Release(owner, l) => {
                    let got = kernel.locks.release(owner, locks[l]);
                    if holder[l] == Some(owner) {
                        prop_assert_eq!(got, Ok(()));
                        holder[l] = None;
                    } else {
                        prop_assert_eq!(got, Err(LockError::NotHeld(locks[l])));
                    }
                }
                Step::ForceReleaseAll(owner) => {
                    let mut want = Vec::new();
                    for (l, h) in holder.iter_mut().enumerate() {
                        if *h == Some(owner) {
                            *h = None;
                            want.push(locks[l]);
                        }
                    }
                    prop_assert_eq!(kernel.locks.force_release_all(owner), want);
                }
            }
            for owner in 1..=OWNERS + 1 {
                let want: BTreeSet<LockId> = (0..LOCKS)
                    .filter(|&l| holder[l] == Some(owner))
                    .map(|l| locks[l])
                    .collect();
                let got = kernel.locks.held_by(owner);
                prop_assert_eq!(
                    got.iter().copied().collect::<BTreeSet<_>>(),
                    want,
                    "step {} {:?}: owner {}", i, step, owner
                );
                prop_assert!(got.is_sorted(), "held_by is sorted");
            }
        }
    }
}
