//! The quarantine breaker against a reference model: random sequences of
//! admissions, kills, clean runs, resets and queries over three keys give
//! the same answers through breakers resolved by key on every call,
//! through breakers resolved once, and from a string-keyed map of breaker
//! states; and a breaker is calm (admission and a clean run skip its lock)
//! exactly when the model says the key is admitted with no kill since its
//! last clean run.

use std::collections::HashMap;

use proptest::prelude::*;

use tenancy::Quarantine;

const KEYS: [&str; 3] = ["a/main", "b/main", "a/probe"];

/// The breaker as a `HashMap<String, QuarantineState>` behind one lock,
/// as `Quarantine` kept it before keys were interned into breakers.
struct Model {
    threshold: u32,
    cooldown: u32,
    state: HashMap<String, ModelState>,
}

#[derive(Debug, Default, Clone, Copy)]
struct ModelState {
    consecutive_kills: u32,
    total_kills: u64,
    quarantined: bool,
    cooldown_progress: u32,
    probing: bool,
}

impl Model {
    fn new(threshold: u32, cooldown: u32) -> Self {
        Model {
            threshold: threshold.max(1),
            cooldown: cooldown.max(1),
            state: HashMap::new(),
        }
    }

    fn is_quarantined(&self, name: &str) -> bool {
        self.state.get(name).map(|s| s.quarantined).unwrap_or(false)
    }

    fn try_admit(&mut self, name: &str) -> bool {
        let Some(entry) = self.state.get_mut(name) else {
            return true;
        };
        if !entry.quarantined {
            return true;
        }
        if entry.probing {
            return false;
        }
        if entry.cooldown_progress >= self.cooldown {
            entry.cooldown_progress = 0;
            entry.probing = true;
            true
        } else {
            entry.cooldown_progress += 1;
            false
        }
    }

    fn note_kill(&mut self, name: &str) -> bool {
        let entry = self.state.entry(name.to_string()).or_default();
        entry.consecutive_kills += 1;
        entry.total_kills += 1;
        if entry.probing {
            entry.probing = false;
            entry.cooldown_progress = 0;
            return true;
        }
        if !entry.quarantined && entry.consecutive_kills >= self.threshold {
            entry.quarantined = true;
            true
        } else {
            false
        }
    }

    fn note_clean(&mut self, name: &str) {
        if let Some(entry) = self.state.get_mut(name) {
            entry.consecutive_kills = 0;
            if entry.probing {
                entry.probing = false;
                entry.quarantined = false;
                entry.cooldown_progress = 0;
            }
        }
    }

    fn reset(&mut self, name: &str) -> bool {
        match self.state.get_mut(name) {
            Some(entry) => {
                let was = entry.quarantined;
                entry.quarantined = false;
                entry.consecutive_kills = 0;
                entry.cooldown_progress = 0;
                entry.probing = false;
                was
            }
            None => false,
        }
    }

    fn total_kills(&self, name: &str) -> u64 {
        self.state.get(name).map(|s| s.total_kills).unwrap_or(0)
    }

    /// Admission and a clean run change nothing for this key.
    fn calm(&self, name: &str) -> bool {
        self.state
            .get(name)
            .is_none_or(|s| !s.quarantined && s.consecutive_kills == 0)
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Admit(usize),
    Kill(usize),
    Clean(usize),
    Reset(usize),
    IsQuarantined(usize),
    TotalKills(usize),
}

/// What one operation returned, in a comparable form.
#[derive(Debug, PartialEq, Eq)]
enum Answer {
    Flag(bool),
    Count(u64),
    Unit,
}

fn op() -> impl Strategy<Value = Op> {
    let key = 0..KEYS.len();
    prop_oneof![
        key.clone().prop_map(Op::Admit),
        key.clone().prop_map(Op::Kill),
        key.clone().prop_map(Op::Clean),
        key.clone().prop_map(Op::Reset),
        key.clone().prop_map(Op::IsQuarantined),
        key.prop_map(Op::TotalKills),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn breakers_match_the_string_keyed_model(
        threshold in 1u32..=4,
        cooldown in 1u32..=4,
        ops in prop::collection::vec(op(), 1..80),
    ) {
        let mut model = Model::new(threshold, cooldown);
        // `by_name` resolves a key on every call; `resolved` holds breakers.
        let by_name = Quarantine::new(threshold, cooldown);
        let named = |k: usize| by_name.breaker(KEYS[k]);
        let resolved = Quarantine::new(threshold, cooldown);
        let breakers: Vec<_> = KEYS.iter().map(|k| resolved.breaker(k)).collect();

        for (step, op) in ops.into_iter().enumerate() {
            let (want, got_name, got_breaker) = match op {
                Op::Admit(k) => (
                    Answer::Flag(model.try_admit(KEYS[k])),
                    Answer::Flag(by_name.admit(&named(k))),
                    Answer::Flag(resolved.admit(&breakers[k])),
                ),
                Op::Kill(k) => (
                    Answer::Flag(model.note_kill(KEYS[k])),
                    Answer::Flag(by_name.record_kill(&named(k))),
                    Answer::Flag(resolved.record_kill(&breakers[k])),
                ),
                Op::Clean(k) => {
                    model.note_clean(KEYS[k]);
                    by_name.record_clean(&named(k));
                    resolved.record_clean(&breakers[k]);
                    (Answer::Unit, Answer::Unit, Answer::Unit)
                }
                Op::Reset(k) => (
                    Answer::Flag(model.reset(KEYS[k])),
                    Answer::Flag(named(k).reset()),
                    Answer::Flag(breakers[k].reset()),
                ),
                Op::IsQuarantined(k) => (
                    Answer::Flag(model.is_quarantined(KEYS[k])),
                    Answer::Flag(named(k).is_quarantined()),
                    Answer::Flag(breakers[k].is_quarantined()),
                ),
                Op::TotalKills(k) => (
                    Answer::Count(model.total_kills(KEYS[k])),
                    Answer::Count(named(k).total_kills()),
                    Answer::Count(breakers[k].total_kills()),
                ),
            };
            prop_assert_eq!(&got_name, &want, "step {} {:?}: resolved per call", step, op);
            prop_assert_eq!(&got_breaker, &want, "step {} {:?}: resolved breaker", step, op);

            for (k, key) in KEYS.iter().enumerate() {
                let calm = model.calm(key);
                prop_assert_eq!(named(k).is_calm(), calm, "step {} key {}", step, key);
                prop_assert_eq!(breakers[k].is_calm(), calm, "step {} key {}", step, key);
                prop_assert_eq!(breakers[k].is_quarantined(), model.is_quarantined(key));
                prop_assert_eq!(resolved.breaker(key).total_kills(), model.total_kills(key));
            }
        }
    }
}

/// A kill below the threshold leaves the key admitted but not calm, so
/// the next clean run takes the lock and clears the count: two kills
/// split by a clean run never trip a threshold of two.
#[test]
fn a_kill_below_the_threshold_ends_calm_until_a_clean_run() {
    let q = Quarantine::new(2, 8);
    let b = q.breaker("t/main");
    assert!(b.is_calm());
    assert!(!q.record_kill(&b));
    assert!(!b.is_calm());
    assert!(q.admit(&b));
    q.record_clean(&b);
    assert!(b.is_calm());
    assert!(!q.record_kill(&b));
    assert!(!b.is_quarantined());
    assert!(q.record_kill(&b));
    assert!(b.is_quarantined());
    assert!(!q.admit(&b));
    assert!(q.breaker("t/main").reset());
    assert!(b.is_calm());
}
