//! An ordered table for keys that only grow.
//!
//! Region bases (`next_base`) and skb ids (`next_skb`) are handed out in
//! ascending order, so appending keeps the table sorted. A lookup
//! compares the newest few keys first and binary-searches the rest only
//! when they all lie above the key: a run's own regions and skb are the
//! newest entries while it executes, so they cost O(1) however many
//! older entries (map values, other tenants' state) are live. A removal
//! leaves a tombstone instead of shifting the tail; dead slots at the
//! end are popped, and the table sweeps itself once more than half of
//! its slots are dead. Per-run map/unmap churn therefore never
//! rebalances a tree, and every operation stays amortised O(log n).

/// How many of the newest keys a lookup compares before it falls back
/// to the binary search: what a run maps before its body starts (ctx,
/// skb payload and stack frame, or a sandbox domain and the payload)
/// plus one bpf2bpf frame.
const NEWEST: usize = 4;

/// Keys in ascending order, each with its value or a tombstone.
#[derive(Debug)]
pub(crate) struct AppendTable<V> {
    keys: Vec<u64>,
    slots: Vec<Option<V>>,
    /// Tombstones in `slots`. After any removal,
    /// `slots.len() <= 2 * (slots.len() - dead) + 1`.
    dead: usize,
}

impl<V> Default for AppendTable<V> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            slots: Vec::new(),
            dead: 0,
        }
    }
}

impl<V> AppendTable<V> {
    /// Appends `value` under `key`, which must exceed every key pushed
    /// before: an out-of-order key would make lookups return the wrong
    /// entry, so it panics in every build.
    pub(crate) fn push(&mut self, key: u64, value: V) {
        assert!(
            self.keys.last().is_none_or(|&last| key > last),
            "AppendTable keys must ascend: {key:#x} after {:#x?}",
            self.keys.last()
        );
        self.keys.push(key);
        self.slots.push(Some(value));
    }

    /// Index of the greatest key `<= key`: the newest [`NEWEST`] keys
    /// newest first, then a binary search below them.
    fn floor_index(&self, key: u64) -> Option<usize> {
        let old = self.keys.len().saturating_sub(NEWEST);
        match self.keys[old..].iter().rposition(|&k| k <= key) {
            Some(i) => Some(old + i),
            None => self.keys[..old]
                .partition_point(|&k| k <= key)
                .checked_sub(1),
        }
    }

    /// Index of exactly `key`.
    fn index_of(&self, key: u64) -> Option<usize> {
        self.floor_index(key).filter(|&i| self.keys[i] == key)
    }

    /// The value stored under exactly `key`.
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        self.slots[self.index_of(key)?].as_ref()
    }

    /// The entry with the greatest key `<= key`, or `None` when that
    /// slot is a tombstone or no such key exists.
    pub(crate) fn floor(&self, key: u64) -> Option<&V> {
        self.slots[self.floor_index(key)?].as_ref()
    }

    /// Mutable [`Self::floor`].
    pub(crate) fn floor_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.floor_index(key)?;
        self.slots[i].as_mut()
    }

    /// Removes and returns the value under `key`.
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.index_of(key)?;
        let value = self.slots[i].take()?;
        self.dead += 1;
        while let Some(None) = self.slots.last() {
            self.slots.pop();
            self.keys.pop();
            self.dead -= 1;
        }
        if self.dead * 2 > self.slots.len() {
            let mut live = self.slots.iter().map(Option::is_some);
            self.keys.retain(|_| live.next() == Some(true));
            self.slots.retain(Option::is_some);
            self.dead = 0;
        }
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(keys: &[u64]) -> AppendTable<u64> {
        let mut t = AppendTable::default();
        for &k in keys {
            t.push(k, k * 10);
        }
        t
    }

    #[test]
    fn tail_removal_pops_and_middle_removal_leaves_a_tombstone() {
        let mut t = table(&[1, 2, 3, 4]);
        assert_eq!(t.remove(4), Some(40));
        assert_eq!((t.slots.len(), t.dead), (3, 0));
        assert_eq!(t.remove(2), Some(20));
        assert_eq!((t.slots.len(), t.dead), (3, 1));
        assert_eq!(t.get(2), None);
        assert_eq!(t.get(3), Some(&30));
        // Removing the new tail pops the tombstone behind it too.
        assert_eq!(t.remove(3), Some(30));
        assert_eq!((t.slots.len(), t.dead), (1, 0));
        assert_eq!(t.keys, [1]);
    }

    #[test]
    fn slots_stay_within_twice_the_live_count() {
        let mut t = AppendTable::default();
        let mut live = std::collections::BTreeSet::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for key in 1..=10_000u64 {
            t.push(key, key);
            live.insert(key);
            // xorshift: remove an arbitrary live key about 3 pushes in 4.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if !rng.is_multiple_of(4) {
                let victim = *live.range(rng % key + 1..).next().or(live.last()).unwrap();
                live.remove(&victim);
                assert_eq!(t.remove(victim), Some(victim));
                assert!(t.slots.len() <= 2 * live.len() + 1);
                assert_eq!(t.slots.len() - t.dead, live.len());
            }
        }
        assert!(live.iter().all(|&k| t.get(k) == Some(&k)));
    }

    #[test]
    fn floor_on_a_tombstone_is_none() {
        let mut t = table(&[10, 20, 30]);
        assert_eq!(t.floor(9), None);
        assert_eq!(t.floor(25), Some(&200));
        t.remove(20);
        assert_eq!(t.floor(20), None);
        assert_eq!(t.floor(25), None);
        assert_eq!(t.floor(15), Some(&100));
        *t.floor_mut(35).unwrap() += 1;
        assert_eq!(t.get(30), Some(&301));
    }

    #[test]
    fn newest_first_search_agrees_with_binary_search() {
        fn check(t: &AppendTable<u64>) {
            let mut probes = vec![0, u64::MAX];
            for &k in &t.keys {
                probes.extend([k - 1, k, k + 1]);
            }
            for q in probes {
                let floor = t.keys.partition_point(|&k| k <= q).checked_sub(1);
                assert_eq!(
                    t.floor(q),
                    floor.and_then(|i| t.slots[i].as_ref()),
                    "floor({q})"
                );
                let exact = t.keys.binary_search(&q).ok();
                assert_eq!(
                    t.get(q),
                    exact.and_then(|i| t.slots[i].as_ref()),
                    "get({q})"
                );
            }
        }
        let mut t = AppendTable::default();
        let (mut next, mut tail_pops, mut sweeps) = (1u64, 0, 0);
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..3000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let n = t.keys.len();
            if n < 2 || (n < 64 && rng.is_multiple_of(2)) {
                t.push(next, next * 10);
                // Gaps between keys, so `key ± 1` probes fall between them.
                next += 1 + rng % 3;
            } else {
                // One of the 4 newest positions, or one in the middle; a
                // tombstone there removes nothing.
                let pos = match (rng >> 8) % 5 {
                    4 => n / 2,
                    back => n - 1 - (back as usize).min(n - 1),
                };
                let (key, expected) = (t.keys[pos], t.slots[pos]);
                assert_eq!(t.remove(key), expected);
                if t.keys.len() < n {
                    // The tail slot is never a tombstone, so only a
                    // removal at the tail pops; anywhere else it sweeps.
                    if pos == n - 1 {
                        tail_pops += 1;
                    } else {
                        sweeps += 1;
                    }
                }
            }
            check(&t);
        }
        assert!(
            tail_pops > 0 && sweeps > 0,
            "{tail_pops} pops, {sweeps} sweeps"
        );
    }

    #[test]
    fn second_removal_is_none() {
        let mut t = table(&[1, 2, 3]);
        assert_eq!(t.remove(2), Some(20));
        assert_eq!(t.remove(2), None);
        assert_eq!(t.remove(7), None);
    }

    #[test]
    #[should_panic(expected = "keys must ascend")]
    fn non_ascending_push_panics() {
        let mut t = table(&[5]);
        t.push(5, 0);
    }
}
