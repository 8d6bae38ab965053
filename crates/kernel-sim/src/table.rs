//! An ordered table for keys that only grow.
//!
//! Region bases (`next_base`) and skb ids (`next_skb`) are handed out in
//! ascending order, so appending keeps the table sorted and a lookup is
//! a binary search. A removal leaves a tombstone instead of shifting the
//! tail; dead slots at the end are popped, and the table sweeps itself
//! once more than half of its slots are dead. Per-run map/unmap churn
//! therefore never rebalances a tree, and every operation stays
//! amortised O(log n) however many entries are live.

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

    /// The value stored under exactly `key`.
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        let i = self.keys.binary_search(&key).ok()?;
        self.slots[i].as_ref()
    }

    /// The entry with the greatest key `<= key`, or `None` when that
    /// slot is a tombstone or no such key exists.
    pub(crate) fn floor(&self, key: u64) -> Option<&V> {
        let i = self.keys.partition_point(|&k| k <= key).checked_sub(1)?;
        self.slots[i].as_ref()
    }

    /// Mutable [`Self::floor`].
    pub(crate) fn floor_mut(&mut self, key: u64) -> Option<&mut V> {
        let i = self.keys.partition_point(|&k| k <= key).checked_sub(1)?;
        self.slots[i].as_mut()
    }

    /// Removes and returns the value under `key`.
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.keys.binary_search(&key).ok()?;
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
