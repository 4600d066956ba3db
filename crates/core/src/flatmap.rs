//! A small open-addressed map from dense integer keys to values, tuned for
//! the simulator's hot paths.
//!
//! Its users are sparse, id-keyed side tables: the pipeline's loads waiting
//! on the timed memory backend (`mem_waiters`, keyed by request token) and
//! exceptions already delivered (`handled_exceptions`, keyed by stream
//! position), the hierarchy's prefetch-filled lines (`prefetched_lines`)
//! and the stride prefetcher's in-flight requests. Their keys are mostly
//! monotonically increasing integers from a window-sized band. A `std`
//! `HashMap` pays SipHash on every touch and a `BTreeMap` pays a pointer
//! walk plus node churn; this map is a flat power-of-two table with
//! fibonacci hashing, linear probing and backward-shift deletion, so the
//! steady state is one multiply and (almost always) one probe per
//! operation, with zero allocation after warm-up. Structures that can hand
//! out a handle instead (the instruction queues' slot handles) index
//! directly and need no map.

/// An open-addressed `usize → V` map with linear probing.
///
/// Keys may be any `usize` except `usize::MAX` (the internal empty
/// sentinel, which no stream position or token reaches in practice).
#[derive(Debug, Clone)]
pub struct FlatMap<V> {
    /// Slot keys; `EMPTY` marks a vacant slot.
    keys: Vec<usize>,
    vals: Vec<Option<V>>,
    mask: usize,
    len: usize,
}

const EMPTY: usize = usize::MAX;

/// Multiplicative (fibonacci) hashing: spreads monotonic keys across the
/// table while keeping nearby keys in distinct slots.
#[inline]
fn hash(key: usize, mask: usize) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & mask
}

impl<V> Default for FlatMap<V> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<V> FlatMap<V> {
    /// Creates a map that can hold roughly `capacity` entries before its
    /// first growth.
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity * 2).next_power_of_two().max(16);
        FlatMap {
            keys: vec![EMPTY; slots],
            vals: (0..slots).map(|_| None).collect(),
            mask: slots - 1,
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot_of(&self, key: usize) -> Option<usize> {
        let mut i = hash(key, self.mask);
        loop {
            match self.keys[i] {
                EMPTY => return None,
                k if k == key => return Some(i),
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// The value for `key`, if present.
    #[inline]
    pub fn get(&self, key: usize) -> Option<&V> {
        self.slot_of(key).and_then(|i| self.vals[i].as_ref())
    }

    /// Mutable access to the value for `key`, if present.
    #[inline]
    pub fn get_mut(&mut self, key: usize) -> Option<&mut V> {
        let i = self.slot_of(key)?;
        self.vals[i].as_mut()
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: usize) -> bool {
        self.slot_of(key).is_some()
    }

    /// Inserts `key → val`, returning the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: usize, val: V) -> Option<V> {
        debug_assert_ne!(key, EMPTY, "usize::MAX is reserved");
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mut i = hash(key, self.mask);
        loop {
            match self.keys[i] {
                EMPTY => {
                    self.keys[i] = key;
                    self.vals[i] = Some(val);
                    self.len += 1;
                    return None;
                }
                k if k == key => {
                    return self.vals[i].replace(val);
                }
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Removes and returns the value for `key`.
    ///
    /// Uses backward-shift deletion: the probe chain after the vacated slot
    /// is compacted in place, so lookups never step over tombstones and the
    /// table needs no periodic rehash.
    pub fn remove(&mut self, key: usize) -> Option<V> {
        let mut vacant = self.slot_of(key)?;
        let val = self.vals[vacant].take();
        self.len -= 1;
        let mut j = vacant;
        loop {
            j = (j + 1) & self.mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            // An entry may fill the hole only if its ideal slot is not
            // after the hole in probe order (cyclic distance check).
            let ideal = hash(k, self.mask);
            if (j.wrapping_sub(ideal) & self.mask) >= (j.wrapping_sub(vacant) & self.mask) {
                self.keys[vacant] = k;
                self.vals[vacant] = self.vals[j].take();
                vacant = j;
            }
        }
        self.keys[vacant] = EMPTY;
        val
    }

    /// Iterates over `(key, &value)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &V)> {
        self.keys
            .iter()
            .zip(&self.vals)
            .filter(|(&k, _)| k != EMPTY)
            .map(|(&k, v)| (k, v.as_ref().expect("occupied slot"))) // koc-lint: allow(panic, "non-EMPTY key implies an occupied slot")
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
        for v in &mut self.vals {
            *v = None;
        }
        self.len = 0;
    }

    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_slots]);
        let old_vals = std::mem::replace(
            &mut self.vals,
            (0..new_slots).map(|_| None).collect::<Vec<_>>(),
        );
        self.mask = new_slots - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                let v = v.expect("occupied slot"); // koc-lint: allow(panic, "non-EMPTY key implies an occupied slot")
                self.insert(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut m = FlatMap::with_capacity(4);
        assert!(m.is_empty());
        assert_eq!(m.insert(10, "a"), None);
        assert_eq!(m.insert(11, "b"), None);
        assert_eq!(m.insert(10, "c"), Some("a"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(10), Some(&"c"));
        assert!(m.contains_key(11));
        assert!(!m.contains_key(12));
        assert_eq!(m.remove(10), Some("c"));
        assert_eq!(m.remove(10), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m = FlatMap::with_capacity(4);
        m.insert(5, 1u32);
        *m.get_mut(5).unwrap() += 9;
        assert_eq!(m.get(5), Some(&10));
        assert!(m.get_mut(6).is_none());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = FlatMap::with_capacity(2);
        for k in 0..1000 {
            m.insert(k, k * 3);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000 {
            assert_eq!(m.get(k), Some(&(k * 3)));
        }
    }

    #[test]
    fn matches_a_reference_map_under_churn() {
        // Deterministic pseudo-random workload exercising collision chains
        // and backward-shift deletion.
        let mut m = FlatMap::with_capacity(8);
        let mut reference = std::collections::HashMap::new();
        let mut x = 0x12345678usize;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 512;
            match x % 3 {
                0 => {
                    assert_eq!(m.insert(key, x), reference.insert(key, x));
                }
                1 => {
                    assert_eq!(m.remove(key), reference.remove(&key));
                }
                _ => {
                    assert_eq!(m.get(key), reference.get(&key));
                }
            }
            assert_eq!(m.len(), reference.len());
        }
        let mut got: Vec<_> = m.iter().map(|(k, &v)| (k, v)).collect();
        got.sort_unstable();
        let mut want: Vec<_> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn clear_empties_and_reuses() {
        let mut m = FlatMap::with_capacity(4);
        for k in 0..50 {
            m.insert(k, k);
        }
        m.clear();
        assert!(m.is_empty());
        assert!(m.get(10).is_none());
        m.insert(7, 7);
        assert_eq!(m.get(7), Some(&7));
    }
}
