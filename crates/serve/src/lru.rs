//! A small LRU cache for specializations.
//!
//! The debug service sees the same parameter vectors over and over —
//! engineers toggle between a handful of signal selections — so the
//! server keeps the most recent specializations (their packed tunable
//! words) keyed by parameter vector and serves repeats without
//! re-evaluating any BDDs.
//!
//! Capacities are small (tens of entries), so recency is tracked with a
//! monotonic tick per entry and eviction scans for the minimum: O(n)
//! eviction, zero auxiliary structures, no unsafe linked lists.

use pfdbg_util::FxHashMap;
use std::hash::Hash;

/// A least-recently-used map with a fixed capacity.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, (u64, V)>,
    capacity: usize,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        LruCache { map: FxHashMap::default(), capacity: capacity.max(1), tick: 0 }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// No entries?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let (t, v) = self.map.get_mut(key)?;
        *t = self.tick;
        Some(v)
    }

    /// Insert `key -> value`, evicting the least recently used entry if
    /// the cache is full.
    pub fn put(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh a
        c.put("c", 3); // evicts b
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.put("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut c = LruCache::new(0);
        c.put(1, "x");
        assert_eq!(c.len(), 1);
        c.put(2, "y");
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&2), Some(&"y"));
    }
}
