//! Sharded LRU cache for rendered solves and compiled artifacts.
//!
//! Keys hash with FNV-1a (not `RandomState`) so shard assignment is
//! stable within and across runs; each shard is an independent
//! `Mutex`, so concurrent workers rarely contend. Eviction is
//! least-recently-used per shard, found by linear scan — shard
//! capacities are tens of entries, where a scan beats maintaining an
//! intrusive list.

use rasengan_obs::Fnv64;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    capacity: usize,
    /// Monotonic use counter; higher = more recently used.
    tick: u64,
}

/// A thread-safe LRU cache split into independently locked shards,
/// with hit/miss/insertion/eviction counters. `capacity == 0`
/// disables the cache (every `get` misses, `insert` is a no-op).
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// A cache holding at most `capacity` entries in total, split over
    /// `shards` locks (clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        capacity: if capacity == 0 { 0 } else { per_shard },
                        tick: 0,
                    })
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut hasher = Fnv64::default();
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// Looks up a key, marking it most-recently-used on a hit. Counts
    /// every call as a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = self.shards[self.shard_index(key)].lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) a key, evicting the shard's least-
    /// recently-used entry if it is full.
    pub fn insert(&self, key: K, value: V) {
        let mut shard = self.shards[self.shard_index(&key)].lock().unwrap();
        if shard.capacity == 0 {
            return;
        }
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.value = value;
            entry.last_used = tick;
            return;
        }
        if shard.map.len() >= shard.capacity {
            let oldest = shard
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .sum()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Successful insertions since construction.
    pub fn insertions(&self) -> u64 {
        self.insertions.load(Ordering::Relaxed)
    }

    /// Evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_hits_and_misses() {
        let cache: ShardedLru<u64, String> = ShardedLru::new(8, 2);
        assert!(cache.get(&1).is_none());
        cache.insert(1, "one".to_string());
        assert_eq!(cache.get(&1).as_deref(), Some("one"));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        // One shard so the eviction order is fully observable.
        let cache: ShardedLru<u64, u64> = ShardedLru::new(2, 1);
        cache.insert(1, 10);
        cache.insert(2, 20);
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(&1).is_some());
        cache.insert(3, 30);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&2).is_none(), "LRU entry should be evicted");
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&3).is_some());
    }

    #[test]
    fn shard_choice_is_pinned() {
        // The shard a key lands in decides which entries share an LRU
        // and so which get evicted: pin it for the key types the server
        // caches (compile fingerprints in 4 shards, result keys in 8).
        let compiles: ShardedLru<u128, ()> = ShardedLru::new(8, 4);
        let fingerprints = [0u128, 1, 0xDEAD_BEEF, u128::MAX / 3];
        let got: Vec<usize> = fingerprints
            .iter()
            .map(|k| compiles.shard_index(k))
            .collect();
        assert_eq!(got, [1, 0, 3, 1]);

        let results: ShardedLru<crate::persist::ResultKey, ()> = ShardedLru::new(8, 8);
        let key = |fingerprint, shots, trace| crate::persist::ResultKey {
            fingerprint,
            seed: 7,
            shots,
            iterations: Some(150),
            retries: 2,
            degrade: true,
            deadline_ms: None,
            trace,
        };
        let keys = [
            key(0x1234, None, false),
            key(0x1234, Some(1024), false),
            key(0x1234, None, true),
            key(u128::MAX, Some(2048), false),
        ];
        let got: Vec<usize> = keys.iter().map(|k| results.shard_index(k)).collect();
        assert_eq!(got, [0, 5, 3, 7]);

        let names: ShardedLru<&str, ()> = ShardedLru::new(8, 8);
        let got: Vec<usize> = ["", "F1", "knapsack.lp"]
            .iter()
            .map(|k| names.shard_index(k))
            .collect();
        assert_eq!(got, [6, 5, 0]);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache: ShardedLru<u64, u64> = ShardedLru::new(0, 4);
        cache.insert(1, 10);
        assert!(cache.get(&1).is_none());
        assert_eq!(cache.insertions(), 0);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache: Arc<ShardedLru<u64, u64>> = Arc::new(ShardedLru::new(64, 4));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..64 {
                        cache.insert(t * 64 + i, i);
                        assert_eq!(cache.get(&(t * 64 + i)), Some(i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.hits(), 4 * 64);
        assert!(cache.len() <= 64);
    }
}
