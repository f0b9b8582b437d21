//! The LRU solution cache and its canonical key.
//!
//! The paper's schedules are pure functions of the platform spec and the
//! solver options (Algorithm 2 recomputes everything from `Platform`), so a
//! solve result can be reused for any byte-identical query. The key is an
//! FNV-1a hash over the canonical serialization of `(platform, solver kind,
//! options)` — canonical meaning object keys sorted at every level, so two
//! clients spelling the same platform with different member order share an
//! entry. The request deadline is excluded from the key: only successful
//! solves are cached, and a success is the same solution under any deadline.
//!
//! Two properties fixed in PR 8:
//!
//! * **Collision safety.** A 64-bit hash is not an identity: the cache used
//!   to index on the bare hash, so two requests colliding on it would
//!   silently trade solutions. [`CacheKey`] now carries the canonical
//!   preimage alongside the hash, and [`LruCache::get`] verifies it on
//!   every hit — a collision degrades to a miss (and the later insert
//!   overwrites the slot), never to a wrong answer.
//! * **Cheap hits.** Entries are stored as `Arc<CachedSolve>`; a hit clones
//!   the `Arc`, not the value, so hit cost no longer scales with
//!   `schedule_text` size.

use crate::proto::{canonical_json, options_to_json, SolveRequest};
use mosc_core::{Platform, SolveOptions, SolveReport, SolverKind, SolverStats};
use std::collections::HashMap;
use std::sync::Arc;

/// 64-bit FNV-1a over raw bytes.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A canonical cache key: the 64-bit FNV-1a hash used for indexing (and
/// for the access log's `key` field), plus the preimage it was derived
/// from so hits can be verified instead of trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// FNV-1a hash of [`preimage`](Self::preimage).
    pub hash: u64,
    /// The canonical `platform \0 kind \0 options` serialization.
    pub preimage: String,
}

/// The cache key of a solve request: platform + solver kind + options, with
/// the deadline masked out (see the module docs).
#[must_use]
pub fn cache_key(req: &SolveRequest) -> CacheKey {
    cache_key_parts(&canonical_json(&req.platform), req.kind, &req.options)
}

/// [`cache_key`] from pre-serialized parts: the batch path canonicalizes
/// the shared platform once and derives every variant's key from it.
#[must_use]
pub fn cache_key_parts(
    canonical_platform: &str,
    kind: SolverKind,
    options: &SolveOptions,
) -> CacheKey {
    let keyed_options = SolveOptions { deadline: None, ..*options };
    let mut preimage = String::with_capacity(canonical_platform.len() + 64);
    preimage.push_str(canonical_platform);
    preimage.push('\0');
    preimage.push_str(kind.id());
    preimage.push('\0');
    preimage.push_str(&options_to_json(&keyed_options));
    CacheKey { hash: fnv1a(preimage.as_bytes()), preimage }
}

/// A cached solve outcome: everything needed to render an `ok` response for
/// any later request (including `want_schedule`, which is why the schedule
/// text is always kept).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSolve {
    /// Which solver produced the result.
    pub solver: SolverKind,
    /// Chip-wide throughput per eq. (5).
    pub throughput: f64,
    /// Stable-status peak temperature in °C.
    pub peak_c: f64,
    /// Whether the peak respects `T_max`.
    pub feasible: bool,
    /// Oscillation factor used.
    pub m: usize,
    /// Wall time of the original (uncached) solve, in milliseconds.
    pub wall_ms: f64,
    /// Cross-solver search statistics of the original solve.
    pub stats: SolverStats,
    /// The schedule in `mosc-sched::text` form.
    pub schedule_text: String,
}

impl CachedSolve {
    /// The cacheable summary of one fresh solve by `solver` on `platform`.
    pub(crate) fn of_report(solver: SolverKind, report: &SolveReport, platform: &Platform) -> Self {
        Self {
            solver,
            throughput: report.solution.throughput,
            peak_c: report.solution.peak_c(platform),
            feasible: report.solution.feasible,
            m: report.solution.m,
            wall_ms: report.wall.as_secs_f64() * 1e3,
            stats: report.stats,
            schedule_text: mosc_sched::text::to_text(&report.solution.schedule),
        }
    }
}

/// A fixed-capacity least-recently-used cache. Lookups and inserts are
/// `O(1)`; eviction scans for the oldest stamp, which is `O(capacity)` —
/// fine at service cache sizes (hundreds), and it keeps the structure a
/// plain `HashMap` instead of a hand-rolled intrusive list.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<u64, (u64, String, Arc<CachedSolve>)>,
}

impl LruCache {
    /// An empty cache holding at most `capacity` entries (0 disables
    /// caching entirely).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { capacity, clock: 0, entries: HashMap::new() }
    }

    /// Looks up `key`, refreshing its recency on a verified hit. The stored
    /// preimage must match the key's — a hash collision answers `None`
    /// (solve it again) instead of someone else's solution.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<CachedSolve>> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(&key.hash) {
            Some((stamp, preimage, v)) if *preimage == key.preimage => {
                *stamp = clock;
                Some(Arc::clone(v))
            }
            _ => None,
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used entry
    /// when at capacity. A colliding resident entry (same hash, different
    /// preimage) is overwritten — latest writer wins, and [`get`](Self::get)
    /// verification keeps either outcome correct. Returns `true` when a
    /// capacity eviction happened.
    pub fn insert(&mut self, key: &CacheKey, value: CachedSolve) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.clock += 1;
        let mut evicted = false;
        if !self.entries.contains_key(&key.hash) && self.entries.len() >= self.capacity {
            if let Some(&oldest) =
                self.entries.iter().min_by_key(|(_, (stamp, _, _))| *stamp).map(|(k, _)| k)
            {
                self.entries.remove(&oldest);
                evicted = true;
            }
        }
        self.entries.insert(key.hash, (self.clock, key.preimage.clone(), Arc::new(value)));
        evicted
    }

    /// Current entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosc_analyze::json::Value;

    fn dummy(throughput: f64) -> CachedSolve {
        CachedSolve {
            solver: SolverKind::Ao,
            throughput,
            peak_c: 50.0,
            feasible: true,
            m: 1,
            wall_ms: 1.0,
            stats: SolverStats::default(),
            schedule_text: String::new(),
        }
    }

    /// A key whose hash is forced to `hash` regardless of the preimage —
    /// the collision regression tests depend on constructing two distinct
    /// preimages that index the same slot.
    fn forced(hash: u64, preimage: &str) -> CacheKey {
        CacheKey { hash, preimage: preimage.to_owned() }
    }

    fn key(n: u64) -> CacheKey {
        forced(n, &format!("preimage-{n}"))
    }

    #[test]
    fn lru_evicts_the_oldest_untouched_entry() {
        let mut c = LruCache::new(2);
        assert!(!c.insert(&key(1), dummy(1.0)));
        assert!(!c.insert(&key(2), dummy(2.0)));
        // Touch 1, so 2 is now the LRU entry.
        assert!(c.get(&key(1)).is_some());
        assert!(c.insert(&key(3), dummy(3.0)));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(2)).is_none(), "LRU entry should have been evicted");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        assert!(!c.insert(&key(1), dummy(1.0)));
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn reinserting_a_key_does_not_evict() {
        let mut c = LruCache::new(1);
        assert!(!c.insert(&key(7), dummy(1.0)));
        assert!(!c.insert(&key(7), dummy(2.0)), "refresh is not an eviction");
        assert!((c.get(&key(7)).unwrap().throughput - 2.0).abs() < 1e-12);
    }

    #[test]
    fn colliding_keys_never_alias() {
        // Regression: two entries forced onto the same 64-bit slot. Before
        // the preimage check, the second request would have been answered
        // with the first request's solution.
        let mut c = LruCache::new(4);
        let a = forced(0xdead_beef, "platform-a\0ao\0{}");
        let b = forced(0xdead_beef, "platform-b\0ao\0{}");
        assert!(!c.insert(&a, dummy(1.0)));
        assert!(c.get(&b).is_none(), "collision must miss, not serve a's solution");
        let hit = c.get(&a).expect("a still resolves");
        assert!((hit.throughput - 1.0).abs() < 1e-12);
        // The colliding insert overwrites the slot; verification now
        // protects a instead.
        assert!(!c.insert(&b, dummy(2.0)));
        assert!(c.get(&a).is_none());
        assert!((c.get(&b).unwrap().throughput - 2.0).abs() < 1e-12);
    }

    #[test]
    fn hits_share_one_allocation() {
        // The Arc rework: repeated hits must hand out the same allocation,
        // not clones of the value.
        let mut c = LruCache::new(2);
        c.insert(&key(5), dummy(5.0));
        let first = c.get(&key(5)).unwrap();
        let second = c.get(&key(5)).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hits must share the cached allocation");
    }

    #[test]
    fn cache_key_is_member_order_independent_but_value_sensitive() {
        let mk = |platform: &str| SolveRequest {
            id: "x".into(),
            kind: SolverKind::Ao,
            platform: Value::parse(platform).unwrap(),
            options: SolveOptions::default(),
            want_schedule: false,
            trace: None,
        };
        let a = mk(r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#);
        let b = mk(r#"{"t_max_c":55.0,"levels":[0.6,1.3],"cols":2,"rows":1}"#);
        assert_eq!(cache_key(&a), cache_key(&b), "member order must not matter");
        let c = mk(r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":56.0}"#);
        assert_ne!(cache_key(&a).hash, cache_key(&c).hash, "values must matter");
        // The solver kind and options are part of the key; the deadline and
        // the id are not.
        let mut d = a.clone();
        d.kind = SolverKind::Lns;
        assert_ne!(cache_key(&a).hash, cache_key(&d).hash);
        let mut e = a.clone();
        e.options.threads = 7;
        assert_ne!(cache_key(&a).hash, cache_key(&e).hash);
        let mut f = a.clone();
        f.id = "other".into();
        f.options.deadline = Some(std::time::Duration::from_secs(1));
        assert_eq!(cache_key(&a), cache_key(&f));
    }

    #[test]
    fn cache_key_parts_matches_cache_key() {
        let req = SolveRequest {
            id: "x".into(),
            kind: SolverKind::Pco,
            platform: Value::parse(r#"{"rows":1,"cols":2,"levels":[0.6,1.3],"t_max_c":55.0}"#)
                .unwrap(),
            options: SolveOptions::default(),
            want_schedule: false,
            trace: None,
        };
        let direct = cache_key(&req);
        let parts = cache_key_parts(&canonical_json(&req.platform), req.kind, &req.options);
        assert_eq!(direct, parts);
    }
}
