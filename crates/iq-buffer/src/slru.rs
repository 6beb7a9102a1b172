//! Segmented LRU (SLRU) with admission control.
//!
//! Two [`LruCache`] lists: a **probationary** segment that every insert
//! enters, and a **protected** segment that entries are promoted into on
//! re-reference. Victims are taken from the probationary LRU end first, so
//! a burst of once-touched pages — the signature of a large table scan —
//! cycles through probation and is evicted without ever displacing the
//! re-referenced working set held in the protected segment.
//!
//! This is the scan-resistance mechanism the paper's §5 cache hierarchy
//! relies on: the RAM buffer cache and the SSD-resident OCM sit in front of
//! a per-request-billed object store, and a single analytic scan must not
//! flush the point-read working set back onto that slow, priced tier.
//!
//! Admission refines the 2Q idea: loads issued by a scan are tagged
//! [`Admission::Scan`] and get one *grace* hit — the first re-reference
//! (typically the scan's own demand read following its prefetch) refreshes
//! probationary recency instead of promoting. Only a second, independent
//! re-reference earns protection. Demand (point-read) loads promote on
//! their first re-hit.
//!
//! A `protected_capacity` of 0 disables promotion entirely, collapsing the
//! structure to a plain LRU — the ablation baseline used by
//! `repro --cache`.

use crate::lru::LruCache;
use std::hash::Hash;

/// How an entry entered the cache; controls promotion eagerness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Point-read / demand load: promote to protected on first re-hit.
    Demand,
    /// Scan-issued load: first re-hit only refreshes probationary recency
    /// (grace hit); promotion requires a second re-reference.
    Scan,
}

struct Slot<V> {
    value: V,
    weight: usize,
    /// One free probationary hit left before promotion is allowed.
    grace: bool,
}

/// Segmented LRU over two [`LruCache`] lists with weighted entries.
pub struct SlruCache<K, V> {
    probationary: LruCache<K, Slot<V>>,
    protected: LruCache<K, Slot<V>>,
    /// Weight budget for the protected segment; 0 means plain LRU.
    protected_capacity: usize,
    protected_weight: usize,
    promotions: u64,
    demotions: u64,
}

impl<K: Eq + Hash + Clone, V> SlruCache<K, V> {
    /// Empty cache whose protected segment holds at most
    /// `protected_capacity` total weight (0 ⇒ plain LRU, no promotion).
    pub fn new(protected_capacity: usize) -> Self {
        Self {
            probationary: LruCache::new(),
            protected: LruCache::new(),
            protected_capacity,
            protected_weight: 0,
            promotions: 0,
            demotions: 0,
        }
    }

    /// Total entries across both segments.
    pub fn len(&self) -> usize {
        self.probationary.len() + self.protected.len()
    }

    /// True if both segments are empty.
    pub fn is_empty(&self) -> bool {
        self.probationary.is_empty() && self.protected.is_empty()
    }

    /// True if `key` currently sits in the protected segment.
    pub fn is_protected(&self, key: &K) -> bool {
        self.protected.peek(key).is_some()
    }

    /// Promotion/demotion counts since the last call, then reset. The
    /// caller (buffer shard) drains these into its atomic stats while it
    /// still holds the shard lock.
    pub fn take_tier_moves(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.promotions),
            std::mem::take(&mut self.demotions),
        )
    }

    /// Insert or replace. New keys enter the probationary segment at MRU;
    /// a key already resident is updated in place — a protected entry stays
    /// protected, a probationary entry keeps its promotion progress — with
    /// recency refreshed. Returns the previous value if present.
    pub fn insert(&mut self, key: K, value: V, weight: usize, admit: Admission) -> Option<V> {
        if self.protected.peek(&key).is_some() {
            let slot = self.protected.get_mut(&key).expect("peeked");
            let old_weight = slot.weight;
            slot.weight = weight;
            let old = std::mem::replace(&mut slot.value, value);
            self.protected_weight = self.protected_weight - old_weight + weight;
            self.rebalance();
            return Some(old);
        }
        // A probationary re-insert must not reset promotion progress: an
        // entry that already earned (Demand admission) or burned (spent
        // grace hit) its promote-on-next-hit state keeps it even when the
        // new admission is scan-tagged — e.g. an OCM CachePopulate racing
        // a point read. Grace is granted only to brand-new scan entries,
        // or re-asserted while the old entry was still in grace itself.
        let grace = self
            .probationary
            .peek(&key)
            .map_or(admit == Admission::Scan, |s| {
                s.grace && admit == Admission::Scan
            });
        self.probationary
            .insert(
                key,
                Slot {
                    value,
                    weight,
                    grace,
                },
            )
            .map(|s| s.value)
    }

    /// Look up and apply SLRU promotion rules (see module docs).
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.touch(key);
        self.protected
            .peek(key)
            .or_else(|| self.probationary.peek(key))
            .map(|s| &s.value)
    }

    /// Mutable lookup with the same promotion rules as [`SlruCache::get`].
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.touch(key);
        if self.protected.peek(key).is_some() {
            return self.protected.peek_mut(key).map(|s| &mut s.value);
        }
        self.probationary.peek_mut(key).map(|s| &mut s.value)
    }

    /// Recency/promotion bookkeeping for a hit on `key`.
    fn touch(&mut self, key: &K) {
        if self.protected.get(key).is_some() {
            return; // refreshed protected recency
        }
        let Some(slot) = self.probationary.peek_mut(key) else {
            return;
        };
        if slot.grace {
            // Scan grace hit: burn the flag, refresh probationary recency.
            slot.grace = false;
            self.probationary.get(key);
            return;
        }
        if self.protected_capacity == 0 {
            // Plain-LRU mode: hits only refresh recency.
            self.probationary.get(key);
            return;
        }
        let slot = self.probationary.remove(key).expect("peeked");
        self.protected_weight += slot.weight;
        self.protected.insert(key.clone(), slot);
        self.promotions += 1;
        self.rebalance();
    }

    /// Demote protected LRU entries back to probationary MRU until the
    /// protected segment fits its weight budget. A sole oversized entry is
    /// left in place (demoting it would just bounce it back on next hit).
    fn rebalance(&mut self) {
        while self.protected_weight > self.protected_capacity && self.protected.len() > 1 {
            let (k, slot) = self.protected.pop_lru().expect("len > 1");
            self.protected_weight -= slot.weight;
            self.probationary.insert(k, slot);
            self.demotions += 1;
        }
    }

    /// Look up without touching recency or promotion state.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.protected
            .peek(key)
            .or_else(|| self.probationary.peek(key))
            .map(|s| &s.value)
    }

    /// Mutable lookup without touching recency or promotion state.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        if self.protected.peek(key).is_some() {
            return self.protected.peek_mut(key).map(|s| &mut s.value);
        }
        self.probationary.peek_mut(key).map(|s| &mut s.value)
    }

    /// Remove an entry from whichever segment holds it.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if let Some(slot) = self.protected.remove(key) {
            self.protected_weight -= slot.weight;
            return Some(slot.value);
        }
        self.probationary.remove(key).map(|s| s.value)
    }

    /// Evict the best victim: probationary LRU first, protected LRU only
    /// once probation is empty.
    pub fn pop_victim(&mut self) -> Option<(K, V)> {
        self.pop_victim_excluding(None)
    }

    /// Like [`SlruCache::pop_victim`] but never returns `exclude`. The
    /// caller uses this to protect a just-inserted key; since an insert
    /// lands at probationary MRU, the excluded key can only be the
    /// probationary LRU when it is the sole probationary entry, in which
    /// case the victim search falls through to the protected segment.
    pub fn pop_victim_excluding(&mut self, exclude: Option<&K>) -> Option<(K, V)> {
        if let Some(k) = self.probationary.peek_lru() {
            if exclude != Some(k) {
                let (k, slot) = self.probationary.pop_lru().expect("peeked");
                return Some((k, slot.value));
            }
        }
        if let Some(k) = self.protected.peek_lru() {
            if exclude != Some(k) {
                let (k, slot) = self.protected.pop_lru().expect("peeked");
                self.protected_weight -= slot.weight;
                return Some((k, slot.value));
            }
        }
        None
    }

    /// Iterate all entries, protected segment first, each in MRU→LRU order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.protected
            .iter()
            .chain(self.probationary.iter())
            .map(|(k, s)| (k, &s.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_land_probationary_and_promote_on_rehit() {
        let mut c = SlruCache::new(10);
        c.insert(1, "a", 1, Admission::Demand);
        assert!(!c.is_protected(&1));
        assert_eq!(c.get(&1), Some(&"a"));
        assert!(c.is_protected(&1));
        assert_eq!(c.take_tier_moves(), (1, 0));
    }

    #[test]
    fn scan_admission_needs_two_hits_to_promote() {
        let mut c = SlruCache::new(10);
        c.insert(1, "a", 1, Admission::Scan);
        assert_eq!(c.get(&1), Some(&"a")); // grace hit
        assert!(!c.is_protected(&1));
        assert_eq!(c.get(&1), Some(&"a")); // real re-reference
        assert!(c.is_protected(&1));
    }

    #[test]
    fn victims_come_from_probation_first() {
        let mut c = SlruCache::new(10);
        c.insert(1, "hot", 1, Admission::Demand);
        c.get(&1); // promote
        c.insert(2, "cold-old", 1, Admission::Scan);
        c.insert(3, "cold-new", 1, Admission::Scan);
        assert_eq!(c.pop_victim(), Some((2, "cold-old")));
        assert_eq!(c.pop_victim(), Some((3, "cold-new")));
        // Only once probation is drained does the hot entry go.
        assert_eq!(c.pop_victim(), Some((1, "hot")));
        assert_eq!(c.pop_victim(), None);
    }

    #[test]
    fn protected_overflow_demotes_lru_back_to_probation() {
        let mut c = SlruCache::new(2);
        for k in 0..3 {
            c.insert(k, k * 10, 1, Admission::Demand);
            c.get(&k); // promote each
        }
        // Protected holds weight 2; key 0 was demoted.
        assert!(!c.is_protected(&0));
        assert!(c.is_protected(&1));
        assert!(c.is_protected(&2));
        let (promos, demos) = c.take_tier_moves();
        assert_eq!((promos, demos), (3, 1));
        // Demoted entry is now the preferred victim.
        assert_eq!(c.pop_victim(), Some((0, 0)));
    }

    #[test]
    fn zero_protected_capacity_behaves_like_plain_lru() {
        let mut c = SlruCache::new(0);
        c.insert(1, "a", 1, Admission::Demand);
        c.insert(2, "b", 1, Admission::Demand);
        c.get(&1); // would promote under SLRU; here only refreshes recency
        assert!(!c.is_protected(&1));
        assert_eq!(c.pop_victim(), Some((2, "b")));
        assert_eq!(c.pop_victim(), Some((1, "a")));
        assert_eq!(c.take_tier_moves(), (0, 0));
    }

    #[test]
    fn exclusion_skips_sole_probationary_entry() {
        let mut c = SlruCache::new(10);
        c.insert(1, "hot", 1, Admission::Demand);
        c.get(&1); // promote → probation now empty
        c.insert(2, "just-inserted", 1, Admission::Demand);
        // Victim search must skip key 2 and fall through to protected.
        assert_eq!(c.pop_victim_excluding(Some(&2)), Some((1, "hot")));
        // With nothing else left, exclusion yields no victim at all.
        assert_eq!(c.pop_victim_excluding(Some(&2)), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn insert_replaces_in_place_preserving_segment() {
        let mut c = SlruCache::new(10);
        c.insert(1, "a", 1, Admission::Demand);
        c.get(&1); // protected
        assert_eq!(c.insert(1, "b", 2, Admission::Scan), Some("a"));
        assert!(c.is_protected(&1));
        assert_eq!(c.peek(&1), Some(&"b"));
    }

    #[test]
    fn probationary_reinsert_keeps_promotion_progress() {
        let mut c = SlruCache::new(10);
        // Demand-admitted entry: a scan-tagged re-insert (a prefetch
        // racing the point read) must not grant it a grace hit.
        c.insert(1, "a", 1, Admission::Demand);
        assert_eq!(c.insert(1, "b", 1, Admission::Scan), Some("a"));
        c.get(&1);
        assert!(c.is_protected(&1), "scan re-insert reset demand entry");
        // Scan entry whose grace hit was already spent: re-insert must not
        // restore the grace and delay promotion again.
        c.insert(2, "a", 1, Admission::Scan);
        c.get(&2); // grace hit spent
        c.insert(2, "b", 1, Admission::Scan);
        c.get(&2);
        assert!(c.is_protected(&2), "scan re-insert restored spent grace");
        // Scan entry still in grace: a scan re-insert keeps the grace, so
        // promotion still takes two hits.
        c.insert(3, "a", 1, Admission::Scan);
        c.insert(3, "b", 1, Admission::Scan);
        c.get(&3);
        assert!(!c.is_protected(&3));
        c.get(&3);
        assert!(c.is_protected(&3));
        // A demand re-insert over a grace entry upgrades it: first hit
        // promotes.
        c.insert(4, "a", 1, Admission::Scan);
        c.insert(4, "b", 1, Admission::Demand);
        c.get(&4);
        assert!(c.is_protected(&4));
    }

    #[test]
    fn remove_tracks_protected_weight() {
        let mut c = SlruCache::new(4);
        c.insert(1, "a", 3, Admission::Demand);
        c.get(&1); // protected_weight = 3
        c.insert(2, "b", 3, Admission::Demand);
        c.get(&2); // would overflow: 1 demoted
        assert!(!c.is_protected(&1));
        c.remove(&2);
        // Re-promoting 1 must fit again (weight bookkeeping correct).
        c.get(&1);
        assert!(c.is_protected(&1));
    }
}
