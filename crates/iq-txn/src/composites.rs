//! The composite registry: per-object live-member refcounts for packed
//! flushes.
//!
//! A composite object holds several sealed page images (see
//! `DatabaseConfig::pack_pages`). Individual pages die at different times
//! — superseded by later writers, dropped with their table — but the
//! never-write-twice store only supports whole-object deletion, so the GC
//! must not delete a composite until *every* member is dead. The registry
//! is that bookkeeping: each composite's member layout is registered at
//! commit, member frees arriving through the RF bitmaps flip per-member
//! death bits, and each GC pass takes the fully dead composites
//! ([`CompositeRegistry::take_fully_dead`]) into its debt. A checkpoint carries the whole registry
//! ([`CompositeRegistry::image`]); reopen restores it and registers the
//! composites committed after the checkpoint.
//!
//! Sparse composites — mostly dead but pinned by a few survivors — are
//! what the LSM-style compaction pass targets:
//! [`CompositeRegistry::compaction_candidates`] hands out composites whose
//! live fraction dropped below a threshold, the driver repacks the
//! survivors through the ordinary (never-write-twice) flush path, and the
//! old object becomes fully dead and reclaimable.

use std::collections::BTreeMap;

use iq_common::ObjectKey;
use parking_lot::Mutex;

use crate::rfrb::PackMember;

/// One composite's member layout and death bits — what the registry
/// tracks, and what a checkpoint carries of it.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeImage {
    /// The members, in layout order.
    pub(crate) members: Vec<PackMember>,
    /// Per member: whether it is dead (as long as `members`).
    pub(crate) dead: Vec<bool>,
}

impl CompositeImage {
    fn dead_count(&self) -> usize {
        self.dead.iter().filter(|d| **d).count()
    }

    fn live_fraction(&self) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        1.0 - self.dead_count() as f64 / self.members.len() as f64
    }

    fn fully_dead(&self) -> bool {
        self.dead.iter().all(|d| *d)
    }

    /// Mark the member at byte `offset` dead. `None` when no member sits
    /// there; otherwise whether it was live until now.
    pub(crate) fn kill(&mut self, offset: u32) -> Option<bool> {
        let i = self.members.iter().position(|m| m.offset == offset)?;
        Some(!std::mem::replace(&mut self.dead[i], true))
    }
}

/// One registered composite.
#[derive(Debug, Clone)]
struct CompositeInfo {
    layout: CompositeImage,
    /// Claimed by an in-flight compaction; GC leaves it alone until the
    /// driver either finishes (members die) or releases it (failure).
    compacting: bool,
}

/// Aggregate counters the `pack.*` metrics source exports.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompositeStats {
    /// Composites ever registered.
    pub registered: u64,
    /// Member deaths recorded.
    pub member_deaths: u64,
    /// Composites handed to the GC as fully dead.
    pub reclaimed: u64,
    /// Member frees naming a key the registry does not know. Should stay
    /// zero; a nonzero count means a composite leaked past recovery.
    pub unknown_member_frees: u64,
    /// Registrations rejected for having an empty member slice. Should
    /// stay zero; a nonzero count means a writer tried to register a
    /// composite with no members (see [`CompositeRegistry::register`]).
    pub rejected_empty: u64,
    /// Sum of live fractions observed when compaction claimed a composite
    /// (divide by `compaction_claims` for the mean the metrics export).
    pub live_fraction_sum_at_claim: f64,
    /// Compaction claims handed out.
    pub compaction_claims: u64,
}

/// Registry of live composite objects. Internally synchronized; shared by
/// the commit path, the GC tick and the compaction driver.
#[derive(Debug, Default)]
pub struct CompositeRegistry {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Keyed by composite-key offset; `BTreeMap` so every scan
    /// (candidates, fully-dead sweep) is deterministic.
    composites: BTreeMap<u64, CompositeInfo>,
    stats: CompositeStats,
}

impl CompositeRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a composite's member layout. Idempotent: a reopen replays
    /// commit records whose composites the checkpoint may already hold.
    ///
    /// An empty member slice is rejected (counted in
    /// [`CompositeStats::rejected_empty`]): a member-less composite would
    /// be *vacuously* fully dead — every death bit in an empty vector is
    /// trivially set — so the very next GC tick would delete a
    /// just-written object out from under its writer.
    ///
    /// # Keying
    ///
    /// The registry is database-global and keyed by the composite's
    /// object-key *offset* alone — no dbspace id. That is sound because
    /// every cloud dbspace draws keys from the single Object Key
    /// Generator, whose offsets are allocated monotonically and never
    /// reused (§3.2's never-write-twice invariant): two dbspaces can
    /// never hold composites with the same offset. Member byte offsets
    /// within one composite are likewise unique — each member occupies a
    /// disjoint range — which [`Self::mark_member_dead`]'s
    /// position-by-offset lookup relies on; a debug assertion pins both
    /// properties here.
    pub fn register(&self, key: ObjectKey, members: &[PackMember]) {
        let mut g = self.inner.lock();
        if members.is_empty() {
            g.stats.rejected_empty += 1;
            return;
        }
        if g.composites.contains_key(&key.offset()) {
            return;
        }
        debug_assert!(
            {
                let mut offs: Vec<u32> = members.iter().map(|m| m.offset).collect();
                offs.sort_unstable();
                offs.windows(2).all(|w| w[0] != w[1])
            },
            "composite {key:?} registered with duplicate member byte offsets"
        );
        g.composites.insert(
            key.offset(),
            CompositeInfo {
                layout: CompositeImage {
                    members: members.to_vec(),
                    dead: vec![false; members.len()],
                },
                compacting: false,
            },
        );
        g.stats.registered += 1;
    }

    /// Every registered composite with its death bits, for a checkpoint.
    /// Compaction claims are volatile and left out.
    pub fn image(&self) -> BTreeMap<u64, CompositeImage> {
        self.inner
            .lock()
            .composites
            .iter()
            .map(|(&off, info)| (off, info.layout.clone()))
            .collect()
    }

    /// Start from a checkpoint's image (reopen): every composite it lists
    /// is registered again with its death bits.
    pub fn restore(&self, image: BTreeMap<u64, CompositeImage>) {
        let mut g = self.inner.lock();
        for (off, layout) in image {
            // An empty layout would be vacuously dead (see `register`).
            if !layout.members.is_empty() {
                g.composites.insert(
                    off,
                    CompositeInfo {
                        layout,
                        compacting: false,
                    },
                );
            }
        }
    }

    /// Record the death of the member at byte `offset` of composite
    /// `key_offset`. Idempotent per member; a free naming an unknown key
    /// is counted but otherwise ignored. Checkpoints carry the registry
    /// and reopen restores it, so the count stays zero: a nonzero one
    /// means an object the GC can no longer reclaim.
    ///
    /// `key_offset` alone identifies the composite across every dbspace,
    /// and `offset` alone identifies the member within it — see the
    /// keying note on [`Self::register`] for why both lookups are
    /// collision-free.
    pub fn mark_member_dead(&self, key_offset: u64, offset: u32) {
        let mut g = self.inner.lock();
        match g
            .composites
            .get_mut(&key_offset)
            .and_then(|info| info.layout.kill(offset))
        {
            Some(true) => g.stats.member_deaths += 1,
            Some(false) => {}
            None => g.stats.unknown_member_frees += 1,
        }
    }

    /// Remove and return every composite whose members are all dead and
    /// which no compaction currently holds, in key order: they are handed
    /// to the GC, whose debt owes their deletes from then on.
    pub fn take_fully_dead(&self) -> Vec<ObjectKey> {
        let mut g = self.inner.lock();
        let mut dead = Vec::new();
        g.composites.retain(|&off, info| {
            let taken = !info.compacting && info.layout.fully_dead();
            if taken {
                dead.push(ObjectKey::from_offset(off));
            }
            !taken
        });
        g.stats.reclaimed += dead.len() as u64;
        dead
    }

    /// Claim up to `limit` compaction candidates: composites with at
    /// least one dead member whose live fraction is ≤ `threshold` but
    /// nonzero (fully dead ones belong to the GC). Claimed composites
    /// are flagged so the GC and other compaction rounds skip them; the
    /// driver must either finish (the members die) or
    /// [`Self::release_claims`] on failure. Returns each candidate's
    /// still-live members in deterministic key order.
    pub fn compaction_candidates(
        &self,
        threshold: f64,
        limit: usize,
    ) -> Vec<(ObjectKey, Vec<PackMember>)> {
        let mut g = self.inner.lock();
        let mut out = Vec::new();
        let mut claims = Vec::new();
        for (&off, info) in g.composites.iter() {
            if out.len() >= limit {
                break;
            }
            let frac = info.layout.live_fraction();
            if info.compacting || frac <= 0.0 || frac > threshold {
                continue;
            }
            let live: Vec<PackMember> = info
                .layout
                .members
                .iter()
                .zip(&info.layout.dead)
                .filter(|(_, dead)| !**dead)
                .map(|(m, _)| *m)
                .collect();
            claims.push((off, frac));
            out.push((ObjectKey::from_offset(off), live));
        }
        for (off, frac) in claims {
            g.composites
                .get_mut(&off)
                .expect("claimed key present")
                .compacting = true;
            g.stats.live_fraction_sum_at_claim += frac;
            g.stats.compaction_claims += 1;
        }
        out
    }

    /// Release compaction claims after a failed round so the composites
    /// become visible to the GC and future rounds again.
    pub fn release_claims(&self, keys: &[ObjectKey]) {
        let mut g = self.inner.lock();
        for key in keys {
            if let Some(info) = g.composites.get_mut(&key.offset()) {
                info.compacting = false;
            }
        }
    }

    /// Composites currently tracked.
    pub fn len(&self) -> usize {
        self.inner.lock().composites.len()
    }

    /// Whether the registry tracks nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live fraction of one composite (tests/metrics); `None` if unknown.
    pub fn live_fraction(&self, key: ObjectKey) -> Option<f64> {
        self.inner
            .lock()
            .composites
            .get(&key.offset())
            .map(|info| info.layout.live_fraction())
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CompositeStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_batch, LogBatch};
    use crate::log::{Checkpoint, LogRecord};

    fn member(page: u64, offset: u32) -> PackMember {
        PackMember {
            table: 1,
            page,
            offset,
            len: 512,
        }
    }

    fn key(off: u64) -> ObjectKey {
        ObjectKey::from_offset(off)
    }

    #[test]
    fn composite_reclaimed_only_when_all_members_dead() {
        let reg = CompositeRegistry::new();
        reg.register(key(5), &[member(1, 0), member(2, 512), member(3, 1024)]);
        assert_eq!(reg.len(), 1);
        reg.mark_member_dead(5, 0);
        reg.mark_member_dead(5, 512);
        assert!(reg.take_fully_dead().is_empty(), "one member still live");
        assert_eq!(reg.len(), 1);
        reg.mark_member_dead(5, 1024);
        assert_eq!(reg.take_fully_dead(), vec![key(5)]);
        // Handed over once: the GC owes the delete from here on.
        assert!(reg.is_empty());
        assert!(reg.take_fully_dead().is_empty());
        assert_eq!(reg.stats().reclaimed, 1);
    }

    #[test]
    fn registration_and_death_are_idempotent() {
        let reg = CompositeRegistry::new();
        let members = [member(1, 0), member(2, 512)];
        reg.register(key(9), &members);
        reg.register(key(9), &members); // recovery replay
        assert_eq!(reg.stats().registered, 1);
        reg.mark_member_dead(9, 0);
        reg.mark_member_dead(9, 0);
        assert_eq!(reg.stats().member_deaths, 1);
        // Unknown key / unknown offset: counted, never fatal.
        reg.mark_member_dead(404, 0);
        reg.mark_member_dead(9, 9999);
        assert_eq!(reg.stats().unknown_member_frees, 2);
    }

    #[test]
    fn compaction_claims_sparse_composites_and_hides_them_from_gc() {
        let reg = CompositeRegistry::new();
        // 4 members, 3 dead → live fraction 0.25.
        reg.register(
            key(1),
            &[
                member(1, 0),
                member(2, 512),
                member(3, 1024),
                member(4, 1536),
            ],
        );
        for off in [0u32, 512, 1024] {
            reg.mark_member_dead(1, off);
        }
        // 2 members, none dead → fraction 1.0, not a candidate.
        reg.register(key(2), &[member(5, 0), member(6, 512)]);
        let cands = reg.compaction_candidates(0.5, 8);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].0, key(1));
        assert_eq!(cands[0].1, vec![member(4, 1536)]);
        // Claimed: a second round skips it, and even once fully dead the
        // GC leaves it alone until the claim resolves.
        assert!(reg.compaction_candidates(0.5, 8).is_empty());
        reg.mark_member_dead(1, 1536);
        assert!(reg.take_fully_dead().is_empty());
        reg.release_claims(&[key(1)]);
        assert_eq!(reg.take_fully_dead(), vec![key(1)]);
        let stats = reg.stats();
        assert_eq!(stats.compaction_claims, 1);
        assert!((stats.live_fraction_sum_at_claim - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_member_slice_is_rejected_not_vacuously_dead() {
        let reg = CompositeRegistry::new();
        // Regression: an empty composite used to register with an empty
        // death vector, making it "fully dead" by vacuity — the next GC
        // tick would then delete the just-written object.
        reg.register(key(7), &[]);
        assert!(reg.is_empty(), "empty layout must not register");
        assert!(reg.take_fully_dead().is_empty());
        assert_eq!(reg.stats().rejected_empty, 1);
        assert_eq!(reg.stats().registered, 0);
        // A later, well-formed registration under the same key works.
        reg.register(key(7), &[member(1, 0)]);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.stats().registered, 1);
    }

    #[test]
    fn key_offsets_distinguish_composites_across_spaces() {
        // The registry carries no dbspace id: the single Object Key
        // Generator hands out monotone, never-reused offsets, so
        // composites born on different dbspaces always have distinct
        // key offsets. Deaths routed by (key_offset, member offset)
        // therefore never cross-talk even when member layouts collide.
        let reg = CompositeRegistry::new();
        let layout = [member(1, 0), member(2, 512)];
        reg.register(key(100), &layout); // "dbspace 1"
        reg.register(key(200), &layout); // "dbspace 2", same byte layout
        reg.mark_member_dead(100, 0);
        reg.mark_member_dead(100, 512);
        assert_eq!(reg.take_fully_dead(), vec![key(100)]);
        assert_eq!(
            reg.live_fraction(key(200)),
            Some(1.0),
            "deaths on one composite must not leak onto the other"
        );
        assert_eq!(reg.stats().unknown_member_frees, 0);
    }

    /// A checkpoint's image of the registry round-trips: layouts, death
    /// bits (a mask spanning two words here), and no compaction claim.
    #[test]
    fn image_round_trips_death_bits_but_not_claims() {
        let reg = CompositeRegistry::new();
        let wide: Vec<PackMember> = (0..70).map(|i| member(i, i as u32 * 512)).collect();
        reg.register(key(1), &wide);
        reg.mark_member_dead(1, 0);
        reg.mark_member_dead(1, 65 * 512);
        reg.register(key(2), &[member(1, 0)]);
        assert_eq!(reg.compaction_candidates(0.99, 8).len(), 1, "claims key 1");
        let image = reg.image();
        let record = LogRecord::Checkpoint(Checkpoint {
            composites: image.clone(),
            ..Checkpoint::default()
        });
        let bytes = LogBatch::of(&record).into_bytes();
        let Some(LogRecord::Checkpoint(cp)) = decode_batch(&bytes).unwrap().pop() else {
            panic!("a checkpoint")
        };
        let back = cp.composites;
        assert_eq!(back, image);
        let restored = CompositeRegistry::new();
        restored.restore(back);
        assert_eq!(restored.live_fraction(key(1)), Some(1.0 - 2.0 / 70.0));
        assert_eq!(restored.live_fraction(key(2)), Some(1.0));
        assert_eq!(
            restored.compaction_candidates(0.99, 8).len(),
            1,
            "unclaimed"
        );
    }

    #[test]
    fn fully_dead_composites_are_not_compaction_candidates() {
        let reg = CompositeRegistry::new();
        reg.register(key(3), &[member(1, 0)]);
        reg.mark_member_dead(3, 0);
        assert!(reg.compaction_candidates(1.0, 8).is_empty());
        assert_eq!(reg.take_fully_dead(), vec![key(3)]);
    }
}
