//! Epoch-validated per-principal write-guard cache.
//!
//! The write guard ([`crate::GuardHandle::check_write`]) runs on every
//! un-elided module store, and module code overwhelmingly issues *runs*
//! of stores into the same few objects (packet payloads, private
//! structs, ring descriptors). The original cache was a single global
//! `(principal, start, end)` entry cleared by **every** revocation in
//! the system — so a driver revoking one of *its* capabilities evicted
//! every other module's hot store path, degrading the next store of each
//! to a full interval-table probe.
//!
//! This module replaces it with a small **set-associative cache per
//! principal** ([`EpochCache`], `WAYS` covering intervals each),
//! validated by a **per-principal epoch counter** owned by the runtime
//! core:
//!
//! - a successful guard probe inserts its covering grant interval,
//!   stamped with the principal's current epoch;
//! - a lookup hits only if the stamped epoch still equals the
//!   principal's current epoch *and* a cached interval covers the write;
//! - revocation bumps the epochs of exactly the principals whose
//!   coverage could have shrunk (the revokee plus its hierarchy
//!   observers, see `RuntimeCore::bump_write_epochs`), which invalidates
//!   their cached intervals wholesale in O(1) without touching anyone
//!   else's.
//!
//! Since the thread-safe refactor, epochs live in the shared
//! [`crate::RuntimeCore`] as atomics while each thread's
//! [`crate::GuardHandle`] owns a private `EpochCache` — so the cache is
//! written lock-free by exactly one thread and validated against the
//! globally visible epoch on every lookup. A revoke on any thread bumps
//! the atomic epoch, and every other thread's stale entries die on
//! their next comparison without any cross-thread eviction traffic.
//!
//! Grants never bump epochs: a cached interval asserts "this principal
//! may write `[start, end)`", and granting *more* authority cannot
//! falsify it. Only revocation can, and only for the principals that
//! could observe the revoked coverage.
//!
//! The cache stores only positive decisions. A denied write is never
//! cached, so a later grant is visible immediately.
//!
//! The associativity is a const parameter so `lxfi-bench`'s ablation
//! can sweep 1/2/4/8 ways over the netperf store pattern; the runtime
//! paths use [`WriteGuardCache`] (= [`DEFAULT_WAYS`]-way), which the
//! ablation table in the README justifies.

use lxfi_machine::Word;

use crate::principal::PrincipalId;

/// Default associativity: covering intervals remembered per principal.
/// Module code rarely interleaves stores into more than a handful of
/// objects between revocations; four ways cover the packet-TX workload
/// with a >99% hit rate while keeping lookup a few compares (see the
/// WAYS ablation in `lxfi-bench`).
pub const DEFAULT_WAYS: usize = 4;

/// Backwards-compatible alias for the pre-parameterized constant.
pub const WAYS: usize = DEFAULT_WAYS;

/// Replacement policy for a full cache set.
///
/// Round-robin is optimal while the rotation fits the ways but falls
/// off a cliff at `objects = ways + 1`: a cyclic stream always evicts
/// the next-needed interval, so the hit rate collapses to ~0 (the WAYS
/// ablation in `lxfi-bench` shows the cliff). The victim-entry scheme
/// is scan-resistant: conflict misses replace only the **most recently
/// inserted** way (the "victim" slot), protecting the resident
/// intervals, so a rotation one-or-two objects too wide still hits on
/// `W-1` of them. To stay adaptive across phase changes (a completely
/// new working set), more than `2W` consecutive conflict misses without
/// a single hit fall back to one round-robin step each, walking the
/// stale residents out — the threshold is above `W` so a rotation up to
/// `~3W` objects wide (hits on the `W-1` residents interleave the miss
/// runs) never trips it. The ablation table justifies the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// Evict ways in insertion order (the pre-redesign behavior).
    RoundRobin,
    /// Scan-resistant victim-entry replacement (the default).
    #[default]
    Victim,
}

/// One cached covering interval `[start, end)`.
#[derive(Debug, Clone, Copy, Default)]
struct WayEntry {
    start: Word,
    end: Word,
}

/// One principal's cache set: up to `W` intervals, all stamped with
/// the epoch they were filled under. A stale epoch invalidates the whole
/// set lazily — no revocation-time walk.
#[derive(Debug, Clone, Copy)]
struct CacheSet<const W: usize> {
    epoch: u64,
    len: u8,
    cursor: u8,
    /// Conflict misses since the set last hit (victim policy's
    /// phase-change detector; saturates).
    misses_since_hit: u8,
    ways: [WayEntry; W],
}

impl<const W: usize> Default for CacheSet<W> {
    fn default() -> Self {
        CacheSet {
            epoch: 0,
            len: 0,
            cursor: 0,
            misses_since_hit: 0,
            ways: [WayEntry::default(); W],
        }
    }
}

/// The write-guard cache: one `CacheSet` per principal, grown lazily
/// as principals first complete a guarded write.
#[derive(Debug)]
pub struct EpochCache<const W: usize> {
    sets: Vec<CacheSet<W>>,
    policy: Replacement,
}

/// The runtime's write-guard cache ([`DEFAULT_WAYS`]-way).
pub type WriteGuardCache = EpochCache<DEFAULT_WAYS>;

impl<const W: usize> Default for EpochCache<W> {
    fn default() -> Self {
        EpochCache {
            sets: Vec::new(),
            policy: Replacement::default(),
        }
    }
}

impl<const W: usize> EpochCache<W> {
    /// Creates an empty cache with the default replacement policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache with an explicit replacement policy (the
    /// WAYS/policy ablation sweeps both).
    pub fn with_policy(policy: Replacement) -> Self {
        EpochCache {
            sets: Vec::new(),
            policy,
        }
    }

    /// The replacement policy in force.
    pub fn policy(&self) -> Replacement {
        self.policy
    }

    /// Switches the replacement policy (ablation hook; takes effect on
    /// subsequent conflict misses).
    pub fn set_policy(&mut self, policy: Replacement) {
        self.policy = policy;
    }

    /// The cache's associativity.
    pub const fn ways() -> usize {
        W
    }

    /// True if a covering interval cached for `p` under the current
    /// `epoch` covers `[addr, end)`. Hits feed the victim policy's
    /// phase-change detector, hence `&mut`.
    #[inline]
    pub fn lookup(&mut self, p: PrincipalId, epoch: u64, addr: Word, end: Word) -> bool {
        let Some(set) = self.sets.get_mut(p.0 as usize) else {
            return false;
        };
        if set.epoch != epoch {
            return false;
        }
        let hit = set.ways[..set.len as usize]
            .iter()
            .any(|w| w.start <= addr && end <= w.end);
        if hit {
            set.misses_since_hit = 0;
        }
        hit
    }

    /// Records `interval` as a covering grant for `p` under `epoch`.
    /// If the set was filled under an older epoch it is reset first
    /// (the lazy half of epoch invalidation). Replacement within an
    /// epoch follows [`Replacement`].
    pub fn insert(&mut self, p: PrincipalId, epoch: u64, interval: (Word, Word)) {
        let i = p.0 as usize;
        if i >= self.sets.len() {
            self.sets.resize_with(i + 1, CacheSet::default);
        }
        let set = &mut self.sets[i];
        if set.epoch != epoch {
            set.len = 0;
            set.cursor = 0;
            set.misses_since_hit = 0;
            set.epoch = epoch;
        }
        let slot = if (set.len as usize) < W {
            // Fill empty ways first under either policy.
            let s = set.len;
            set.cursor = (s + 1) % W as u8;
            s
        } else {
            match self.policy {
                Replacement::RoundRobin => {
                    let s = set.cursor;
                    set.cursor = (s + 1) % W as u8;
                    s
                }
                Replacement::Victim => {
                    set.misses_since_hit = set.misses_since_hit.saturating_add(1);
                    // Clamp below the u8 saturation point so the
                    // fallback stays reachable at any W.
                    if set.misses_since_hit as usize > (2 * W).min(200) {
                        // No hit in over 2W conflict misses: the working
                        // set moved — walk the stale residents out.
                        let s = set.cursor;
                        set.cursor = (s + 1) % W as u8;
                        s
                    } else {
                        // Scan resistance: replace only the victim slot
                        // (the most recently inserted way), keeping the
                        // W-1 resident intervals hot.
                        (W - 1) as u8
                    }
                }
            }
        };
        set.ways[slot as usize] = WayEntry {
            start: interval.0,
            end: interval.1,
        };
        set.len = set.len.max(slot + 1);
    }

    /// Number of principals with an allocated cache set (diagnostics).
    pub fn principal_sets(&self) -> usize {
        self.sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: PrincipalId = PrincipalId(0);
    const P1: PrincipalId = PrincipalId(1);

    #[test]
    fn miss_when_empty_or_unknown_principal() {
        let mut c = WriteGuardCache::new();
        assert!(!c.lookup(P0, 0, 0x1000, 0x1008));
        assert!(!c.lookup(PrincipalId(99), 0, 0x1000, 0x1008));
    }

    #[test]
    fn hit_requires_coverage_and_epoch() {
        let mut c = WriteGuardCache::new();
        c.insert(P0, 3, (0x1000, 0x1100));
        assert!(c.lookup(P0, 3, 0x1000, 0x1008));
        assert!(c.lookup(P0, 3, 0x10f8, 0x1100), "tail bytes covered");
        assert!(!c.lookup(P0, 3, 0x10f8, 0x1101), "past the interval");
        assert!(!c.lookup(P0, 4, 0x1000, 0x1008), "stale epoch misses");
        assert!(!c.lookup(P1, 3, 0x1000, 0x1008), "per-principal isolation");
    }

    #[test]
    fn insert_under_new_epoch_resets_the_set() {
        let mut c = WriteGuardCache::new();
        c.insert(P0, 1, (0x1000, 0x1100));
        c.insert(P0, 1, (0x2000, 0x2100));
        c.insert(P0, 2, (0x3000, 0x3100));
        assert!(!c.lookup(P0, 2, 0x1000, 0x1008), "old ways dropped");
        assert!(!c.lookup(P0, 2, 0x2000, 0x2008));
        assert!(c.lookup(P0, 2, 0x3000, 0x3008));
    }

    #[test]
    fn associative_ways_hold_multiple_objects() {
        let mut c: EpochCache<DEFAULT_WAYS> = EpochCache::with_policy(Replacement::RoundRobin);
        for i in 0..DEFAULT_WAYS as u64 {
            c.insert(P0, 0, (0x1000 * (i + 1), 0x1000 * (i + 1) + 0x100));
        }
        for i in 0..DEFAULT_WAYS as u64 {
            assert!(c.lookup(P0, 0, 0x1000 * (i + 1), 0x1000 * (i + 1) + 8));
        }
        // A fifth insert evicts round-robin (the oldest way).
        c.insert(P0, 0, (0x9000, 0x9100));
        assert!(!c.lookup(P0, 0, 0x1000, 0x1008), "way 0 evicted");
        assert!(c.lookup(P0, 0, 0x9000, 0x9008));
        assert!(c.lookup(P0, 0, 0x2000, 0x2008), "younger ways survive");
    }

    #[test]
    fn victim_policy_protects_residents_from_scans() {
        // Default policy: a conflict miss replaces the victim way only.
        let mut c = WriteGuardCache::new();
        assert_eq!(c.policy(), Replacement::Victim);
        for i in 0..DEFAULT_WAYS as u64 {
            c.insert(P0, 0, (0x1000 * (i + 1), 0x1000 * (i + 1) + 0x100));
        }
        // Touch the residents so the set is "hitting".
        for i in 0..DEFAULT_WAYS as u64 {
            assert!(c.lookup(P0, 0, 0x1000 * (i + 1), 0x1000 * (i + 1) + 8));
        }
        // A scan of fresh objects churns only the victim slot.
        c.insert(P0, 0, (0x9000, 0x9100));
        c.insert(P0, 0, (0xa000, 0xa100));
        assert!(c.lookup(P0, 0, 0x1000, 0x1008), "resident way survives");
        assert!(c.lookup(P0, 0, 0x2000, 0x2008), "resident way survives");
        assert!(c.lookup(P0, 0, 0x3000, 0x3008), "resident way survives");
        assert!(!c.lookup(P0, 0, 0x9000, 0x9008), "victim churned out");
        assert!(c.lookup(P0, 0, 0xa000, 0xa008), "latest insert resident");
    }

    #[test]
    fn victim_policy_adapts_to_a_phase_change() {
        // With no hits at all, consecutive conflict misses eventually
        // fall back to round-robin and walk the stale residents out.
        let mut c = WriteGuardCache::new();
        for i in 0..DEFAULT_WAYS as u64 {
            c.insert(P0, 0, (0x1000 * (i + 1), 0x1000 * (i + 1) + 0x100));
        }
        // New working set, never touching the old one.
        let obj = |i: u64| (0x100_0000 + i * 0x1000, 0x100_0000 + i * 0x1000 + 0x100);
        for round in 0..4u64 {
            for i in 0..DEFAULT_WAYS as u64 {
                let (s, e) = obj(i);
                if !c.lookup(P0, 0, s, s + 8) {
                    c.insert(P0, 0, (s, e));
                }
                let _ = round;
            }
        }
        for i in 0..DEFAULT_WAYS as u64 {
            let (s, _) = obj(i);
            assert!(c.lookup(P0, 0, s, s + 8), "new set resident after churn");
        }
    }

    #[test]
    fn one_way_cache_holds_exactly_one_object() {
        let mut c: EpochCache<1> = EpochCache::new();
        assert_eq!(EpochCache::<1>::ways(), 1);
        c.insert(P0, 0, (0x1000, 0x1100));
        assert!(c.lookup(P0, 0, 0x1000, 0x1008));
        c.insert(P0, 0, (0x2000, 0x2100));
        assert!(!c.lookup(P0, 0, 0x1000, 0x1008), "evicted by the insert");
        assert!(c.lookup(P0, 0, 0x2000, 0x2008));
    }

    #[test]
    fn eight_way_cache_survives_wider_rotation() {
        let mut c: EpochCache<8> = EpochCache::new();
        for i in 0..8u64 {
            c.insert(P0, 0, (0x1000 * (i + 1), 0x1000 * (i + 1) + 0x100));
        }
        for i in 0..8u64 {
            assert!(c.lookup(P0, 0, 0x1000 * (i + 1), 0x1000 * (i + 1) + 8));
        }
    }
}
