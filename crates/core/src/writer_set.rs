//! Writer-set tracking (§4.1, §5) — the indirect-call fast path.
//!
//! Before the core kernel invokes a function pointer, LXFI must know
//! whether any module principal could have written the pointer slot since
//! it was last zeroed. The common case is "no" (the slot was only ever
//! written by the kernel), and must be cheap.
//!
//! The structure mirrors the paper's: a page-table-like map whose leaves
//! are bitmaps, one bit per 64-byte granule, meaning "some principal has
//! been *granted WRITE* over this granule since it was last zeroed". A
//! clear bit proves the writer set is empty (no false negatives); a set
//! bit sends the check down the slow path, which consults the reverse
//! writer index ([`crate::writer_index`]) for who actually holds WRITE
//! coverage — set bits for granules nobody can write anymore are benign
//! false positives. (The paper's slow path walked the global principal
//! list instead; that traversal is now only a benchmark baseline in
//! `lxfi-bench`.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use lxfi_machine::Word;

const GRANULE_SHIFT: u32 = 6; // 64-byte granules
const PAGE_SHIFT: u32 = 12;
const GRANULES_PER_PAGE: u64 = 1 << (PAGE_SHIFT - GRANULE_SHIFT); // 64
const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// The "maybe written by a module" bitmap.
#[derive(Debug, Default)]
pub struct WriterMap {
    pages: HashMap<u64, u64>,
}

impl WriterMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    fn split(addr: Word) -> (u64, u64) {
        let page = addr >> PAGE_SHIFT;
        let granule = (addr >> GRANULE_SHIFT) & (GRANULES_PER_PAGE - 1);
        (page, granule)
    }

    /// Marks `[addr, addr+len)` as possibly module-written (called on
    /// every WRITE-capability grant). The end saturates at `Word::MAX`
    /// (exclusive), matching the capability tables' overflow discipline;
    /// a mark starting at `Word::MAX` covers nothing. Returns how many
    /// granules flipped from clear to set (the stripes keep a lock-free
    /// marked-granule census from these deltas).
    pub fn mark(&mut self, addr: Word, len: u64) -> u64 {
        let len = len.min(Word::MAX - addr);
        if len == 0 {
            return 0;
        }
        let mut newly_set = 0;
        let mut g = addr >> GRANULE_SHIFT;
        let last = (addr + (len - 1)) >> GRANULE_SHIFT;
        while g <= last {
            let page = g >> (PAGE_SHIFT - GRANULE_SHIFT);
            let bit = g & (GRANULES_PER_PAGE - 1);
            let bm = self.pages.entry(page).or_insert(0);
            if *bm & (1u64 << bit) == 0 {
                *bm |= 1u64 << bit;
                newly_set += 1;
            }
            g += 1;
        }
        newly_set
    }

    /// True if some module may have written the granule containing `addr`
    /// since it was last cleared.
    pub fn maybe_written(&self, addr: Word) -> bool {
        let (page, granule) = Self::split(addr);
        self.pages
            .get(&page)
            .is_some_and(|bm| bm & (1u64 << granule) != 0)
    }

    /// Clears granules fully contained in `[addr, addr+len)` for which
    /// `still_writable` is false. Called when memory is zeroed; the
    /// predicate keeps bits set for granules some principal can still
    /// write (otherwise clearing would introduce a false negative).
    /// Returns how many set granules were cleared.
    pub fn clear_zeroed(
        &mut self,
        addr: Word,
        len: u64,
        mut still_writable: impl FnMut(Word) -> bool,
    ) -> u64 {
        if len == 0 {
            return 0;
        }
        // Only granules *fully* inside the zeroed range may be cleared.
        // The zeroed end saturates like every other range end.
        let first = addr.div_ceil(1 << GRANULE_SHIFT);
        let last = addr.saturating_add(len) >> GRANULE_SHIFT; // exclusive
        let mut cleared = 0;
        let mut g = first;
        while g < last {
            let base = g << GRANULE_SHIFT;
            if !still_writable(base) {
                let page = g >> (PAGE_SHIFT - GRANULE_SHIFT);
                let bit = g & (GRANULES_PER_PAGE - 1);
                if let Some(bm) = self.pages.get_mut(&page) {
                    if *bm & (1u64 << bit) != 0 {
                        *bm &= !(1u64 << bit);
                        cleared += 1;
                    }
                    if *bm == 0 {
                        self.pages.remove(&page);
                    }
                }
            }
            g += 1;
        }
        cleared
    }

    /// Number of pages with any marked granule (diagnostics).
    pub fn dirty_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total marked granules (diagnostics; linear in dirty pages).
    pub fn marked_granules(&self) -> u64 {
        self.pages
            .values()
            .map(|bm| u64::from(bm.count_ones()))
            .sum()
    }
}

/// Snapshot of a stripe's generation counters, taken when a zero-note is
/// deferred. A drain later applies the note only if both generations are
/// unchanged: no mark and no write-coverage revocation touched the stripe
/// in between, so the deferred clear is exactly the clear an immediate
/// `note_zeroed` would have performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroNoteToken {
    stripe: usize,
    mark_gen: u64,
    revoke_gen: u64,
}

struct Stripe {
    /// Lock-free census of set granule bits resident in this stripe.
    /// Zero means provably all-clean: `maybe_written`/`note_zeroed` can
    /// answer without touching the map lock at all.
    marked: AtomicU64,
    /// Bumped on every `mark` touching the stripe (under the map lock).
    mark_gen: AtomicU64,
    /// Bumped (lock-free) before any write-coverage removal overlapping
    /// the stripe. Invalidates deferred zero-notes whose range may have
    /// been writable — and then written — after the note was taken.
    revoke_gen: AtomicU64,
    map: RwLock<WriterMap>,
}

impl Stripe {
    fn new() -> Self {
        Self {
            marked: AtomicU64::new(0),
            mark_gen: AtomicU64::new(0),
            revoke_gen: AtomicU64::new(0),
            map: RwLock::new(WriterMap::new()),
        }
    }
}

/// The writer-set bitmap, striped by address region so `note_zeroed` and
/// `maybe_written` on disjoint packets never contend. Each stripe has its
/// own `RwLock<WriterMap>` plus a lock-free marked-granule counter; the
/// counter at zero proves the stripe clean, so the common all-clean probe
/// touches no lock. Stripe boundaries are page-aligned at construction —
/// a 4 KiB bitmap page never spans two stripes, so each granule has
/// exactly one home stripe.
pub struct StripedWriterMap {
    /// Interior boundaries (sorted, deduped, page-aligned). Stripe `i`
    /// covers `[boundaries[i-1], boundaries[i])`, open at both ends.
    boundaries: Vec<Word>,
    stripes: Vec<Stripe>,
}

impl Default for StripedWriterMap {
    fn default() -> Self {
        Self::new()
    }
}

impl StripedWriterMap {
    /// Single-stripe map (degenerates to the global-lock behavior).
    pub fn new() -> Self {
        Self::with_boundaries(&[])
    }

    /// Stripes at the given boundaries, rounded down to bitmap-page
    /// alignment so no page spans a stripe.
    pub fn with_boundaries(bs: &[Word]) -> Self {
        let mut boundaries: Vec<Word> = bs.iter().map(|b| b & !(PAGE_SIZE - 1)).collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        boundaries.retain(|&b| b != 0);
        let stripes = (0..=boundaries.len()).map(|_| Stripe::new()).collect();
        Self {
            boundaries,
            stripes,
        }
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe_of(&self, addr: Word) -> usize {
        self.boundaries.partition_point(|&b| b <= addr)
    }

    /// Exclusive upper bound of stripe `i` (`Word::MAX` for the last).
    fn stripe_end(&self, i: usize) -> Word {
        self.boundaries.get(i).copied().unwrap_or(Word::MAX)
    }

    /// Calls `f(stripe, seg_addr, seg_len)` for each stripe segment of
    /// `[addr, addr+len)`, end saturated at `Word::MAX`.
    fn for_stripe_segments(&self, addr: Word, len: u64, mut f: impl FnMut(usize, Word, u64)) {
        let len = len.min(Word::MAX - addr);
        if len == 0 {
            return;
        }
        let end = addr + len;
        let mut cur = addr;
        while cur < end {
            let s = self.stripe_of(cur);
            let seg_end = self.stripe_end(s).min(end);
            f(s, cur, seg_end - cur);
            cur = seg_end;
        }
    }

    /// Marks `[addr, addr+len)` as possibly module-written. Always bumps
    /// the touched stripes' mark generation (even when every bit was
    /// already set) so a deferred zero-note can never clear a granule
    /// that a racing explicit mark meant to keep.
    pub fn mark(&self, addr: Word, len: u64) {
        self.for_stripe_segments(addr, len, |s, a, l| {
            let stripe = &self.stripes[s];
            let mut map = stripe.map.write().expect("writer map stripe");
            let newly_set = map.mark(a, l);
            stripe.marked.fetch_add(newly_set, Ordering::AcqRel);
            stripe.mark_gen.fetch_add(1, Ordering::AcqRel);
        });
    }

    /// True if some module may have written the granule containing
    /// `addr`. A clean stripe (marked-counter zero) answers lock-free.
    pub fn maybe_written(&self, addr: Word) -> bool {
        let stripe = &self.stripes[self.stripe_of(addr)];
        if stripe.marked.load(Ordering::Acquire) == 0 {
            return false;
        }
        stripe
            .map
            .read()
            .expect("writer map stripe")
            .maybe_written(addr)
    }

    /// True if any stripe overlapping `[addr, addr+len)` has a marked
    /// granule anywhere. Lock-free: the `note_zeroed` all-clean pre-check.
    pub fn maybe_marked_over(&self, addr: Word, len: u64) -> bool {
        let mut any = false;
        self.for_stripe_segments(addr, len, |s, _, _| {
            any |= self.stripes[s].marked.load(Ordering::Acquire) != 0;
        });
        any
    }

    /// Immediate `note_zeroed`: clears granules fully inside the range for
    /// which `still_writable` is false. Clean stripes are skipped without
    /// locking. Returns granules cleared.
    pub fn clear_zeroed(
        &self,
        addr: Word,
        len: u64,
        mut still_writable: impl FnMut(Word) -> bool,
    ) -> u64 {
        let mut total = 0;
        self.for_stripe_segments(addr, len, |s, a, l| {
            let stripe = &self.stripes[s];
            if stripe.marked.load(Ordering::Acquire) == 0 {
                return;
            }
            let mut map = stripe.map.write().expect("writer map stripe");
            let cleared = map.clear_zeroed(a, l, &mut still_writable);
            stripe.marked.fetch_sub(cleared, Ordering::AcqRel);
            total += cleared;
        });
        total
    }

    /// Records (lock-free) that write coverage overlapping the range is
    /// about to be removed. Must be called *before* the index splice so a
    /// concurrent drain that observes the post-splice index also observes
    /// this bump (release/acquire through the shard lock).
    pub fn note_revoked(&self, addr: Word, len: u64) {
        self.for_stripe_segments(addr, len, |s, _, _| {
            self.stripes[s].revoke_gen.fetch_add(1, Ordering::AcqRel);
        });
    }

    /// Samples the generation token for deferring a zero-note over
    /// `[addr, addr+len)`. `None` if the range spans stripes (rare; the
    /// caller falls back to the immediate path).
    pub fn defer_token(&self, addr: Word, len: u64) -> Option<ZeroNoteToken> {
        let len = len.min(Word::MAX - addr);
        if len == 0 {
            return None;
        }
        let s = self.stripe_of(addr);
        if addr + (len - 1) >= self.stripe_end(s) {
            return None;
        }
        let stripe = &self.stripes[s];
        Some(ZeroNoteToken {
            stripe: s,
            mark_gen: stripe.mark_gen.load(Ordering::Acquire),
            revoke_gen: stripe.revoke_gen.load(Ordering::Acquire),
        })
    }

    /// Applies a deferred zero-note, or drops it as stale. The predicate
    /// is evaluated *before* the generation check: its shard-lock
    /// acquisitions give the happens-before edge that makes a racing
    /// revocation's `note_revoked` bump visible to the loads below, so a
    /// clear only commits when the stripe provably saw no mark and no
    /// coverage removal since the token was taken — exactly the state in
    /// which an immediate `note_zeroed` would have made the same clears.
    /// Returns `Some(cleared)` if applied, `None` if stale.
    pub fn try_drain_note(
        &self,
        addr: Word,
        len: u64,
        token: ZeroNoteToken,
        mut still_writable: impl FnMut(Word) -> bool,
    ) -> Option<u64> {
        let stripe = &self.stripes[token.stripe];
        let mut map = stripe.map.write().expect("writer map stripe");
        // Decide which granules would clear (predicate first — see above).
        let first = addr.div_ceil(1 << GRANULE_SHIFT);
        let last = addr.saturating_add(len) >> GRANULE_SHIFT; // exclusive
        let mut clearable: Vec<Word> = Vec::new();
        let mut g = first;
        while g < last {
            let base = g << GRANULE_SHIFT;
            if !still_writable(base) {
                clearable.push(base);
            }
            g += 1;
        }
        if stripe.mark_gen.load(Ordering::Acquire) != token.mark_gen
            || stripe.revoke_gen.load(Ordering::Acquire) != token.revoke_gen
        {
            return None;
        }
        let cleared = map.clear_zeroed(addr, len, |base| clearable.binary_search(&base).is_err());
        stripe.marked.fetch_sub(cleared, Ordering::AcqRel);
        Some(cleared)
    }

    /// Pages with any marked granule, summed over stripes (diagnostics).
    pub fn dirty_pages(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.map.read().expect("writer map stripe").dirty_pages())
            .sum()
    }

    /// Total marked granules across stripes, read lock-free from the
    /// per-stripe census (gauge).
    pub fn marked_granules(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.marked.load(Ordering::Acquire))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmarked_is_clean() {
        let m = WriterMap::new();
        assert!(!m.maybe_written(0x1234));
    }

    #[test]
    fn mark_covers_whole_range() {
        let mut m = WriterMap::new();
        m.mark(0x1000, 256);
        assert!(m.maybe_written(0x1000));
        assert!(m.maybe_written(0x10ff));
        // Same granule as 0x10ff (64-byte granularity): conservative hit.
        assert!(m.maybe_written(0x1100 - 1));
        assert!(!m.maybe_written(0x1140));
    }

    #[test]
    fn granularity_is_64_bytes() {
        let mut m = WriterMap::new();
        m.mark(0x2000, 1);
        assert!(m.maybe_written(0x2000));
        assert!(m.maybe_written(0x203f), "same granule");
        assert!(!m.maybe_written(0x2040), "next granule untouched");
    }

    #[test]
    fn mark_spans_pages() {
        let mut m = WriterMap::new();
        m.mark(0x1fc0, 0x80); // crosses the 0x2000 page boundary
        assert!(m.maybe_written(0x1fc0));
        assert!(m.maybe_written(0x2000));
        assert_eq!(m.dirty_pages(), 2);
    }

    #[test]
    fn clear_zeroed_respects_partial_granules() {
        let mut m = WriterMap::new();
        m.mark(0x3000, 128);
        // Zero only [0x3010, 0x3090): granule 0x3000 is partially zeroed
        // and must stay marked; granule 0x3040 is fully inside and clears.
        m.clear_zeroed(0x3010, 0x80, |_| false);
        assert!(m.maybe_written(0x3000));
        assert!(!m.maybe_written(0x3040));
    }

    #[test]
    fn near_max_marks_saturate() {
        let mut m = WriterMap::new();
        // Nominal end MAX+8 saturates to [MAX-8, MAX); must not overflow.
        m.mark(u64::MAX - 8, 16);
        assert!(m.maybe_written(u64::MAX - 8));
        assert!(m.maybe_written(u64::MAX - 1));
        // A mark starting at MAX covers nothing.
        let mut m2 = WriterMap::new();
        m2.mark(u64::MAX, 8);
        assert_eq!(m2.dirty_pages(), 0);
        // Saturating clear_zeroed must not overflow. The top granule
        // reaches byte MAX, which no saturated (exclusive-end) range can
        // fully contain — so its bit conservatively stays set.
        m.clear_zeroed(u64::MAX - 0x1000, u64::MAX, |_| false);
        assert!(m.maybe_written(u64::MAX - 8));
        assert!(!m.maybe_written(u64::MAX - 0x80));
    }

    #[test]
    fn clear_zeroed_keeps_still_writable_granules() {
        let mut m = WriterMap::new();
        m.mark(0x4000, 64);
        m.clear_zeroed(0x4000, 64, |_| true);
        assert!(
            m.maybe_written(0x4000),
            "a principal still holds WRITE, so the bit must stay"
        );
        m.clear_zeroed(0x4000, 64, |_| false);
        assert!(!m.maybe_written(0x4000));
    }

    #[test]
    fn mark_and_clear_report_granule_deltas() {
        let mut m = WriterMap::new();
        assert_eq!(m.mark(0x1000, 128), 2);
        assert_eq!(m.mark(0x1000, 128), 0, "re-mark sets nothing new");
        assert_eq!(m.clear_zeroed(0x1000, 128, |_| false), 2);
        assert_eq!(m.clear_zeroed(0x1000, 128, |_| false), 0);
    }

    #[test]
    fn striped_map_agrees_with_global_across_boundaries() {
        let striped = StripedWriterMap::with_boundaries(&[0x3000, 0x8000]);
        let mut global = WriterMap::new();
        assert_eq!(striped.stripe_count(), 3);
        // A mark spanning both boundaries lands in three stripes.
        striped.mark(0x2f00, 0x6000);
        global.mark(0x2f00, 0x6000);
        for addr in [0x2f00, 0x3000, 0x7fff, 0x8000, 0x8e00, 0x9000] {
            assert_eq!(
                striped.maybe_written(addr),
                global.maybe_written(addr),
                "at {addr:#x}"
            );
        }
        assert_eq!(striped.marked_granules(), global.marked_granules());
        let s = striped.clear_zeroed(0x2f00, 0x6000, |_| false);
        let g = global.clear_zeroed(0x2f00, 0x6000, |_| false);
        assert_eq!(s, g);
        assert_eq!(striped.marked_granules(), 0);
        assert!(!striped.maybe_marked_over(0, u64::MAX));
    }

    #[test]
    fn clean_stripe_precheck_fires_without_bits() {
        let striped = StripedWriterMap::with_boundaries(&[0x10_0000]);
        assert!(!striped.maybe_marked_over(0x500, 0x100));
        striped.mark(0x20_0000, 64);
        // Marks above the boundary leave the low stripe provably clean.
        assert!(!striped.maybe_marked_over(0x500, 0x100));
        assert!(striped.maybe_marked_over(0x20_0000, 8));
        assert!(striped.maybe_marked_over(0x500, u64::MAX), "spans both");
    }

    #[test]
    fn deferred_note_applies_when_generations_hold() {
        let striped = StripedWriterMap::with_boundaries(&[0x10_0000]);
        striped.mark(0x4000, 128);
        let token = striped.defer_token(0x4000, 128).expect("single stripe");
        assert_eq!(
            striped.try_drain_note(0x4000, 128, token, |_| false),
            Some(2)
        );
        assert!(!striped.maybe_written(0x4000));
    }

    #[test]
    fn deferred_note_goes_stale_on_mark_or_revoke() {
        let striped = StripedWriterMap::with_boundaries(&[0x10_0000]);
        striped.mark(0x4000, 64);
        let token = striped.defer_token(0x4000, 64).expect("single stripe");
        // A later mark anywhere in the stripe invalidates the note ...
        striped.mark(0x9000, 64);
        assert_eq!(striped.try_drain_note(0x4000, 64, token, |_| false), None);
        assert!(striped.maybe_written(0x4000), "stale note cleared nothing");
        // ... and so does a coverage revocation.
        let token = striped.defer_token(0x4000, 64).expect("single stripe");
        striped.note_revoked(0x4000, 64);
        assert_eq!(striped.try_drain_note(0x4000, 64, token, |_| false), None);
        // A fresh token with quiet generations drains.
        let token = striped.defer_token(0x4000, 64).expect("single stripe");
        assert_eq!(
            striped.try_drain_note(0x4000, 64, token, |_| false),
            Some(1)
        );
    }

    #[test]
    fn defer_token_rejects_multi_stripe_ranges() {
        let striped = StripedWriterMap::with_boundaries(&[0x10_0000]);
        assert!(striped.defer_token(0xf_ff00, 0x200).is_none());
        assert!(striped.defer_token(0xf_ff00, 0x100).is_some());
        assert!(striped.defer_token(0x4000, 0).is_none(), "empty range");
    }
}
