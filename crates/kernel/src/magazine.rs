//! Per-CPU slab magazines over a sharded backing slab.
//!
//! The data-plane allocator is split in two layers so per-packet
//! `kmalloc`/`kfree` on different CPUs touches disjoint locks:
//!
//! - [`ShardedSlab`] carves the kmalloc heap into
//!   [`crate::layout::SLAB_SHARDS`] disjoint sub-regions, each backed by
//!   its own [`Slab`] behind its own mutex. Frees route to the shard
//!   owning the address; a CPU's refills come from "its" shard, so two
//!   CPUs running packet loops never meet on a slab lock.
//! - [`Magazines`] is a per-CPU, lock-free (plain `&mut`) LIFO cache of
//!   ready-to-hand-out slots per size class. A hit pops a slot and
//!   registers it live in the owning shard ([`Slab::adopt`] — one shard
//!   lock, usually this CPU's own); a miss refills a small batch from
//!   the preferred shard ([`Slab::reserve_batch`]).
//!
//! Two invariants carry over from the single-lock design:
//!
//! - **Two-phase free.** An object enters a magazine only *after* its
//!   capability sweep and zeroing completed (the kfree path runs
//!   `begin_free` → revoke → zero → [`Magazines::release`]).
//!   A magazine slot is therefore always safe to hand out immediately.
//! - **SLUB adjacency.** `reserve_batch` returns ascending addresses and
//!   the magazine pushes them reversed, so back-to-back allocations of
//!   one class pop out ascending and adjacent — the layout property the
//!   CAN BCM exploit groom (§8.1) depends on, preserved through the
//!   cache.
//!
//! The live set stays authoritative in the shards: magazine-held slots
//! are *not* live (they were freed, or reserved and never handed out),
//! so teardown scans, leak gauges, and double-free detection see exactly
//! the same world as with the direct allocator.

use std::sync::{Mutex, MutexGuard};

use lxfi_machine::{AddressSpace, Word};

use crate::layout::{slab_shard_base, HEAP_BASE, KDATA_BASE, SLAB_SHARDS, SLAB_SHARD_SPAN};
use crate::slab::{Slab, SIZE_CLASSES};

/// Magazine depth per size class before a flush returns the cold half.
pub const MAGAZINE_CAP: usize = 32;

/// Slots reserved from the backing shard on a magazine miss.
pub const REFILL_BATCH: usize = 8;

/// Slots flushed (oldest first) when a magazine overflows.
pub const FLUSH_BATCH: usize = 16;

/// The kmalloc heap as [`SLAB_SHARDS`] independently locked [`Slab`]s.
///
/// The `&self` surface mirrors [`Slab`]'s so existing call sites compile
/// unchanged; each call locks only the shard owning the address it
/// touches.
#[derive(Debug)]
pub struct ShardedSlab {
    shards: Vec<Mutex<Slab>>,
}

impl Default for ShardedSlab {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedSlab {
    /// One slab per heap shard, each growing from its shard base.
    pub fn new() -> Self {
        ShardedSlab {
            shards: (0..SLAB_SHARDS)
                .map(|i| Mutex::new(Slab::new(slab_shard_base(i))))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Locks shard `i` (wraps around, so any CPU index is valid).
    pub fn shard(&self, i: usize) -> MutexGuard<'_, Slab> {
        self.shards[i % self.shards.len()]
            .lock()
            .expect("slab shard lock")
    }

    /// The shard owning `addr`, or `None` for non-heap addresses (wild
    /// pointers must fail lookup, not panic).
    fn shard_index(addr: Word) -> Option<usize> {
        (HEAP_BASE..KDATA_BASE)
            .contains(&addr)
            .then(|| ((addr - HEAP_BASE) / SLAB_SHARD_SPAN) as usize)
    }

    fn owning(&self, addr: Word) -> Option<MutexGuard<'_, Slab>> {
        Some(self.shard(Self::shard_index(addr)?))
    }

    /// Allocates from shard 0 — the boot/control-plane path. Per-packet
    /// code allocates through a per-CPU [`Magazines`] instead.
    pub fn kmalloc(&self, mem: &AddressSpace, size: u64) -> Option<Word> {
        self.kmalloc_on(0, mem, size)
    }

    /// Allocates directly from a specific shard (no magazine).
    pub fn kmalloc_on(&self, shard: usize, mem: &AddressSpace, size: u64) -> Option<Word> {
        self.shard(shard).kmalloc(mem, size)
    }

    /// See [`Slab::kfree`]; routes to the owning shard.
    pub fn kfree(&self, addr: Word) -> Option<(u64, u64)> {
        self.owning(addr)?.kfree(addr)
    }

    /// See [`Slab::begin_free`]; routes to the owning shard.
    pub fn begin_free(&self, addr: Word) -> Option<(u64, u64)> {
        self.owning(addr)?.begin_free(addr)
    }

    /// See [`Slab::finish_free`]; routes to the owning shard.
    pub fn finish_free(&self, addr: Word, class: u64) {
        self.owning(addr)
            .expect("finish_free of a non-heap address")
            .finish_free(addr, class);
    }

    /// See [`Slab::adopt`]; routes to the owning shard.
    pub fn adopt(&self, addr: Word, size: u64, class: u64) {
        self.owning(addr)
            .expect("adopt of a non-heap address")
            .adopt(addr, size, class);
    }

    /// See [`Slab::reserve_batch`]; reserves from the given shard.
    pub fn reserve_batch(
        &self,
        shard: usize,
        mem: &AddressSpace,
        class: u64,
        n: usize,
        out: &mut Vec<Word>,
    ) {
        self.shard(shard).reserve_batch(mem, class, n, out);
    }

    /// See [`Slab::size_of`]; routes to the owning shard.
    pub fn size_of(&self, addr: Word) -> Option<u64> {
        self.owning(addr)?.size_of(addr)
    }

    /// Live allocations across all shards.
    pub fn live_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("slab shard lock").live_count())
            .sum()
    }

    /// Snapshot of live allocations across all shards.
    pub fn live_objects(&self) -> Vec<(Word, u64, u64)> {
        self.shards
            .iter()
            .flat_map(|s| s.lock().expect("slab shard lock").live_objects())
            .collect()
    }

    /// Total bytes handed out across all shards (diagnostics).
    pub fn allocated(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("slab shard lock").allocated)
            .sum()
    }
}

/// A CPU's private allocation cache: one LIFO stack of ready slots per
/// size class, refilled from (and flushed to) a [`ShardedSlab`].
///
/// Plain `&mut self` — the owning [`crate::kernel::KernelCpu`] is the
/// only accessor, so hits and releases take no lock at all; only the
/// adopt/refill/flush edges touch a shard mutex.
#[derive(Debug)]
pub struct Magazines {
    /// Preferred backing shard for refills (`cpu % SLAB_SHARDS`).
    shard: usize,
    stacks: Vec<Vec<Word>>,
    scratch: Vec<Word>,
    /// Allocations served from a magazine (no refill needed).
    pub hits: u64,
    /// Allocations that refilled from the backing shard.
    pub misses: u64,
    /// Overflow flushes back to the backing shards.
    pub flushes: u64,
}

impl Magazines {
    /// Empty magazines preferring the given backing shard.
    pub fn new(shard: usize) -> Self {
        Magazines {
            shard: shard % SLAB_SHARDS as usize,
            stacks: vec![Vec::new(); SIZE_CLASSES.len()],
            scratch: Vec::new(),
            hits: 0,
            misses: 0,
            flushes: 0,
        }
    }

    fn class_index(class: u64) -> usize {
        SIZE_CLASSES
            .iter()
            .position(|&c| c == class)
            .expect("known size class")
    }

    /// Allocates `size` bytes through the magazine. A hit pops the top
    /// slot and adopts it into the owning shard's live set; a miss
    /// reserves [`REFILL_BATCH`] ascending slots from the preferred
    /// shard, serves the first, and stacks the rest (reversed, so they
    /// pop out ascending — SLUB adjacency survives the cache).
    pub fn kmalloc(&mut self, slab: &ShardedSlab, mem: &AddressSpace, size: u64) -> Option<Word> {
        if size == 0 {
            return None;
        }
        let class = Slab::class_for(size)?;
        let ci = Self::class_index(class);
        if let Some(addr) = self.stacks[ci].pop() {
            self.hits += 1;
            slab.adopt(addr, size, class);
            return Some(addr);
        }
        self.misses += 1;
        self.scratch.clear();
        slab.reserve_batch(self.shard, mem, class, REFILL_BATCH, &mut self.scratch);
        let first = self.scratch[0];
        for &a in self.scratch[1..].iter().rev() {
            self.stacks[ci].push(a);
        }
        slab.adopt(first, size, class);
        Some(first)
    }

    /// Accepts a freed slot into the magazine. The caller has already
    /// run the two-phase free prologue (`begin_free`, capability sweep,
    /// zeroing) — the slot is immediately reusable. On
    /// overflow the *cold* bottom [`FLUSH_BATCH`] slots return to their
    /// owning shards' free lists; the hot top stays cached.
    pub fn release(&mut self, slab: &ShardedSlab, addr: Word, class: u64) {
        let ci = Self::class_index(class);
        self.stacks[ci].push(addr);
        if self.stacks[ci].len() > MAGAZINE_CAP {
            self.flushes += 1;
            let hot = self.stacks[ci].split_off(FLUSH_BATCH);
            for a in std::mem::replace(&mut self.stacks[ci], hot) {
                slab.finish_free(a, class);
            }
        }
    }

    /// Returns every cached slot to the backing shards (CPU teardown,
    /// or tests that need the shards' free lists authoritative).
    pub fn drain(&mut self, slab: &ShardedSlab) {
        for (ci, stack) in self.stacks.iter_mut().enumerate() {
            for a in stack.drain(..) {
                slab.finish_free(a, SIZE_CLASSES[ci]);
            }
        }
    }

    /// Slots currently cached across all classes (diagnostics).
    pub fn cached(&self) -> usize {
        self.stacks.iter().map(Vec::len).sum()
    }

    /// Magazine hit rate over the allocations served so far, in
    /// [0.0, 1.0]; 1.0 when nothing was allocated yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ShardedSlab, Magazines, AddressSpace) {
        (ShardedSlab::new(), Magazines::new(0), AddressSpace::new())
    }

    #[test]
    fn magazine_allocations_stay_adjacent() {
        let (slab, mut mags, mem) = setup();
        let a = mags.kmalloc(&slab, &mem, 64).unwrap();
        let b = mags.kmalloc(&slab, &mem, 64).unwrap();
        let c = mags.kmalloc(&slab, &mem, 64).unwrap();
        assert_eq!(b, a + 64, "adjacency survives the magazine cache");
        assert_eq!(c, b + 64);
        assert_eq!(mags.hits, 2, "second and third allocs hit the magazine");
        assert_eq!(mags.misses, 1);
    }

    #[test]
    fn release_then_alloc_reuses_hot_slot() {
        let (slab, mut mags, mem) = setup();
        let a = mags.kmalloc(&slab, &mem, 128).unwrap();
        let (_, class) = slab.begin_free(a).unwrap();
        mags.release(&slab, a, class);
        let b = mags.kmalloc(&slab, &mem, 128).unwrap();
        assert_eq!(b, a, "freed slot is reused LIFO (heap grooming)");
    }

    #[test]
    fn live_set_stays_authoritative_across_magazines() {
        let (slab, mut mags, mem) = setup();
        let a = mags.kmalloc(&slab, &mem, 100).unwrap();
        assert_eq!(slab.size_of(a), Some(100));
        assert_eq!(slab.live_count(), 1);
        assert_eq!(slab.allocated(), 100);
        let (size, class) = slab.begin_free(a).unwrap();
        assert_eq!((size, class), (100, 128));
        mags.release(&slab, a, class);
        // Freed into the magazine: gone from the live set immediately.
        assert_eq!(slab.live_count(), 0);
        assert_eq!(slab.allocated(), 0);
        assert_eq!(slab.size_of(a), None);
        // Double free detected even while the slot sits in a magazine.
        assert!(slab.begin_free(a).is_none());
    }

    #[test]
    fn overflow_flush_returns_cold_slots() {
        let (slab, mut mags, mem) = setup();
        let mut addrs = Vec::new();
        for _ in 0..(MAGAZINE_CAP + 1) {
            addrs.push(mags.kmalloc(&slab, &mem, 64).unwrap());
        }
        for &a in &addrs {
            let (_, class) = slab.begin_free(a).unwrap();
            mags.release(&slab, a, class);
        }
        assert_eq!(mags.flushes, 1, "one overflow flush");
        // 33 allocs leave 7 unserved refill slots cached; 33 releases
        // push to 40, crossing MAGAZINE_CAP once, flushing FLUSH_BATCH.
        assert_eq!(
            mags.cached(),
            33 + (REFILL_BATCH - 1) - FLUSH_BATCH,
            "cold batch returned to the shard, hot slots cached"
        );
        // Flushed slots are allocatable again directly from the shard.
        assert!(slab.kmalloc(&mem, 64).is_some());
    }

    #[test]
    fn cross_shard_free_routes_by_address() {
        let (slab, mut mags, mem) = setup();
        // Allocate from shard 3 directly, free through a shard-0 magazine.
        let a = slab.kmalloc_on(3, &mem, 256).unwrap();
        assert_eq!(ShardedSlab::shard_index(a), Some(3));
        let (_, class) = slab.begin_free(a).unwrap();
        mags.release(&slab, a, class);
        // The cached slot serves the next 256-byte alloc on this CPU and
        // adopts into shard 3's live set (routed by address).
        let b = mags.kmalloc(&slab, &mem, 256).unwrap();
        assert_eq!(b, a);
        assert_eq!(slab.shard(3).live_count(), 1);
    }

    #[test]
    fn drain_empties_every_class() {
        let (slab, mut mags, mem) = setup();
        let a = mags.kmalloc(&slab, &mem, 32).unwrap();
        let b = mags.kmalloc(&slab, &mem, 2048).unwrap();
        for &x in &[a, b] {
            let (_, class) = slab.begin_free(x).unwrap();
            mags.release(&slab, x, class);
        }
        assert!(mags.cached() > 0);
        mags.drain(&slab);
        assert_eq!(mags.cached(), 0);
        // Drained slots live on the shard free lists again: same-class
        // allocation reuses rather than growing a fresh page.
        assert_eq!(slab.kmalloc(&mem, 32), Some(a));
    }

    #[test]
    fn wild_pointers_fail_lookup_without_panicking() {
        let (slab, _, _) = setup();
        assert!(slab.kfree(0xdead).is_none());
        assert!(slab.begin_free(0).is_none());
        assert!(slab.size_of(0xffff_ff00_0000_0000).is_none());
    }
}
