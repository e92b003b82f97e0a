//! A SLUB-like slab allocator for `kmalloc`/`kfree`.
//!
//! Size classes are powers of two from 32 bytes to 4 KiB; each slab page
//! holds `PAGE/class` objects laid out contiguously, so objects of the
//! same class allocated back-to-back are **adjacent in memory**. The CAN
//! BCM exploit (§8.1) depends on exactly this property: the attacker
//! groom places a `shmid_kernel` object directly after the under-sized
//! BCM buffer and overflows into it.

use lxfi_core::inthash::IntMap;
use lxfi_machine::{AddressSpace, Word, PAGE_SIZE};

/// Size classes, ascending.
pub const SIZE_CLASSES: [u64; 8] = [32, 64, 128, 256, 512, 1024, 2048, 4096];

#[derive(Debug)]
struct SlabPage {
    base: Word,
    class: u64,
    /// Free-object indices, popped from the back (LIFO within a page,
    /// ascending on a fresh page so sequential allocations are adjacent).
    free: Vec<u32>,
}

/// The allocator.
#[derive(Debug)]
pub struct Slab {
    next_page: Word,
    pages: Vec<SlabPage>,
    /// Live allocations, indexed by address: `addr -> (requested size,
    /// class)`. A hash map (not a scan list) so `kfree` of one object
    /// among tens of thousands is one lookup, not a walk; only
    /// [`Slab::live_objects`] needs address order, and sorts.
    live: IntMap<Word, (u64, u64)>,
    /// Total bytes handed out (diagnostics).
    pub allocated: u64,
}

impl Slab {
    /// Creates an allocator growing from `base`.
    pub fn new(base: Word) -> Self {
        Slab {
            next_page: base,
            pages: Vec::new(),
            live: IntMap::default(),
            allocated: 0,
        }
    }

    /// The size class `size` rounds up to, or `None` if unsupported.
    pub fn class_for(size: u64) -> Option<u64> {
        SIZE_CLASSES.iter().copied().find(|&c| c >= size)
    }

    /// Allocates `size` bytes (0 < size ≤ 4096), mapping pages as needed.
    /// Returns the object address, or `None` for unsupported sizes.
    ///
    /// Objects come from the slab page with the lowest free slot of the
    /// class, so consecutive allocations of one class are adjacent.
    pub fn kmalloc(&mut self, mem: &AddressSpace, size: u64) -> Option<Word> {
        if size == 0 {
            return None;
        }
        let class = Self::class_for(size)?;
        let page = match self
            .pages
            .iter_mut()
            .find(|p| p.class == class && !p.free.is_empty())
        {
            Some(p) => p,
            None => {
                let base = self.next_page;
                self.next_page += PAGE_SIZE;
                mem.map_range(base, PAGE_SIZE);
                let count = (PAGE_SIZE / class) as u32;
                self.pages.push(SlabPage {
                    base,
                    class,
                    // Reverse order so pop() yields ascending addresses.
                    free: (0..count).rev().collect(),
                });
                self.pages.last_mut().unwrap()
            }
        };
        let idx = page.free.pop().unwrap();
        let addr = page.base + u64::from(idx) * class;
        self.live.insert(addr, (size, class));
        self.allocated += size;
        Some(addr)
    }

    /// Carves `n` slots of exact size-class `class` out of the page free
    /// lists **without** registering them live — the slots belong to a
    /// per-CPU magazine until [`Slab::adopt`] (handed out) or
    /// [`Slab::finish_free`] (flushed back) claims them. Returned
    /// ascending so a magazine serving them in order preserves SLUB
    /// adjacency for back-to-back allocations.
    pub fn reserve_batch(&mut self, mem: &AddressSpace, class: u64, n: usize, out: &mut Vec<Word>) {
        debug_assert!(SIZE_CLASSES.contains(&class));
        let start = out.len();
        for _ in 0..n {
            let page = match self
                .pages
                .iter_mut()
                .find(|p| p.class == class && !p.free.is_empty())
            {
                Some(p) => p,
                None => {
                    let base = self.next_page;
                    self.next_page += PAGE_SIZE;
                    mem.map_range(base, PAGE_SIZE);
                    let count = (PAGE_SIZE / class) as u32;
                    self.pages.push(SlabPage {
                        base,
                        class,
                        free: (0..count).rev().collect(),
                    });
                    self.pages.last_mut().unwrap()
                }
            };
            let idx = page.free.pop().unwrap();
            out.push(page.base + u64::from(idx) * class);
        }
        out[start..].sort_unstable();
    }

    /// Registers a magazine-held slot as a live allocation of `size`
    /// bytes (its reservation came from [`Slab::reserve_batch`]). This is
    /// the handing-out half of a magazine hit: the live set stays
    /// authoritative for teardown scans, leak gauges, and double-free
    /// detection no matter which CPU's magazine served the object.
    pub fn adopt(&mut self, addr: Word, size: u64, class: u64) {
        debug_assert!(Self::class_for(size) == Some(class));
        let prev = self.live.insert(addr, (size, class));
        debug_assert!(prev.is_none(), "adopting an already-live object");
        self.allocated += size;
    }

    /// Frees an object. Returns its `(requested size, class size)` or
    /// `None` for a bad pointer (double free / wild free).
    pub fn kfree(&mut self, addr: Word) -> Option<(u64, u64)> {
        let r = self.begin_free(addr)?;
        self.finish_free(addr, r.1);
        Some(r)
    }

    /// First half of a two-phase free: validates the pointer and removes
    /// it from the live set **without** returning the slot to the free
    /// list, so a concurrent `kmalloc` cannot hand the address out while
    /// the caller is still revoking capabilities / zeroing it (the kfree
    /// path drops the slab lock across that work). A racing double free
    /// sees `None` here, exactly like `kfree`.
    pub fn begin_free(&mut self, addr: Word) -> Option<(u64, u64)> {
        let (size, class) = self.live.remove(&addr)?;
        self.allocated -= size;
        Some((size, class))
    }

    /// Second half of a two-phase free: returns the slot to its page's
    /// free list. Call with the `(addr, class)` pair `begin_free` gave.
    pub fn finish_free(&mut self, addr: Word, class: u64) {
        let page = self
            .pages
            .iter_mut()
            .find(|p| p.class == class && addr >= p.base && addr < p.base + PAGE_SIZE)
            .expect("live object belongs to a page");
        page.free.push(((addr - page.base) / class) as u32);
    }

    /// The requested size of a live allocation.
    pub fn size_of(&self, addr: Word) -> Option<u64> {
        self.live.get(&addr).map(|&(s, _)| s)
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Snapshot of the live allocations as `(addr, requested size,
    /// class)`, in ascending address order — module teardown sweeps
    /// them in that order for objects only the dead module's principals
    /// could still free.
    pub fn live_objects(&self) -> Vec<(Word, u64, u64)> {
        let mut objects: Vec<_> = self.live.iter().map(|(&a, &(s, c))| (a, s, c)).collect();
        objects.sort_unstable_by_key(|&(a, _, _)| a);
        objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Slab, AddressSpace) {
        (Slab::new(0xffff_8800_0000_0000), AddressSpace::new())
    }

    #[test]
    fn same_class_allocations_are_adjacent() {
        let (mut s, m) = setup();
        let a = s.kmalloc(&m, 64).unwrap();
        let b = s.kmalloc(&m, 64).unwrap();
        let c = s.kmalloc(&m, 64).unwrap();
        assert_eq!(b, a + 64, "SLUB adjacency (CAN BCM groom relies on it)");
        assert_eq!(c, b + 64);
    }

    #[test]
    fn sizes_round_up_to_class() {
        let (mut s, m) = setup();
        let a = s.kmalloc(&m, 33).unwrap();
        let b = s.kmalloc(&m, 50).unwrap();
        assert_eq!(b, a + 64, "both land in the 64-byte class");
        assert_eq!(s.size_of(a), Some(33), "requested size remembered");
    }

    #[test]
    fn free_then_realloc_reuses_slot() {
        let (mut s, m) = setup();
        let a = s.kmalloc(&m, 128).unwrap();
        let _b = s.kmalloc(&m, 128).unwrap();
        s.kfree(a).unwrap();
        let c = s.kmalloc(&m, 128).unwrap();
        assert_eq!(c, a, "freed slot is reused (heap grooming)");
    }

    #[test]
    fn double_free_rejected() {
        let (mut s, m) = setup();
        let a = s.kmalloc(&m, 64).unwrap();
        assert!(s.kfree(a).is_some());
        assert!(s.kfree(a).is_none());
        assert!(s.kfree(0xdead).is_none());
    }

    #[test]
    fn live_objects_never_overlap() {
        let (mut s, m) = setup();
        let mut addrs: Vec<(Word, u64)> = Vec::new();
        for size in [32u64, 64, 64, 100, 128, 4096, 32, 2048, 512] {
            let a = s.kmalloc(&m, size).unwrap();
            let class = Slab::class_for(size).unwrap();
            for &(b, bc) in &addrs {
                assert!(a + class <= b || b + bc <= a, "overlap {a:#x} {b:#x}");
            }
            addrs.push((a, class));
        }
        assert_eq!(s.live_count(), 9);
    }

    #[test]
    fn live_objects_come_in_address_order() {
        // Teardown sweeps a dead module's objects in this order, so the
        // order pins which object of a class is freed (and reused) first.
        let (mut s, m) = setup();
        let mut want = Vec::new();
        for size in [64u64, 4096, 32, 64, 2048, 100, 32, 512, 64, 4096] {
            let a = s.kmalloc(&m, size).unwrap();
            want.push((a, size, Slab::class_for(size).unwrap()));
        }
        let freed = want.remove(3);
        s.kfree(freed.0).unwrap();
        want.push((s.kmalloc(&m, 1000).unwrap(), 1000, 1024));
        want.sort_unstable();
        let got = s.live_objects();
        assert!(
            got.windows(2).all(|w| w[0].0 < w[1].0),
            "ascending: {got:x?}"
        );
        assert_eq!(got, want);
    }

    #[test]
    fn allocations_are_mapped_memory() {
        let (mut s, m) = setup();
        let a = s.kmalloc(&m, 4096).unwrap();
        m.write_word(a, 42).unwrap();
        m.write_word(a + 4088, 43).unwrap();
        assert_eq!(m.read_word(a).unwrap(), 42);
    }

    #[test]
    fn oversized_and_zero_rejected() {
        let (mut s, m) = setup();
        assert!(s.kmalloc(&m, 0).is_none());
        assert!(s.kmalloc(&m, 4097).is_none());
    }
}
