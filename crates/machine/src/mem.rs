//! Simulated 64-bit flat address space with demand-mapped 4 KiB pages,
//! shareable across OS threads.
//!
//! The kernel substrate decides the layout (user space low, kernel high,
//! module sections, thread stacks); this module only provides mapped-page
//! storage with typed reads and writes. Access to an unmapped address is a
//! [`Trap::MemFault`], which models a hardware page fault / kernel oops.
//!
//! # Concurrency model
//!
//! Since the multi-CPU kernel split, every access takes `&self` and the
//! type is `Send + Sync`:
//!
//! - The page table is a 4-level radix tree of `AtomicPtr` slots (13 bits
//!   per level over the 52-bit page number). Lookup on the data path is
//!   four acquire loads — **no locks** — which is what keeps guarded
//!   module stores lock-free end to end (guard = private epoch cache,
//!   store = radix walk + atomic word write).
//! - Pages are arrays of `AtomicU64`. Aligned word-sized accesses are
//!   single atomic operations (never torn); sub-word and unaligned
//!   accesses read-modify-write the containing word(s) with a CAS loop.
//!   Like real SMP memory, *racing* writes to overlapping ranges may
//!   interleave at word granularity — isolation never depends on payload
//!   atomicity, only on the guard that precedes the store.
//! - `map_range` inserts pages with CAS (the loser of a racing insert
//!   frees its page); `unmap_range` detaches the page pointer and
//!   *retires* the page to a side list freed on drop, so a racing reader
//!   that already holds the pointer reads stale-but-valid memory instead
//!   of freed memory. Unmapping concurrently with access to the same
//!   range is a semantic race (the access may fault) but never unsound.
//! - Byte-range operations validate `is_mapped` up front so a
//!   single-threaded fault is atomic (no partial write); a concurrent
//!   unmap can still interrupt a cross-page write midway, exactly like a
//!   TLB shootdown racing a store on real hardware.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::isa::Width;
use crate::{Trap, Word};

/// Page size of the simulated address space (matches the 12-bit masking
/// used by LXFI's WRITE-capability hash table, §5).
pub const PAGE_SIZE: u64 = 4096;

const PAGE_SHIFT: u32 = 12;
/// 64-bit words per page.
const PAGE_WORDS: usize = (PAGE_SIZE / 8) as usize;
/// Radix fan-out per level: 13 bits × 4 levels = the 52-bit page number.
const FAN_BITS: u32 = 13;
const FAN: usize = 1 << FAN_BITS;
const FAN_MASK: u64 = (FAN as u64) - 1;

/// One mapped page: 512 atomic words.
struct Page {
    words: [AtomicU64; PAGE_WORDS],
}

impl Page {
    fn new_zeroed() -> Box<Page> {
        Box::new(Page {
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }
}

/// A radix node: `FAN` atomic child pointers, lazily populated.
struct Node<T> {
    slots: Box<[AtomicPtr<T>]>,
}

impl<T> Node<T> {
    fn new() -> Box<Node<T>> {
        Box::new(Node {
            slots: (0..FAN)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        })
    }

    /// The child at `i`, if present (acquire load).
    fn get(&self, i: usize) -> Option<&T> {
        let p = self.slots[i].load(Ordering::Acquire);
        // SAFETY: a non-null slot always points at a child installed by
        // `install` below and kept alive until `Drop` (children detached
        // by unmap are retired, not freed).
        (!p.is_null()).then(|| unsafe { &*p })
    }

    /// Installs a child built by `make` at `i` unless one exists; either
    /// way returns the resident child. The loser of a CAS race frees its
    /// candidate.
    fn install(&self, i: usize, make: impl FnOnce() -> Box<T>) -> (&T, bool) {
        let p = self.slots[i].load(Ordering::Acquire);
        if !p.is_null() {
            // SAFETY: see `get`.
            return (unsafe { &*p }, false);
        }
        let fresh = Box::into_raw(make());
        match self.slots[i].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // SAFETY: we just installed `fresh`; it stays alive until Drop.
            Ok(_) => (unsafe { &*fresh }, true),
            Err(cur) => {
                // SAFETY: `fresh` never escaped; reclaim it.
                drop(unsafe { Box::from_raw(fresh) });
                // SAFETY: see `get`.
                (unsafe { &*cur }, false)
            }
        }
    }
}

type L3 = Node<Page>;
type L2 = Node<L3>;
type L1 = Node<L2>;

/// A page detached by `unmap_range`, kept alive until the address space
/// drops so lock-free readers never dereference freed memory.
struct Retired(*mut Page);
// SAFETY: the raw pointer is only dereferenced for deallocation in Drop,
// with exclusive access.
unsafe impl Send for Retired {}

/// A flat, sparse, page-granular simulated memory (`Send + Sync`; see
/// the module docs for the concurrency model).
pub struct AddressSpace {
    root: Node<L1>,
    mapped: AtomicUsize,
    retired: Mutex<Vec<Retired>>,
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace {
            root: Node {
                slots: (0..FAN)
                    .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                    .collect(),
            },
            mapped: AtomicUsize::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }
}

fn free_tree(root: &Node<L1>) {
    for s1 in root.slots.iter() {
        let p1 = s1.swap(std::ptr::null_mut(), Ordering::AcqRel);
        if p1.is_null() {
            continue;
        }
        // SAFETY: Drop has exclusive access; every non-null slot was
        // installed via Box::into_raw and never freed elsewhere.
        let l1 = unsafe { Box::from_raw(p1) };
        for s2 in l1.slots.iter() {
            let p2 = s2.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if p2.is_null() {
                continue;
            }
            let l2 = unsafe { Box::from_raw(p2) };
            for s3 in l2.slots.iter() {
                let p3 = s3.swap(std::ptr::null_mut(), Ordering::AcqRel);
                if p3.is_null() {
                    continue;
                }
                let l3 = unsafe { Box::from_raw(p3) };
                for sp in l3.slots.iter() {
                    let pp = sp.swap(std::ptr::null_mut(), Ordering::AcqRel);
                    if !pp.is_null() {
                        drop(unsafe { Box::from_raw(pp) });
                    }
                }
            }
        }
    }
}

impl Drop for AddressSpace {
    fn drop(&mut self) {
        free_tree(&self.root);
        for Retired(p) in self.retired.lock().expect("retired lock").drain(..) {
            // SAFETY: retired pages were detached from the tree and are
            // only freed here, with exclusive access.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    fn page_of(addr: Word) -> u64 {
        addr >> PAGE_SHIFT
    }

    fn indices(page: u64) -> [usize; 4] {
        [
            ((page >> (3 * FAN_BITS)) & FAN_MASK) as usize,
            ((page >> (2 * FAN_BITS)) & FAN_MASK) as usize,
            ((page >> FAN_BITS) & FAN_MASK) as usize,
            (page & FAN_MASK) as usize,
        ]
    }

    /// The mapped page holding `page`, if any (four acquire loads).
    #[inline]
    fn page(&self, page: u64) -> Option<&Page> {
        let [i1, i2, i3, i4] = Self::indices(page);
        self.root.get(i1)?.get(i2)?.get(i3)?.get(i4)
    }

    /// The leaf node for `page`, creating intermediate nodes as needed.
    fn leaf_for(&self, page: u64) -> &L3 {
        let [i1, i2, i3, _] = Self::indices(page);
        let l1 = self.root.install(i1, Node::new).0;
        let l2 = l1.install(i2, Node::new).0;
        l2.install(i3, Node::new).0
    }

    /// Maps (zero-filled) every page overlapping `[addr, addr+len)`.
    /// Already-mapped pages are left untouched.
    pub fn map_range(&self, addr: Word, len: u64) {
        if len == 0 {
            return;
        }
        let first = Self::page_of(addr);
        let last = Self::page_of(addr + (len - 1));
        for p in first..=last {
            let leaf = self.leaf_for(p);
            let (_, fresh) = leaf.install((p & FAN_MASK) as usize, Page::new_zeroed);
            if fresh {
                self.mapped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Unmaps every page fully contained in `[addr, addr+len)`. The page
    /// memory is retired (freed when the address space drops) so
    /// concurrent readers never touch freed memory; see the module docs.
    pub fn unmap_range(&self, addr: Word, len: u64) {
        if len == 0 {
            return;
        }
        let first = Self::page_of(addr);
        let last = Self::page_of(addr + (len - 1));
        let mut retired = self.retired.lock().expect("retired lock");
        for p in first..=last {
            let [i1, i2, i3, i4] = Self::indices(p);
            let Some(leaf) = self
                .root
                .get(i1)
                .and_then(|l1| l1.get(i2))
                .and_then(|l2| l2.get(i3))
            else {
                continue;
            };
            let old = leaf.slots[i4].swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !old.is_null() {
                self.mapped.fetch_sub(1, Ordering::Relaxed);
                retired.push(Retired(old));
            }
        }
    }

    /// Returns true if every byte of `[addr, addr+len)` is mapped.
    pub fn is_mapped(&self, addr: Word, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let first = Self::page_of(addr);
        let last = Self::page_of(addr + (len - 1));
        (first..=last).all(|p| self.page(p).is_some())
    }

    /// Number of mapped pages (diagnostics).
    pub fn mapped_pages(&self) -> usize {
        self.mapped.load(Ordering::Relaxed)
    }

    /// Reads `len` bytes into `buf[..len]`.
    pub fn read_bytes(&self, addr: Word, buf: &mut [u8]) -> Result<(), Trap> {
        if buf.is_empty() {
            return Ok(());
        }
        let mut done = 0usize;
        let mut cur = addr;
        while done < buf.len() {
            let off = (cur & (PAGE_SIZE - 1)) as usize;
            let avail = (PAGE_SIZE as usize - off).min(buf.len() - done);
            let pg = self.page(Self::page_of(cur)).ok_or(Trap::MemFault {
                addr: cur,
                len: (buf.len() - done) as u64,
                write: false,
            })?;
            page_read(pg, off, &mut buf[done..done + avail]);
            done += avail;
            cur += avail as u64;
        }
        Ok(())
    }

    /// Writes all of `buf` at `addr`.
    pub fn write_bytes(&self, addr: Word, buf: &[u8]) -> Result<(), Trap> {
        if buf.is_empty() {
            return Ok(());
        }
        // Fail before any partial write so (single-threaded) faults are
        // atomic.
        if !self.is_mapped(addr, buf.len() as u64) {
            return Err(Trap::MemFault {
                addr,
                len: buf.len() as u64,
                write: true,
            });
        }
        let mut done = 0usize;
        let mut cur = addr;
        while done < buf.len() {
            let off = (cur & (PAGE_SIZE - 1)) as usize;
            let avail = (PAGE_SIZE as usize - off).min(buf.len() - done);
            let pg = self.page(Self::page_of(cur)).ok_or(Trap::MemFault {
                addr: cur,
                len: (buf.len() - done) as u64,
                write: true,
            })?;
            page_write(pg, off, &buf[done..done + avail]);
            done += avail;
            cur += avail as u64;
        }
        Ok(())
    }

    /// Returns a raw handle to the mapped page containing `addr`, for use
    /// as an entry of the compiled backend's software TLB (a few pages
    /// cached per run).
    ///
    /// The handle stays valid for the life of this `AddressSpace`
    /// *allocation* (pages are retired on unmap, never freed early), so a
    /// cached handle never dangles — but after an `unmap_range` of the
    /// page it reads and writes retired memory instead of faulting, the
    /// same stale-but-valid window a racing lock-free reader already has
    /// (see the module docs). Callers bound that window by dropping
    /// cached handles at every point the environment could unmap.
    #[inline]
    pub fn page_handle(&self, addr: Word) -> Option<PageHandle> {
        self.page(Self::page_of(addr)).map(|pg| PageHandle {
            pg: pg as *const Page,
        })
    }

    /// Reads a zero-extended value of the given width.
    pub fn read(&self, addr: Word, width: Width) -> Result<Word, Trap> {
        let n = width.bytes() as usize;
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        // Fast path: the access sits inside one aligned word of one page.
        if (off % 8) + n <= 8 {
            let pg = self.page(Self::page_of(addr)).ok_or(Trap::MemFault {
                addr,
                len: n as u64,
                write: false,
            })?;
            return Ok(word_read(pg, off, width));
        }
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf[..n])?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a value truncated to the given width.
    pub fn write(&self, addr: Word, val: Word, width: Width) -> Result<(), Trap> {
        let n = width.bytes() as usize;
        let off = (addr & (PAGE_SIZE - 1)) as usize;
        // Fast path: the access sits inside one aligned word of one page.
        if (off % 8) + n <= 8 {
            let pg = self.page(Self::page_of(addr)).ok_or(Trap::MemFault {
                addr,
                len: n as u64,
                write: true,
            })?;
            word_write(pg, off, val, width);
            return Ok(());
        }
        let bytes = val.to_le_bytes();
        self.write_bytes(addr, &bytes[..n])
    }

    /// Reads a full 64-bit word.
    pub fn read_word(&self, addr: Word) -> Result<Word, Trap> {
        self.read(addr, Width::B8)
    }

    /// Writes a full 64-bit word.
    pub fn write_word(&self, addr: Word, val: Word) -> Result<(), Trap> {
        self.write(addr, val, Width::B8)
    }

    /// Zero-fills `[addr, addr+len)`.
    ///
    /// A word-aligned range (start and length multiples of 8) that is
    /// mapped throughout is checked once and cleared a page at a time
    /// with plain atomic word stores. Any other range — unaligned, or
    /// with an unmapped page — takes the 256-byte chunked path, which
    /// writes the chunks before the first unmapped one and then faults
    /// on that chunk.
    pub fn zero_range(&self, addr: Word, len: u64) -> Result<(), Trap> {
        if (addr | len).is_multiple_of(8) && self.is_mapped(addr, len) {
            let mut cur = addr;
            let mut remaining = len;
            while remaining > 0 {
                let off = (cur & (PAGE_SIZE - 1)) as usize;
                let n = (PAGE_SIZE - off as u64).min(remaining);
                let Some(pg) = self.page(Self::page_of(cur)) else {
                    // A concurrent unmap took the page after the check:
                    // the chunked path reports the fault.
                    return self.zero_range_chunked(cur, remaining);
                };
                for w in &pg.words[off / 8..(off + n as usize) / 8] {
                    w.store(0, Ordering::Relaxed);
                }
                cur = cur.wrapping_add(n);
                remaining -= n;
            }
            return Ok(());
        }
        self.zero_range_chunked(addr, len)
    }

    /// [`zero_range`](Self::zero_range)'s general path: 256-byte
    /// [`write_bytes`](Self::write_bytes) chunks.
    fn zero_range_chunked(&self, addr: Word, len: u64) -> Result<(), Trap> {
        const ZEROS: [u8; 256] = [0u8; 256];
        let mut cur = addr;
        let mut remaining = len;
        while remaining > 0 {
            let chunk = remaining.min(256) as usize;
            self.write_bytes(cur, &ZEROS[..chunk])?;
            cur += chunk as u64;
            remaining -= chunk as u64;
        }
        Ok(())
    }
}

/// A raw reference to one mapped page: an entry of the compiled
/// backend's software TLB. Obtained from [`AddressSpace::page_handle`];
/// see there for the validity rules.
///
/// The accessors are `unsafe` because the handle does not borrow the
/// address space: the caller must guarantee the originating
/// `AddressSpace` allocation is still alive, **and** that the
/// `AddressSpace` is not reachable only through an `&mut` reference the
/// caller re-asserts between caching and use (environments that own
/// their address space behind a shared allocation — `Arc`, or a field of
/// a shared core — satisfy this trivially).
#[derive(Clone, Copy)]
pub struct PageHandle {
    pg: *const Page,
}

// SAFETY: the handle is a shared reference in disguise; all access goes
// through the page's atomics.
unsafe impl Send for PageHandle {}
unsafe impl Sync for PageHandle {}

impl PageHandle {
    /// A handle to no page, held by an empty software-TLB way. It is
    /// never dereferenced: an empty way's tag matches no page number.
    pub(crate) const DANGLING: PageHandle = PageHandle {
        pg: std::ptr::dangling(),
    };

    /// Reads a zero-extended `width`-sized value at byte offset `off`,
    /// which must lie within one aligned word: `(off % 8) + width.bytes()
    /// <= 8` and `off < PAGE_SIZE`.
    ///
    /// # Safety
    ///
    /// The originating `AddressSpace` must still be alive (see the type
    /// docs).
    #[inline]
    pub unsafe fn read_in_word(&self, off: usize, width: Width) -> Word {
        debug_assert!(off % 8 + width.bytes() as usize <= 8 && off < PAGE_SIZE as usize);
        // SAFETY: caller keeps the address space alive; retired pages
        // remain valid allocations until it drops.
        word_read(unsafe { &*self.pg }, off, width)
    }

    /// Writes a `width`-sized value at byte offset `off` (same in-word
    /// bounds as [`read_in_word`](Self::read_in_word)), exactly like
    /// [`AddressSpace::write`]: full-word stores are single atomic
    /// stores, sub-word stores merge with a CAS loop.
    ///
    /// # Safety
    ///
    /// The originating `AddressSpace` must still be alive (see the type
    /// docs).
    #[inline]
    pub unsafe fn write_in_word(&self, off: usize, val: Word, width: Width) {
        debug_assert!(off % 8 + width.bytes() as usize <= 8 && off < PAGE_SIZE as usize);
        // SAFETY: see `read_in_word`.
        word_write(unsafe { &*self.pg }, off, val, width)
    }
}

/// Reads the zero-extended `width`-sized value at byte offset `off` of
/// `pg`, which must lie within one aligned word (`(off % 8) +
/// width.bytes() <= 8`): the in-word access both [`AddressSpace::read`]
/// and [`PageHandle::read_in_word`] make.
#[inline(always)]
fn word_read(pg: &Page, off: usize, width: Width) -> Word {
    let w = pg.words[off / 8].load(Ordering::Relaxed);
    let n = width.bytes() as usize;
    if n == 8 {
        return w;
    }
    (w >> ((off % 8) * 8)) & ((1u64 << (n * 8)) - 1)
}

/// Writes `val` truncated to `width` at byte offset `off` of `pg`
/// (in-word, as for [`word_read`]): a full word is one atomic store, a
/// sub-word value merges into its word with a CAS loop.
#[inline(always)]
fn word_write(pg: &Page, off: usize, val: Word, width: Width) {
    let word = &pg.words[off / 8];
    let n = width.bytes() as usize;
    if n == 8 {
        word.store(val, Ordering::Relaxed);
        return;
    }
    let shift = (off % 8) * 8;
    let mask = (1u64 << (n * 8)) - 1;
    let mut cur = word.load(Ordering::Relaxed);
    loop {
        let merged = (cur & !(mask << shift)) | ((val & mask) << shift);
        match word.compare_exchange_weak(cur, merged, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => cur = now,
        }
    }
}

/// Copies `buf.len()` bytes out of a page starting at byte offset `off`.
fn page_read(pg: &Page, mut off: usize, buf: &mut [u8]) {
    let mut done = 0usize;
    while done < buf.len() {
        let w = pg.words[off / 8].load(Ordering::Relaxed).to_le_bytes();
        let in_word = off % 8;
        let take = (8 - in_word).min(buf.len() - done);
        buf[done..done + take].copy_from_slice(&w[in_word..in_word + take]);
        done += take;
        off += take;
    }
}

/// Writes `buf` into a page starting at byte offset `off`. Full aligned
/// words are plain atomic stores; partial words merge via a CAS loop.
fn page_write(pg: &Page, mut off: usize, buf: &[u8]) {
    let mut done = 0usize;
    while done < buf.len() {
        let in_word = off % 8;
        let take = (8 - in_word).min(buf.len() - done);
        let word = &pg.words[off / 8];
        if take == 8 {
            word.store(
                u64::from_le_bytes(buf[done..done + 8].try_into().expect("8 bytes")),
                Ordering::Relaxed,
            );
        } else {
            let mut cur = word.load(Ordering::Relaxed);
            loop {
                let mut bytes = cur.to_le_bytes();
                bytes[in_word..in_word + take].copy_from_slice(&buf[done..done + take]);
                match word.compare_exchange_weak(
                    cur,
                    u64::from_le_bytes(bytes),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        }
        done += take;
        off += take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_access_faults() {
        let a = AddressSpace::new();
        let err = a.read_word(0x1000).unwrap_err();
        assert!(matches!(err, Trap::MemFault { write: false, .. }));
        let a = AddressSpace::new();
        let err = a.write_word(0x1000, 7).unwrap_err();
        assert!(matches!(err, Trap::MemFault { write: true, .. }));
    }

    #[test]
    fn map_read_write_roundtrip() {
        let a = AddressSpace::new();
        a.map_range(0x4000, 64);
        a.write_word(0x4000, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(a.read_word(0x4000).unwrap(), 0xdead_beef_cafe_f00d);
        a.write(0x4010, 0x1234_5678, Width::B4).unwrap();
        assert_eq!(a.read(0x4010, Width::B4).unwrap(), 0x1234_5678);
        assert_eq!(a.read(0x4010, Width::B2).unwrap(), 0x5678);
        assert_eq!(a.read(0x4011, Width::B1).unwrap(), 0x56);
    }

    #[test]
    fn in_word_stores_merge_and_fault_like_byte_stores() {
        const V: u64 = 0x0102_0304_0506_0708;
        let fault = |r: Result<(), Trap>| match r {
            Err(Trap::MemFault { addr, len, write }) => (addr, len, write),
            other => panic!("expected a fault, got {other:?}"),
        };
        let a = AddressSpace::new();
        a.map_range(0x3000, 16);
        for width in [Width::B1, Width::B2, Width::B4, Width::B8] {
            let n = width.bytes();
            let mask = u64::MAX >> (64 - 8 * n);
            for off in (0..=8 - n).step_by(n as usize) {
                a.write_word(0x3000, u64::MAX).unwrap();
                a.write(0x3000 + off, V, width).unwrap();
                let shift = off * 8;
                let want = !(mask << shift) | ((V & mask) << shift);
                assert_eq!(a.read_word(0x3000).unwrap(), want, "{n} bytes at +{off}");
                assert_eq!(a.read(0x3000 + off, width).unwrap(), V & mask);
            }
            // An unmapped in-word store faults with the byte path's values.
            let addr = 0x9000 + 8 - n;
            let by_bytes = fault(a.write_bytes(addr, &V.to_le_bytes()[..n as usize]));
            assert_eq!(fault(a.write(addr, V, width)), by_bytes);
            assert_eq!(by_bytes, (addr, n, true));
        }
    }

    #[test]
    fn cross_page_access() {
        let a = AddressSpace::new();
        a.map_range(0x1000, 2 * PAGE_SIZE);
        let addr = 0x1000 + PAGE_SIZE - 3;
        a.write_word(addr, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(a.read_word(addr).unwrap(), 0x0102_0304_0506_0708);
    }

    #[test]
    fn unaligned_word_within_page_roundtrips() {
        let a = AddressSpace::new();
        a.map_range(0x2000, 64);
        a.write_word(0x2003, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(a.read_word(0x2003).unwrap(), 0x1122_3344_5566_7788);
        // Neighbouring bytes survive the partial-word merges.
        assert_eq!(a.read(0x2000, Width::B1).unwrap(), 0);
        assert_eq!(a.read(0x200b, Width::B1).unwrap(), 0);
    }

    #[test]
    fn cross_page_fault_when_second_page_unmapped() {
        let a = AddressSpace::new();
        a.map_range(0x1000, PAGE_SIZE);
        let addr = 0x1000 + PAGE_SIZE - 4;
        assert!(a.write_word(addr, 1).is_err());
        // The mapped prefix must be untouched (atomic fault).
        assert_eq!(a.read(addr, Width::B4).unwrap(), 0);
    }

    #[test]
    fn zeroing() {
        let a = AddressSpace::new();
        a.map_range(0x2000, 1024);
        for i in 0..1024u64 {
            a.write(0x2000 + i, 0xff, Width::B1).unwrap();
        }
        a.zero_range(0x2000 + 100, 700).unwrap();
        assert_eq!(a.read(0x2000 + 99, Width::B1).unwrap(), 0xff);
        assert_eq!(a.read(0x2000 + 100, Width::B1).unwrap(), 0);
        assert_eq!(a.read(0x2000 + 799, Width::B1).unwrap(), 0);
        assert_eq!(a.read(0x2000 + 800, Width::B1).unwrap(), 0xff);
    }

    /// Base of the pages the `zero_range` comparisons map.
    const ZBASE: Word = 0x10_0000;

    /// An address space with the given pages (indices from `ZBASE`)
    /// mapped and every byte set to 0xa5.
    fn patterned(pages: &[u64]) -> AddressSpace {
        let a = AddressSpace::new();
        for &p in pages {
            a.map_range(ZBASE + p * PAGE_SIZE, PAGE_SIZE);
            a.write_bytes(ZBASE + p * PAGE_SIZE, &[0xa5; PAGE_SIZE as usize])
                .unwrap();
        }
        a
    }

    fn dump(a: &AddressSpace, pages: &[u64]) -> Vec<u8> {
        let mut out = vec![0u8; pages.len() * PAGE_SIZE as usize];
        for (chunk, &p) in out.chunks_mut(PAGE_SIZE as usize).zip(pages) {
            a.read_bytes(ZBASE + p * PAGE_SIZE, chunk).unwrap();
        }
        out
    }

    /// Zeroes `[addr, addr+len)` with `zero_range` and with the chunked
    /// path on twin spaces: same result, same memory afterwards.
    fn zero_like_chunked(pages: &[u64], addr: Word, len: u64) -> (Result<(), Trap>, Vec<u8>) {
        let (a, b) = (patterned(pages), patterned(pages));
        let got = a.zero_range(addr, len);
        let want = b.zero_range_chunked(addr, len);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{addr:#x}+{len}");
        let mem = dump(&a, pages);
        assert_eq!(mem, dump(&b, pages), "{addr:#x}+{len}");
        (got, mem)
    }

    #[test]
    fn zero_range_aligned_matches_chunked() {
        let (r, mem) = zero_like_chunked(&[0], ZBASE + 64, 512);
        assert!(r.is_ok());
        assert!(mem[..64].iter().all(|&b| b == 0xa5));
        assert!(mem[64..576].iter().all(|&b| b == 0));
        assert!(mem[576..].iter().all(|&b| b == 0xa5));
        let (r, mem) = zero_like_chunked(&[0], ZBASE, PAGE_SIZE);
        assert!(r.is_ok() && mem.iter().all(|&b| b == 0));
        assert!(zero_like_chunked(&[0], ZBASE + 8, 0).0.is_ok());
    }

    #[test]
    fn zero_range_unaligned_matches_chunked() {
        for (off, len) in [(3, 700), (8, 13), (5, 8), (4091, 5), (1, 4094)] {
            let (r, mem) = zero_like_chunked(&[0], ZBASE + off, len);
            assert!(r.is_ok());
            let (s, e) = (off as usize, (off + len) as usize);
            assert!(mem[s..e].iter().all(|&b| b == 0), "{off}+{len}");
            assert!(mem[..s].iter().chain(&mem[e..]).all(|&b| b == 0xa5));
        }
    }

    #[test]
    fn zero_range_page_crossing_matches_chunked() {
        let pages = [0, 1, 2];
        for (off, len) in [
            (PAGE_SIZE - 256, 1024),
            (PAGE_SIZE - 8, 8 + PAGE_SIZE + 8),
            (0, 3 * PAGE_SIZE),
            (PAGE_SIZE - 5, 300),
        ] {
            let (r, mem) = zero_like_chunked(&pages, ZBASE + off, len);
            assert!(r.is_ok());
            let (s, e) = (off as usize, (off + len) as usize);
            assert!(mem[s..e].iter().all(|&b| b == 0), "{off}+{len}");
            assert!(mem[..s].iter().chain(&mem[e..]).all(|&b| b == 0xa5));
        }
    }

    #[test]
    fn zero_range_partially_mapped_faults_like_chunked() {
        // Page 1 is a hole: the chunks before it are zeroed, the chunk
        // that reaches it faults, nothing after it is touched.
        let pages = [0, 2];
        let hole = ZBASE + PAGE_SIZE;
        let (r, mem) = zero_like_chunked(&pages, hole - 512, 2 * PAGE_SIZE);
        assert!(matches!(
            r,
            Err(Trap::MemFault { addr, len: 256, write: true }) if addr == hole
        ));
        let page0 = PAGE_SIZE as usize;
        assert!(mem[..page0 - 512].iter().all(|&b| b == 0xa5));
        assert!(mem[page0 - 512..page0].iter().all(|&b| b == 0));
        assert!(mem[page0..].iter().all(|&b| b == 0xa5));
        // Starting in the hole, or unaligned across it: same faults.
        let (r, _) = zero_like_chunked(&pages, hole + 64, 128);
        assert!(matches!(r, Err(Trap::MemFault { write: true, .. })));
        let (r, _) = zero_like_chunked(&pages, hole - 13, 100);
        assert!(matches!(r, Err(Trap::MemFault { write: true, .. })));
        // An aligned range ending in the last mapped page before a hole
        // still succeeds.
        assert!(zero_like_chunked(&pages, hole - 512, 512).0.is_ok());
    }

    #[test]
    fn unmap_releases_pages() {
        let a = AddressSpace::new();
        a.map_range(0x1000, 3 * PAGE_SIZE);
        assert_eq!(a.mapped_pages(), 3);
        a.unmap_range(0x1000, 3 * PAGE_SIZE);
        assert_eq!(a.mapped_pages(), 0);
        assert!(!a.is_mapped(0x1000, 1));
    }

    #[test]
    fn map_is_idempotent_and_preserves_content() {
        let a = AddressSpace::new();
        a.map_range(0x1000, 8);
        a.write_word(0x1000, 42).unwrap();
        a.map_range(0x1000, PAGE_SIZE);
        assert_eq!(a.read_word(0x1000).unwrap(), 42);
    }

    #[test]
    fn distant_regions_coexist() {
        // Regions in different radix subtrees (user low, kernel high).
        let a = AddressSpace::new();
        a.map_range(0x1000, 64);
        a.map_range(0xffff_9000_0000_0000, 64);
        a.write_word(0x1000, 1).unwrap();
        a.write_word(0xffff_9000_0000_0000, 2).unwrap();
        assert_eq!(a.read_word(0x1000).unwrap(), 1);
        assert_eq!(a.read_word(0xffff_9000_0000_0000).unwrap(), 2);
        assert_eq!(a.mapped_pages(), 2);
    }

    #[test]
    fn concurrent_disjoint_writes_land() {
        use std::sync::Arc;
        let a = Arc::new(AddressSpace::new());
        a.map_range(0x8000, 4 * PAGE_SIZE);
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    let base = 0x8000 + t * PAGE_SIZE;
                    for i in 0..512u64 {
                        a.write_word(base + i * 8, t * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            let base = 0x8000 + t * PAGE_SIZE;
            for i in 0..512u64 {
                assert_eq!(a.read_word(base + i * 8).unwrap(), t * 1000 + i);
            }
        }
    }

    #[test]
    fn concurrent_map_of_same_page_is_safe() {
        use std::sync::Arc;
        let a = Arc::new(AddressSpace::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || a.map_range(0x4000, 8 * PAGE_SIZE))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.mapped_pages(), 8);
        a.write_word(0x4000, 7).unwrap();
        assert_eq!(a.read_word(0x4000).unwrap(), 7);
    }
}
