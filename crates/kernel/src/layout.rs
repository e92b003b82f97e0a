//! Simulated address-space layout.
//!
//! Mirrors the x86-64 split the paper's testbed uses: user space in the
//! lower half, kernel in the upper half. Regions are disjoint by
//! construction; nothing enforces them except the code that allocates
//! from them, exactly like a real kernel.

use lxfi_machine::Word;

/// Exclusive upper bound of user-space addresses.
pub const USER_TOP: Word = 0x0000_8000_0000_0000;

/// Base of the slab/kmalloc heap.
pub const HEAP_BASE: Word = 0xffff_8800_0000_0000;

/// Base of kernel thread stacks; each thread gets [`STACK_SIZE`] bytes,
/// spaced [`STACK_STRIDE`] apart.
pub const STACK_BASE: Word = 0xffff_9000_0000_0000;

/// Kernel stack size per thread (8 KiB, like x86-64 Linux).
pub const STACK_SIZE: u64 = 0x2000;

/// Spacing between thread stacks (guard gap included).
pub const STACK_STRIDE: u64 = 0x10000;

/// Base of module load windows; module `i` owns
/// `[MODULE_BASE + i*MODULE_STRIDE, ... + MODULE_STRIDE)`.
pub const MODULE_BASE: Word = 0xffff_a000_0000_0000;

/// Size of one module window.
pub const MODULE_STRIDE: u64 = 0x0100_0000;

/// Offset of a module's function-address region inside its window.
/// Function "addresses" identify functions for CALL capabilities and the
/// registry; they are not backed by data pages.
pub const MODULE_FN_OFFSET: u64 = 0x00f0_0000;

/// Spacing between module function addresses.
pub const FN_SPACING: u64 = 16;

/// The address of function `idx` of the module in window `slot`: one
/// [`FN_SPACING`] slot each, from the window's function area.
pub fn module_fn_addr(slot: usize, idx: u32) -> Word {
    MODULE_BASE + slot as u64 * MODULE_STRIDE + MODULE_FN_OFFSET + u64::from(idx) * FN_SPACING
}

/// The inverse of [`module_fn_addr`]: `None` for an address on no
/// function slot. Whether that window holds a live module with that
/// many functions is the module table's call.
pub fn module_fn_slot(addr: Word) -> Option<(usize, u32)> {
    if !(MODULE_BASE..EXPORT_BASE).contains(&addr) {
        return None;
    }
    let off = addr - MODULE_BASE;
    let in_area = (off % MODULE_STRIDE).checked_sub(MODULE_FN_OFFSET)?;
    if !in_area.is_multiple_of(FN_SPACING) {
        return None;
    }
    let (slot, idx) = (off / MODULE_STRIDE, in_area / FN_SPACING);
    Some((slot as usize, idx as u32))
}

/// Base of kernel exported-function addresses.
pub const EXPORT_BASE: Word = 0xffff_ffff_8000_0000;

/// Base of kernel data-symbol region (exported data like `jiffies`).
pub const KDATA_BASE: Word = 0xffff_8900_0000_0000;

/// Base of the kernel's own static objects (process table, ops tables).
pub const KSTATIC_BASE: Word = 0xffff_8a00_0000_0000;

/// Number of slab heap shards: the kmalloc heap is carved into this many
/// disjoint sub-regions, each backed by its own [`crate::slab::Slab`]
/// behind its own lock, and each given its own writer-index shard. A CPU
/// refills its magazines from "its" shard (`cpu % SLAB_SHARDS`), so
/// per-packet alloc/free traffic on different CPUs touches disjoint
/// locks end to end.
pub const SLAB_SHARDS: u64 = 8;

/// Byte span of one slab heap shard ([`HEAP_BASE`]..[`KDATA_BASE`] is
/// 1 TiB; eight shards of 128 GiB each).
pub const SLAB_SHARD_SPAN: u64 = (KDATA_BASE - HEAP_BASE) / SLAB_SHARDS;

/// Base address of slab heap shard `i`.
pub fn slab_shard_base(i: u64) -> Word {
    HEAP_BASE + i * SLAB_SHARD_SPAN
}

/// Shard split points for the runtime's reverse writer index: one shard
/// per address region (user space, heap, kernel data, kernel statics,
/// stacks, module area, exports), plus a shard per module window for the
/// first [`SHARDED_MODULE_WINDOWS`] modules, plus one per slab heap
/// shard — the regions whose capability traffic is independent, so
/// grant/revoke index updates in one never move another's entries, and
/// per-CPU slab frees never contend on another CPU's shard lock.
pub fn shard_boundaries() -> Vec<Word> {
    let mut b = vec![
        HEAP_BASE,
        KDATA_BASE,
        KSTATIC_BASE,
        STACK_BASE,
        MODULE_BASE,
        EXPORT_BASE,
    ];
    for i in 1..=SHARDED_MODULE_WINDOWS {
        b.push(MODULE_BASE + i * MODULE_STRIDE);
    }
    for i in 1..SLAB_SHARDS {
        b.push(slab_shard_base(i));
    }
    b.sort_unstable();
    b
}

/// Module windows given their own writer-index shard (later windows
/// share the tail shard; ten annotated modules exist today).
pub const SHARDED_MODULE_WINDOWS: u64 = 12;

/// Returns true for user-space addresses.
pub fn is_user_addr(a: Word) -> bool {
    a < USER_TOP
}

/// Returns true for kernel-half addresses.
pub fn is_kernel_addr(a: Word) -> bool {
    a >= 0xffff_0000_0000_0000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // layout constants checked on purpose
    fn regions_are_disjoint_and_classified() {
        assert!(is_user_addr(0x1000));
        assert!(!is_user_addr(HEAP_BASE));
        assert!(is_kernel_addr(HEAP_BASE));
        assert!(is_kernel_addr(STACK_BASE));
        assert!(is_kernel_addr(MODULE_BASE));
        assert!(is_kernel_addr(EXPORT_BASE));
        assert!(!is_kernel_addr(USER_TOP - 1));
        // Module windows do not collide with stacks or heap.
        assert!(MODULE_BASE > STACK_BASE + 1024 * STACK_STRIDE);
        assert!(STACK_BASE > HEAP_BASE);
        assert!(EXPORT_BASE > MODULE_BASE + 256 * MODULE_STRIDE);
    }

    #[test]
    fn module_fn_slot_inverts_function_addresses_only() {
        // The last function slot of a window ends where the next begins.
        let last = ((MODULE_STRIDE - MODULE_FN_OFFSET) / FN_SPACING - 1) as u32;
        assert_eq!(
            module_fn_addr(2, last) + FN_SPACING,
            MODULE_BASE + 3 * MODULE_STRIDE
        );
        for (slot, idx) in [(0, 0), (3, 7), (255, 40), (2, last)] {
            let a = module_fn_addr(slot, idx);
            assert_eq!(module_fn_slot(a), Some((slot, idx)));
            assert_eq!(module_fn_slot(a + 8), None, "misaligned");
            let window = MODULE_BASE + slot as u64 * MODULE_STRIDE;
            assert_eq!(module_fn_slot(window), None, "globals");
        }
        // Below the module area, and the export region with its spacing.
        for a in [
            0,
            HEAP_BASE,
            MODULE_BASE - FN_SPACING,
            EXPORT_BASE,
            EXPORT_BASE + 16,
        ] {
            assert_eq!(module_fn_slot(a), None, "{a:#x}");
        }
    }

    #[test]
    fn shard_boundaries_are_sorted_distinct_regions() {
        let b = shard_boundaries();
        assert!(b.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
        // Every region base is a split point, so no region shares a
        // shard with another.
        for base in [
            HEAP_BASE,
            KDATA_BASE,
            KSTATIC_BASE,
            STACK_BASE,
            MODULE_BASE,
            EXPORT_BASE,
        ] {
            assert!(b.contains(&base), "{base:#x} missing");
        }
        // The per-module-window boundaries stay inside the module area.
        assert!(b
            .iter()
            .filter(|&&x| x > MODULE_BASE && x < EXPORT_BASE)
            .all(|&x| (x - MODULE_BASE).is_multiple_of(MODULE_STRIDE)));
    }
}
