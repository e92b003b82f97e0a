//! Core kernel exports: allocator, locks, memory and user-space copies.
//!
//! Annotations here are the canonical examples from the paper:
//!
//! - `kmalloc` grants the module a WRITE capability **for the actual
//!   allocation size** (`post(if (return != 0) transfer(write, return,
//!   size))`) — this is precisely what defeats the CAN BCM integer
//!   overflow (§8.1): the module asked for a small (wrapped) size, so
//!   that is all it can write.
//! - `spin_lock_init` demands WRITE over the lock
//!   (`pre(check(write, lock))`), killing the §1 attack of passing the
//!   address of `current->uid` as a "lock".
//! - `kfree` revokes every outstanding WRITE capability overlapping the
//!   freed object, so no principal retains access to recycled memory.

use std::sync::Arc;

use lxfi_core::iface::Param;
use lxfi_machine::{Trap, Width};

use crate::kernel::KernelCpu;
use crate::layout::is_user_addr;

/// Cycle cost charged per native kernel call (base kernel work).
pub const NATIVE_CALL_COST: u64 = 40;

/// Extra per-byte cost of kernel memory copies.
pub const COPY_BYTE_COST_NUM: u64 = 1;
/// Divisor for per-byte copy cost (1/4 cycle per byte).
pub const COPY_BYTE_COST_DEN: u64 = 4;

fn charge(k: &mut KernelCpu, bytes: u64) -> Result<(), Trap> {
    use lxfi_machine::Env;
    k.consume(NATIVE_CALL_COST + bytes * COPY_BYTE_COST_NUM / COPY_BYTE_COST_DEN)
}

/// Registers the base exports.
pub fn register(k: &mut KernelCpu) {
    k.export(
        "kmalloc",
        vec![Param::scalar("size")],
        Some("post(if (return != 0) transfer(write, return, size))"),
        Arc::new(|k, args| {
            charge(k, 0)?;
            if k.fault_fires(crate::fault_inject::FaultSite::Alloc) {
                return Ok(0);
            }
            let size = args.first().copied().unwrap_or(0);
            Ok(k.kmalloc_cpu(size).unwrap_or(0))
        }),
    );

    k.export(
        "kzalloc",
        vec![Param::scalar("size")],
        Some("post(if (return != 0) transfer(write, return, size))"),
        Arc::new(|k, args| {
            let size = args.first().copied().unwrap_or(0);
            charge(k, size)?;
            if k.fault_fires(crate::fault_inject::FaultSite::Alloc) {
                return Ok(0);
            }
            let alloc = k.kmalloc_cpu(size);
            match alloc {
                Some(addr) => {
                    k.mem.zero_range(addr, size)?;
                    Ok(addr)
                }
                None => Ok(0),
            }
        }),
    );

    k.export(
        "kfree",
        vec![Param::scalar("ptr")],
        Some("pre(if (ptr != 0) check(write, ptr, 1))"),
        Arc::new(|k, args| {
            charge(k, 0)?;
            let ptr = args.first().copied().unwrap_or(0);
            if ptr == 0 {
                return Ok(0);
            }
            if let Some(class) = k.free_prologue(ptr)? {
                k.kfree_cpu(ptr, class);
            }
            Ok(0)
        }),
    );

    k.export(
        "spin_lock_init",
        vec![Param::ptr("lock", "spinlock_t")],
        Some("pre(check(write, lock))"),
        Arc::new(|k, args| {
            charge(k, 0)?;
            // Writes zero through the pointer — the §1 attack surface.
            k.mem.write_word(args[0], 0)?;
            Ok(0)
        }),
    );

    k.export(
        "spin_lock",
        vec![Param::ptr("lock", "spinlock_t")],
        Some("pre(check(write, lock))"),
        Arc::new(|k, args| {
            charge(k, 0)?;
            k.mem.write_word(args[0], 1)?;
            Ok(0)
        }),
    );

    k.export(
        "spin_unlock",
        vec![Param::ptr("lock", "spinlock_t")],
        Some("pre(check(write, lock))"),
        Arc::new(|k, args| {
            charge(k, 0)?;
            k.mem.write_word(args[0], 0)?;
            Ok(0)
        }),
    );

    k.export(
        "memset_k",
        vec![
            Param::scalar("ptr"),
            Param::scalar("val"),
            Param::scalar("n"),
        ],
        Some("pre(check(write, ptr, n))"),
        Arc::new(|k, args| {
            let (ptr, val, n) = (args[0], args[1] as u8, args[2]);
            charge(k, n)?;
            for i in 0..n {
                k.mem.write(ptr + i, u64::from(val), Width::B1)?;
            }
            Ok(0)
        }),
    );

    k.export(
        "memcpy_k",
        vec![
            Param::scalar("dst"),
            Param::scalar("src"),
            Param::scalar("n"),
        ],
        Some("pre(check(write, dst, n))"),
        Arc::new(|k, args| {
            let (dst, src, n) = (args[0], args[1], args[2]);
            charge(k, n)?;
            let mut buf = vec![0u8; n as usize];
            k.mem.read_bytes(src, &mut buf)?;
            k.mem.write_bytes(dst, &buf)?;
            Ok(0)
        }),
    );

    k.export(
        "copy_from_user",
        vec![
            Param::scalar("dst"),
            Param::scalar("src"),
            Param::scalar("n"),
        ],
        Some("pre(check(write, dst, n))"),
        Arc::new(|k, args| {
            let (dst, src, n) = (args[0], args[1], args[2]);
            charge(k, n)?;
            // The kernel-side check the RDS module *lacks* in its own
            // copy loop: the source must be a user address.
            if !is_user_addr(src) || !is_user_addr(src + n) {
                return Ok((-14i64) as u64); // -EFAULT
            }
            let mut buf = vec![0u8; n as usize];
            k.mem.read_bytes(src, &mut buf)?;
            k.mem.write_bytes(dst, &buf)?;
            Ok(0)
        }),
    );

    k.export(
        "copy_to_user",
        vec![
            Param::scalar("dst"),
            Param::scalar("src"),
            Param::scalar("n"),
        ],
        Some(""),
        Arc::new(|k, args| {
            let (dst, src, n) = (args[0], args[1], args[2]);
            charge(k, n)?;
            if !is_user_addr(dst) || !is_user_addr(dst + n) {
                return Ok((-14i64) as u64); // -EFAULT
            }
            let mut buf = vec![0u8; n as usize];
            k.mem.read_bytes(src, &mut buf)?;
            k.mem.write_bytes(dst, &buf)?;
            Ok(0)
        }),
    );

    k.export(
        "printk",
        vec![Param::scalar("msg")],
        Some(""),
        Arc::new(|k, _args| {
            charge(k, 0)?;
            Ok(0)
        }),
    );

    k.export(
        "bug",
        vec![],
        Some(""),
        Arc::new(|_k, _args| Err(Trap::Bug(0))),
    );

    // `lxfi_princ_alias` / `lxfi_check`: the runtime's privileged entry
    // points exposed to module code (§3.4). Only statically-coupled calls
    // exist in KIR (CallExtern), satisfying the paper's "only direct
    // control flow transfers are allowed" requirement.
    k.export_runtime(
        "lxfi_princ_alias",
        vec![Param::scalar("existing"), Param::scalar("new_name")],
        "",
        Arc::new(|k, args| {
            k.princ_alias_current(args[0], args[1])?;
            Ok(0)
        }),
    );

    // Privileged principal switch to the module's global principal
    // (Guideline 6). Module code must precede this with adequate checks;
    // LXFI's CFI guarantees the checks cannot be bypassed because only
    // statically-coupled direct calls to this entry exist.
    k.export_runtime(
        "lxfi_switch_global",
        vec![],
        "",
        Arc::new(|k, _args| {
            match k.rt.current() {
                Some((mid, _p)) => {
                    let g = k.rt.global_principal(mid);
                    k.rt.set_current(Some((mid, g)));
                    Ok(0)
                }
                None if k.executing_stock_module() => Ok(0), // compiled out
                None => Err(lxfi_machine::Trap::from(
                    lxfi_core::Violation::PrincipalDenied {
                        why: "lxfi_switch_global outside module context".into(),
                    },
                )),
            }
        }),
    );

    // `detach_pid`: unlinks a task from the pid hash. Exported to the
    // core kernel only — it carries **no annotation**, and no module
    // imports it, so no module principal ever holds a CALL capability
    // for it. The pid-hash rootkit (§8.1) tries to reach it anyway.
    k.export(
        "detach_pid",
        vec![Param::scalar("task")],
        None,
        Arc::new(|k, args| {
            let task = args[0];
            k.procs().detach_pid(&k.mem, task);
            Ok(0)
        }),
    );

    k.export_data("jiffies", 8);
}
