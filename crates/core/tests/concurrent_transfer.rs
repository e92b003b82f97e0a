//! Concurrent soundness of the single-holder grant transfer.
//!
//! The fast path ([`RuntimeCore::transfer_write`]) moves a WRITE grant
//! from its one indexed holder to the destination — destination granted
//! first, then the holder revoked — instead of the every-principal
//! revoke sweep. Two invariants must survive real concurrency:
//!
//! - **No stale authorization.** Once a transfer completes
//!   (happens-before established by barriers), the source principal's
//!   next guard on the moved coverage must deny even if its epoch cache
//!   was hot — the fast path must bump exactly the epochs the sweep
//!   would have.
//! - **Revoke/transfer races converge.** A transfer racing a concurrent
//!   transfer of the same capability to nobody (a revoke from every
//!   holder) may resolve either way,
//!   but never to a world where the source still holds the grant, and
//!   always to a world where the reverse index, the linear walk, and the
//!   capability tables agree exactly.

#![cfg(not(miri))] // spawns OS threads and relies on real scheduling

use std::sync::{Arc, Barrier};
use std::thread;

use lxfi_core::{GuardHandle, RawCap, RuntimeCore};

/// Phased fast-path check: warm the source's guard cache, transfer on
/// another thread, and require the very next guard to deny — across
/// many rounds bouncing the grant between two principals.
#[test]
fn transfer_invalidates_hot_source_caches() {
    const ROUNDS: usize = 100;
    let core = Arc::new(RuntimeCore::with_shard_boundaries(vec![
        0x10_0000, 0x20_0000,
    ]));
    let m = core.register_module("xfer");
    let a = core.principal_for_name(m, 0x9000);
    let b = core.principal_for_name(m, 0x9008);
    let cap = RawCap::write(0x10_0000, 0x100);
    core.grant(a, cap);

    let barrier = Arc::new(Barrier::new(2));
    let mover = {
        let core = Arc::clone(&core);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            let (mut fast, mut holders) = (0u64, Vec::new());
            for round in 0..ROUNDS {
                barrier.wait(); // caches are hot
                let (src, dst) = if round % 2 == 0 { (a, b) } else { (b, a) };
                let _ = src;
                let (was_fast, bumps) = core.transfer_write(cap, Some(dst), &mut holders);
                assert!(bumps > 0, "moving a held grant must bump epochs");
                fast += u64::from(was_fast);
                barrier.wait(); // transfer is visible
            }
            fast
        })
    };

    let mut ha: GuardHandle = GuardHandle::new(Arc::clone(&core));
    ha.set_current(Some((m, a)));
    let mut hb: GuardHandle = GuardHandle::new(Arc::clone(&core));
    hb.set_current(Some((m, b)));
    for round in 0..ROUNDS {
        // Warm the current holder's cache on the moved range.
        let (hot, cold, holder_after) = if round % 2 == 0 {
            (&mut ha, &mut hb, b)
        } else {
            (&mut hb, &mut ha, a)
        };
        hot.check_write(cap.addr, 8).expect("holder's own grant");
        barrier.wait(); // transfer runs
        barrier.wait(); // transfer done
        hot.check_write(cap.addr, 8)
            .expect_err("source must deny right after the transfer");
        cold.check_write(cap.addr, 8)
            .expect("destination must hold the moved grant");
        assert!(core.owns(holder_after, cap));
    }
    let fast = mover.join().expect("mover thread");
    assert_eq!(
        fast, ROUNDS as u64,
        "single-holder rounds must all take the fast path"
    );
    core.check_index_invariants();
}

/// Barrier-phased race: every round, one thread transfers the grant to
/// `b` while another revokes it everywhere. After both quiesce the
/// world must be consistent — `a` never retains the grant, `b` holds it
/// iff the index says so, and the sharded index matches the linear
/// walk exactly.
#[test]
fn transfer_racing_revoke_converges() {
    const ROUNDS: usize = 200;
    let core = Arc::new(RuntimeCore::with_shard_boundaries(vec![
        0x10_0000, 0x20_0000,
    ]));
    let m = core.register_module("race");
    let a = core.principal_for_name(m, 0x9000);
    let b = core.principal_for_name(m, 0x9008);
    let cap = RawCap::write(0x10_0000, 0x100);

    let barrier = Arc::new(Barrier::new(3));
    let xfer = {
        let core = Arc::clone(&core);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            let mut holders = Vec::new();
            for _ in 0..ROUNDS {
                barrier.wait(); // setup done: a holds the grant
                core.transfer_write(cap, Some(b), &mut holders);
                barrier.wait(); // both ops done
                barrier.wait(); // assertions done
            }
        })
    };
    let revoker = {
        let core = Arc::clone(&core);
        let barrier = Arc::clone(&barrier);
        thread::spawn(move || {
            let mut holders = Vec::new();
            for _ in 0..ROUNDS {
                barrier.wait();
                core.transfer_write(cap, None, &mut holders);
                barrier.wait();
                barrier.wait();
            }
        })
    };

    for _ in 0..ROUNDS {
        core.grant(a, cap);
        barrier.wait(); // release both racers
        barrier.wait(); // both finished
        assert!(!core.owns(a, cap), "source retained a transferred grant");
        let b_holds = core.owns(b, cap);
        let indexed = writers_of(&core, cap.addr);
        let linear = linear_writers_of(&core, cap.addr);
        assert_eq!(indexed, linear, "index and linear walk diverged");
        assert_eq!(
            indexed.contains(&b),
            b_holds,
            "index coverage must match b's table"
        );
        assert!(!indexed.contains(&a));
        core.check_index_invariants();
        // Reset for the next round.
        core.transfer_write(cap, None, &mut Vec::new());
        barrier.wait();
    }
    xfer.join().expect("transfer thread");
    revoker.join().expect("revoker thread");
}

fn writers_of(core: &Arc<RuntimeCore>, addr: u64) -> Vec<lxfi_core::PrincipalId> {
    let mut v = Vec::new();
    core.collect_writers(addr, 8, &mut v);
    v.sort_unstable();
    v
}

fn linear_writers_of(core: &Arc<RuntimeCore>, addr: u64) -> Vec<lxfi_core::PrincipalId> {
    (0..core.principal_count())
        .map(|i| lxfi_core::PrincipalId(i as u32))
        .filter(|&p| core.write_overlaps(p, addr, 8))
        .collect()
}
