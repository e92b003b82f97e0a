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
//!   always to a world where the writer index and each principal's
//!   coverage agree exactly.
//! - **A checked transfer moves only what its source still holds.** A
//!   transfer from a principal racing a revoke of that principal's
//!   grant either moves the grant (and the revoke finds nothing) or
//!   fails `MissingWrite` (and the revoke took it), never both: the
//!   source's coverage is checked in the same locked pass that moves
//!   the grant.
//! - **Never no holder across a shard boundary.** A transfer of a range
//!   that straddles a shard boundary moves the grant one shard at a
//!   time. Indirect-call checks and guard misses racing it on either
//!   side must always find the old or the new holder, and once it
//!   returns the source's warm caches must deny on both sides.

#![cfg(not(miri))] // spawns OS threads and relies on real scheduling

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use lxfi_core::{GuardHandle, RawCap, RuntimeCore, Violation};

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
                let (was_fast, bumps) = core
                    .transfer_write(cap, None, Some(dst), &mut holders)
                    .unwrap();
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
/// world must be consistent — `a` never retains the grant, and the
/// index names `b` as the range's only writer exactly when `b` holds
/// the grant.
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
                core.transfer_write(cap, None, Some(b), &mut holders)
                    .unwrap();
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
                core.transfer_write(cap, None, None, &mut holders).unwrap();
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
        let expect = if b_holds { vec![b] } else { Vec::new() };
        assert_eq!(
            core.writers_of(cap.addr),
            expect,
            "writers must match b's grant"
        );
        core.check_index_invariants();
        // Reset for the next round.
        core.transfer_write(cap, None, None, &mut Vec::new())
            .unwrap();
        barrier.wait();
    }
    xfer.join().expect("transfer thread");
    revoker.join().expect("revoker thread");
}

/// Barrier-phased race between a checked transfer from `a` to `b` and
/// a revoke of `a`'s grant, on a range inside one shard (even rounds)
/// and one straddling a boundary (odd rounds). Exactly one of them
/// wins: a transfer that checked `a`'s coverage and then moved the
/// grant after the revoke took it would leave `b` holding a grant `a`
/// no longer had.
#[test]
fn checked_transfer_racing_source_revoke_has_one_winner() {
    const ROUNDS: usize = 200;
    const B: u64 = 0x10_0080;
    let core = Arc::new(RuntimeCore::with_shard_boundaries(vec![B]));
    let m = core.register_module("checked");
    let a = core.principal_for_name(m, 0x9000);
    let b = core.principal_for_name(m, 0x9008);
    let cap_of = |round: usize| {
        if round.is_multiple_of(2) {
            RawCap::write(0x10_0000, 0x40)
        } else {
            RawCap::write(B - 0x40, 0x80)
        }
    };

    let barrier = Arc::new(Barrier::new(3));
    let moved = Arc::new(AtomicBool::new(false));
    let revoked = Arc::new(AtomicBool::new(false));
    let xfer = {
        let (core, barrier, moved) = (Arc::clone(&core), Arc::clone(&barrier), Arc::clone(&moved));
        thread::spawn(move || {
            let mut holders = Vec::new();
            for round in 0..ROUNDS {
                let cap = cap_of(round);
                barrier.wait();
                let r = core.transfer_write(cap, Some(a), Some(b), &mut holders);
                if let Err(e) = &r {
                    assert_eq!(
                        *e,
                        Violation::MissingWrite {
                            principal: a,
                            addr: cap.addr,
                            len: cap.size,
                        }
                    );
                }
                moved.store(r.is_ok(), Ordering::SeqCst);
                barrier.wait();
                barrier.wait();
            }
        })
    };
    let revoker = {
        let (core, barrier, revoked) = (
            Arc::clone(&core),
            Arc::clone(&barrier),
            Arc::clone(&revoked),
        );
        thread::spawn(move || {
            for round in 0..ROUNDS {
                barrier.wait();
                revoked.store(core.revoke(a, cap_of(round)).0, Ordering::SeqCst);
                barrier.wait();
                barrier.wait();
            }
        })
    };

    for round in 0..ROUNDS {
        let cap = cap_of(round);
        core.grant(a, cap);
        barrier.wait();
        barrier.wait();
        let (moved, revoked) = (moved.load(Ordering::SeqCst), revoked.load(Ordering::SeqCst));
        assert_ne!(moved, revoked, "round {round}: exactly one op wins");
        assert!(!core.owns(a, cap), "a keeps nothing");
        assert_eq!(core.owns(b, cap), moved, "b holds the grant iff it moved");
        core.check_index_invariants();
        core.transfer_write(cap, None, None, &mut Vec::new())
            .unwrap();
        barrier.wait();
    }
    xfer.join().expect("transfer thread");
    revoker.join().expect("revoker thread");
}

/// Release race across a shard boundary: each round the main thread
/// transfers a range straddling the boundary to the other principal
/// while one thread runs indirect-call checks through slots on both
/// sides (and one across the boundary) and another probes both
/// principals' coverage there, as a guard miss does. Mid-transfer every
/// slot keeps a holder, so no indirect call takes the no-holder fast
/// exit and every miss finds the source or the destination; once the
/// transfer returns, the source's caches, warmed on both sides, deny.
#[test]
fn straddling_transfer_never_reads_no_holder() {
    const ROUNDS: usize = 200;
    const B: u64 = 0x10_0080;
    const TARGET: u64 = 0xdead_0000;
    let core = Arc::new(RuntimeCore::with_shard_boundaries(vec![B]));
    let m = core.register_module("straddle");
    let a = core.principal_for_name(m, 0x9000);
    let b = core.principal_for_name(m, 0x9008);
    let cap = RawCap::write(B - 0x40, 0x80);
    let sides = [B - 8, B];
    core.grant(a, cap);

    // Both threads record what they see wrong instead of panicking, so a
    // failure cannot strand the other side of a barrier.
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (core, done) = (Arc::clone(&core), Arc::clone(&done));
        thread::spawn(move || {
            let mut h: GuardHandle = GuardHandle::new(core);
            let (mut calls, mut wrong) = (0u64, Vec::new());
            while !done.load(Ordering::Acquire) {
                for slot in [B - 8, B - 4, B] {
                    match h.check_indcall(slot, TARGET, 0) {
                        Err(Violation::IndCallUnauthorized { writer, .. })
                            if writer == a || writer == b => {}
                        other => wrong.push(format!("slot {slot:#x} read {other:?}")),
                    }
                    calls += 1;
                }
            }
            (calls, wrong)
        })
    };

    let moved = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(2));
    let guards = {
        let (core, moved, barrier) = (Arc::clone(&core), Arc::clone(&moved), Arc::clone(&barrier));
        thread::spawn(move || {
            let mut ha: GuardHandle = GuardHandle::new(Arc::clone(&core));
            ha.set_current(Some((m, a)));
            let mut hb: GuardHandle = GuardHandle::new(Arc::clone(&core));
            hb.set_current(Some((m, b)));
            let mut wrong = Vec::new();
            for round in 0..ROUNDS {
                let ((src, hsrc), (dst, hdst)) = if round % 2 == 0 {
                    ((a, &mut ha), (b, &mut hb))
                } else {
                    ((b, &mut hb), (a, &mut ha))
                };
                for side in sides {
                    if hsrc.check_write(side, 8).is_err() {
                        wrong.push(format!("round {round}: source denied at {side:#x}"));
                    }
                }
                barrier.wait(); // caches warm: transfer starts
                while moved.load(Ordering::Acquire) == round {
                    for side in sides {
                        // Source first: once it reads no cover in this
                        // side's shard, the destination must.
                        let w = RawCap::write(side, 8);
                        if !core.owns(src, w) && !core.owns(dst, w) {
                            wrong.push(format!("round {round}: no holder at {side:#x}"));
                        }
                    }
                }
                for side in sides {
                    if hsrc.check_write(side, 8).is_ok() {
                        wrong.push(format!("round {round}: stale grant at {side:#x}"));
                    }
                    if hdst.check_write(side, 8).is_err() {
                        wrong.push(format!("round {round}: destination denied at {side:#x}"));
                    }
                }
                barrier.wait(); // checks done
            }
            wrong
        })
    };

    for round in 0..ROUNDS {
        let dst = if round % 2 == 0 { b } else { a };
        barrier.wait();
        let mut holders = Vec::new();
        let (_, bumps) = core
            .transfer_write(cap, None, Some(dst), &mut holders)
            .unwrap();
        moved.store(round + 1, Ordering::Release);
        barrier.wait();
        assert!(bumps > 0, "the source lost the grant");
    }
    let wrong = guards.join().expect("guard thread");
    assert!(
        wrong.is_empty(),
        "guards: {:?}",
        &wrong[..wrong.len().min(4)]
    );
    done.store(true, Ordering::Release);
    let (calls, wrong) = reader.join().expect("indirect-call thread");
    assert!(calls > 0);
    assert!(
        wrong.is_empty(),
        "indirect calls: {:?}",
        &wrong[..wrong.len().min(4)]
    );
    core.check_index_invariants();
}
