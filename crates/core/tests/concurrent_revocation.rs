//! Concurrent guard soundness: racing revokes against guarded stores.
//!
//! The invariant under test is the tentpole's acceptance bar: **no
//! stale-epoch cache hit may ever authorize a revoked write** — once a
//! revoke has completed (happens-before established), every thread's
//! next guard on the revoked coverage must deny, no matter what its
//! private epoch cache held.
//!
//! The vendored toolchain has no `loom`, so the schedule exploration is
//! done the barrier-stress way: worker threads hold hot caches while a
//! churn thread revokes and re-grants the exact coverage they write,
//! with `std::sync::Barrier` establishing the happens-before edges the
//! assertions need — plus unsynchronized chaos threads hammering
//! unrelated principals through the same shard locks to keep the locks
//! under real contention while the phased assertions run. A final pass
//! checks that the sharded index is well-formed and names exactly the
//! writers a sequential replay of each thread's operations predicts.

#![cfg(not(miri))] // spawns OS threads and relies on real scheduling

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use lxfi_core::{GuardHandle, ModuleId, PrincipalId, RawCap, RuntimeCore};

/// Builds a sharded world: one module, `writers` instance principals
/// each owning a private object, plus a churn arena in its own shard.
fn world(writers: usize) -> (Arc<RuntimeCore>, ModuleId, Vec<PrincipalId>) {
    let core = Arc::new(RuntimeCore::with_shard_boundaries(vec![
        0x10_0000, 0x20_0000, 0x30_0000,
    ]));
    let m = core.register_module("mt");
    let ps: Vec<PrincipalId> = (0..writers)
        .map(|i| core.principal_for_name(m, 0x9000 + i as u64 * 8))
        .collect();
    for (i, &p) in ps.iter().enumerate() {
        core.grant(p, RawCap::write(obj(i), 0x100));
    }
    (core, m, ps)
}

/// The `i`-th writer's private object (all in the second shard).
fn obj(i: usize) -> u64 {
    0x10_0000 + i as u64 * 0x1000
}

/// Phased revoke race: the writer's cache is hot when the churn thread
/// revokes its exact coverage; the barrier makes the revoke
/// happen-before the next batch of guards, which must all deny. Then
/// the grant comes back and the guards must all allow again — across
/// many rounds, with chaos threads keeping the shard locks busy the
/// whole time.
#[test]
fn racing_revokes_never_authorize_stale_writes() {
    const ROUNDS: usize = 200;
    const STORES: usize = 64;
    let (core, m, ps) = world(3);
    let victim = ps[0];
    let cap = RawCap::write(obj(0), 0x100);
    let barrier = Arc::new(Barrier::new(2));
    let stop = Arc::new(AtomicBool::new(false));

    // Chaos: two threads churning *other* principals' grants and
    // guarding their own stores, unsynchronized with the phased pair.
    let mut chaos = Vec::new();
    for (ci, &p) in ps.iter().enumerate().skip(1) {
        let core = core.clone();
        let stop = stop.clone();
        chaos.push(thread::spawn(move || {
            let mut h: GuardHandle = GuardHandle::new(core.clone());
            h.set_current(Some((m, p)));
            let spare = RawCap::write(0x20_0000 + ci as u64 * 0x1000, 0x80);
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                core.grant(p, spare);
                h.check_write(spare.addr, 8).expect("own spare grant");
                h.check_write(obj(ci), 8).expect("own stable grant");
                core.revoke(p, spare);
                // The stable grant must never be disturbed by anyone.
                h.check_write(obj(ci), 8).expect("own stable grant");
                assert!(
                    h.check_write(0x30_0000 + (i % 64) * 8, 8).is_err(),
                    "never-granted region must deny"
                );
                i += 1;
            }
        }));
    }

    let churner = {
        let core = core.clone();
        let barrier = barrier.clone();
        thread::spawn(move || {
            for _ in 0..ROUNDS {
                barrier.wait(); // writer is about to guard with a hot cache
                barrier.wait(); // writer finished the allowed batch
                let (removed, bumps) = core.revoke(victim, cap);
                assert!(removed && bumps > 0);
                barrier.wait(); // revoke is published; writer asserts denies
                barrier.wait(); // writer finished the denied batch
                core.grant(victim, cap);
            }
        })
    };

    let mut h: GuardHandle = GuardHandle::new(core.clone());
    h.set_current(Some((m, victim)));
    for round in 0..ROUNDS {
        barrier.wait();
        for s in 0..STORES {
            h.check_write(obj(0) + (s as u64 % 32) * 8, 8)
                .unwrap_or_else(|e| panic!("round {round}: granted store denied: {e}"));
        }
        barrier.wait();
        barrier.wait(); // ← the revoke happened-before this point
        for s in 0..STORES {
            assert!(
                h.check_write(obj(0) + (s as u64 % 32) * 8, 8).is_err(),
                "round {round} store {s}: stale cached grant authorized a \
                 revoked write"
            );
        }
        barrier.wait();
    }
    churner.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    for c in chaos {
        c.join().unwrap();
    }
    core.check_index_invariants();
    assert_eq!(
        h.stats.write_cache_hits + h.stats.write_cache_misses,
        (ROUNDS * STORES * 2) as u64,
        "every guard consulted the cache"
    );
}

/// The §3.1 hierarchy race: instances cache coverage derived from the
/// SHARED principal's table on several threads at once; revoking from
/// shared must invalidate all of them, transitively, across threads.
#[test]
fn shared_revoke_invalidates_every_threads_instance_cache() {
    const ROUNDS: usize = 100;
    const THREADS: usize = 4;
    let core = Arc::new(RuntimeCore::with_shard_boundaries(vec![0x10_0000]));
    let m = core.register_module("mt");
    let shared = core.shared_principal(m);
    let cap = RawCap::write(0x10_0000, 0x1000);
    core.grant(shared, cap);
    let ps: Vec<PrincipalId> = (0..THREADS)
        .map(|i| core.principal_for_name(m, 0x9000 + i as u64 * 8))
        .collect();
    let barrier = Arc::new(Barrier::new(THREADS + 1));

    let workers: Vec<_> = ps
        .iter()
        .map(|&p| {
            let core = core.clone();
            let barrier = barrier.clone();
            thread::spawn(move || {
                let mut h: GuardHandle = GuardHandle::new(core);
                h.set_current(Some((m, p)));
                for round in 0..ROUNDS {
                    barrier.wait();
                    // Hot phase: shared-derived coverage, cached under p.
                    h.check_write(0x10_0000 + (round as u64 % 128) * 8, 8)
                        .expect("shared grant live");
                    h.check_write(0x10_0000, 16).expect("shared grant live");
                    barrier.wait();
                    barrier.wait(); // ← shared revoke happened-before here
                    assert!(
                        h.check_write(0x10_0000, 8).is_err(),
                        "round {round}: instance cache survived a shared revoke"
                    );
                    barrier.wait();
                }
            })
        })
        .collect();

    for _ in 0..ROUNDS {
        barrier.wait(); // workers warm their caches
        barrier.wait();
        let (removed, bumps) = core.revoke(shared, cap);
        assert!(removed);
        // Shared revoke bumps shared + global + every instance.
        assert_eq!(bumps as usize, 2 + THREADS);
        barrier.wait();
        barrier.wait();
        core.grant(shared, cap);
    }
    for w in workers {
        w.join().unwrap();
    }
    core.check_index_invariants();
}

/// Unsynchronized chaos: every thread grants/revokes/kfrees its own
/// region while guarding stores, all through the same shard array.
/// After quiescence the index must name exactly the writers a model
/// replaying each thread's operations in order predicts — i.e. no race
/// left the index over- or under-approximating the capability state.
#[test]
fn concurrent_churn_preserves_index_table_agreement() {
    const THREADS: usize = 4;
    let core = Arc::new(RuntimeCore::with_shard_boundaries(vec![
        0x10_0000, 0x20_0000, 0x30_0000,
    ]));
    let m = core.register_module("mt");
    let ps: Vec<PrincipalId> = (0..THREADS)
        .map(|i| core.principal_for_name(m, 0x9000 + i as u64 * 8))
        .collect();
    let total_denied = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..THREADS)
        .map(|ti| {
            let core = core.clone();
            let p = ps[ti];
            let total_denied = total_denied.clone();
            thread::spawn(move || {
                let mut h: GuardHandle = GuardHandle::new(core.clone());
                h.set_current(Some((m, p)));
                // Deterministic per-thread op mix over the thread's own
                // sub-arena (threads share shards, not ranges, so the
                // linearized outcome per principal is deterministic).
                let base = 0x10_0000 + ti as u64 * 0x4000;
                let mut holders = Vec::new();
                for (op, g) in churn_ops(ti) {
                    let cap = RawCap::write(base + g * 0x100, 0x100);
                    match op {
                        0 => core.grant(p, cap),
                        1 => {
                            core.revoke(p, cap);
                        }
                        2 => {
                            core.revoke_write_overlapping_everywhere(cap.addr, 0x40, &mut holders);
                        }
                        _ => {
                            if h.check_write(cap.addr, 8).is_err() {
                                total_denied.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    core.check_index_invariants();
    // Quiesced: replay each thread's operations on its own granted
    // slots (a kfree of a slot's first 0x40 bytes drops that slot's
    // grant only) and compare writer membership at every probe.
    for (ti, &p) in ps.iter().enumerate() {
        let mut held = [false; 16];
        for (op, g) in churn_ops(ti) {
            match op {
                0 => held[g as usize] = true,
                1 | 2 => held[g as usize] = false,
                _ => {}
            }
        }
        let base = 0x10_0000 + ti as u64 * 0x4000;
        for probe in (base..base + 0x4000).step_by(0x80) {
            let g = (probe - base) / 0x100;
            let expect = if g < 16 && held[g as usize] {
                vec![p]
            } else {
                Vec::new()
            };
            assert_eq!(core.writers_of(probe), expect, "writers of {probe:#x}");
        }
    }
}

/// Thread `ti`'s deterministic churn: `(op, slot)` pairs, op 0 grant,
/// 1 revoke, 2 kfree, 3 guarded store.
fn churn_ops(ti: usize) -> impl Iterator<Item = (u64, u64)> {
    let mut x = 0x9e37_79b9_u64.wrapping_mul(ti as u64 + 1);
    (0..2_000).map(move |_| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 29) & 3, (x >> 33) % 16)
    })
}

/// Regression: revoking one of two overlapping grants reinstates the
/// survivor's index coverage atomically per shard. A concurrent
/// indirect-call check on a slot the survivor still covers must never
/// transiently see "no writers" — that would skip the writer's CALL
/// check and authorize the call. The writer here holds no CALL
/// capability, so every single check must fail.
#[test]
fn indcall_never_misses_a_surviving_writer_during_revoke() {
    const ROUNDS: u64 = 30_000;
    let core = Arc::new(RuntimeCore::with_shard_boundaries(vec![
        0x10_0000, 0x20_0000,
    ]));
    let m = core.register_module("mt");
    let p = core.principal_for_name(m, 0x9000);
    let slot = 0x10_0800u64;
    // Two overlapping grants both covering the slot; the churn revokes
    // and re-grants only the second, so the first always survives.
    let keep = RawCap::write(0x10_0000, 0x1000);
    let churned = RawCap::write(0x10_0400, 0x1000);
    core.grant(p, keep);
    core.grant(p, churned);
    let stop = Arc::new(AtomicBool::new(false));

    let churner = {
        let core = core.clone();
        let stop = stop.clone();
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let (removed, _) = core.revoke(p, churned);
                assert!(removed);
                core.grant(p, churned);
            }
        })
    };

    let mut h: GuardHandle = GuardHandle::new(core.clone());
    for i in 0..ROUNDS {
        let err = h
            .check_indcall(slot, 0xdead_beef, 0)
            .expect_err("a live writer without CALL must always be caught");
        assert!(
            matches!(err, lxfi_core::Violation::IndCallUnauthorized { .. }),
            "round {i}: unexpected violation {err:?}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    churner.join().unwrap();
    core.check_index_invariants();
}

/// The same bar for CALL decisions, which handles cache under the
/// core's CALL epoch: each round a checker thread keeps checking CALL
/// for a target (warming and re-filling its cache) while the main
/// thread revokes it, then re-grants it. Once the revoke has returned,
/// the checker's next check must deny, however its cache raced the
/// revoke; once the grant has returned, it must pass again.
#[test]
fn call_revoke_racing_checks_never_leaves_a_stale_decision() {
    const ROUNDS: usize = 300;
    const TARGET: u64 = 0xffff_ffff_8000_0040;
    let (core, m, ps) = world(1);
    let p = ps[0];
    core.grant(p, RawCap::call(TARGET));
    let barrier = Arc::new(Barrier::new(2));
    let revoked = Arc::new(AtomicBool::new(false));
    let checker = {
        let (core, barrier, revoked) = (
            Arc::clone(&core),
            Arc::clone(&barrier),
            Arc::clone(&revoked),
        );
        thread::spawn(move || {
            let mut h: GuardHandle = GuardHandle::new(core);
            h.set_current(Some((m, p)));
            for round in 0..ROUNDS {
                h.check_call(TARGET).expect("granted at round start");
                barrier.wait(); // the revoke may start
                while !revoked.load(Ordering::Acquire) {
                    let _ = h.check_call(TARGET);
                }
                assert!(
                    h.check_call(TARGET).is_err(),
                    "round {round}: a cached CALL outlived its revoke"
                );
                barrier.wait(); // re-grant may start
                barrier.wait(); // re-granted
            }
        })
    };
    for _ in 0..ROUNDS {
        barrier.wait();
        assert!(core.revoke(p, RawCap::call(TARGET)).0);
        revoked.store(true, Ordering::Release);
        barrier.wait();
        revoked.store(false, Ordering::Release);
        core.grant(p, RawCap::call(TARGET));
        barrier.wait();
    }
    checker.join().expect("checker thread");
}
