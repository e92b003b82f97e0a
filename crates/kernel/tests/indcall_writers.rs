//! Kernel-level integration test for the reverse writer index on the
//! indirect-call slow path (§4.1/§5): three modules hold *overlapping*
//! WRITE grants over one function-pointer slot, and `check_indcall`
//! must reject exactly when any writer lacks the CALL capability for
//! the stored target — before and after revocations that split and
//! merge the index's intervals through the real grant path.

use lxfi_core::{PrincipalId, RawCap, Violation};
use lxfi_kernel::{IsolationMode, Kernel, ModuleSpec, STACK_BASE, STACK_SIZE, STACK_STRIDE};
use lxfi_machine::{ProgramBuilder, Word};
use lxfi_rewriter::InterfaceSpec;

/// The grant model: the principals holding a listed `(principal, addr,
/// len)` WRITE grant that overlaps the 8-byte slot at `addr`, sorted.
fn model_writers(grants: &[(PrincipalId, Word, u64)], addr: Word) -> Vec<PrincipalId> {
    let mut w: Vec<_> = grants
        .iter()
        .filter(|&&(_, a, len)| a < addr + 8 && addr < a + len)
        .map(|&(p, ..)| p)
        .collect();
    w.sort();
    w.dedup();
    w
}

/// A minimal module with one callable function.
fn tiny_spec(name: &str, ret: i64) -> ModuleSpec {
    let mut pb = ProgramBuilder::new(name);
    pb.define("cb", 0, 0, |f| {
        f.ret(ret);
    });
    ModuleSpec {
        name: name.into(),
        program: pb.finish(),
        iface: InterfaceSpec::new(),
        iterators: vec![],
        init_fn: None,
    }
}

struct World {
    k: Kernel,
    /// Shared principals of the three modules.
    principals: Vec<lxfi_core::PrincipalId>,
    /// The WRITE grants `boot_world` made over the slot arena.
    grants: Vec<(PrincipalId, Word, u64)>,
    slot: u64,
    target: u64,
    ahash: u64,
}

/// Boots a kernel with three LXFI modules whose WRITE grants overlap one
/// function-pointer slot with different extents (the real `RuntimeCore::grant`
/// path, so the reverse index sees them):
///
/// ```text
///   alpha: [slot-16, slot+16)
///   beta:  [slot,    slot+8)
///   gamma: [slot+4,  slot+32)
/// ```
fn boot_world() -> World {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    k.load_module(tiny_spec("alpha", 1)).unwrap();
    k.load_module(tiny_spec("beta", 2)).unwrap();
    k.load_module(tiny_spec("gamma", 3)).unwrap();

    let principals: Vec<_> = ["alpha", "beta", "gamma"]
        .iter()
        .map(|n| {
            let mid = k.runtime_module(k.module_id(n).unwrap()).unwrap();
            k.rt.shared_principal(mid)
        })
        .collect();

    // A kernel-static function-pointer slot, storing alpha::cb.
    let slot = k.kstatic_alloc(64) + 16;
    let target = k
        .module_fn_addr(k.module_id("alpha").unwrap(), "cb")
        .unwrap();
    k.mem.write_word(slot, target).unwrap();
    let ahash = k.rt.function_ahash(target).unwrap();

    let grants = vec![
        (principals[0], slot - 16, 32),
        (principals[1], slot, 8),
        (principals[2], slot + 4, 28),
    ];
    for &(p, addr, len) in &grants {
        k.rt.grant(p, RawCap::write(addr, len));
    }
    k.rt.check_index_invariants();

    World {
        k,
        principals,
        grants,
        slot,
        target,
        ahash,
    }
}

#[test]
fn rejects_exactly_while_any_writer_lacks_call() {
    let mut w = boot_world();
    let (slot, target, ahash) = (w.slot, w.target, w.ahash);

    // All three principals are writers of the slot (overlap semantics:
    // gamma's grant starts mid-slot and still counts).
    let mut writers = w.k.rt.writers_of(slot);
    writers.sort();
    let mut expect = w.principals.clone();
    expect.sort();
    assert_eq!(writers, expect, "all three modules write the slot");

    // alpha holds CALL for its own function (module-load grant), but
    // beta and gamma do not: the call must be refused.
    let err = w.k.rt.check_indcall(slot, target, ahash).unwrap_err();
    assert!(matches!(err, Violation::IndCallUnauthorized { .. }));

    // Grant CALL to beta only — gamma still lacks it.
    w.k.rt.grant(w.principals[1], RawCap::call(target));
    let err = w.k.rt.check_indcall(slot, target, ahash).unwrap_err();
    match err {
        Violation::IndCallUnauthorized { writer, .. } => {
            assert_eq!(writer, w.principals[2], "gamma is the writer refused")
        }
        other => panic!("expected IndCallUnauthorized, got {other:?}"),
    }

    // Grant CALL to gamma too: every writer can call the target.
    w.k.rt.grant(w.principals[2], RawCap::call(target));
    w.k.rt.check_indcall(slot, target, ahash).unwrap();

    // The full kernel dispatch path agrees and runs alpha::cb.
    let ret = w.k.indirect_call(slot, "cb_sig", &[]).unwrap();
    assert_eq!(ret, 1);
}

#[test]
fn revocations_split_and_merge_through_the_grant_path() {
    let mut w = boot_world();
    let (slot, target, ahash) = (w.slot, w.target, w.ahash);
    let [alpha, beta, gamma] = [w.principals[0], w.principals[1], w.principals[2]];

    // Make the call legal, then peel writers off one revocation at a
    // time; the index must track exactly who remains.
    w.k.rt.grant(beta, RawCap::call(target));
    w.k.rt.grant(gamma, RawCap::call(target));
    w.k.rt.check_indcall(slot, target, ahash).unwrap();

    // Revoke gamma's CALL: its WRITE still overlaps, so the check fails
    // again — revocation must not linger in any cached writer set.
    assert!(w.k.rt.revoke(gamma, RawCap::call(target)));
    let err = w.k.rt.check_indcall(slot, target, ahash).unwrap_err();
    assert!(matches!(
        err,
        Violation::IndCallUnauthorized { writer, .. } if writer == gamma
    ));

    // Revoke gamma's WRITE instead: gamma stops being a writer, so the
    // remaining writers (alpha, beta) all hold CALL and the call passes.
    assert!(w.k.rt.revoke(gamma, RawCap::write(slot + 4, 28)));
    w.k.rt.check_index_invariants();
    let mut writers = w.k.rt.writers_of(slot);
    writers.sort();
    let mut expect = vec![alpha, beta];
    expect.sort();
    assert_eq!(writers, expect);
    w.k.rt.check_indcall(slot, target, ahash).unwrap();

    // kfree-style overlapping revocation strips beta's exact-slot grant
    // AND alpha's covering grant in one sweep (both intersect the slot),
    // leaving no writers: the slow path then passes vacuously.
    w.k.rt.revoke_write_overlapping_everywhere(slot, 8);
    w.k.rt.check_index_invariants();
    assert!(w.k.rt.writers_of(slot).is_empty());
    w.k.rt.check_indcall(slot, target, ahash).unwrap();

    // Re-grant beta WRITE over the slot without CALL: rejected again —
    // the index picks up post-revocation grants (merge after split).
    w.k.rt.revoke(beta, RawCap::call(target));
    w.k.rt.grant(beta, RawCap::write(slot - 4, 12));
    let err = w.k.rt.check_indcall(slot, target, ahash).unwrap_err();
    assert!(matches!(
        err,
        Violation::IndCallUnauthorized { writer, .. } if writer == beta
    ));
}

#[test]
fn overlapping_stack_grants_stay_consistent() {
    // Module loading itself produces heavily overlapping WRITE grants:
    // every module's shared principal gets every kernel stack, at load
    // and whenever a CPU is added. The index must name exactly those
    // holders inside each stack and no one just past it.
    let w = boot_world();
    let _second_cpu = w.k.new_cpu();
    let mut every_module = w.principals.clone();
    every_module.sort();
    for t in 0..2u64 {
        let base = STACK_BASE + t * STACK_STRIDE;
        for probe in [base, base + STACK_SIZE - 8] {
            assert_eq!(
                w.k.rt.writers_of(probe),
                every_module,
                "stack {t} @ {probe:#x}"
            );
        }
        assert!(
            w.k.rt.writers_of(base + STACK_SIZE).is_empty(),
            "past stack {t}"
        );
    }
    assert!(w.k.rt.writers_of(STACK_BASE + 2 * STACK_STRIDE).is_empty());
    // And on the slot arena, against the grants `boot_world` made.
    for d in [-24i64, -16, -8, 0, 4, 8, 16, 24, 32] {
        let probe = w.slot.wrapping_add_signed(d);
        let mut a = w.k.rt.writers_of(probe);
        a.sort();
        assert_eq!(a, model_writers(&w.grants, probe), "probe {d:+}");
    }
}
