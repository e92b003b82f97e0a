//! Kernel-level integration test for the reverse writer index on the
//! indirect-call slow path (§4.1/§5): three modules hold *overlapping*
//! WRITE grants over one function-pointer slot, and `check_indcall`
//! must reject exactly when any writer lacks the CALL capability for
//! the stored target — before and after revocations that split and
//! merge the index's intervals through the real grant path.

use lxfi_core::{PrincipalId, RawCap, RuntimeCore, Violation};
use lxfi_kernel::{IsolationMode, Kernel, ModuleSpec};
use lxfi_machine::{ProgramBuilder, Word};
use lxfi_rewriter::InterfaceSpec;

/// The global principal walk: writers of the 8-byte slot at `addr`.
fn linear_walk(rt: &RuntimeCore, addr: Word) -> Vec<PrincipalId> {
    (0..rt.principal_count() as u32)
        .map(PrincipalId)
        .filter(|&p| rt.write_overlaps(p, addr, 8))
        .collect()
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
    let ahash = k.rt.function_at(target).unwrap().ahash;

    k.rt.grant(principals[0], RawCap::write(slot - 16, 32));
    k.rt.grant(principals[1], RawCap::write(slot, 8));
    k.rt.grant(principals[2], RawCap::write(slot + 4, 28));
    k.rt.check_index_invariants();

    World {
        k,
        principals,
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
    // Module loading itself produces heavily overlapping WRITE grants
    // (every module's shared principal gets the kernel stacks); the
    // index and the linear walk must agree on those regions too.
    let w = boot_world();
    for t in 0..2u64 {
        let stack_probe = 0xffff_8800_0000_0000u64 + t * 0x10000;
        let mut a = w.k.rt.writers_of(stack_probe);
        a.sort();
        assert_eq!(a, linear_walk(&w.k.rt, stack_probe));
    }
    // And on the slot arena.
    for d in [0u64, 4, 8, 16, 24] {
        let mut a = w.k.rt.writers_of(w.slot + d);
        a.sort();
        assert_eq!(a, linear_walk(&w.k.rt, w.slot + d), "probe +{d}");
    }
}
