//! Adversarial hardening of the guard-soundness verifier.
//!
//! Two halves:
//!
//! 1. **Mutation corpus**: real rewriter output (straight-line merged
//!    runs, a diamond, a hoisted loop, frame stores, calls) is mutated
//!    one guard at a time — stripped, moved after its store, retargeted
//!    to another base, span shortened, offset shifted. Every store in
//!    the corpus programs writes a distinct byte range, so each guard
//!    is uniquely load-bearing and *every* mutant must be rejected. A
//!    verifier that lets one through would also let a rewriter bug
//!    through.
//! 2. **Proptest**: randomly generated programs (stores, frame stores,
//!    ALU, loads, forward branches, calls, counted loops) are run
//!    through `rewrite_module` under all four option combinations; the
//!    output must always prove sound under the module policy. This is
//!    the "rewriter output always verifies" half of the contract —
//!    including hoisted output, which is how the hoisting pass earns
//!    the right to stay untrusted.

mod corpus;

use corpus::{
    arb_op, build_program, corpus_mutants, corpus_program, delete_inst, diamond_program,
    guard_sites,
};
use lxfi_machine::isa::Inst;
use lxfi_machine::soundness::{verify_soundness, SoundnessPolicy};
use lxfi_machine::Program;
use lxfi_rewriter::{rewrite_module, RewriteOptions};
use proptest::prelude::*;

#[test]
fn every_corpus_mutant_is_rejected() {
    let rw = rewrite_module(&corpus_program(), RewriteOptions::default());
    verify_soundness(&rw.program, SoundnessPolicy::module()).expect("corpus baseline proves");
    assert!(
        rw.merge.guards_hoisted >= 1,
        "corpus exercises a hoisted guard"
    );

    let sites = guard_sites(&rw.program);
    assert!(sites.len() >= 5, "corpus should have several guard sites");

    let cases = corpus_mutants(&rw.program);
    for (what, mutant) in &cases {
        assert!(
            verify_soundness(mutant, SoundnessPolicy::module()).is_err(),
            "verifier accepted broken mutant: {what}"
        );
    }
    assert!(cases.len() >= 20, "corpus produced {} mutants", cases.len());
}

#[test]
fn diamond_guard_on_one_arm_only_is_rejected() {
    // Rewriter output guards both arms; stripping one arm's guard
    // leaves the join store provable on one path only, which the
    // must-meet rejects.
    let rw = rewrite_module(&diamond_program(), RewriteOptions::default());
    verify_soundness(&rw.program, SoundnessPolicy::module()).unwrap();
    // Strip the guard from one arm: the arm's own store loses its
    // proof, so the mutant must be rejected.
    let sites = guard_sites(&rw.program);
    let (fi, idx) = sites[0];
    let mutant = delete_inst(&rw.program, fi, idx);
    assert!(verify_soundness(&mutant, SoundnessPolicy::module()).is_err());
}

// ----------------------------------------------------------- proptest

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The rewriter contract: whatever the input program and options,
    /// the rewritten output proves guard-sound under the module policy.
    #[test]
    fn rewriter_output_always_verifies(
        ops in proptest::collection::vec(arb_op(), 1..40),
        merge: bool,
        hoist: bool,
    ) {
        let p = build_program(&ops);
        let opts = RewriteOptions {
            merge_write_guards: merge,
            hoist_loop_guards: hoist,
        };
        let rw = rewrite_module(&p, opts);
        prop_assert!(rw.merge.hoists_reverted == 0, "hoist gate tripped");
        let report = verify_soundness(&rw.program, SoundnessPolicy::module());
        prop_assert!(report.is_ok(), "rewriter output failed: {:?}", report.err());
    }

    /// Stripping any guard from hoisted output with distinct store
    /// ranges is caught (loop bodies store through `rb`, straight-line
    /// ops store through other registers at other offsets — ranges can
    /// collide here, so only assert the baseline proves and hoisting
    /// never *creates* an unsound program).
    #[test]
    fn hoisting_never_breaks_a_provable_program(
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let p = build_program(&ops);
        let unhoisted = rewrite_module(&p, RewriteOptions {
            merge_write_guards: true,
            hoist_loop_guards: false,
        });
        let hoisted = rewrite_module(&p, RewriteOptions::default());
        prop_assert!(verify_soundness(&unhoisted.program, SoundnessPolicy::module()).is_ok());
        prop_assert!(verify_soundness(&hoisted.program, SoundnessPolicy::module()).is_ok());
        // Hoisting only ever moves or removes guard *executions*, never
        // adds or removes protected stores.
        let stores = |p: &Program| p.funcs.iter().flat_map(|f| &f.insts)
            .filter(|i| matches!(i, Inst::Store { .. })).count();
        prop_assert_eq!(stores(&unhoisted.program), stores(&hoisted.program));
    }
}
