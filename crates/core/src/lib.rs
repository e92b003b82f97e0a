//! The LXFI runtime — the paper's primary contribution.
//!
//! LXFI extends software fault isolation with two ideas (Mao et al.,
//! SOSP 2011):
//!
//! 1. **API integrity** (§2.2): the contract a kernel interface assumes is
//!    captured as capability annotations (`lxfi-annotations`) and enforced
//!    on every kernel/module control transfer.
//! 2. **Multi-principal modules** (§3.1): a shared module is split into
//!    per-instance principals (named by data-structure pointers), plus a
//!    *shared* principal visible to all instances and a *global* principal
//!    that unions every instance's privileges.
//!
//! This crate implements the runtime half of the system (§5):
//!
//! - capability representations ([`caps`]) — a binary-searched interval
//!   table, generic over an entry tag, that holds WRITE ranges (the
//!   paper's masked-slot hash table is a benchmark baseline in
//!   `lxfi-bench`, outside this crate), and per-principal CALL and REF
//!   sets;
//! - compiled annotations ([`compiled`]) — names resolved to dense ids at
//!   registration so enforcement never hashes strings;
//! - the principal registry with pointer-naming and `lxfi_princ_alias`
//!   ([`principal`]);
//! - per-thread shadow stacks saving return tokens and principal context
//!   ([`shadow`]);
//! - a reverse writer index sharded by address region
//!   ([`writer_index`]), the only WRITE capability table: one `(addr,
//!   size, holder)` entry per WRITE grant, in the interval table tagged
//!   with the holder. A write guard's miss asks it whether a grant in
//!   the principal's §3.1 scope covers the store; the kernel's
//!   indirect-call guard asks it who holds WRITE over a
//!   function-pointer slot, skipping the capability check when nobody
//!   does. Both lookups are sublinear in the number of principals, and
//!   a grant's or revoke's update is bounded by the shard;
//! - an epoch-validated per-principal write-guard cache ([`epoch_cache`])
//!   so revocation invalidates precisely the principals whose coverage
//!   shrank instead of the whole system's cached guard state;
//! - the annotation-action engine executed at wrapper boundaries
//!   ([`actions`]);
//! - guard statistics for the Figure 13 cost breakdown ([`stats`]);
//! - the shared [`RuntimeCore`] ([`runtime`]) and the per-thread
//!   [`GuardHandle`] ([`handle`]) every guard runs through — one per
//!   simulated kernel CPU.

pub mod actions;
pub mod caps;
pub mod chunked;
pub mod compiled;
pub mod epoch_cache;
pub mod handle;
pub mod iface;
pub mod inthash;
pub mod principal;
pub mod runtime;
pub mod shadow;
pub mod stats;
pub mod writer_index;

pub use caps::{CapType, IntervalTable, RawCap, RefTypeId};
pub use compiled::CompiledAnn;
pub use epoch_cache::{EpochCache, DEFAULT_WAYS};
pub use handle::GuardHandle;
pub use iface::{FnDecl, Param, TypeLayouts};
pub use principal::{ModuleId, PrincipalId, PrincipalKind};
pub use runtime::{ConstId, IteratorFn, IteratorId, KfreeSweep, RuntimeCore};
pub use stats::{GuardCosts, GuardKind, GuardStats, ALL_GUARD_KINDS};
pub use writer_index::WriterIndex;

use lxfi_machine::Word;

/// A policy violation detected by the LXFI runtime.
///
/// In the paper a violation panics the kernel (§3); in this reproduction it
/// propagates as `Trap::Policy` and the simulated kernel records a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The current principal lacks a WRITE capability for the range.
    MissingWrite {
        /// Offending principal.
        principal: PrincipalId,
        /// Start of the written range.
        addr: Word,
        /// Length of the written range.
        len: u64,
    },
    /// The principal lacks a CALL capability for the target address.
    MissingCall {
        /// Offending principal.
        principal: PrincipalId,
        /// Call target.
        target: Word,
    },
    /// The principal lacks the required REF capability.
    MissingRef {
        /// Offending principal.
        principal: PrincipalId,
        /// REF type name.
        rtype: String,
        /// REF value.
        value: Word,
    },
    /// A kernel indirect call would invoke a pointer written by a module
    /// whose writer lacks a CALL capability for the target (§4.1).
    IndCallUnauthorized {
        /// The function-pointer slot address.
        slot: Word,
        /// The would-be target.
        target: Word,
        /// The writer that lacks the CALL capability.
        writer: PrincipalId,
    },
    /// The target of an indirect call is not a registered function at all
    /// (e.g. a user-space address — the RDS exploit).
    NotAFunction {
        /// The would-be target.
        target: Word,
    },
    /// Annotations of the invoked function and of the function-pointer
    /// type do not match (§4.1).
    AnnotationMismatch {
        /// Hash on the function-pointer type.
        sig_hash: u64,
        /// Hash on the invoked function.
        fn_hash: u64,
    },
    /// A module called a kernel function that carries no annotation — the
    /// safe default is to deny (§2.2).
    UnannotatedFunction {
        /// Kernel symbol name.
        name: String,
    },
    /// Shadow-stack validation failed at wrapper exit (§5).
    ShadowStackCorrupted {
        /// Expected return token.
        expected: Word,
        /// Found token.
        found: Word,
    },
    /// `lxfi_princ_alias` or a principal switch was attempted without the
    /// required capability check (§3.4).
    PrincipalDenied {
        /// Explanation.
        why: String,
    },
    /// An annotation referenced an unregistered capability iterator.
    UnknownIterator {
        /// Iterator name.
        name: String,
    },
    /// An annotation expression failed to evaluate.
    BadExpression {
        /// Explanation.
        why: String,
    },
    /// A capability iterator failed while walking a data structure.
    IteratorFailed {
        /// Iterator name.
        name: String,
        /// Explanation.
        why: String,
    },
}

impl Violation {
    /// The principal whose (lacking or abused) authority this violation
    /// is attributable to, when the record names one. This is what lets
    /// the kernel's fault-containment layer quarantine the *culprit
    /// module* instead of panicking: a policy violation raised in kernel
    /// context (e.g. an indirect call through a module-written slot)
    /// carries the module principal that planted the bad state.
    ///
    /// Violations with no principal in them (shadow-stack corruption,
    /// annotation-hash mismatches, iterator failures, ...) return `None`
    /// and are the caller's problem to classify by execution context.
    pub fn culprit(&self) -> Option<PrincipalId> {
        match self {
            Violation::MissingWrite { principal, .. }
            | Violation::MissingCall { principal, .. }
            | Violation::MissingRef { principal, .. } => Some(*principal),
            Violation::IndCallUnauthorized { writer, .. } => Some(*writer),
            _ => None,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MissingWrite {
                principal,
                addr,
                len,
            } => write!(
                f,
                "principal {principal:?} has no WRITE capability for [{addr:#x}, +{len})"
            ),
            Violation::MissingCall { principal, target } => {
                write!(
                    f,
                    "principal {principal:?} has no CALL capability for {target:#x}"
                )
            }
            Violation::MissingRef {
                principal,
                rtype,
                value,
            } => write!(
                f,
                "principal {principal:?} has no REF({rtype}) capability for {value:#x}"
            ),
            Violation::IndCallUnauthorized {
                slot,
                target,
                writer,
            } => write!(
                f,
                "indirect call via slot {slot:#x}: writer {writer:?} lacks CALL for {target:#x}"
            ),
            Violation::NotAFunction { target } => {
                write!(f, "indirect call target {target:#x} is not a function")
            }
            Violation::AnnotationMismatch { sig_hash, fn_hash } => write!(
                f,
                "annotation hash mismatch: pointer type {sig_hash:#x} vs function {fn_hash:#x}"
            ),
            Violation::UnannotatedFunction { name } => {
                write!(
                    f,
                    "kernel function `{name}` has no annotation (safe default: deny)"
                )
            }
            Violation::ShadowStackCorrupted { expected, found } => write!(
                f,
                "shadow stack corrupted: expected token {expected:#x}, found {found:#x}"
            ),
            Violation::PrincipalDenied { why } => write!(f, "principal operation denied: {why}"),
            Violation::UnknownIterator { name } => {
                write!(f, "unknown capability iterator `{name}`")
            }
            Violation::BadExpression { why } => write!(f, "annotation expression error: {why}"),
            Violation::IteratorFailed { name, why } => {
                write!(f, "capability iterator `{name}` failed: {why}")
            }
        }
    }
}

impl std::error::Error for Violation {}

impl From<Violation> for lxfi_machine::Trap {
    fn from(v: Violation) -> Self {
        lxfi_machine::Trap::Policy(Box::new(v))
    }
}
