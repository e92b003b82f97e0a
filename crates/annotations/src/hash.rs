//! Stable annotation hashing.
//!
//! `lxfi_check_indcall(pptr, ahash)` (§4.1) compares the hash of the
//! annotations on the *invoked function* against the hash of the
//! annotations on the *function-pointer type* of the call site. A module
//! must not be able to change a function's effective annotations by
//! storing it in a differently-annotated pointer slot, so hash equality
//! must coincide with annotation-set equality (up to canonical form).
//!
//! The hash is FNV-1a over the canonical print — deliberately independent
//! of Rust's `Hash` so it is stable across compiler versions and runs.

use std::fmt::Write;

use crate::ast::FnAnnotations;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h`.
fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Hashes raw bytes with FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// An FNV-1a state that text is written into piece by piece; the result
/// equals [`fnv1a`] over the concatenation.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv1a_extend(self.0, s.as_bytes());
        Ok(())
    }
}

/// Computes the stable annotation hash (`ahash`) of an annotation set:
/// FNV-1a over its canonical print, streamed from the printer behind
/// [`FnAnnotations::canonical`] with no intermediate string.
pub fn annotation_hash(ann: &FnAnnotations) -> u64 {
    let mut h = Fnv1a(FNV_OFFSET);
    write!(h, "{ann}").expect("hashing never fails");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_fn_annotations;

    #[test]
    fn equal_annotations_hash_equal() {
        let a = parse_fn_annotations("pre(check(write, p, 8))").unwrap();
        let b = parse_fn_annotations("pre( check( write , p , 8 ) )").unwrap();
        assert_eq!(annotation_hash(&a), annotation_hash(&b));
    }

    #[test]
    fn different_annotations_hash_differently() {
        let a = parse_fn_annotations("pre(check(write, p, 8))").unwrap();
        let b = parse_fn_annotations("pre(check(write, p, 16))").unwrap();
        let c = parse_fn_annotations("pre(copy(write, p, 8))").unwrap();
        assert_ne!(annotation_hash(&a), annotation_hash(&b));
        assert_ne!(annotation_hash(&a), annotation_hash(&c));
    }

    #[test]
    fn hash_is_stable_across_runs() {
        // Pinned value: changing the canonical form or hash function is a
        // breaking change for recorded experiments.
        let a = parse_fn_annotations("pre(check(write, p, 8))").unwrap();
        assert_eq!(annotation_hash(&a), fnv1a(b"pre(check(write, p, 8))"));
    }

    #[test]
    fn empty_annotation_hash_is_distinct() {
        let empty = crate::ast::FnAnnotations::empty();
        let some = parse_fn_annotations("pre(check(call, f))").unwrap();
        assert_ne!(annotation_hash(&empty), annotation_hash(&some));
    }
}
