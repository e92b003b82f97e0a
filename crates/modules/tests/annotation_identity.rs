//! Annotation identity on every shipped module declaration: the cached
//! hash is FNV-1a over the canonical print, and the print parses back
//! to the same annotation set (§4.1: module-side and kernel-side hashes
//! of one annotation must match).

use lxfi_annotations::hash::fnv1a;
use lxfi_annotations::{annotation_hash, parse_fn_annotations};
use lxfi_modules as mods;

#[test]
fn module_declarations_hash_their_canonical_print() {
    let mut n = 0;
    for spec in mods::all_specs() {
        let decls = spec
            .iface
            .sig_decls
            .values()
            .chain(spec.iface.fn_decls.values());
        for d in decls {
            let what = format!("{}: {}", spec.name, d.name);
            let text = d.ann.canonical();
            assert_eq!(d.ahash, annotation_hash(&d.ann), "{what}");
            assert_eq!(d.ahash, fnv1a(text.as_bytes()), "{what}");
            let reparsed = parse_fn_annotations(&text).expect("canonical print parses");
            assert_eq!(reparsed, d.ann, "{what}");
            assert_eq!(reparsed.canonical(), text, "{what}");
            n += 1;
        }
    }
    assert!(n >= 20, "{n} module declarations");
}
