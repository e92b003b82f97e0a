//! Interface declarations: annotated function prototypes and type layouts.
//!
//! A [`FnDecl`] is the runtime's view of one annotated prototype — either
//! an exported kernel function, a module function, or a function-pointer
//! type. The annotation's expressions reference parameters by name, and a
//! caplist without an explicit size defaults to `sizeof(*ptr)`, resolved
//! against the parameter's declared pointee type through [`TypeLayouts`].

use std::collections::HashMap;
use std::sync::Arc;

use lxfi_annotations::{annotation_hash, FnAnnotations};

/// A declared parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name, referenced by annotation expressions.
    pub name: String,
    /// Pointee type name when the parameter is a pointer (`sk_buff`,
    /// `struct pci_dev`, ...); `None` for scalars. Used only to resolve
    /// default capability sizes.
    pub pointee: Option<String>,
}

impl Param {
    /// A scalar parameter.
    pub fn scalar(name: &str) -> Self {
        Param {
            name: name.into(),
            pointee: None,
        }
    }

    /// A pointer parameter with the given pointee type name.
    pub fn ptr(name: &str, pointee: &str) -> Self {
        Param {
            name: name.into(),
            pointee: Some(pointee.into()),
        }
    }
}

/// An annotated function or function-pointer-type declaration.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// Symbol or type name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// The annotation set (kept for canonical printing and hashing).
    pub ann: FnAnnotations,
    /// Cached annotation hash (`ahash`, §4.1).
    pub ahash: u64,
    /// Name-free enforcement IR, filled by [`FnDecl::compile`]. Shared so
    /// cloning a declaration (wrappers clone per call site) costs one
    /// reference count. `None` falls back to compiling at enforcement
    /// time — correct but slow; registration paths always compile.
    pub compiled: Option<Arc<crate::compiled::CompiledAnn>>,
}

impl FnDecl {
    /// Creates a declaration and caches its annotation hash.
    pub fn new(name: impl Into<String>, params: Vec<Param>, ann: FnAnnotations) -> Self {
        let ahash = annotation_hash(&ann);
        FnDecl {
            name: name.into(),
            params,
            ann,
            ahash,
            compiled: None,
        }
    }

    /// Compiles the annotation set into the name-free IR (see
    /// [`crate::compiled`]). Call once at registration, after type
    /// layouts are known; constants and iterators referenced by the
    /// annotations may still be registered later.
    pub fn compile(&mut self, rt: &crate::runtime::RuntimeCore, layouts: &TypeLayouts) {
        self.compiled = Some(Arc::new(crate::compiled::compile_annotations(
            &self.ann,
            &self.params,
            layouts,
            rt,
        )));
    }

    /// Resolves the default capability size for parameter `name`:
    /// `sizeof(*ptr)` via the type-layout registry.
    pub fn default_size_of(&self, name: &str, layouts: &TypeLayouts) -> Option<u64> {
        param_pointee_size(&self.params, name, layouts)
    }
}

/// `sizeof(*name)` for a parameter list: the single definition of the
/// default-size rule, shared by [`FnDecl::default_size_of`] and the
/// annotation compiler.
pub(crate) fn param_pointee_size(
    params: &[Param],
    name: &str,
    layouts: &TypeLayouts,
) -> Option<u64> {
    let p = params.iter().find(|p| p.name == name)?;
    let ty = p.pointee.as_deref()?;
    layouts.size_of(ty)
}

/// Registry of simulated struct sizes (the kernel's type layouts).
#[derive(Debug, Default, Clone)]
pub struct TypeLayouts {
    sizes: HashMap<String, u64>,
}

impl TypeLayouts {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or updates) a type's size.
    pub fn define(&mut self, name: &str, size: u64) {
        self.sizes.insert(name.to_string(), size);
    }

    /// Looks up a type's size.
    pub fn size_of(&self, name: &str) -> Option<u64> {
        self.sizes.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxfi_annotations::parse_fn_annotations;

    #[test]
    fn default_size_resolution() {
        let mut layouts = TypeLayouts::new();
        layouts.define("spinlock_t", 8);
        let ann = parse_fn_annotations("pre(check(write, lock))").unwrap();
        let d = FnDecl::new(
            "spin_lock_init",
            vec![Param::ptr("lock", "spinlock_t")],
            ann,
        );
        assert_eq!(d.default_size_of("lock", &layouts), Some(8));
        assert_eq!(d.default_size_of("nosuch", &layouts), None);
    }

    #[test]
    fn scalar_params_have_no_default_size() {
        let layouts = TypeLayouts::new();
        let d = FnDecl::new(
            "kmalloc",
            vec![Param::scalar("size")],
            FnAnnotations::empty(),
        );
        assert_eq!(d.default_size_of("size", &layouts), None);
    }

    #[test]
    fn hash_is_cached_consistently() {
        let ann = parse_fn_annotations("pre(check(call, f))").unwrap();
        let d = FnDecl::new("f", vec![Param::scalar("f")], ann.clone());
        assert_eq!(d.ahash, lxfi_annotations::annotation_hash(&ann));
    }
}
