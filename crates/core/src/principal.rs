//! Module principals (§3.1) and their naming (§3.3).
//!
//! Each loaded module has a *shared* principal (capabilities visible to
//! every principal in the module — the initial imports land here), a
//! *global* principal (implicit access to the union of all the module's
//! capabilities — used for cross-instance state like econet's socket
//! list), and any number of *instance* principals created on demand.
//!
//! Principals are **named by pointers**: the address of the data structure
//! representing the instance (a socket, a block device, a NIC). A single
//! logical principal may have several names (`pci_dev` and `net_device`
//! for one NIC); `lxfi_princ_alias` binds a new name to an existing
//! principal.

use lxfi_machine::Word;

use crate::inthash::IntMap;

/// Identifies a loaded module within the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub u32);

/// Identifies a principal (unique across all modules).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrincipalId(pub u32);

/// The role of a principal within its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrincipalKind {
    /// Capabilities implicitly available to every principal in the module.
    Shared,
    /// Implicitly owns the union of all the module's capabilities.
    Global,
    /// One instance of the module's abstraction.
    Instance,
}

/// Per-module principal bookkeeping.
#[derive(Debug)]
pub struct ModuleInfo {
    /// Module name (diagnostics).
    pub name: String,
    /// The shared principal.
    pub shared: PrincipalId,
    /// The global principal.
    pub global: PrincipalId,
    /// All instance principals, in creation order.
    pub instances: Vec<PrincipalId>,
    /// Pointer-name → principal map (§3.3). Multiple names may alias one
    /// principal.
    pub names: IntMap<Word, PrincipalId>,
}

impl ModuleInfo {
    /// Creates bookkeeping for a new module.
    pub fn new(name: String, shared: PrincipalId, global: PrincipalId) -> Self {
        ModuleInfo {
            name,
            shared,
            global,
            instances: Vec::new(),
            names: IntMap::default(),
        }
    }

    /// Resolves a pointer name to a principal, if bound.
    pub fn lookup_name(&self, name: Word) -> Option<PrincipalId> {
        self.names.get(&name).copied()
    }

    /// Every principal belonging to this module (shared, global, then
    /// instances).
    pub fn all_principals(&self) -> impl Iterator<Item = PrincipalId> + '_ {
        [self.shared, self.global]
            .into_iter()
            .chain(self.instances.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_lookup_and_iteration() {
        let mut m = ModuleInfo::new("econet".into(), PrincipalId(0), PrincipalId(1));
        m.instances.push(PrincipalId(2));
        m.names.insert(0x9000, PrincipalId(2));
        assert_eq!(m.lookup_name(0x9000), Some(PrincipalId(2)));
        assert_eq!(m.lookup_name(0x9008), None);
        let all: Vec<_> = m.all_principals().collect();
        assert_eq!(all, vec![PrincipalId(0), PrincipalId(1), PrincipalId(2)]);
    }
}
