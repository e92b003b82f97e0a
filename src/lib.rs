//! LXFI — software fault isolation with API integrity and multi-principal
//! modules (reproduction of Mao et al., SOSP 2011).
//!
//! This facade crate re-exports the workspace: the KIR machine substrate,
//! the annotation language, the LXFI runtime, the compile-time rewriter,
//! the simulated Linux kernel, the ten annotated modules, and the CVE
//! exploit reproductions. See `ARCHITECTURE.md` for the system
//! inventory and `README.md` for how each of the paper's tables and
//! figures is regenerated.

pub use lxfi_annotations as annotations;
pub use lxfi_core as core;
pub use lxfi_exploits as exploits;
pub use lxfi_kernel as kernel;
pub use lxfi_machine as machine;
pub use lxfi_modules as modules;
pub use lxfi_rewriter as rewriter;

/// Commonly used items for examples and downstream users.
pub mod prelude {
    pub use lxfi_kernel::{IsolationMode, Kernel};
}
