//! The LXFI compile-time rewriter (§4).
//!
//! Two passes, mirroring the paper's gcc (kernel) and clang (module)
//! plugins:
//!
//! - [`kernel_pass`]: before every indirect call in core-kernel code,
//!   insert `lxfi_check_indcall(pptr, ahash)`. The pass traces the called
//!   pointer back to the memory slot it was loaded from (Figure 5); sites
//!   it cannot trace are reported for manual inspection (the paper found
//!   51 such sites out of 7,500).
//! - [`module_pass`]: insert a write guard before every memory store whose
//!   safety cannot be proven statically (frame-local stores at constant
//!   offsets are elided — the optimization behind MD5's 2% overhead,
//!   §8.3), and compute the module's initial capability grants from its
//!   import table (§4.2).
//! - [`propagate`](mod@propagate): propagate annotations from function-pointer types to
//!   the module functions assigned to them, verifying that a function
//!   reached from several sources gets *exactly the same* annotation
//!   (§4.2).

#![warn(missing_docs)]

pub mod kernel_pass;
pub mod module_pass;
pub mod propagate;

mod edit;
mod hoist;

pub use kernel_pass::{rewrite_kernel_thunks, KernelRewriteReport};
pub use module_pass::{rewrite_module, InitGrant, ModuleRewrite, RewriteOptions};
pub use propagate::{propagate, InterfaceSpec, PropagateError};
