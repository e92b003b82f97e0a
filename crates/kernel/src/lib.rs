//! The simulated Linux core kernel — LXFI's substrate.
//!
//! The paper evaluates LXFI inside Linux 2.6.36 on real hardware; this
//! crate provides the closest synthetic equivalent that exercises the same
//! code paths:
//!
//! - a 64-bit address space with user/kernel split and per-thread kernel
//!   stacks ([`layout`]);
//! - a SLUB-like slab allocator whose same-size-class objects are adjacent
//!   (required by the CAN BCM heap-overflow exploit) ([`slab`]);
//! - a process table with uids, `clear_child_tid` and the `pid_hash` used
//!   by the rootkit experiment ([`process`]);
//! - simulated struct layouts (`sk_buff`, `net_device`, `pci_dev`, ...)
//!   ([`types`]);
//! - the exported-symbol registry with per-function annotations
//!   ([`exports`]);
//! - the [`Kernel`] world: module loading (stock or LXFI-rewritten),
//!   wrapper execution at every kernel/module crossing, indirect-call
//!   interposition, per-module fault containment (quarantine on trap;
//!   the panic flag is reserved for the kernel's own invariants —
//!   `docs/fault-model.md`) ([`kernel`]);
//! - supervised recovery with backoff and crash-loop detection
//!   ([`supervisor`]) over deterministic seeded fault injection
//!   ([`fault_inject`]);
//! - subsystems: PCI ([`pci`]), networking ([`net`]), sockets
//!   ([`socket`]), sound ([`snd`]), device mapper ([`dm`]);
//! - the deferred-call dispatch layer for bottom halves (NAPI polls,
//!   capture periods) drained at quiescent points ([`deferred`]);
//! - the netperf-style cost model used to regenerate Figure 12
//!   ([`netsim`]).

pub mod deferred;
pub mod dm;
pub mod exports;
pub mod exports_base;
pub mod fault_inject;
pub mod kernel;
pub mod layout;
pub mod magazine;
pub mod net;
pub mod netsim;
pub mod pci;
pub mod process;
pub mod slab;
pub mod snd;
pub mod socket;
pub mod supervisor;
pub mod types;

pub use exports::{Export, NativeFn};
pub use fault_inject::{FaultPlan, FaultRule, FaultSite};
pub use kernel::{
    IsolationMode, Kernel, KernelCore, KernelCpu, KernelError, LoadedModuleId, ModuleFault,
    ModuleSpec, ThreadId, UserFn,
};
pub use layout::*;
pub use lxfi_machine::{Backend, CompileStats};
pub use supervisor::{RestartPolicy, SupervisedState, Supervisor, SupervisorEvent};
