//! The socket layer: protocol registration and the syscalls exploits use.
//!
//! Protocol modules (econet, RDS, CAN) register a `proto_ops` table; the
//! kernel dispatches `sendmsg`/`recvmsg`/`ioctl`/`bind` through the table
//! with the KIR thunks from [`crate::net::kernel_thunks`]. Because the
//! `proto_ops` table lives in *module* memory, those dispatches take the
//! slow path of the indirect-call check — exactly the paths the RDS and
//! Econet exploits corrupt.

use std::sync::Arc;

use lxfi_core::iface::Param;
use lxfi_machine::{Trap, Word};

use crate::kernel::KernelCpu;
use crate::types::{shmid_kernel, sock};

/// Annotation shared by the socket callbacks: the callee principal is the
/// socket instance, which receives WRITE over its `sock` structure.
pub const PROTO_SOCK_ANN: &str = "principal(sock) pre(copy(write, sock, 64))";

/// Socket-layer state.
#[derive(Debug, Default)]
pub struct SocketState {
    /// family → `proto_ops` table address (module memory).
    pub families: Vec<(u64, Word)>,
    /// All sockets ever created.
    pub sockets: Vec<Word>,
    /// System-V shm segments (`shmid_kernel` addresses), indexed by id.
    pub shm_segments: Vec<Word>,
}

/// Registers socket exports and interface annotations.
pub fn register(k: &mut KernelCpu) {
    for name in ["proto_ioctl", "proto_sendmsg", "proto_recvmsg"] {
        k.define_sig(
            name,
            vec![
                Param::ptr("sock", "sock"),
                Param::scalar("a"),
                Param::scalar("b"),
            ],
            PROTO_SOCK_ANN,
        );
    }
    k.define_sig(
        "proto_bind",
        vec![Param::ptr("sock", "sock"), Param::scalar("addr")],
        PROTO_SOCK_ANN,
    );
    // Kernel-owned shm callback type: modules never legitimately provide
    // this, which is why a corrupted shmid pointer cannot pass the
    // annotation-match check even if a CALL capability existed.
    k.define_sig("shm_ops", vec![Param::ptr("shp", "shmid_kernel")], "");

    k.export(
        "sock_register",
        vec![Param::scalar("family"), Param::scalar("ops")],
        Some(""),
        Arc::new(|k, args| {
            k.sock().families.push((args[0], args[1]));
            Ok(0)
        }),
    );

    // The kernel's legitimate shm handler (what `sys_shmget` installs).
    k.export(
        "shm_default_ops",
        vec![Param::ptr("shp", "shmid_kernel")],
        Some(""),
        Arc::new(|_k, _args| Ok(0)),
    );
}

impl KernelCpu {
    /// `socket(2)`: creates a socket of `family`. The `sock` struct lives
    /// in kernel memory; its `ops` field points at the module's table.
    pub fn sys_socket(&mut self, family: u64) -> Result<Word, Trap> {
        let ops = self
            .sock()
            .families
            .iter()
            .find(|&&(f, _)| f == family)
            .map(|&(_, o)| o)
            .ok_or_else(|| Trap::BadRef(format!("no protocol family {family}")))?;
        let s = self.kstatic_alloc(sock::SIZE);
        self.mem.write_word((s as i64 + sock::OPS) as u64, ops)?;
        self.mem
            .write_word((s as i64 + sock::FAMILY) as u64, family)?;
        self.sock().sockets.push(s);
        Ok(s)
    }

    /// `sendmsg(2)` — dispatches through the module's `proto_ops`.
    pub fn sys_sendmsg(&mut self, sock: Word, buf: Word, len: u64) -> Result<Word, Trap> {
        self.run_kernel_thunk("sock_sendmsg", &[sock, buf, len])
    }

    /// `recvmsg(2)`.
    pub fn sys_recvmsg(&mut self, sock: Word, buf: Word, len: u64) -> Result<Word, Trap> {
        self.run_kernel_thunk("sock_recvmsg", &[sock, buf, len])
    }

    /// `ioctl(2)` on a socket.
    pub fn sys_ioctl(&mut self, sock: Word, cmd: u64, arg: Word) -> Result<Word, Trap> {
        self.run_kernel_thunk("sock_ioctl", &[sock, cmd, arg])
    }

    /// `bind(2)`.
    pub fn sys_bind(&mut self, sock: Word, addr: Word) -> Result<Word, Trap> {
        self.run_kernel_thunk("sock_bind", &[sock, addr])
    }

    /// `shmget(2)`-ish: creates a System-V shm segment **from the slab**
    /// (the CAN BCM exploit grooms the heap so its overflowed buffer sits
    /// directly before this object).
    pub fn sys_shmget(&mut self, segsz: u64) -> Result<u64, Trap> {
        let shp = self
            .kmalloc_cpu(shmid_kernel::SIZE)
            .ok_or_else(|| Trap::BadRef("shm alloc".into()))?;
        self.mem.zero_range(shp, shmid_kernel::SIZE)?;
        // The kernel installs its legitimate shm handler.
        let handler = self
            .export_addr("shm_default_ops")
            .expect("shm handler export");
        self.mem
            .write_word((shp as i64 + shmid_kernel::OPS) as u64, handler)?;
        self.mem
            .write_word((shp as i64 + shmid_kernel::SEGSZ) as u64, segsz)?;
        // Push and read the id under one guard: a concurrent shmget on
        // another CPU must not shift the index between the two.
        let id = {
            let mut sock = self.sock();
            sock.shm_segments.push(shp);
            sock.shm_segments.len() as u64 - 1
        };
        Ok(id)
    }

    /// `shmctl(2)`-ish: invokes the segment's ops function pointer via the
    /// kernel thunk — the indirect call the CAN BCM exploit redirects.
    pub fn sys_shmctl(&mut self, id: u64) -> Result<Word, Trap> {
        let shp = *self
            .sock()
            .shm_segments
            .get(id as usize)
            .ok_or_else(|| Trap::BadRef(format!("shm id {id}")))?;
        self.run_kernel_thunk("shm_invoke", &[shp])
    }

    /// Address of a shm segment (the exploit reads this via a kernel
    /// info leak; we hand it out directly — leaks are out of scope, §2).
    pub fn shm_segment_addr(&self, id: u64) -> Option<Word> {
        self.sock().shm_segments.get(id as usize).copied()
    }
}
