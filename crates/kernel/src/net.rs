//! The network stack: sk_buffs, net devices, NAPI, and the kernel's
//! transmit dispatch thunk (the running example of Figures 1 and 4).
//!
//! The interesting annotations:
//!
//! - `ndo_start_xmit` (function-pointer type on `net_device_ops`):
//!   `principal(dev)` names the callee principal by the device pointer;
//!   `pre(transfer(skb_caps(skb)))` hands the packet's capabilities to
//!   the driver; the `post(if (return == -NETDEV_BUSY) ...)` clause gives
//!   them back when the driver rejects the packet.
//! - `netif_rx`: `pre(transfer(skb_caps(skb)))` — once a received packet
//!   is handed to the kernel, the driver (and anyone it shared with)
//!   loses access (§3.3).
//! - `skb_caps` is the paper's example capability iterator: it walks the
//!   `sk_buff` header and emits WRITE capabilities for the header and the
//!   payload buffer.

use std::sync::Arc;

use lxfi_core::iface::Param;
use lxfi_core::runtime::EmittedCap;
use lxfi_machine::builder::regs::*;
use lxfi_machine::{Program, ProgramBuilder, Trap, Word};

use crate::deferred::{DeferredId, DeferredKind};
use crate::kernel::KernelCpu;
use crate::types::{net_device, pci_dev, qdisc, sk_buff, sock};

/// `NETDEV_BUSY` — drivers return `-NETDEV_BUSY` to push back.
pub const NETDEV_BUSY: i64 = 16;

/// Base protocol-stack cost per transmitted packet, cycles. The KIR
/// interpreter only executes the driver and dispatch code; the socket
/// layer, qdisc, and checksum work of a real kernel is represented by
/// this charge, applied identically under Stock and LXFI (calibrated so
/// the stock UDP TX path costs what §8.4's testbed implies).
pub const NET_TX_BASE_COST: u64 = 290;

/// Base protocol-stack cost per received packet, cycles (softirq +
/// protocol demux; same calibration rationale as [`NET_TX_BASE_COST`]).
pub const NET_RX_BASE_COST: u64 = 376;

/// The Figure 4 annotation for `net_device_ops.ndo_start_xmit`.
pub const NDO_START_XMIT_ANN: &str = "principal(dev) \
     pre(transfer(skb_caps(skb))) \
     post(if (return == -NETDEV_BUSY) transfer(skb_caps(skb)))";

/// Annotation for the NAPI poll callback.
pub const NAPI_POLL_ANN: &str = "principal(dev)";

// --------------------------------------------------- RX MMIO contract
//
// The receive half of the simulated e1000's 4 KiB MMIO window (the TX
// half — descriptor ring at 256, FIFO at 1280 — is laid out by the
// driver; see `modules/src/e1000.rs`). The RX descriptor ring is a
// hardware-owned producer/consumer queue: the wire (`net_rx_wire`)
// writes frames at `head` and advances the head register; the driver's
// poll loop consumes at `tail` and stores the tail register back — a
// guarded MMIO store, which is what makes the RX hot loop an LXFI
// measurement and not just a simulation detail.

/// MMIO offset of the RX head register (hardware-written).
pub const RX_HEAD_REG: u64 = 32;
/// MMIO offset of the RX tail register (driver-written, guarded).
pub const RX_TAIL_REG: u64 = 40;
/// MMIO offset of the RX descriptor ring.
pub const RX_RING_OFFSET: u64 = 2048;
/// RX descriptor slots (ring occupies `2048..4096` of the window).
pub const RX_RING_SLOTS: u64 = 16;
/// Bytes per RX descriptor slot: 8-byte frame length, then frame data.
pub const RX_SLOT_SIZE: u64 = 128;
/// Per-dispatch NAPI poll budget (frames per bottom-half invocation).
pub const NAPI_BUDGET: u64 = 16;
/// Wire frame size (minimum Ethernet frame, as the TX side uses).
pub const RX_FRAME_BYTES: u64 = 60;
/// Copybreak: the driver copies this many bytes of each frame into the
/// freshly allocated skb instead of remapping the ring buffer.
pub const RX_COPYBREAK: u64 = 32;

/// One bound RX ring: the per-device state the kernel (as "hardware")
/// keeps about a device's receive path. Established at PCI probe time
/// by [`KernelCpu::net_rx_bind`].
#[derive(Debug)]
pub struct RxRing {
    /// The net device.
    pub dev: Word,
    /// The device's MMIO window base.
    pub mmio: Word,
    /// The device's NAPI deferred-call slot.
    pub deferred: DeferredId,
    /// Interrupt mask: set when the RX interrupt asserts, cleared by
    /// `napi_complete`. While masked, new frames land on the ring but
    /// assert no further interrupt (NAPI's point).
    pub masked: bool,
    /// Producer mirror of the head register.
    pub head: u64,
    /// Next wire sequence number (stamped into each injected frame).
    pub wire_seq: u64,
    /// Frames dropped because the ring was full (overrun).
    pub dropped: u64,
}

/// Networking state.
#[derive(Debug, Default)]
pub struct NetState {
    /// Registered devices.
    pub devices: Vec<Word>,
    /// Packets the stack received from drivers (`netif_rx`).
    pub rx_queue: Vec<Word>,
    /// NAPI registrations: (device, kernel slot holding the poll pointer).
    pub napi: Vec<(Word, Word)>,
    /// Count of packets handed to `netif_rx` since boot.
    pub rx_total: u64,
    /// Bound RX rings, one per probed NAPI device.
    pub rx: Vec<RxRing>,
    /// `alloc_etherdev` allocations: (device, total bytes including the
    /// appended priv area). Consulted by
    /// [`KernelCpu::net_remove_dead_device`] to scrub the exact range.
    pub netdev_allocs: Vec<(Word, u64)>,
}

impl NetState {
    /// The kernel slot holding a device's checked NAPI poll pointer.
    pub fn poll_slot(&self, dev: Word) -> Option<Word> {
        self.napi.iter().find(|&&(d, _)| d == dev).map(|&(_, s)| s)
    }

    /// The bound RX ring for a device.
    pub fn rx_ring(&self, dev: Word) -> Option<&RxRing> {
        self.rx.iter().find(|r| r.dev == dev)
    }

    /// Total frames dropped to ring overruns, across devices.
    pub fn rx_dropped(&self) -> u64 {
        self.rx.iter().map(|r| r.dropped).sum()
    }
}

/// Registers network exports, sigs, constants, and the skb iterator.
pub fn register(k: &mut KernelCpu) {
    k.rt.define_const("NETDEV_BUSY", NETDEV_BUSY);

    // The paper's skb_caps iterator (Figure 4, lines 51-54): WRITE over
    // the header and over [skb->data, +skb->len).
    k.rt.register_iterator(
        "skb_caps",
        Box::new(|mem, skb, out| {
            out.push(EmittedCap::Write {
                addr: skb,
                size: sk_buff::SIZE,
            });
            let data = mem
                .read_word((skb as i64 + sk_buff::DATA) as u64)
                .map_err(|e| e.to_string())?;
            let len = mem
                .read_word((skb as i64 + sk_buff::LEN) as u64)
                .map_err(|e| e.to_string())?;
            if data != 0 && len > 0 {
                out.push(EmittedCap::Write {
                    addr: data,
                    size: len,
                });
            }
            Ok(())
        }),
    );

    k.define_sig(
        "ndo_start_xmit",
        vec![
            Param::ptr("skb", "sk_buff"),
            Param::ptr("dev", "net_device"),
        ],
        NDO_START_XMIT_ANN,
    );
    k.define_sig(
        "napi_poll",
        vec![Param::ptr("dev", "net_device"), Param::scalar("budget")],
        NAPI_POLL_ANN,
    );
    k.define_sig(
        "qdisc_enqueue",
        vec![Param::ptr("skb", "sk_buff"), Param::ptr("q", "Qdisc")],
        // Guideline 7: assigning a scheduler to a device implicitly hands
        // the module the Qdisc — the annotation makes the grant explicit.
        "pre(check(write, skb, 1)) pre(copy(write, q, 64))",
    );

    k.export(
        "alloc_etherdev",
        vec![Param::scalar("priv_size")],
        // As in Linux, the driver-private area is appended to the
        // net_device allocation, so one WRITE capability covers both.
        Some("post(if (return != 0) transfer(write, return, 128 + priv_size))"),
        Arc::new(|k, args| {
            let priv_size = args.first().copied().unwrap_or(0);
            let dev = k.kstatic_alloc(net_device::SIZE + priv_size);
            if priv_size > 0 {
                k.mem.write_word(
                    (dev as i64 + net_device::PRIV) as u64,
                    dev + net_device::SIZE,
                )?;
            }
            k.net()
                .netdev_allocs
                .push((dev, net_device::SIZE + priv_size));
            Ok(dev)
        }),
    );

    k.export(
        "register_netdev",
        vec![Param::ptr("dev", "net_device")],
        Some("pre(check(write, dev, 128))"),
        Arc::new(|k, args| {
            k.net().devices.push(args[0]);
            Ok(0)
        }),
    );

    k.export(
        "netif_napi_add",
        vec![Param::ptr("dev", "net_device"), Param::scalar("poll")],
        Some("pre(check(write, dev, 128)) pre(check(call, poll))"),
        Arc::new(|k, args| {
            // As with PCI probe: the checked pointer lands in a
            // kernel-written slot, so dispatch takes the fast path.
            let slot = k.kstatic_alloc(8);
            k.mem.write_word(slot, args[1])?;
            k.net().napi.push((args[0], slot));
            Ok(0)
        }),
    );

    k.export(
        "alloc_skb",
        vec![Param::scalar("len")],
        Some("post(if (return != 0) transfer(skb_caps(return)))"),
        Arc::new(|k, args| {
            let len = args.first().copied().unwrap_or(0);
            match alloc_skb_raw(k, len) {
                Some(skb) => Ok(skb),
                None => Ok(0),
            }
        }),
    );

    k.export(
        "kfree_skb",
        vec![Param::ptr("skb", "sk_buff")],
        Some("pre(if (skb != 0) check(write, skb, 1))"),
        Arc::new(|k, args| {
            let skb = args[0];
            if skb != 0 {
                free_skb_raw(k, skb)?;
            }
            Ok(0)
        }),
    );

    k.export(
        "netif_rx",
        vec![Param::ptr("skb", "sk_buff")],
        Some("pre(transfer(skb_caps(skb)))"),
        Arc::new(|k, args| {
            use lxfi_machine::Env;
            // FaultSite::PollGuard: a synthetic guard failure against
            // the skb mid-poll. The pre-transfer already ran, so the
            // kernel owns the packet — free it on the error path like
            // the protocol layer dropping a malformed frame, keeping
            // the slab leak-balanced under chaos.
            if let Err(v) = k.inject_poll_guard(args[0]) {
                free_skb_raw(k, args[0])?;
                return Err(v);
            }
            k.consume(NET_RX_BASE_COST)?;
            let mut net = k.net();
            net.rx_queue.push(args[0]);
            net.rx_total += 1;
            Ok(0)
        }),
    );

    k.export(
        "napi_complete",
        vec![Param::ptr("dev", "net_device")],
        Some(""),
        Arc::new(|k, args| {
            // Poll done with budget to spare: unmask the device's RX
            // interrupt so the next wire frame asserts again.
            let mut net = k.net();
            if let Some(r) = net.rx.iter_mut().find(|r| r.dev == args[0]) {
                r.masked = false;
            }
            Ok(0)
        }),
    );
}

/// Allocates an sk_buff header + payload buffer through this CPU's slab
/// magazines (the per-packet hot path: no lock on a magazine hit beyond
/// the owning shard's adopt).
pub fn alloc_skb_raw(k: &mut KernelCpu, len: u64) -> Option<Word> {
    let skb = k.kmalloc_cpu(sk_buff::SIZE)?;
    let data = if len > 0 {
        match k.kmalloc_cpu(len) {
            Some(d) => d,
            None => {
                k.slab().kfree(skb);
                return None;
            }
        }
    } else {
        0
    };
    k.mem.zero_range(skb, sk_buff::SIZE).ok()?;
    k.mem
        .write_word((skb as i64 + sk_buff::DATA) as u64, data)
        .ok()?;
    k.mem
        .write_word((skb as i64 + sk_buff::LEN) as u64, len)
        .ok()?;
    Some(skb)
}

/// Frees an sk_buff and its payload; strips all WRITE coverage. Both
/// frees are two-phase (sweep and zero before the slot re-enters the
/// allocator) so a concurrent allocation on another CPU can never be
/// granted a recycled address mid-sweep.
pub fn free_skb_raw(k: &mut KernelCpu, skb: Word) -> Result<(), Trap> {
    let data = k.mem.read_word((skb as i64 + sk_buff::DATA) as u64)?;
    for addr in [data, skb] {
        if addr == 0 {
            continue;
        }
        if let Some(class) = k.free_prologue(addr)? {
            k.kfree_cpu(addr, class);
        }
    }
    Ok(())
}

/// Builds the core kernel's KIR dispatch thunks — the code the kernel
/// rewriter instruments (§4.1). One program covers all subsystems.
pub fn kernel_thunks() -> Program {
    let mut pb = ProgramBuilder::new("kernel-thunks");
    let ndo = pb.sig("ndo_start_xmit", 2);
    let ioctl = pb.sig("proto_ioctl", 3);
    let sendmsg = pb.sig("proto_sendmsg", 3);
    let recvmsg = pb.sig("proto_recvmsg", 3);
    let bind = pb.sig("proto_bind", 2);
    let shm = pb.sig("shm_ops", 1);
    let qenq = pb.sig("qdisc_enqueue", 2);

    // dev_queue_xmit(skb, dev): the Figure 1 line 27 dispatch.
    pb.define("dev_queue_xmit", 2, 0, |f| {
        f.load8(R2, R1, net_device::DEV_OPS);
        f.load8(R3, R2, crate::types::net_device_ops::NDO_START_XMIT);
        f.call_ptr(R3, ndo, &[R0.into(), R1.into()], Some(R0));
        f.ret(R0);
    });

    // qdisc_run(q, skb): Guideline 7's implicit-transfer interface.
    pb.define("qdisc_run", 2, 0, |f| {
        f.load8(R2, R0, qdisc::ENQUEUE);
        f.call_ptr(R2, qenq, &[R1.into(), R0.into()], Some(R0));
        f.ret(R0);
    });

    // sock_* dispatchers: socket syscalls land here.
    pb.define("sock_ioctl", 3, 0, |f| {
        f.load8(R3, R0, sock::OPS);
        f.load8(R4, R3, crate::types::proto_ops::IOCTL);
        f.call_ptr(R4, ioctl, &[R0.into(), R1.into(), R2.into()], Some(R0));
        f.ret(R0);
    });
    pb.define("sock_sendmsg", 3, 0, |f| {
        f.load8(R3, R0, sock::OPS);
        f.load8(R4, R3, crate::types::proto_ops::SENDMSG);
        f.call_ptr(R4, sendmsg, &[R0.into(), R1.into(), R2.into()], Some(R0));
        f.ret(R0);
    });
    pb.define("sock_recvmsg", 3, 0, |f| {
        f.load8(R3, R0, sock::OPS);
        f.load8(R4, R3, crate::types::proto_ops::RECVMSG);
        f.call_ptr(R4, recvmsg, &[R0.into(), R1.into(), R2.into()], Some(R0));
        f.ret(R0);
    });
    pb.define("sock_bind", 2, 0, |f| {
        f.load8(R3, R0, sock::OPS);
        f.load8(R4, R3, crate::types::proto_ops::BIND);
        f.call_ptr(R4, bind, &[R0.into(), R1.into()], Some(R0));
        f.ret(R0);
    });

    // shm_invoke(shmid): the CAN BCM exploit's trigger — the kernel
    // invoking a function pointer reached from a shmid_kernel object.
    pb.define("shm_invoke", 1, 0, |f| {
        f.load8(R1, R0, crate::types::shmid_kernel::OPS);
        f.call_ptr(R1, shm, &[R0.into()], Some(R0));
        f.ret(R0);
    });

    pb.finish()
}

impl KernelCpu {
    /// Kernel-side packet transmission (what a socket write bottoms out
    /// in): allocates the packet, fills a trivial payload, and runs the
    /// `dev_queue_xmit` thunk. Returns the driver's status.
    pub fn net_send_packet(&mut self, dev: Word, len: u64) -> Result<Word, Trap> {
        use lxfi_machine::Env;
        self.consume(NET_TX_BASE_COST)?;
        let skb =
            alloc_skb_raw(self, len).ok_or_else(|| Trap::BadRef(format!("alloc_skb({len})")))?;
        self.run_kernel_thunk("dev_queue_xmit", &[skb, dev])
    }

    /// Binds a probed NAPI device's RX ring: records the MMIO window
    /// the driver and the "hardware" share and registers the device's
    /// deferred-call slot. Called by `pci_probe_all` for each net
    /// device a successful probe registered; returns `false` (and binds
    /// nothing) for devices without a NAPI registration or MMIO window.
    pub fn net_rx_bind(&mut self, dev: Word, pcidev: Word) -> bool {
        if self.net().poll_slot(dev).is_none() {
            return false;
        }
        let mmio = self
            .mem
            .read_word((pcidev as i64 + pci_dev::MMIO_BASE) as u64)
            .unwrap_or(0);
        if mmio == 0 {
            return false;
        }
        if self.net().rx.iter().any(|r| r.dev == dev) {
            return true; // re-probe of a bound device
        }
        // Device reset, as a real probe would: zero the RX cursor
        // registers so a ring inherited from a previous binding of this
        // pci_dev (a crashed driver's instance) does not read as full.
        if self.mem.write_word(mmio + RX_HEAD_REG, 0).is_err()
            || self.mem.write_word(mmio + RX_TAIL_REG, 0).is_err()
        {
            return false;
        }
        let id = self.deferred_register(dev, DeferredKind::NapiPoll);
        let mut net = self.net();
        net.rx.push(RxRing {
            dev,
            mmio,
            deferred: id,
            masked: false,
            head: 0,
            wire_seq: 0,
            dropped: 0,
        });
        true
    }

    /// Operator-side teardown of a dead driver's published device (the
    /// inverse of probe-time registration): unpublishes the net_device
    /// from the device list, its NAPI registration, and its RX ring,
    /// then scrubs residual WRITE coverage over the device allocation —
    /// the dead tenant's `alloc_etherdev` grant, kept on record by its
    /// retired principals since quarantine. A dead module's poison lifts
    /// at legitimate reuse, and "the operator unplugs the device" is
    /// exactly that point. Returns whether the device was known.
    pub fn net_remove_dead_device(&mut self, dev: Word) -> bool {
        let (found, size) = {
            let mut net = self.net();
            let found = net.devices.contains(&dev);
            net.devices.retain(|&d| d != dev);
            net.napi.retain(|&(d, _)| d != dev);
            net.rx.retain(|r| r.dev != dev);
            let size = net
                .netdev_allocs
                .iter()
                .find(|&&(d, _)| d == dev)
                .map(|&(_, s)| s)
                .unwrap_or(net_device::SIZE);
            net.netdev_allocs.retain(|&(d, _)| d != dev);
            (found, size)
        };
        self.rt.revoke_write_overlapping_everywhere(dev, size);
        found
    }

    /// The simulated wire: DMAs up to `count` frames onto a device's RX
    /// ring and asserts the RX interrupt (top half) — which only marks
    /// the device's NAPI poll *pending* on this CPU's deferred-call
    /// slot; the poll itself runs at the next quiescent point (or an
    /// explicit [`KernelCpu::net_rx_flush`]). Frames that do not fit
    /// (head would lap the driver's tail) are dropped and counted, as
    /// real hardware drops on overrun. Returns frames accepted.
    ///
    /// One wire per device: concurrent producers on one ring are not
    /// modeled (matches how the workloads drive per-CPU devices).
    pub fn net_rx_wire(&mut self, dev: Word, count: u64) -> Result<u64, Trap> {
        let (mmio, mut head, mut seq) = {
            let net = self.net();
            let r = net
                .rx_ring(dev)
                .ok_or_else(|| Trap::BadRef("no RX ring bound".into()))?;
            (r.mmio, r.head, r.wire_seq)
        };
        let mut accepted = 0u64;
        let mut dropped = 0u64;
        for _ in 0..count {
            // The driver's consumer cursor, read fresh per frame — a
            // concurrently running poll frees slots as it advances.
            let tail = self.mem.read_word(mmio + RX_TAIL_REG)?;
            if head.wrapping_sub(tail) >= RX_RING_SLOTS {
                dropped += 1;
                continue;
            }
            let slot = mmio + RX_RING_OFFSET + (head % RX_RING_SLOTS) * RX_SLOT_SIZE;
            // Descriptor: length, then frame data. Word 0 of the frame
            // is the broadcast dst the driver overwrites with its eth
            // header; word 1 carries the wire sequence number the
            // replay oracles (and the echo server) track end-to-end.
            self.mem.write_word(slot, RX_FRAME_BYTES)?;
            self.mem.write_word(slot + 8, 0x00ff_ffff)?;
            self.mem.write_word(slot + 16, seq)?;
            seq += 1;
            head += 1;
            self.mem.write_word(mmio + RX_HEAD_REG, head)?;
            accepted += 1;
        }
        let assert_irq = {
            let mut net = self.net();
            let Some(r) = net.rx.iter_mut().find(|r| r.dev == dev) else {
                return Err(Trap::BadRef("RX ring unbound mid-wire".into()));
            };
            r.head = head;
            r.wire_seq = seq;
            r.dropped += dropped;
            if accepted > 0 && !r.masked {
                // Interrupt assertion: mask until napi_complete.
                r.masked = true;
                true
            } else {
                false
            }
        };
        if assert_irq {
            let id = self.net().rx_ring(dev).expect("bound above").deferred;
            self.deferred_schedule(id, NAPI_BUDGET);
        }
        Ok(accepted)
    }

    /// Explicitly dispatches a device's pending NAPI polls to
    /// completion (caller-driven flush; the ambient alternative is the
    /// quiescent-point drain in `enter`). Returns frames delivered —
    /// the sum of the poll callbacks' own return values, not a
    /// shared-counter delta, so concurrent RX on other CPUs is never
    /// misattributed to this call.
    pub fn net_rx_flush(&mut self, dev: Word) -> Result<u64, Trap> {
        let id = self.net().rx_ring(dev).map(|r| r.deferred);
        let Some(id) = id else { return Ok(0) };
        let mut delivered = 0;
        while let Some(polled) = self.deferred_dispatch_one(id)? {
            delivered += polled;
        }
        Ok(delivered)
    }

    /// Simulates `count` received frames end-to-end: wires them onto
    /// the device's RX ring (asserting the interrupt) and immediately
    /// flushes the resulting polls — the synchronous convenience the
    /// TX-style workloads use. Returns packets delivered. A device with
    /// no RX ring bound (one `pci_probe_all` did not bind) traps like
    /// [`KernelCpu::net_rx_wire`].
    pub fn net_deliver_rx(&mut self, dev: Word, count: u64) -> Result<u64, Trap> {
        self.net_rx_wire(dev, count)?;
        self.net_rx_flush(dev)
    }

    /// Drains and frees packets queued by `netif_rx` (the protocol layer
    /// consuming driver-delivered frames). Returns the number drained.
    pub fn net_drain_rx(&mut self) -> Result<u64, Trap> {
        let skbs = std::mem::take(&mut self.net().rx_queue);
        let n = skbs.len() as u64;
        for skb in skbs {
            free_skb_raw(self, skb)?;
        }
        Ok(n)
    }

    /// A device's transmit counter (drivers increment it; tests read it).
    pub fn net_tx_packets(&self, dev: Word) -> u64 {
        self.mem
            .read_word((dev as i64 + net_device::TX_PACKETS) as u64)
            .unwrap_or(0)
    }
}
