//! Allocation budget of the per-request path: one steady-state echo
//! request under LXFI (wire, NAPI poll, `recvmsg`, reply, free) and one
//! 1448 B TX packet may allocate no more host heap blocks than the same
//! operation on the stock kernel. Capability handoff (transfers, kfree
//! sweeps, caplist resolution, index splices) must reuse buffers the
//! runtime already owns.
//!
//! This file is its own test binary so its counting global allocator
//! sees only this workload; both paths run inside one `#[test]` so no
//! other test thread allocates while a window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lxfi_bench::server::{boot_server, ECHO_WORK};
use lxfi_kernel::net::free_skb_raw;
use lxfi_kernel::types::sk_buff;
use lxfi_kernel::{Backend, IsolationMode, Kernel};
use lxfi_machine::Word;

/// Counts every block the process asks the allocator for (`alloc`,
/// `alloc_zeroed` and `realloc` each count once).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests (and packets) served before the counting window opens.
const WARMUP: u64 = 256;
/// Requests (and packets) inside the counting window.
const MEASURED: u64 = 400;
/// Reply frame bytes.
const REPLY_BYTES: u64 = 60;
/// Bulk TX payload bytes.
const TX_BYTES: u64 = 1448;

/// An echo server plus a reusable RX hand-off buffer, so the harness
/// itself allocates nothing per request.
struct Echo {
    k: Kernel,
    dev: Word,
    sck: Word,
    skbs: Vec<Word>,
}

impl Echo {
    fn boot(mode: IsolationMode) -> Self {
        let (k, dev, sck) = boot_server(mode, Backend::Compiled);
        Echo {
            k,
            dev,
            sck,
            skbs: Vec::with_capacity(8),
        }
    }

    /// One request: wire a frame and poll it in, deliver it to the echo
    /// socket, send the reply and free the request skb.
    fn request(&mut self) {
        let (k, dev, sck) = (&mut self.k, self.dev, self.sck);
        let delivered = k
            .enter(|k| {
                k.net_rx_wire(dev, 1)?;
                k.net_rx_flush(dev)
            })
            .expect("wire and poll");
        assert_eq!(delivered, 1, "one frame delivered");
        self.skbs.clear();
        self.skbs.append(&mut k.net().rx_queue);
        for &skb in &self.skbs {
            let data = k.mem.read_word(skb + sk_buff::DATA as u64).unwrap();
            let seq = k.mem.read_word(data + 8).unwrap();
            let echoed = k.enter(|k| k.sys_recvmsg(sck, seq, ECHO_WORK)).unwrap();
            assert_eq!(echoed, seq, "handler echoes the request seq");
            assert_eq!(k.enter(|k| k.net_send_packet(dev, REPLY_BYTES)).unwrap(), 0);
            k.enter(|k| free_skb_raw(k, skb).map(|()| 0u64)).unwrap();
        }
    }

    /// One bulk packet.
    fn packet(&mut self) {
        let dev = self.dev;
        assert_eq!(
            self.k.enter(|k| k.net_send_packet(dev, TX_BYTES)).unwrap(),
            0
        );
    }
}

/// Mean allocations per call of `op` over [`MEASURED`] calls, after
/// [`WARMUP`] uncounted ones.
fn allocs_per_op(e: &mut Echo, op: fn(&mut Echo)) -> f64 {
    for _ in 0..WARMUP {
        op(e);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        op(e);
    }
    let n = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(e.k.panic_reason().is_none(), "kernel panicked");
    n as f64 / MEASURED as f64
}

#[test]
fn lxfi_allocates_no_more_than_stock_per_request_and_packet() {
    let mut row = Vec::new();
    for mode in [IsolationMode::Stock, IsolationMode::Lxfi] {
        let mut e = Echo::boot(mode);
        let echo = allocs_per_op(&mut e, Echo::request);
        let tx = allocs_per_op(&mut e, Echo::packet);
        row.push((echo, tx));
    }
    let ((stock_echo, stock_tx), (lxfi_echo, lxfi_tx)) = (row[0], row[1]);
    eprintln!(
        "allocations per op: echo request stock {stock_echo:.2} lxfi {lxfi_echo:.2}; \
         1448 B TX stock {stock_tx:.2} lxfi {lxfi_tx:.2}"
    );
    assert!(
        lxfi_echo <= stock_echo,
        "echo request: LXFI allocates {lxfi_echo:.2} per op, stock {stock_echo:.2}"
    );
    assert!(
        lxfi_tx <= stock_tx,
        "1448 B TX: LXFI allocates {lxfi_tx:.2} per op, stock {stock_tx:.2}"
    );
}
