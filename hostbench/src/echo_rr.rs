//! `echo_rr`: a closed-loop request/response server over the `echod`
//! protocol module and one e1000 NIC.
//!
//! The client wires a burst of request frames (size drawn by the seed
//! from {1, 2, 4, 8}) and flushes the NAPI poll inside one entry. For
//! each delivered request the server calls `sys_recvmsg` (the module
//! echoes the request's wire sequence number), sends a 60 B reply with
//! `net_send_packet` and frees the request skb. The next burst is wired
//! only after every request of this one is done. An op is one request,
//! timed from its burst's wire injection until its skb is freed, so a
//! request late in a burst carries the wait for those before it.

use lxfi_bench::server::{echod_spec, ECHO_FAMILY, ECHO_WORK};
use lxfi_kernel::{IsolationMode, Kernel, KernelError};
use lxfi_machine::Word;
use lxfi_modules as mods;

use crate::rig::{self, span, Budget, OpCounts, Phase};
use crate::stats::SplitMix;
use crate::trace::Tracer;

/// Burst sizes the seed draws from.
pub const BURSTS: [u64; 4] = [1, 2, 4, 8];
/// Reply frame bytes.
pub const REPLY_BYTES: u64 = 60;
/// Requests served after boot, before the clock starts.
const WARMUP_REQUESTS: u64 = 256;
/// Seed of the warm-up bursts (fixed: warm-up is part of set-up).
const WARMUP_SEED: u64 = 0x5EED_0EC4;

/// A booted echo server.
pub struct Rig {
    /// The kernel.
    pub k: Kernel,
    dev: Word,
    sck: Word,
    /// Wire sequence number the next delivered request must carry.
    next_seq: u64,
    /// Frames the wire refused (RX ring overrun).
    dropped: u64,
    /// Frames wired.
    wired: u64,
}

/// Boots the kernel, loads e1000 and echod, probes the NIC, opens the
/// echo socket and serves the warm-up requests.
pub fn setup(mode: IsolationMode, tr: &mut Tracer) -> Result<Rig, String> {
    let mut k = rig::boot(mode);
    k.pci_add_device(0x8086, 0x100e, 11);
    rig::load(&mut k, tr, mods::e1000::spec).map_err(|e| format!("load e1000: {e}"))?;
    rig::load(&mut k, tr, echod_spec).map_err(|e| format!("load echod: {e}"))?;
    rig::enter(&mut k, tr, span::PROBE, |k| k.pci_probe_all())
        .1
        .map_err(|e| format!("probe: {e}"))?;
    let dev = *k.net().devices.last().ok_or("probe registered no device")?;
    let sck = k
        .enter(|k| k.sys_socket(ECHO_FAMILY))
        .map_err(|e| format!("socket: {e}"))?;
    let mut r = Rig {
        k,
        dev,
        sck,
        next_seq: 0,
        dropped: 0,
        wired: 0,
    };
    let warm = measure(
        &mut r,
        WARMUP_SEED,
        Budget::ops(WARMUP_REQUESTS),
        &mut Tracer::new(false),
    );
    match warm.why.first() {
        Some(why) => Err(format!("warm-up failed: {why}")),
        None => Ok(r),
    }
}

/// Serves bursts drawn from `seed` until `budget` is spent.
pub fn measure(r: &mut Rig, seed: u64, budget: Budget, tr: &mut Tracer) -> Phase {
    let mut rng = SplitMix::new(seed);
    let mut ph = Phase::default();
    let tx0 = r.k.net_tx_packets(r.dev);
    let (dropped0, wired0) = (r.dropped, r.wired);
    let whole = rig::snap(&r.k);
    let mut counts = OpCounts::new(&budget);
    let start = tr.now();
    let mut ops = 0;
    let mut replies = 0;
    while ph.running(&budget, ops, tr.now() - start) {
        let burst = BURSTS[rng.below(BURSTS.len() as u64) as usize];
        let from = counts.start(&r.k);
        replies += serve_burst(r, burst, tr, &mut ph);
        counts.add(&r.k, from, burst);
        ops += burst;
        tr.flush();
    }
    ph.wall_ns = tr.now() - start;
    ph.det = counts.finish();
    ph.whole = rig::snap(&r.k).since(whole);

    let tx = r.k.net_tx_packets(r.dev) - tx0;
    if tx != replies {
        ph.fail(|| format!("TX counter moved {tx}, replies sent {replies}"));
    }
    let dropped = r.dropped - dropped0;
    if dropped > 0 {
        ph.fail(|| format!("{dropped} frames dropped on the RX ring"));
    }
    if let Some(p) = r.k.panic_reason() {
        ph.fail(|| format!("kernel panic: {p}"));
    }
    let wired = r.wired - wired0;
    ph.layer.push((
        "kernel.net.rx_dropped_frac",
        dropped as f64 / wired.max(1) as f64,
    ));
    ph
}

/// One burst: wire and poll, then answer each request in wire order.
/// Returns the replies the e1000 accepted.
fn serve_burst(r: &mut Rig, burst: u64, tr: &mut Tracer, ph: &mut Phase) -> u64 {
    let k = &mut r.k;
    let inject = tr.now();
    let (wire, res) = rig::rx_burst(k, tr, r.dev, burst);
    let poll_end = tr.now();
    let skbs = std::mem::take(&mut k.net().rx_queue);
    r.wired += burst;
    match res {
        Ok((accepted, _)) => r.dropped += burst - accepted,
        Err(e) => ph.fail(|| format!("RX burst: {e}")),
    }
    for _ in skbs.len() as u64..burst {
        ph.record(tr.now() - inject);
        ph.fail(|| format!("burst of {burst} delivered {}", skbs.len()));
    }
    let mut replies = 0;
    for skb in skbs {
        let begin = tr.now();
        let wait = tr.record(span::QUEUE_WAIT, poll_end, begin);
        let seq = rig::wire_seq(k, skb).unwrap_or(u64::MAX);
        let (s_recv, echoed) = rig::enter(k, tr, span::RECVMSG, |k| {
            k.sys_recvmsg(r.sck, seq, ECHO_WORK)
        });
        let (s_tx, sent) = rig::enter(k, tr, span::TX, |k| k.net_send_packet(r.dev, REPLY_BYTES));
        let (s_free, freed) = rig::free_skb(k, tr, skb);
        let end = tr.now();
        ph.record(end - inject);
        tr.op(inject, end, &[wire, wait, s_recv, s_tx, s_free]);

        replies += u64::from(matches!(sent, Ok(0)));
        let expect = r.next_seq;
        r.next_seq = seq.wrapping_add(1);
        if let Some(why) = request_error(seq, expect, &echoed, &sent, &freed) {
            ph.fail(|| why);
        }
    }
    replies
}

/// Why a request failed, if it did.
fn request_error(
    seq: u64,
    expect: u64,
    echoed: &Result<u64, KernelError>,
    sent: &Result<u64, KernelError>,
    freed: &Result<u64, KernelError>,
) -> Option<String> {
    if seq != expect {
        return Some(format!("request seq {seq}, wire order expects {expect}"));
    }
    match (echoed, sent, freed) {
        (Ok(e), _, _) if *e != seq => Some(format!("echoed {e} for request {seq}")),
        (Err(e), _, _) => Some(format!("recvmsg {seq}: {e}")),
        (_, Ok(s), _) if *s != 0 => Some(format!("reply {seq}: driver status {s}")),
        (_, Err(e), _) => Some(format!("reply {seq}: {e}")),
        (_, _, Err(e)) => Some(format!("free {seq}: {e}")),
        _ => None,
    }
}
