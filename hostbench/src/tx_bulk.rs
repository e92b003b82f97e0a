//! `tx_bulk`: a back-to-back stream of 1448 B packets on one e1000 NIC.
//! An op is one `enter(net_send_packet)`. The input is the same on every
//! seed: the stream has no parameter a seed could vary without changing
//! what the workload measures.

use lxfi_kernel::{IsolationMode, Kernel};
use lxfi_machine::Word;
use lxfi_modules as mods;

use crate::rig::{self, span, Budget, OpCounts, Phase};
use crate::trace::Tracer;

/// Payload bytes per packet (a TCP segment at a 1500 B MTU).
pub const PACKET_BYTES: u64 = 1448;
/// Packets sent after boot, before the clock starts.
const WARMUP_PACKETS: u64 = 256;

/// A booted transmitter.
pub struct Rig {
    /// The kernel.
    pub k: Kernel,
    dev: Word,
}

/// Boots the kernel, loads e1000, probes the NIC and sends the warm-up
/// packets.
pub fn setup(mode: IsolationMode, tr: &mut Tracer) -> Result<Rig, String> {
    let mut k = rig::boot(mode);
    k.pci_add_device(0x8086, 0x100e, 11);
    rig::load(&mut k, tr, mods::e1000::spec).map_err(|e| format!("load e1000: {e}"))?;
    rig::enter(&mut k, tr, span::PROBE, |k| k.pci_probe_all())
        .1
        .map_err(|e| format!("probe: {e}"))?;
    let dev = *k.net().devices.last().ok_or("probe registered no device")?;
    let mut r = Rig { k, dev };
    let warm = measure(
        &mut r,
        0,
        Budget::ops(WARMUP_PACKETS),
        &mut Tracer::new(false),
    );
    match warm.why.first() {
        Some(why) => Err(format!("warm-up failed: {why}")),
        None => Ok(r),
    }
}

/// Sends packets until `budget` is spent.
pub fn measure(r: &mut Rig, _seed: u64, budget: Budget, tr: &mut Tracer) -> Phase {
    let mut ph = Phase::default();
    let tx0 = r.k.net_tx_packets(r.dev);
    let whole = rig::snap(&r.k);
    let mut counts = OpCounts::new(&budget);
    let start = tr.now();
    let (mut ops, mut sent, mut now) = (0, 0, start);
    while ph.running(&budget, ops, now - start) {
        let from = counts.start(&r.k);
        let begin = tr.now();
        let (s, res) = rig::enter(&mut r.k, tr, span::TX, |k| {
            k.net_send_packet(r.dev, PACKET_BYTES)
        });
        now = tr.now();
        counts.add(&r.k, from, 1);
        ph.record(now - begin);
        tr.op(begin, now, &[s]);
        tr.flush();
        ops += 1;
        match res {
            Ok(0) => sent += 1,
            other => ph.fail(|| format!("packet {ops}: {other:?}")),
        }
    }
    ph.wall_ns = now - start;
    ph.det = counts.finish();
    ph.whole = rig::snap(&r.k).since(whole);
    let tx = r.k.net_tx_packets(r.dev) - tx0;
    if tx != sent {
        ph.fail(|| format!("TX counter moved {tx}, packets sent {sent}"));
    }
    if let Some(p) = r.k.panic_reason() {
        ph.fail(|| format!("kernel panic: {p}"));
    }
    ph
}
