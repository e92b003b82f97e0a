//! `recover`: a supervised e1000 under RX bursts, crashed by seeded
//! `PollGuard` faults (a guard failure inside the NAPI poll).
//!
//! The client wires 4-frame bursts and flushes the poll inside one
//! entry. When a poll faults, the kernel quarantines the e1000 and an
//! op begins, at the start of that entry. It runs through the
//! supervisor's restart (which reloads the e1000), the removal of the
//! dead driver's device plumbing and the PCI re-probe, and ends once
//! the new driver has delivered its first burst and the skbs are freed.
//! That first burst runs with injection disarmed; afterwards the plan is
//! re-armed with the next seed of a stream drawn from `--seed`. Bursts
//! that do not fault are traffic between ops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lxfi_kernel::{
    FaultPlan, FaultSite, IsolationMode, Kernel, KernelError, RestartPolicy, Supervisor,
    SupervisorEvent,
};
use lxfi_machine::Word;
use lxfi_modules as mods;

use crate::rig::{self, span, Budget, OpCounts, Phase};
use crate::stats::SplitMix;
use crate::trace::{SpanId, Tracer};

/// Frames per burst (under the NAPI budget: one poll delivers them).
pub const RX_BURST: u64 = 4;
/// A `PollGuard` fault fires once per this many `netif_rx` calls on
/// average.
pub const POLL_FAULT_ONE_IN: u64 = 8;
/// Recoveries during set-up, so interned writer sets reach their steady
/// alphabet before the leak gauges are taken.
const WARMUP_RECOVERIES: u64 = 4;
/// Recoveries one kernel serves in a measured phase.
pub const ROUND: u64 = 250;
/// Seed of the warm-up fault plans (fixed: warm-up is part of set-up).
const WARMUP_SEED: u64 = 0x00D0_0DAD_0BAD_F00D;
/// No load was stamped.
const NO_STAMP: u64 = u64::MAX;

/// Leak gauges: live principals, live slab objects, interned writer
/// sets, writer-index intervals.
pub type Gauges = [u64; 4];

/// The leak gauges of `k` now.
pub fn gauges(k: &Kernel) -> Gauges {
    let rtc = k.runtime_core();
    [
        rtc.principal_gauges().0,
        k.slab().live_count() as u64,
        rtc.index_set_count() as u64,
        k.rt.index_interval_count() as u64,
    ]
}

/// A booted, supervised driver.
pub struct Rig {
    /// The kernel.
    pub k: Kernel,
    sup: Supervisor,
    pcidev: Word,
    dev: Word,
    next_seq: u64,
    /// When the supervisor's spec builder last ran (ns on the tracer's
    /// clock): the load it feeds starts there.
    load_stamp: Arc<AtomicU64>,
    /// Gauges after set-up, at the same point of the recovery cycle
    /// where every op takes them.
    baseline: Option<Gauges>,
    /// Recoveries served since set-up.
    served: u64,
    dropped: u64,
    wired: u64,
}

/// Boots the kernel, loads e1000 under a supervisor, probes the NIC and
/// runs the warm-up recoveries.
pub fn setup(tr: &mut Tracer) -> Result<Rig, String> {
    let mut k = rig::boot(IsolationMode::Lxfi);
    let pcidev = k.pci_add_device(0x8086, 0x100e, 11);
    // Restart in the tick that sees the fault, and never give up: every
    // recovery follows the same path.
    let mut sup = Supervisor::new(RestartPolicy {
        max_consecutive_failures: u32::MAX,
        base_backoff: 0,
        max_backoff: 0,
        probation: 1,
    });
    let load_stamp = Arc::new(AtomicU64::new(NO_STAMP));
    let (stamp, epoch) = (Arc::clone(&load_stamp), tr.epoch());
    let builder = Box::new(move || {
        let spec = mods::e1000::spec();
        stamp.store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        spec
    });
    let s = tr.begin(span::LOAD);
    let loaded = sup.supervise(&mut k, "e1000", IsolationMode::Lxfi, builder);
    tr.end(s);
    loaded.map_err(|e| format!("load e1000: {e}"))?;
    rig::replay_load(&k, tr, mods::e1000::spec);
    rig::enter(&mut k, tr, span::PROBE, |k| k.pci_probe_all())
        .1
        .map_err(|e| format!("probe: {e}"))?;
    let dev = *k.net().devices.last().ok_or("probe registered no device")?;
    let mut r = Rig {
        k,
        sup,
        pcidev,
        dev,
        next_seq: 0,
        load_stamp,
        baseline: None,
        served: 0,
        dropped: 0,
        wired: 0,
    };
    let warm = measure(
        &mut r,
        WARMUP_SEED,
        Budget::ops(WARMUP_RECOVERIES),
        &mut Tracer::new(false),
    );
    if let Some(why) = warm.why.first() {
        return Err(format!("warm-up failed: {why}"));
    }
    r.baseline = Some(gauges(&r.k));
    r.served = 0;
    Ok(r)
}

/// Arms `PollGuard` injection on the e1000 with `seed`.
fn arm(k: &mut Kernel, seed: u64) {
    k.set_fault_plan(Arc::new(FaultPlan::single(
        seed,
        "e1000",
        FaultSite::PollGuard,
        POLL_FAULT_ONE_IN,
    )));
}

/// Runs bursts until `budget` is spent. Each kernel serves [`ROUND`]
/// recoveries; then a fresh set-up (off the clock) starts the next
/// round, so every op runs against a kernel with the same history.
pub fn measure(r: &mut Rig, seed: u64, budget: Budget, tr: &mut Tracer) -> Phase {
    let mut seeds = SplitMix::new(seed);
    let mut ph = Phase::default();
    let mut counts = OpCounts::new(&budget);
    let (mut ops, mut wired, mut dropped) = (0, 0, 0);
    let mut drift = [0i64; 4];
    while !budget.done(ops, ph.wall_ns) {
        if r.served == ROUND {
            match setup(tr) {
                Ok(fresh) => *r = fresh,
                Err(e) => {
                    ph.fail(|| e);
                    break;
                }
            }
        }
        let (whole, wired0, dropped0) = (rig::snap(&r.k), r.wired, r.dropped);
        let start = tr.now();
        arm(&mut r.k, seeds.next_u64());
        while r.served < ROUND && {
            let elapsed = ph.wall_ns + tr.now() - start;
            ph.running(&budget, ops, elapsed)
        } {
            let op = step(r, tr, &mut counts, &mut ph);
            tr.flush();
            if op {
                ops += 1;
                r.served += 1;
                rig::replay_load(&r.k, tr, mods::e1000::spec);
                arm(&mut r.k, seeds.next_u64());
            }
        }
        ph.wall_ns += tr.now() - start;
        r.k.clear_fault_plan();
        ph.whole = ph.whole.plus(rig::snap(&r.k).since(whole));
        wired += r.wired - wired0;
        dropped += r.dropped - dropped0;
        if let Some(base) = r.baseline {
            let now = gauges(&r.k);
            for i in 0..4 {
                drift[i] += now[i] as i64 - base[i] as i64;
            }
        }
    }
    ph.det = counts.finish();

    ph.layer.push((
        "kernel.net.rx_dropped_frac",
        dropped as f64 / wired.max(1) as f64,
    ));
    let per_op = |d: i64| d as f64 / ops.max(1) as f64;
    ph.layer
        .push(("core.principals_live_drift_per_recovery", per_op(drift[0])));
    ph.layer
        .push(("core.writer_sets_live_drift_per_recovery", per_op(drift[2])));
    ph.layer
        .push(("core.index_intervals_drift_per_recovery", per_op(drift[3])));
    ph
}

/// One burst; when its poll faults, the whole recovery as one op.
/// Returns whether an op was recorded.
fn step(r: &mut Rig, tr: &mut Tracer, counts: &mut OpCounts, ph: &mut Phase) -> bool {
    let from = counts.start(&r.k);
    let begin = tr.now();
    let faults = r.k.fault_count();
    let mut path = Vec::new();
    let (entry, res) = burst(r, tr, &mut path, ph);
    if r.k.fault_count() == faults {
        if matches!(res, Ok(n) if n == RX_BURST) {
            return false;
        }
        ph.record(tr.now() - begin);
        ph.fail(|| format!("healthy burst: {res:?}"));
        return true;
    }
    tr.rename(entry, span::CONTAIN);
    if let Err(why) = recover(r, tr, &mut path, &res, ph) {
        ph.fail(|| why);
    }
    let end = tr.now();
    ph.record(end - begin);
    tr.op(begin, end, &path);
    counts.add(&r.k, from, 1);

    let now = gauges(&r.k);
    if let Some(base) = r.baseline.filter(|b| *b != now) {
        ph.fail(|| format!("leak gauges moved {base:?} -> {now:?}"));
    }
    if let Some(p) = r.k.panic_reason() {
        ph.fail(|| format!("kernel panic: {p}"));
    }
    true
}

/// One burst at the current device: wire, poll, check the delivered
/// frames' sequence numbers, free them. Pushes the entry and free spans
/// onto `path`. Returns the entry span and the frames delivered, or the
/// entry's error.
fn burst(
    r: &mut Rig,
    tr: &mut Tracer,
    path: &mut Vec<SpanId>,
    ph: &mut Phase,
) -> (SpanId, Result<u64, KernelError>) {
    let (entry, res) = rig::rx_burst(&mut r.k, tr, r.dev, RX_BURST);
    path.push(entry);
    r.wired += RX_BURST;
    if let Ok((accepted, _)) = res {
        r.dropped += RX_BURST - accepted;
    }
    let skbs = std::mem::take(&mut r.k.net().rx_queue);
    let delivered = skbs.len() as u64;
    for skb in skbs {
        let seq = rig::wire_seq(&r.k, skb);
        if seq != Some(r.next_seq) {
            let expect = r.next_seq;
            ph.fail(|| format!("delivered seq {seq:?}, wire order expects {expect}"));
        }
        r.next_seq += 1;
        let (s, freed) = rig::free_skb(&mut r.k, tr, skb);
        path.push(s);
        if let Err(e) = freed {
            ph.fail(|| format!("free: {e}"));
        }
    }
    (entry, res.map(|_| delivered))
}

/// The recovery after a faulting burst: supervisor restart, dead-device
/// removal, re-probe and the new driver's first burst.
fn recover(
    r: &mut Rig,
    tr: &mut Tracer,
    path: &mut Vec<SpanId>,
    fault: &Result<u64, KernelError>,
    ph: &mut Phase,
) -> Result<(), String> {
    match fault {
        Err(KernelError::ModuleFault(f)) if f.module == "e1000" => {}
        other => return Err(format!("faulting burst returned {other:?}")),
    }

    let tick = tr.begin(span::RESTART);
    r.load_stamp.store(NO_STAMP, Ordering::Relaxed);
    let events = r.sup.tick(&mut r.k);
    let stamp = r.load_stamp.load(Ordering::Relaxed);
    if stamp != NO_STAMP {
        tr.record(span::LOAD, stamp, tr.now());
    }
    tr.end(tick);
    path.push(tick);
    if !events
        .iter()
        .any(|e| matches!(e, SupervisorEvent::Restarted { module, .. } if module == "e1000"))
    {
        return Err(format!("supervisor did not restart e1000: {events:?}"));
    }

    // The restarted driver registered a fresh PCI driver slot; the dead
    // instance's binding, slot and net device are torn out so the
    // re-probe binds a fresh RX ring.
    let s = tr.begin(span::REMOVE_DEAD);
    {
        let mut pci = r.k.pci();
        pci.bound.retain(|&(d, _)| d != r.pcidev);
        let fresh = pci.driver_slots.pop();
        pci.driver_slots.clear();
        pci.driver_slots.extend(fresh);
    }
    let known = r.k.net_remove_dead_device(r.dev);
    tr.end(s);
    path.push(s);
    if !known {
        return Err("dead device was not registered".into());
    }

    let (s, probed) = rig::enter(&mut r.k, tr, span::PROBE, |k| k.pci_probe_all());
    path.push(s);
    probed.map_err(|e| format!("re-probe: {e}"))?;
    let dev =
        *r.k.net()
            .devices
            .last()
            .ok_or("re-probe registered no device")?;
    if dev == r.dev {
        return Err("re-probe kept the dead device".into());
    }
    r.dev = dev;
    r.next_seq = 0;

    r.k.clear_fault_plan();
    match burst(r, tr, path, ph).1 {
        Ok(n) if n == RX_BURST => Ok(()),
        other => Err(format!("first burst after recovery: {other:?}")),
    }
}
