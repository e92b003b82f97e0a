//! The chaos workload: netperf-style traffic on a healthy module while
//! a fault-injected sibling crash-loops through quarantine and
//! supervised recovery.
//!
//! Three modules share one kernel:
//!
//! - **e1000** (healthy): drives the real TX path every iteration; its
//!   per-packet guard cycles are the isolation-overhead probe.
//! - **flaky** (recovers): a seeded [`FaultPlan`] injects guard
//!   failures, fuel exhaustion, and allocation failures while it runs;
//!   each fault quarantines it and the supervisor restarts it after
//!   backoff. The harness paces its calls so probation clears the
//!   failure streak — a module that faults *occasionally*.
//! - **hopeless** (crash-loops): violates policy on every call, so its
//!   consecutive-failure streak only grows; the supervisor must detect
//!   the crash loop and leave it dead.
//!
//! Every number reported is deterministic: faults come from the seeded
//! xorshift64* streams, time is supervisor ticks, and the
//! isolation-overhead probe is simulated guard cycles — no wall clock
//! anywhere, so the CI gate holds these rows exactly.
//!
//! [`run_rx_chaos`] is the receive-plane variant: the supervised module
//! is the e1000 driver itself, and the injected faults fire *inside its
//! NAPI bottom halves* ([`FaultSite::PollGuard`] mid-`netif_rx`,
//! [`FaultSite::DeferredFuel`] mid-poll) — quarantine lands at the
//! deferred-dispatch quiescent point with frames still on the RX ring.
//! The harness then plays operator: it tears out the stale device
//! plumbing the dead instance registered and re-probes the bus so the
//! restarted driver binds a fresh ring.

use std::sync::Arc;

use lxfi_kernel::{
    FaultPlan, FaultRule, FaultSite, IsolationMode, Kernel, ModuleSpec, RestartPolicy,
    SupervisedState, Supervisor, SupervisorEvent,
};
use lxfi_machine::builder::regs::*;
use lxfi_machine::{ProgramBuilder, Word};
use lxfi_modules as mods;
use lxfi_rewriter::InterfaceSpec;

/// Healthy packets sent per chaos iteration.
const PKTS_PER_ITER: u64 = 4;
/// Payload bytes per healthy packet.
const PKT_BYTES: u64 = 64;
/// Iterations of warmup/baseline traffic before the chaos starts.
const BASELINE_ITERS: u64 = 32;
/// Hard cap on chaos iterations (a run that cannot reach its recovery
/// target within this budget is a bug, not a slow day).
const MAX_ITERS: u64 = 20_000;

/// The flaky module: guarded global stores plus kmalloc/kfree churn —
/// plenty of injection opportunities per call at every site.
fn flaky_spec() -> ModuleSpec {
    let mut pb = ProgramBuilder::new("flaky");
    let kmalloc = pb.import_func("kmalloc");
    let kfree = pb.import_func("kfree");
    let state = pb.global("state", 128);
    pb.define("mix", 1, 0, |f| {
        let top = f.label();
        let done = f.label();
        f.mov(R5, 4i64);
        f.global_addr(R1, state);
        f.bind(top);
        f.br(lxfi_machine::Cond::Eq, R5, 0i64, done);
        f.store8(R0, R1, 0);
        f.store8(R5, R1, 8);
        f.call_extern(kmalloc, &[96i64.into()], Some(R2));
        f.store8(R0, R2, 0);
        f.call_extern(kfree, &[R2.into()], None);
        f.sub(R5, R5, 1i64);
        f.jmp(top);
        f.bind(done);
        f.ret(0i64);
    });
    ModuleSpec {
        name: "flaky".into(),
        program: pb.finish(),
        iface: InterfaceSpec::new(),
        iterators: vec![],
        init_fn: None,
    }
}

/// The hopeless module: every call stores to an address nobody granted.
fn hopeless_spec() -> ModuleSpec {
    let mut pb = ProgramBuilder::new("hopeless");
    pb.define("run", 0, 0, |f| {
        f.mov(R1, 0x5000i64);
        f.store8(1i64, R1, 0);
        f.ret(0i64);
    });
    ModuleSpec {
        name: "hopeless".into(),
        program: pb.finish(),
        iface: InterfaceSpec::new(),
        iterators: vec![],
        init_fn: None,
    }
}

/// Everything one chaos run measures (all deterministic).
#[derive(Debug, Clone)]
pub struct ChaosMeasurement {
    /// Crash → quarantine → restart cycles the flaky module completed.
    pub recoveries: u64,
    /// Fault records the kernel logged (flaky + hopeless).
    pub faults: u64,
    /// Whether the supervisor declared the hopeless module crash-looping
    /// and left it dead.
    pub crash_loop_detected: bool,
    /// Restarts the hopeless module got before the supervisor gave up.
    pub hopeless_restarts: u64,
    /// Worst observed fault → restart latency, in supervisor ticks.
    pub recovery_ticks_max: u64,
    /// Healthy per-packet guard cycles before any chaos.
    pub healthy_pkt_cycles_baseline: f64,
    /// Healthy per-packet guard cycles while the siblings crash-loop.
    pub healthy_pkt_cycles_chaos: f64,
    /// Live-principal gauge drift between the first and last
    /// phase-equivalent snapshot (must be 0).
    pub leak_principals: i64,
    /// Live slab-object drift (must be 0).
    pub leak_slab: i64,
    /// Drift in the number of principals holding a writer-index record
    /// (must be 0).
    pub leak_writer_sets: i64,
    /// Writer-index entry drift (must be 0).
    pub leak_intervals: i64,
    /// Whether the kernel-wide panic flag was ever set (must be 0).
    pub panics: u64,
}

impl ChaosMeasurement {
    /// Isolation overhead on the healthy path: chaos / baseline cycles.
    pub fn overhead_ratio(&self) -> f64 {
        self.healthy_pkt_cycles_chaos / self.healthy_pkt_cycles_baseline.max(1.0)
    }
}

/// Resource levels at a phase-equivalent point (flaky freshly
/// restarted, no outstanding allocations).
fn snapshot(k: &Kernel) -> (u64, u64, u64, u64) {
    let core = k.runtime_core();
    let (live, _) = core.principal_gauges();
    (
        live,
        k.slab().live_count() as u64,
        core.index_set_count() as u64,
        k.rt.index_interval_count() as u64,
    )
}

/// Runs the chaos workload until the flaky module has crashed and
/// recovered `target_recoveries` times (the acceptance bar is ≥100).
pub fn run_chaos(target_recoveries: u64) -> ChaosMeasurement {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    k.pci_add_device(0x8086, 0x100e, 11);
    k.load_module(mods::e1000::spec()).unwrap();
    k.enter(|k| k.pci_probe_all()).unwrap();
    let dev = k.net().devices[0];

    let send_batch = |k: &mut Kernel| {
        for _ in 0..PKTS_PER_ITER {
            k.enter(|k| k.net_send_packet(dev, PKT_BYTES)).unwrap();
        }
    };

    // Baseline: healthy per-packet guard cycles with no chaos at all.
    send_batch(&mut k); // warm slab + caches
    let c0 = k.rt.stats.total_cycles();
    for _ in 0..BASELINE_ITERS {
        send_batch(&mut k);
    }
    let baseline =
        (k.rt.stats.total_cycles() - c0) as f64 / (BASELINE_ITERS * PKTS_PER_ITER) as f64;

    // Supervised siblings. Probation of one tick means a single
    // fault-free tick after restart clears the streak — the pacing
    // below guarantees the flaky module gets one, and the hopeless
    // module (which faults on every call) never does.
    let mut sup = Supervisor::new(RestartPolicy {
        max_consecutive_failures: 5,
        base_backoff: 1,
        max_backoff: 4,
        probation: 1,
    });
    sup.supervise(&mut k, "flaky", IsolationMode::Lxfi, Box::new(flaky_spec))
        .unwrap();
    sup.supervise(
        &mut k,
        "hopeless",
        IsolationMode::Lxfi,
        Box::new(hopeless_spec),
    )
    .unwrap();
    k.set_fault_plan(Arc::new(FaultPlan {
        seed: 0x00C4_A05C_0A05_C4A1,
        rules: vec![
            FaultRule {
                module: "flaky".into(),
                site: FaultSite::GuardWrite,
                one_in: 6,
            },
            FaultRule {
                module: "flaky".into(),
                site: FaultSite::Fuel,
                one_in: 40,
            },
            FaultRule {
                module: "flaky".into(),
                site: FaultSite::Alloc,
                one_in: 8,
            },
        ],
    }));

    let mut recoveries = 0u64;
    let mut crash_loop_detected = false;
    let mut recovery_ticks_max = 0u64;
    let mut fault_tick: std::collections::BTreeMap<String, u64> = Default::default();
    let mut chaos_cycles = 0u64;
    let mut chaos_pkts = 0u64;
    let mut first_snap: Option<(u64, u64, u64, u64)> = None;
    let mut last_snap: Option<(u64, u64, u64, u64)> = None;
    let mut panics = 0u64;

    let mut iter = 0u64;
    while recoveries < target_recoveries {
        iter += 1;
        assert!(iter <= MAX_ITERS, "chaos run failed to converge");
        assert!(
            sup.state("flaky") != Some(SupervisedState::Dead),
            "the flaky module must keep recovering, not crash-loop to death"
        );

        // Healthy traffic, measured: the e1000 path must keep moving
        // packets while its siblings crash.
        let c = k.rt.stats.total_cycles();
        send_batch(&mut k);
        chaos_cycles += k.rt.stats.total_cycles() - c;
        chaos_pkts += PKTS_PER_ITER;

        // Drive the flaky module every third iteration. The gaps leave
        // fault-free ticks after each restart, so probation resets its
        // streak and the supervisor keeps restarting it indefinitely.
        if iter.is_multiple_of(3) {
            if let Some(id) = k.module_id("flaky") {
                let addr = k.module_fn_addr(id, "mix").unwrap();
                match k.enter(|k| k.invoke_module_function(addr, &[iter as Word], None)) {
                    Ok(_) => {}
                    Err(lxfi_kernel::KernelError::ModuleFault(f)) => assert_eq!(f.module, "flaky"),
                    Err(e) => panic!("unexpected kernel error from flaky: {e:?}"),
                }
            }
        }

        // Hammer the hopeless module whenever it is published: it
        // faults on every call, so it never sees a fault-free tick and
        // the supervisor must eventually declare it dead.
        if let Some(id) = k.module_id("hopeless") {
            let addr = k.module_fn_addr(id, "run").unwrap();
            match k.enter(|k| k.invoke_module_function(addr, &[], None)) {
                Err(lxfi_kernel::KernelError::ModuleFault(f)) => assert_eq!(f.module, "hopeless"),
                other => panic!("hopeless must fault on every call, got {other:?}"),
            }
        }

        for ev in sup.tick(&mut k) {
            match ev {
                SupervisorEvent::Faulted { module, .. } => {
                    fault_tick.insert(module, sup.now());
                }
                SupervisorEvent::Restarted { module, .. } => {
                    if let Some(at) = fault_tick.remove(&module) {
                        recovery_ticks_max = recovery_ticks_max.max(sup.now() - at);
                    }
                    if module == "flaky" {
                        recoveries += 1;
                        // Leak gauges: sample at phase-equivalent points
                        // — flaky freshly restarted, hopeless already
                        // dead — skipping early cycles so the writer
                        // index reaches its steady population.
                        if recoveries >= 8 && sup.state("hopeless") == Some(SupervisedState::Dead) {
                            let s = snapshot(&k);
                            first_snap.get_or_insert(s);
                            last_snap = Some(s);
                        }
                    }
                }
                SupervisorEvent::CrashLooping { module } => {
                    assert_eq!(module, "hopeless", "only hopeless may crash-loop to death");
                    crash_loop_detected = true;
                }
                SupervisorEvent::RestartFailed { module, why } => {
                    panic!("restart of {module} failed: {why}");
                }
            }
        }

        if k.panic_reason().is_some() {
            panics += 1;
        }
    }

    let first = first_snap.expect("reached steady-state snapshots");
    let last = last_snap.unwrap();
    let faults = k.fault_count() as u64;
    ChaosMeasurement {
        recoveries,
        faults,
        crash_loop_detected,
        hopeless_restarts: sup.restarts("hopeless"),
        recovery_ticks_max,
        healthy_pkt_cycles_baseline: baseline,
        healthy_pkt_cycles_chaos: chaos_cycles as f64 / chaos_pkts as f64,
        leak_principals: last.0 as i64 - first.0 as i64,
        leak_slab: last.1 as i64 - first.1 as i64,
        leak_writer_sets: last.2 as i64 - first.2 as i64,
        leak_intervals: last.3 as i64 - first.3 as i64,
        panics,
    }
}

/// Wire frames injected per RX-chaos iteration (under the NAPI budget,
/// so a healthy iteration delivers the whole burst in one poll).
const RX_BURST: u64 = 4;

/// Everything one RX-chaos run measures (all deterministic).
#[derive(Debug, Clone)]
pub struct RxChaosMeasurement {
    /// Crash → quarantine → re-probe cycles the driver completed.
    pub recoveries: u64,
    /// Fault records the kernel logged (all attributed to e1000).
    pub faults: u64,
    /// Frames the wire pushed at the device, total.
    pub injected: u64,
    /// Frames that made it through `netif_rx` to the RX queue. The
    /// shortfall is driver downtime: frames parked on a ring whose
    /// driver died are torn down with it at re-probe.
    pub delivered: u64,
    /// Live-principal gauge drift across phase-equivalent snapshots
    /// (driver freshly re-probed; must be 0).
    pub leak_principals: i64,
    /// Live slab-object drift (must be 0).
    pub leak_slab: i64,
    /// Drift in the number of principals holding a writer-index record
    /// (must be 0).
    pub leak_writer_sets: i64,
    /// Writer-index entry drift (must be 0).
    pub leak_intervals: i64,
    /// Whether the kernel-wide panic flag was ever set (must be 0).
    pub panics: u64,
}

/// Drains the RX queue, freeing every delivered frame; loops because
/// the frees' own enter-epilogues can dispatch a re-armed poll that
/// delivers more.
fn drain_rx(k: &mut Kernel) -> u64 {
    let mut n = 0;
    loop {
        let skbs = std::mem::take(&mut k.net().rx_queue);
        if skbs.is_empty() {
            return n;
        }
        n += skbs.len() as u64;
        for skb in skbs {
            k.enter(|k| lxfi_kernel::net::free_skb_raw(k, skb).map(|()| 0u64))
                .unwrap();
        }
    }
}

/// Runs wire traffic at a supervised e1000 while RX-path faults crash
/// it, until it has recovered `target_recoveries` times. Each recovery
/// is a full operator cycle: quarantine mid-poll → supervisor restart →
/// stale device plumbing torn out → bus re-probe → fresh RX ring.
pub fn run_rx_chaos(target_recoveries: u64) -> RxChaosMeasurement {
    let mut k = Kernel::boot(IsolationMode::Lxfi);
    let pcidev = k.pci_add_device(0x8086, 0x100e, 11);
    let mut sup = Supervisor::new(RestartPolicy {
        max_consecutive_failures: 5,
        base_backoff: 1,
        max_backoff: 4,
        probation: 1,
    });
    sup.supervise(
        &mut k,
        "e1000",
        IsolationMode::Lxfi,
        Box::new(mods::e1000::spec),
    )
    .unwrap();
    k.enter(|k| k.pci_probe_all()).unwrap();
    let mut dev = *k.net().devices.last().unwrap();

    // Warm the receive plane fault-free.
    for _ in 0..4 {
        k.enter(|k| k.net_rx_wire(dev, RX_BURST)).unwrap();
        drain_rx(&mut k);
    }

    k.set_fault_plan(Arc::new(FaultPlan {
        seed: 0x00D0_0DAD_0BAD_F00D,
        rules: vec![
            FaultRule {
                module: "e1000".into(),
                site: FaultSite::PollGuard,
                one_in: 9,
            },
            FaultRule {
                module: "e1000".into(),
                site: FaultSite::DeferredFuel,
                one_in: 4001,
            },
        ],
    }));

    let mut recoveries = 0u64;
    let mut injected = 0u64;
    let mut delivered = 0u64;
    let mut panics = 0u64;
    let mut quiet = 0u64;
    let mut first_snap: Option<(u64, u64, u64, u64)> = None;
    let mut last_snap: Option<(u64, u64, u64, u64)> = None;

    let mut iter = 0u64;
    while recoveries < target_recoveries {
        iter += 1;
        assert!(iter <= MAX_ITERS, "rx chaos failed to converge");
        assert!(
            sup.state("e1000") != Some(SupervisedState::Dead),
            "the driver must keep recovering, not crash-loop to death"
        );

        if quiet > 0 {
            // A fault-free tick right after restart: probation clears
            // the failure streak, so the supervisor restarts the driver
            // indefinitely instead of declaring a crash loop.
            quiet -= 1;
        } else {
            injected += RX_BURST;
            // A fault in the poll is contained at the deferred-dispatch
            // quiescent point — the wire entry itself still succeeds.
            // While the driver is quarantined the interrupt's dispatch
            // finds a dangling poll pointer and is swallowed; the
            // frames sit on the doomed ring.
            k.enter(|k| k.net_rx_wire(dev, RX_BURST)).unwrap();
            delivered += drain_rx(&mut k);
        }

        for ev in sup.tick(&mut k) {
            match ev {
                SupervisorEvent::Faulted { module, .. } => assert_eq!(module, "e1000"),
                SupervisorEvent::Restarted { module, .. } => {
                    assert_eq!(module, "e1000");
                    recoveries += 1;
                    // The kernel tore the module down, but the device
                    // plumbing its dead instance registered survives —
                    // a bound pci_dev, a driver slot whose probe
                    // pointer dangles, a net device with a dead NAPI
                    // ring. The operator (us) removes it and re-probes
                    // so the restarted driver's registration binds a
                    // fresh ring.
                    let old = dev;
                    {
                        let mut pci = k.pci();
                        pci.bound.retain(|&(d, _)| d != pcidev);
                        let fresh = pci.driver_slots.pop();
                        pci.driver_slots.clear();
                        pci.driver_slots.extend(fresh);
                    }
                    k.net_remove_dead_device(old);
                    k.enter(|k| k.pci_probe_all()).unwrap();
                    dev = *k.net().devices.last().unwrap();
                    quiet = 1;
                    // Leak gauges at phase-equivalent points: driver
                    // freshly re-probed, RX queue empty. Skip early
                    // cycles so the writer index reaches its steady
                    // population.
                    if recoveries >= 4 {
                        let s = snapshot(&k);
                        first_snap.get_or_insert(s);
                        last_snap = Some(s);
                    }
                }
                SupervisorEvent::CrashLooping { module } => {
                    panic!("{module} must not crash-loop to death");
                }
                SupervisorEvent::RestartFailed { module, why } => {
                    panic!("restart of {module} failed: {why}");
                }
            }
        }

        if k.panic_reason().is_some() {
            panics += 1;
        }
    }

    let first = first_snap.expect("reached steady-state snapshots");
    let last = last_snap.unwrap();
    RxChaosMeasurement {
        recoveries,
        faults: k.fault_count() as u64,
        injected,
        delivered,
        leak_principals: last.0 as i64 - first.0 as i64,
        leak_slab: last.1 as i64 - first.1 as i64,
        leak_writer_sets: last.2 as i64 - first.2 as i64,
        leak_intervals: last.3 as i64 - first.3 as i64,
        panics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_run_recovers_and_leaks_nothing() {
        let m = run_chaos(12);
        assert!(m.recoveries >= 12);
        assert!(m.faults >= m.recoveries);
        assert!(m.crash_loop_detected, "hopeless must be declared dead");
        assert_eq!(m.panics, 0, "module chaos must never panic the kernel");
        assert_eq!(m.leak_principals, 0);
        assert_eq!(m.leak_slab, 0);
        assert_eq!(m.leak_writer_sets, 0);
        assert_eq!(m.leak_intervals, 0);
        assert!(m.recovery_ticks_max >= 1 && m.recovery_ticks_max <= 16);
        assert!(m.healthy_pkt_cycles_baseline > 0.0);
        assert!(
            m.overhead_ratio() < 1.43,
            "healthy throughput under chaos must stay >= 0.7x baseline (ratio {})",
            m.overhead_ratio()
        );
    }

    #[test]
    fn rx_chaos_recovers_the_receive_plane() {
        let m = run_rx_chaos(10);
        assert!(m.recoveries >= 10);
        assert!(m.faults >= m.recoveries, "{m:?}");
        assert!(m.delivered > 0, "the plane must move frames: {m:?}");
        assert!(m.delivered <= m.injected, "{m:?}");
        assert_eq!(m.panics, 0, "RX chaos must never panic the kernel");
        assert_eq!(m.leak_principals, 0, "{m:?}");
        assert_eq!(m.leak_slab, 0, "{m:?}");
        assert_eq!(m.leak_writer_sets, 0, "{m:?}");
        assert_eq!(m.leak_intervals, 0, "{m:?}");
    }

    #[test]
    fn rx_chaos_is_deterministic() {
        let a = run_rx_chaos(6);
        let b = run_rx_chaos(6);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn chaos_run_is_deterministic() {
        let a = run_chaos(10);
        let b = run_chaos(10);
        assert_eq!(a.recoveries, b.recoveries);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.recovery_ticks_max, b.recovery_ticks_max);
        assert_eq!(a.healthy_pkt_cycles_baseline, b.healthy_pkt_cycles_baseline);
        assert_eq!(a.healthy_pkt_cycles_chaos, b.healthy_pkt_cycles_chaos);
    }
}
