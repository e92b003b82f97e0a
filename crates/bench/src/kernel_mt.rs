//! kernel_mt: the multi-threaded **kernel** workload — real interpreted
//! module code on N simulated CPUs.
//!
//! `netperf_mt` proved the guard layer scales by driving bare
//! `GuardHandle`s; this workload proves the whole *kernel* does. Each
//! worker OS thread owns a [`lxfi_kernel::KernelCpu`] over one shared
//! `KernelCore` and pushes packets down the full LXFI TX path:
//! `net_send_packet` → slab skb allocation → the rewritten `dev_queue_xmit` kernel thunk
//! (interpreted, `GuardIndCall` on the module-written ops slot) → the
//! **interpreted, rewritten `e1000_xmit`** running as the per-device
//! principal (guarded ring-descriptor/stats stores, skb capability
//! transfer in and out) → `kfree_skb` (capability sweep + writer-map
//! zeroing). Every CPU drives its **own** e1000 device, so workers run
//! as distinct instance principals whose grants live in their own
//! writer-index shards — the §3.1 multi-principal design exercised
//! end-to-end in parallel.
//!
//! The *contended* variant adds a churn CPU doing what a busy SMP
//! kernel does underneath a driver: revoking and re-granting spare
//! WRITE capabilities against the workers' device principals
//! round-robin (each revoke bumps the victim's epoch, wholesale-
//! invalidating its private guard cache), and periodically **loading
//! and unloading** a fresh LXFI module — write-locking the module
//! registry, registering principals, granting and sweeping a whole
//! window — while the workers keep interpreting.
//!
//! Latency is the median of per-batch means (robust on shared hosts);
//! aggregate throughput is total packets over the slowest worker's
//! wall clock. Perf-gate rows bound contended-vs-uncontended per-packet
//! latency and CPU-count-aware scaling.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Instant;

use lxfi_core::RawCap;
use lxfi_kernel::{Backend, IsolationMode, Kernel, ModuleSpec};
use lxfi_machine::builder::regs::*;
use lxfi_machine::{ProgramBuilder, Word};
use lxfi_modules as mods;
use lxfi_rewriter::InterfaceSpec;

/// Packets per timed batch.
pub const BATCH_PKTS: u64 = 32;
/// Payload bytes per packet.
pub const PKT_BYTES: u64 = 64;
/// Base of the spare-capability region the churn CPU revokes against
/// (user space: never executed or dispatched through).
pub const SPARE_BASE: Word = 0x6000_0000;
/// Maximum module load/unload cycles one contended run performs (each
/// consumes a module window; bounded so long runs cannot exhaust the
/// module area).
pub const MAX_CHURN_LOADS: u64 = 24;
/// Churn iterations between module load/unload cycles.
const LOAD_EVERY: u64 = 64;

/// A minimal isolated module the churn CPU loads and unloads: one
/// global it owns, one function writing it (so the load grants and the
/// unload sweeps real WRITE coverage).
fn churn_spec(seq: u64) -> ModuleSpec {
    let mut pb = ProgramBuilder::new("churn");
    let state = pb.global("churn_state", 64);
    pb.define("churn_touch", 1, 0, |f| {
        f.global_addr(R1, state);
        f.store8(R0, R1, 0);
        f.ret(0i64);
    });
    ModuleSpec {
        name: format!("churn-{seq}"),
        program: pb.finish(),
        // Unannotated: churn_touch runs as the shared principal with
        // the window grants the loader installs.
        iface: InterfaceSpec::new(),
        iterators: vec![],
        init_fn: None,
    }
}

/// One measured configuration of the kernel workload.
#[derive(Debug, Clone)]
pub struct KernelMtMeasurement {
    /// Worker (CPU) count.
    pub threads: usize,
    /// Whether the churn CPU ran.
    pub contended: bool,
    /// Median-of-batch-means per-packet wall latency, averaged over
    /// workers (host ns).
    pub pkt_ns: f64,
    /// Aggregate TX throughput: total packets / slowest worker's wall
    /// clock, in K packets/s.
    pub aggregate_kpps: f64,
    /// Write-guard cache hit rate merged over all workers.
    pub hit_rate: f64,
    /// Slab magazine hit rate merged over all workers (allocations
    /// served without touching the backing shard's free lists).
    pub magazine_hit_rate: f64,
    /// Single-holder grant transfers that took the one-splice fast path,
    /// summed over workers.
    pub transfer_fast: u64,
    /// Grant transfers that fell back to the full revoke sweep.
    pub transfer_slow: u64,
    /// `note_zeroed` calls answered by the lock-free clean-stripe
    /// pre-check, summed over workers.
    pub note_zeroed_fast_skips: u64,
    /// Grant/revoke pairs the churn CPU completed (0 uncontended).
    pub churn_ops: u64,
    /// Module load/unload cycles the churn CPU completed.
    pub churn_loads: u64,
}

/// Runs `threads` worker CPUs for `packets_per_cpu` packets each,
/// optionally against a churn CPU revoking spares and load/unloading
/// modules. Module code runs through the interpreter; see
/// [`run_kernel_mt_backend`].
pub fn run_kernel_mt(threads: usize, packets_per_cpu: u64, contended: bool) -> KernelMtMeasurement {
    run_kernel_mt_backend(threads, packets_per_cpu, contended, Backend::Interp)
}

/// [`run_kernel_mt`] with an explicit execution backend: every worker
/// CPU dispatches the rewritten e1000 (and the kernel thunks, and the
/// churn CPU's load/unload modules) through the chosen backend.
pub fn run_kernel_mt_backend(
    threads: usize,
    packets_per_cpu: u64,
    contended: bool,
    backend: Backend,
) -> KernelMtMeasurement {
    let mut k = Kernel::boot_with_backend(IsolationMode::Lxfi, backend);
    for _ in 0..threads {
        k.pci_add_device(0x8086, 0x100e, 11);
    }
    let e1000 = k.load_module(mods::e1000::spec()).unwrap();
    k.enter(|k| k.pci_probe_all()).unwrap();
    let devs: Vec<Word> = k.net().devices.clone();
    assert_eq!(devs.len(), threads, "one NIC per worker CPU");
    let mid = k.runtime_module(e1000).expect("isolated module");

    let start_barrier = Arc::new(Barrier::new(threads + 1 + usize::from(contended)));
    let stop = Arc::new(AtomicBool::new(false));
    let churn_ops = Arc::new(AtomicU64::new(0));
    let churn_loads = Arc::new(AtomicU64::new(0));

    let churner = if contended {
        let mut cpu = k.new_cpu();
        let devs = devs.clone();
        let start_barrier = Arc::clone(&start_barrier);
        let stop = Arc::clone(&stop);
        let churn_ops = Arc::clone(&churn_ops);
        let churn_loads = Arc::clone(&churn_loads);
        Some(thread::spawn(move || {
            // The per-device principals exist (probe named them); the
            // spare grants are what this CPU revokes and re-grants.
            let victims: Vec<_> = devs
                .iter()
                .map(|&d| cpu.rt.principal_for_name(mid, d))
                .collect();
            for (i, &p) in victims.iter().enumerate() {
                cpu.rt
                    .grant(p, RawCap::write(SPARE_BASE + i as u64 * 0x1000, 0x100));
            }
            start_barrier.wait();
            let mut i = 0u64;
            let mut loads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let v = (i % victims.len() as u64) as usize;
                let cap = RawCap::write(SPARE_BASE + v as u64 * 0x1000, 0x100);
                cpu.rt.revoke(victims[v], cap);
                cpu.rt.grant(victims[v], cap);
                churn_ops.fetch_add(1, Ordering::Relaxed);
                if i.is_multiple_of(LOAD_EVERY) && loads < MAX_CHURN_LOADS {
                    let id = cpu
                        .load_module_with_mode(churn_spec(loads), IsolationMode::Lxfi)
                        .expect("churn module loads");
                    // Run its function once (real interpreted code under
                    // the freshly granted window), then tear it down.
                    let addr = cpu.module_fn_addr(id, "churn_touch").unwrap();
                    cpu.enter(|k| k.invoke_module_function(addr, &[i], None))
                        .expect("churn module runs");
                    cpu.unload_module(id).expect("churn module unloads");
                    loads += 1;
                    churn_loads.fetch_add(1, Ordering::Relaxed);
                }
                i += 1;
                // Pace the churn so it does not degenerate into a tight
                // loop starving the workers.
                thread::yield_now();
            }
        }))
    } else {
        None
    };

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mut cpu = k.new_cpu();
            let dev = devs[t];
            let start_barrier = Arc::clone(&start_barrier);
            thread::spawn(move || {
                // Warm the slab, the writer structures, and the private
                // guard cache before the clock starts.
                for _ in 0..8 {
                    cpu.enter(|k| k.net_send_packet(dev, PKT_BYTES)).unwrap();
                }
                start_barrier.wait();
                let t0 = Instant::now();
                let mut batch_means = Vec::new();
                let mut sent = 0u64;
                while sent < packets_per_cpu {
                    let n = BATCH_PKTS.min(packets_per_cpu - sent);
                    let b0 = Instant::now();
                    for _ in 0..n {
                        cpu.enter(|k| k.net_send_packet(dev, PKT_BYTES)).unwrap();
                        sent += 1;
                    }
                    batch_means.push(b0.elapsed().as_nanos() as f64 / n as f64);
                }
                let elapsed = t0.elapsed().as_secs_f64();
                batch_means.sort_by(|a, b| a.total_cmp(b));
                let median = batch_means[batch_means.len() / 2];
                let hits = cpu.rt.stats.write_cache_hits;
                let misses = cpu.rt.stats.write_cache_misses;
                let lockfree = DataPlaneCounters {
                    mag_hits: cpu.mags.hits,
                    mag_misses: cpu.mags.misses,
                    transfer_fast: cpu.rt.stats.transfer_fast,
                    transfer_slow: cpu.rt.stats.transfer_slow,
                    note_zeroed_fast_skips: cpu.rt.stats.note_zeroed_fast_skips,
                };
                (median, elapsed, hits, misses, lockfree)
            })
        })
        .collect();

    start_barrier.wait();
    let results: Vec<(f64, f64, u64, u64, DataPlaneCounters)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    if let Some(c) = churner {
        c.join().unwrap();
    }
    assert!(
        k.panic_reason().is_none(),
        "workload must not violate policy: {:?}",
        k.panic_reason()
    );

    let slowest = results.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let hits: u64 = results.iter().map(|r| r.2).sum();
    let misses: u64 = results.iter().map(|r| r.3).sum();
    let mag_hits: u64 = results.iter().map(|r| r.4.mag_hits).sum();
    let mag_misses: u64 = results.iter().map(|r| r.4.mag_misses).sum();
    KernelMtMeasurement {
        threads,
        contended,
        pkt_ns: results.iter().map(|r| r.0).sum::<f64>() / threads as f64,
        aggregate_kpps: (threads as u64 * packets_per_cpu) as f64 / slowest / 1e3,
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        magazine_hit_rate: mag_hits as f64 / (mag_hits + mag_misses).max(1) as f64,
        transfer_fast: results.iter().map(|r| r.4.transfer_fast).sum(),
        transfer_slow: results.iter().map(|r| r.4.transfer_slow).sum(),
        note_zeroed_fast_skips: results.iter().map(|r| r.4.note_zeroed_fast_skips).sum(),
        churn_ops: churn_ops.load(Ordering::Relaxed),
        churn_loads: churn_loads.load(Ordering::Relaxed),
    }
}

/// Per-worker lock-avoidance counters folded into the measurement.
#[derive(Debug, Clone, Copy)]
struct DataPlaneCounters {
    mag_hits: u64,
    mag_misses: u64,
    transfer_fast: u64,
    transfer_slow: u64,
    note_zeroed_fast_skips: u64,
}

/// The thread counts the human table reports.
pub const KMT_THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// One uncontended and one contended row per thread count.
pub fn kmt_rows(packets_per_cpu: u64) -> Vec<KernelMtMeasurement> {
    kmt_rows_backend(packets_per_cpu, Backend::Interp)
}

/// [`kmt_rows`] with an explicit execution backend.
pub fn kmt_rows_backend(packets_per_cpu: u64, backend: Backend) -> Vec<KernelMtMeasurement> {
    let mut rows = Vec::new();
    for &t in &KMT_THREAD_COUNTS {
        rows.push(run_kernel_mt_backend(t, packets_per_cpu, false, backend));
        rows.push(run_kernel_mt_backend(t, packets_per_cpu, true, backend));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use lxfi_kernel::KernelCpu;

    #[test]
    fn kernel_cpu_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<KernelCpu>();
    }

    #[test]
    fn concurrent_tx_executes_real_module_code() {
        let m = run_kernel_mt(2, 300, false);
        // Completing without a panic IS the isolation assertion (every
        // guarded store was checked); the counters prove real work.
        assert!(m.aggregate_kpps > 0.0 && m.pkt_ns > 0.0);
        // Unlike the bare-guard netperf_mt, the real TX path frees its
        // skb every packet: the kfree capability sweep bumps the device
        // principal's epoch (precise revocation doing its job), so the
        // private cache resets once per packet and the steady-state hit
        // rate sits near the within-packet re-reference rate (~1/3),
        // not ~1.
        assert!(
            m.hit_rate > 0.2,
            "within-packet stores should still hit: {m:?}"
        );
        assert_eq!(m.churn_ops, 0);
        // The lock-free data plane did its job: allocations came out of
        // the per-CPU magazines, skb grant transfers took the
        // single-holder splice, and at least the first zero-note per
        // worker was answered without a lock.
        assert!(
            m.magazine_hit_rate > 0.9,
            "steady-state allocs must hit the magazines: {m:?}"
        );
        assert!(m.transfer_fast > 0, "skb transfers must go fast: {m:?}");
        assert!(m.note_zeroed_fast_skips > 0, "clean-stripe skip: {m:?}");
    }

    #[test]
    fn contended_tx_survives_revokes_and_module_churn() {
        let m = run_kernel_mt(2, 300, true);
        assert!(m.churn_ops > 0, "churn CPU ran: {m:?}");
        assert!(m.churn_loads > 0, "module load/unload cycles ran: {m:?}");
        assert!(
            m.hit_rate > 0.15,
            "churn must not collapse the guard caches: {m:?}"
        );
    }

    #[test]
    fn workers_transmit_on_their_own_devices() {
        let mut k = Kernel::boot(IsolationMode::Lxfi);
        k.pci_add_device(0x8086, 0x100e, 11);
        k.pci_add_device(0x8086, 0x100e, 12);
        k.load_module(mods::e1000::spec()).unwrap();
        k.enter(|k| k.pci_probe_all()).unwrap();
        let devs: Vec<Word> = k.net().devices.clone();
        let mut cpus: Vec<KernelCpu> = devs.iter().map(|_| k.new_cpu()).collect();
        let handles: Vec<_> = cpus
            .drain(..)
            .zip(devs.iter().copied())
            .map(|(mut cpu, dev)| {
                thread::spawn(move || {
                    for _ in 0..50 {
                        cpu.enter(|k| k.net_send_packet(dev, 64)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Both devices saw all their packets (warm counters in shared
        // memory written by interpreted module code on two OS threads).
        for &dev in &devs {
            assert_eq!(k.net_tx_packets(dev), 50);
        }
        assert!(k.panic_reason().is_none());
    }
}
