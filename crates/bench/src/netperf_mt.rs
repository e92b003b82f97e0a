//! netperf_mt: the contended multi-threaded TX workload.
//!
//! N worker threads drive e1000-style TX rings through their own
//! [`GuardHandle`]s over one shared [`RuntimeCore`]: each packet is
//! four guarded stores (ring descriptor, payload buffer, queue state,
//! driver stats — the four objects the 4-way epoch cache is sized for),
//! rotating across 256 ring slots. Every worker owns an instance
//! principal whose grants live in its own writer-index shard, so the
//! steady state is exactly the design target: **every store is a
//! lock-free private-cache hit** validated by one atomic epoch load.
//!
//! The *contended* variant adds a churn thread issuing grant/revoke
//! traffic against the workers' spare grants, paced by worker progress
//! to one revoke + re-grant per [`CHURN_EVERY_PKTS`] worker packets
//! (summed over workers), so the churn rate — and with it the
//! contention the gate bounds — does not depend on how cheap a
//! grant/revoke is; a churner that has caught up sleeps instead of
//! competing with the workers for a CPU. Each revoke bumps the
//! victim's epoch (plus the module-global principal's), wholesale-
//! invalidating the victim's private cache, so its next stores pay the
//! miss path — the table probe under the victim's capability mutex,
//! which is also what the churn thread holds mid-revoke. Contention is
//! therefore real but *scoped*: the paper's §3.1 hierarchy keeps other
//! workers' epochs untouched, and the perf gate bounds the damage
//! (contended per-store ≤ 2x uncontended; 4-thread aggregate ≥ 2.5x
//! single-thread when the host has ≥ 4 CPUs).
//!
//! Latency is reported as the **median of per-batch means** (batches of
//! 64 packets): robust to a worker being descheduled mid-batch on a
//! shared or single-core host, while still charging the epoch-miss
//! refills churn causes. Aggregate throughput is total stores over the
//! slowest worker's wall clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use lxfi_core::{GuardHandle, ModuleId, PrincipalId, RawCap, RuntimeCore};

/// Base address of the per-worker TX arenas.
pub const MT_ARENA_BASE: u64 = 0x5000_0000;
/// Arena stride — one writer-index shard per worker.
pub const MT_ARENA_STRIDE: u64 = 0x10_0000;
/// TX ring slots per worker.
pub const RING_SLOTS: u64 = 256;
/// Packets per timed batch (4 stores per packet).
pub const BATCH_PKTS: u64 = 64;
/// Worker packets (summed over workers) per churn revoke + re-grant in
/// the contended run.
pub const CHURN_EVERY_PKTS: u64 = 32;

/// Offsets of a worker's four TX objects and its churn-target spare
/// grant inside its arena.
const DESC_OFF: u64 = 0;
const PAYLOAD_OFF: u64 = 0x1_0000;
const QSTATE_OFF: u64 = 0x2_0000;
const STATS_OFF: u64 = 0x3_0000;
const SPARE_OFF: u64 = 0x4_0000;

/// The shared world of a netperf_mt run.
pub struct MtWorld {
    /// The shared runtime core workers guard against.
    pub core: Arc<RuntimeCore>,
    /// The driver module.
    pub module: ModuleId,
    /// One instance principal per worker.
    pub workers: Vec<PrincipalId>,
}

/// Builds the shared core: shard boundaries at every worker arena, one
/// instance principal per worker holding its ring/payload/state/stats
/// grants plus a spare grant for the churn thread to revoke.
pub fn build_world(threads: usize) -> MtWorld {
    let boundaries: Vec<u64> = (0..=threads as u64)
        .map(|t| MT_ARENA_BASE + t * MT_ARENA_STRIDE)
        .collect();
    let rt = RuntimeCore::with_shard_boundaries(boundaries);
    let m = rt.register_module("e1000-mt");
    let workers: Vec<PrincipalId> = (0..threads)
        .map(|t| {
            let p = rt.principal_for_name(m, 0x9000 + t as u64 * 8);
            let base = arena(t);
            rt.grant(p, RawCap::write(base + DESC_OFF, RING_SLOTS * 16));
            rt.grant(p, RawCap::write(base + PAYLOAD_OFF, RING_SLOTS * 256));
            rt.grant(p, RawCap::write(base + QSTATE_OFF, 64));
            rt.grant(p, RawCap::write(base + STATS_OFF, 64));
            rt.grant(p, RawCap::write(base + SPARE_OFF, 0x100));
            p
        })
        .collect();
    MtWorld {
        core: Arc::new(rt),
        module: m,
        workers,
    }
}

/// Worker `t`'s arena base.
pub fn arena(t: usize) -> u64 {
    MT_ARENA_BASE + t as u64 * MT_ARENA_STRIDE
}

/// Issues the four guarded stores of packet `i` on worker `t`'s ring;
/// panics if any store is denied (the workload never loses its ring
/// grants — churn only touches spares).
#[inline]
pub fn tx_packet(h: &mut GuardHandle, t: usize, i: u64) {
    let base = arena(t);
    let slot = i % RING_SLOTS;
    h.check_write(base + DESC_OFF + slot * 16, 16)
        .expect("ring descriptor granted");
    h.check_write(base + PAYLOAD_OFF + slot * 256, 8)
        .expect("payload granted");
    h.check_write(base + QSTATE_OFF + (i % 8) * 8, 8)
        .expect("queue state granted");
    h.check_write(base + STATS_OFF + (i % 8) * 8, 8)
        .expect("stats granted");
}

/// One measured configuration of the workload.
#[derive(Debug, Clone)]
pub struct MtMeasurement {
    /// Worker thread count.
    pub threads: usize,
    /// Whether the churn thread ran.
    pub contended: bool,
    /// Median-of-batch-means per-store latency, averaged over workers
    /// (host ns).
    pub store_ns: f64,
    /// Aggregate store throughput: total stores / slowest worker's wall
    /// clock, in M stores/s.
    pub aggregate_mops: f64,
    /// Write-guard cache hit rate merged over all workers.
    pub hit_rate: f64,
    /// Grant/revoke pairs the churn thread completed (0 uncontended;
    /// otherwise total worker packets / [`CHURN_EVERY_PKTS`]).
    pub churn_ops: u64,
    /// Epoch bumps the churn caused (2 per revoke: victim + global).
    pub epoch_bumps: u64,
}

/// Runs `threads` workers for `packets_per_thread` packets each,
/// optionally against a churn thread revoking/re-granting worker
/// spares round-robin, one pair per [`CHURN_EVERY_PKTS`] worker packets.
pub fn run_netperf_mt(threads: usize, packets_per_thread: u64, contended: bool) -> MtMeasurement {
    let world = build_world(threads);
    world.core.reset_global_stats();
    // Workers + main + (when contended) the churner, so churn ops land
    // inside the measured window rather than being absorbed by warmup.
    let start_barrier = Arc::new(Barrier::new(threads + 1 + usize::from(contended)));
    // Worker packets completed, summed over workers (contended run
    // only): the churner's quota so far is this / CHURN_EVERY_PKTS.
    let progress = Arc::new(AtomicU64::new(0));
    let churn_ops = Arc::new(AtomicU64::new(0));
    let churn_bumps = Arc::new(AtomicU64::new(0));
    let quota = threads as u64 * packets_per_thread / CHURN_EVERY_PKTS;

    let churner = if contended {
        let core = world.core.clone();
        let workers = world.workers.clone();
        let start_barrier = start_barrier.clone();
        let progress = progress.clone();
        let churn_ops = churn_ops.clone();
        let churn_bumps = churn_bumps.clone();
        Some(thread::spawn(move || {
            start_barrier.wait();
            let mut i = 0usize;
            while (i as u64) < quota {
                if i as u64 >= progress.load(Ordering::Acquire) / CHURN_EVERY_PKTS {
                    // Caught up: sleep until a worker owes two batches
                    // of quota (the timeout picks up the run's last few
                    // ops), so a waiting churner takes no CPU from the
                    // workers.
                    thread::park_timeout(Duration::from_millis(1));
                    continue;
                }
                let victim = workers[i % workers.len()];
                let cap = RawCap::write(arena(i % workers.len()) + SPARE_OFF, 0x100);
                let (_, bumps) = core.revoke(victim, cap);
                core.grant(victim, cap);
                churn_ops.fetch_add(1, Ordering::Release);
                churn_bumps.fetch_add(bumps, Ordering::Relaxed);
                i += 1;
            }
        }))
    } else {
        None
    };

    let churn_thread = churner.as_ref().map(|c| c.thread().clone());
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let core = world.core.clone();
            let m = world.module;
            let p = world.workers[t];
            let start_barrier = start_barrier.clone();
            let progress = progress.clone();
            let churn_ops = churn_ops.clone();
            let churn_thread = churn_thread.clone();
            thread::spawn(move || {
                let mut h: GuardHandle = GuardHandle::new(core);
                h.set_current(Some((m, p)));
                // Warm the private cache before the clock starts.
                for i in 0..RING_SLOTS {
                    tx_packet(&mut h, t, i);
                }
                start_barrier.wait();
                let t0 = Instant::now();
                let mut batch_means = Vec::new();
                let mut i = 0u64;
                while i < packets_per_thread {
                    let n = BATCH_PKTS.min(packets_per_thread - i);
                    let b0 = Instant::now();
                    for _ in 0..n {
                        tx_packet(&mut h, t, i);
                        i += 1;
                    }
                    batch_means.push(b0.elapsed().as_nanos() as f64 / (n * 4) as f64);
                    if let Some(churner) = &churn_thread {
                        // Outside the batch timer: report the batch; once
                        // two batches of churn quota are owed, wake the
                        // churner, and wait while more than that is owed,
                        // so the churn lands among the measured stores
                        // instead of after them.
                        let done = progress.fetch_add(n, Ordering::AcqRel) + n;
                        let slack = 2 * BATCH_PKTS / CHURN_EVERY_PKTS;
                        let owed = || {
                            (done / CHURN_EVERY_PKTS)
                                .saturating_sub(churn_ops.load(Ordering::Acquire))
                        };
                        if owed() >= slack {
                            churner.unpark();
                        }
                        while owed() > slack {
                            thread::yield_now();
                        }
                    }
                }
                let elapsed = t0.elapsed().as_secs_f64();
                batch_means.sort_by(|a, b| a.total_cmp(b));
                let median = batch_means[batch_means.len() / 2];
                h.flush_stats();
                (median, elapsed)
            })
        })
        .collect();

    start_barrier.wait();
    let results: Vec<(f64, f64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    if let Some(c) = churner {
        c.join().unwrap();
    }

    let stats = world.core.global_stats();
    let slowest = results.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let total_stores = threads as u64 * packets_per_thread * 4;
    MtMeasurement {
        threads,
        contended,
        store_ns: results.iter().map(|r| r.0).sum::<f64>() / threads as f64,
        aggregate_mops: total_stores as f64 / slowest / 1e6,
        hit_rate: stats.write_cache_hit_rate(),
        churn_ops: churn_ops.load(Ordering::Relaxed),
        epoch_bumps: churn_bumps.load(Ordering::Relaxed),
    }
}

/// The thread counts the human table and the CI smoke report.
pub const MT_THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One uncontended and one contended row per thread count.
pub fn mt_rows(packets_per_thread: u64) -> Vec<MtMeasurement> {
    let mut rows = Vec::new();
    for &t in &MT_THREAD_COUNTS {
        rows.push(run_netperf_mt(t, packets_per_thread, false));
        rows.push(run_netperf_mt(t, packets_per_thread, true));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_workers_hit_their_private_caches() {
        let m = run_netperf_mt(2, 4_000, false);
        assert!(m.hit_rate > 0.99, "steady TX must be all cache hits: {m:?}");
        assert!(m.aggregate_mops > 0.0 && m.store_ns > 0.0);
        assert_eq!(m.churn_ops, 0);
    }

    #[test]
    fn contended_run_stays_correct_and_counts_churn() {
        let m = run_netperf_mt(2, 4_000, true);
        // tx_packet panics on any denied store, so completing the run
        // IS the correctness assertion; the churn paced by worker
        // progress lands exactly its quota.
        assert_eq!(m.churn_ops, 2 * 4_000 / CHURN_EVERY_PKTS, "{m:?}");
        assert_eq!(
            m.epoch_bumps,
            2 * m.churn_ops,
            "each spare revoke bumps victim + module global: {m:?}"
        );
        assert!(m.hit_rate > 0.5, "churn must not collapse the cache: {m:?}");
    }

    #[test]
    fn world_shards_isolate_worker_arenas() {
        let w = build_world(4);
        // Each worker's grants live in its own shard; the index names
        // only that worker as a holder of one arena, so a sweep there
        // visits exactly one principal and it is that worker.
        let sweep = w
            .core
            .revoke_write_overlapping_everywhere(arena(2), 0x1000, &mut Vec::new());
        assert_eq!(sweep.visited, 1);
        assert!(!w.core.write_overlaps(w.workers[2], arena(2), 0x1000));
        w.core.check_index_invariants();
    }
}
