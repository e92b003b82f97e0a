//! Backend matrix: every module workload must produce identical
//! *functional* results under the interpreter and the compiled backend,
//! in both isolation modes. Simulated cycles are backend-invariant by
//! construction (the compiled backend refunds exactly what it
//! over-consumes), so the matrix also pins `total_cycles` — any drift
//! there means a fuel-accounting bug, not just a perf difference.

use lxfi_bench::{dm, netperf, sound};
use lxfi_core::ALL_GUARD_KINDS;
use lxfi_kernel::{Backend, IsolationMode, Kernel};

const MODES: [IsolationMode; 2] = [IsolationMode::Stock, IsolationMode::Lxfi];

/// The LXFI netperf sequence's guard metering (boot included), pinned to
/// the values the per-thread runtime facade produced before it was
/// folded into `GuardHandle`: every count and cycle charge must survive
/// that move unchanged, under both backends.
const LXFI_NETPERF_METERING: [(&str, u64); 21] = [
    ("total_cycles", 44116),
    ("AnnotationAction count", 55),
    ("AnnotationAction cycles", 6820),
    ("FunctionEntry count", 35),
    ("FunctionEntry cycles", 560),
    ("FunctionExit count", 35),
    ("FunctionExit cycles", 490),
    ("MemWrite count", 485),
    ("MemWrite cycles", 24735),
    ("KernelIndCall count", 6),
    ("KernelIndCall cycles", 472),
    ("write_cache_hits", 446),
    ("write_cache_misses", 39),
    ("epoch_bumps", 48),
    ("kfree_hint_visited", 8),
    ("kfree_hint_skipped", 40),
    ("transfer_fast", 42),
    ("transfer_slow", 0),
    ("note_zeroed_fast_skips", 1),
    ("zero_notes_deferred", 19),
    ("zero_notes_stale", 0),
];

/// `total_cycles` plus every `GuardStats` counter of CPU 0, labelled.
fn guard_metering(k: &Kernel) -> Vec<(String, u64)> {
    let s = &k.rt.stats;
    let mut v = vec![("total_cycles".to_string(), k.total_cycles())];
    for kind in ALL_GUARD_KINDS {
        v.push((format!("{kind:?} count"), s.count(kind)));
        v.push((format!("{kind:?} cycles"), s.cycles(kind)));
    }
    for (name, n) in [
        ("write_cache_hits", s.write_cache_hits),
        ("write_cache_misses", s.write_cache_misses),
        ("epoch_bumps", s.epoch_bumps),
        ("kfree_hint_visited", s.kfree_hint_visited),
        ("kfree_hint_skipped", s.kfree_hint_skipped),
        ("transfer_fast", s.transfer_fast),
        ("transfer_slow", s.transfer_slow),
        ("note_zeroed_fast_skips", s.note_zeroed_fast_skips),
        ("zero_notes_deferred", s.zero_notes_deferred),
        ("zero_notes_stale", s.zero_notes_stale),
    ] {
        v.push((name.to_string(), n));
    }
    v
}

/// netperf: packet TX + RX deliver identical skb handles, rx counts,
/// device counters, and simulated cycles under both backends; under LXFI
/// the guard metering also matches [`LXFI_NETPERF_METERING`] exactly.
#[test]
fn netperf_matrix() {
    for mode in MODES {
        let mut obs = Vec::new();
        for backend in [Backend::Interp, Backend::Compiled] {
            let (mut k, dev) = netperf::boot_e1000_backend(mode, backend);
            let mut log = Vec::new();
            for len in [60u64, 256, 1448] {
                log.push(k.enter(|k| k.net_send_packet(dev, len)).unwrap());
            }
            log.push(k.enter(|k| k.net_deliver_rx(dev, 8)).unwrap());
            log.push(k.enter(|k| k.net_send_packet(dev, 1448)).unwrap());
            assert!(k.panic_reason().is_none(), "{mode:?}/{backend:?} panicked");
            if mode == IsolationMode::Lxfi {
                let want: Vec<(String, u64)> = LXFI_NETPERF_METERING
                    .iter()
                    .map(|&(name, n)| (name.to_string(), n))
                    .collect();
                assert_eq!(guard_metering(&k), want, "{backend:?} guard metering");
            }
            obs.push((log, k.total_cycles()));
        }
        assert_eq!(
            obs[0], obs[1],
            "netperf diverged across backends ({mode:?})"
        );
    }
}

/// Sound playback: trigger/pointer results and cycles match.
#[test]
fn sound_matrix() {
    for mode in MODES {
        let mut obs = Vec::new();
        for backend in [Backend::Interp, Backend::Compiled] {
            let (mut k, pcm) = sound::boot_sound_backend(mode, backend);
            let mut log = Vec::new();
            for _ in 0..4 {
                log.push(k.enter(|k| k.snd_trigger(pcm, 1)).unwrap());
                log.push(k.enter(|k| k.snd_pointer(pcm)).unwrap());
                log.push(k.enter(|k| k.snd_pointer(pcm)).unwrap());
                log.push(k.enter(|k| k.snd_trigger(pcm, 0)).unwrap());
            }
            assert!(k.panic_reason().is_none(), "{mode:?}/{backend:?} panicked");
            obs.push((log, k.total_cycles()));
        }
        assert_eq!(obs[0], obs[1], "sound diverged across backends ({mode:?})");
    }
}

/// Device-mapper: crypt transforms and snapshot COW writes produce
/// byte-identical payloads and cycles.
#[test]
fn dm_matrix() {
    for mode in MODES {
        let mut obs = Vec::new();
        for backend in [Backend::Interp, Backend::Compiled] {
            let (mut k, crypt, snap) = dm::boot_dm_backend(mode, backend);
            let mut payloads = Vec::new();
            for i in 0..6u64 {
                let b = k
                    .enter(|k| k.dm_submit(crypt, true, dm::DM_REQ_BYTES, i as u8))
                    .unwrap();
                payloads.push(k.bio_payload(b).unwrap());
                let b = k
                    .enter(|k| k.dm_submit(crypt, false, dm::DM_REQ_BYTES, i as u8))
                    .unwrap();
                payloads.push(k.bio_payload(b).unwrap());
                let b = k
                    .enter(|k| k.dm_submit(snap, true, dm::DM_REQ_BYTES, i as u8))
                    .unwrap();
                payloads.push(k.bio_payload(b).unwrap());
            }
            assert!(k.panic_reason().is_none(), "{mode:?}/{backend:?} panicked");
            obs.push((payloads, k.total_cycles()));
        }
        assert_eq!(obs[0], obs[1], "dm diverged across backends ({mode:?})");
    }
}

/// The exploit suite: every attack must succeed (Stock) or be blocked
/// with the *same violation* (LXFI) regardless of backend — compilation
/// must not change the security outcome.
#[test]
fn exploits_matrix() {
    for mode in MODES {
        let a = lxfi_exploits::run_all_backend(mode, Backend::Interp);
        let b = lxfi_exploits::run_all_backend(mode, Backend::Compiled);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(
                x.succeeded, y.succeeded,
                "{} outcome diverged across backends ({mode:?})",
                x.name
            );
            assert_eq!(
                format!("{:?}", x.blocked_by),
                format!("{:?}", y.blocked_by),
                "{} violation diverged across backends ({mode:?})",
                x.name
            );
            assert_eq!(
                x.detail, y.detail,
                "{} detail diverged across backends ({mode:?})",
                x.name
            );
        }
    }
}
