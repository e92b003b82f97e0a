//! Regenerates Figure 13 (guards per packet, per-guard cost on the
//! UDP_STREAM TX workload) plus the guard-structure latency comparisons:
//! WRITE-table interval index vs linear scan, the epoch-validated write
//! guard cache under revoke-heavy churn, grant/revoke splice latency at
//! 1/4/16 writer-index shards, the reverse writer index vs the global
//! principal walk, the multi-threaded netperf TX workload (contended
//! and not), the sound playback period (deterministic cycles), and the
//! chaos workload (supervised crash/recover churn: recovery counts,
//! healthy-path isolation overhead, and post-churn leak gauges).
//!
//! `--json` emits the measurements as a flat JSON object (stable keys;
//! `*_ns` latencies, `*_rate` fractions, `*_cycles` deterministic
//! simulated cycles, `*_mops` M stores/s, and raw guard counters) for
//! the CI perf gate (`perf_gate`) and the workflow artifact; the human
//! tables are suppressed in that mode.

use lxfi_bench::{
    chaos, dm, guards, kernel_mt, netperf, netperf_mt, render_table, server, sound,
    soundness_audit, writer_index,
};
use lxfi_kernel::{Backend, IsolationMode};

/// Measured values, as `(key, value)` pairs with stable names.
fn measurements(iters: u64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let tables = guards::write_table_comparison(512, iters);
    out.push(("linear_hit_ns".into(), tables[0].hit_ns));
    out.push(("linear_miss_ns".into(), tables[0].miss_ns));
    out.push(("interval_hit_ns".into(), tables[1].hit_ns));
    out.push(("interval_miss_ns".into(), tables[1].miss_ns));
    let cache = guards::guard_cache_comparison(512, iters);
    out.push(("guard_repeated_ns".into(), cache.repeated_ns));
    out.push(("guard_rotating_ns".into(), cache.rotating_ns));
    for row in writer_index::writer_lookup_rows(iters) {
        out.push((
            format!("writer_linear_{}_ns", row.principals),
            row.linear_ns,
        ));
        out.push((format!("writer_index_{}_ns", row.principals), row.index_ns));
    }
    // Revoke-heavy churn: per-call store latencies, the cache hit rate
    // the epoch design guarantees, and the raw counters behind it.
    for row in guards::revoke_heavy_rows(iters / 4) {
        let n = row.principals;
        out.push((format!("revoke_heavy_{n}_steady_ns"), row.steady_ns));
        out.push((
            format!("revoke_heavy_{n}_post_revoke_ns"),
            row.post_revoke_ns,
        ));
        out.push((format!("revoke_heavy_{n}_uncached_ns"), row.uncached_ns));
        out.push((format!("revoke_heavy_{n}_hit_rate"), row.hit_rate));
        out.push((
            format!("revoke_heavy_{n}_cache_hits"),
            row.cache_hits as f64,
        ));
        out.push((
            format!("revoke_heavy_{n}_cache_misses"),
            row.cache_misses as f64,
        ));
        out.push((
            format!("revoke_heavy_{n}_epoch_bumps"),
            row.epoch_bumps as f64,
        ));
    }
    // Grant/revoke splice latency vs shard count, 512 principals.
    for row in writer_index::splice_rows(iters / 10) {
        out.push((format!("splice_512p_{}shard_ns", row.shards), row.churn_ns));
    }
    // Multi-threaded netperf TX: scaling (1t vs 4t uncontended) and the
    // contention pair at 2 threads (CI's smoke thread count). The gate
    // conditions the scaling row on the host CPU count.
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    out.push(("mt_cpus".into(), cpus as f64));
    let pkts = (iters / 2).max(10_000);
    let m1 = netperf_mt::run_netperf_mt(1, pkts, false);
    out.push(("mt_store_1t_ns".into(), m1.store_ns));
    out.push(("mt_aggregate_1t_mops".into(), m1.aggregate_mops));
    let m4 = netperf_mt::run_netperf_mt(4, pkts, false);
    out.push(("mt_store_4t_ns".into(), m4.store_ns));
    out.push(("mt_aggregate_4t_mops".into(), m4.aggregate_mops));
    let m2u = netperf_mt::run_netperf_mt(2, pkts, false);
    let m2c = netperf_mt::run_netperf_mt(2, pkts, true);
    out.push(("mt_store_2t_uncontended_ns".into(), m2u.store_ns));
    out.push(("mt_store_2t_contended_ns".into(), m2c.store_ns));
    out.push(("mt_aggregate_2t_mops".into(), m2u.aggregate_mops));
    out.push(("mt_contended_2t_hit_rate".into(), m2c.hit_rate));
    out.push(("mt_contended_2t_churn_ops".into(), m2c.churn_ops as f64));
    // Multi-threaded *kernel* workload: real interpreted e1000 TX on N
    // KernelCpus over one shared KernelCore, against grant/revoke +
    // module-load churn. Scaling pair (1t vs 4t uncontended) plus the
    // contention pair at 2 CPUs (CI's smoke thread count).
    let pkts = (iters / 40).max(2_000);
    let km1 = kernel_mt::run_kernel_mt(1, pkts, false);
    out.push(("kmt_pkt_1t_ns".into(), km1.pkt_ns));
    out.push(("kmt_aggregate_1t_kpps".into(), km1.aggregate_kpps));
    let km4 = kernel_mt::run_kernel_mt(4, pkts, false);
    out.push(("kmt_pkt_4t_ns".into(), km4.pkt_ns));
    out.push(("kmt_aggregate_4t_kpps".into(), km4.aggregate_kpps));
    let km2u = kernel_mt::run_kernel_mt(2, pkts, false);
    let km2c = kernel_mt::run_kernel_mt(2, pkts, true);
    out.push(("kmt_pkt_2t_uncontended_ns".into(), km2u.pkt_ns));
    out.push(("kmt_pkt_2t_contended_ns".into(), km2c.pkt_ns));
    out.push(("kmt_aggregate_2t_kpps".into(), km2u.aggregate_kpps));
    out.push(("kmt_contended_2t_hit_rate".into(), km2c.hit_rate));
    out.push(("kmt_contended_2t_churn_ops".into(), km2c.churn_ops as f64));
    out.push(("kmt_contended_2t_loads".into(), km2c.churn_loads as f64));
    // Data-plane counters from the uncontended 2-CPU run: per-CPU slab
    // magazine hit rate, single-holder grant-transfer fast/slow split,
    // and the note_zeroed clean-stripe fast skips. All deterministic
    // enough to gate on as floors (LIFO reuse keeps the hit rate high;
    // every TX packet's skb transfer has one holder).
    out.push(("kmt_magazine_hit_rate".into(), km2u.magazine_hit_rate));
    out.push(("kmt_transfer_fast".into(), km2u.transfer_fast as f64));
    out.push(("kmt_transfer_slow".into(), km2u.transfer_slow as f64));
    out.push((
        "kmt_note_zeroed_fast_skips".into(),
        km2u.note_zeroed_fast_skips as f64,
    ));
    // Sound playback period: deterministic simulated cycles, so the
    // stock/LXFI ratio is machine-independent.
    let pb = sound::playback_comparison(200);
    out.push(("sound_stock_period_cycles".into(), pb.stock));
    out.push(("sound_lxfi_period_cycles".into(), pb.lxfi));
    // Sound *capture* period: the receive-side path through the
    // deferred-call mux (same machinery as NAPI polls); deterministic
    // cycles like playback.
    let cp = sound::capture_comparison(200);
    out.push(("sound_capture_stock_cycles".into(), cp.stock));
    out.push(("sound_capture_lxfi_cycles".into(), cp.lxfi));
    // Device-mapper request round: also deterministic simulated cycles.
    let dmr = dm::dm_comparison(100);
    out.push(("dm_stock_round_cycles".into(), dmr.stock));
    out.push(("dm_lxfi_round_cycles".into(), dmr.lxfi));
    // End-to-end request server (async I/O plane): wire → RX ring →
    // NAPI poll via the deferred-call mux → socket recvmsg → TX reply.
    // Latencies are cycle-derived (deterministic on every host), so
    // the gate holds both the LXFI/stock ratio and the tail bound.
    let srv = server::run_server(IsolationMode::Lxfi, Backend::Interp, 256);
    let srv_stock = server::run_server(IsolationMode::Stock, Backend::Interp, 256);
    out.push(("server_p50_ns".into(), srv.p50_ns));
    out.push(("server_p99_ns".into(), srv.p99_ns));
    out.push(("server_stock_p50_ns".into(), srv_stock.p50_ns));
    out.push(("server_stock_p99_ns".into(), srv_stock.p99_ns));
    out.push(("server_rx_pkts".into(), srv.rx_pkts as f64));
    out.push(("server_tx_replies".into(), srv.tx_replies as f64));
    out.push((
        "server_dropped".into(),
        (srv.dropped + srv_stock.dropped) as f64,
    ));
    out.push(("deferred_dispatched".into(), srv.deferred_dispatched as f64));
    // Execution-backend comparison: wall-clock time per operation under
    // the interpreter vs the compiled backend on the same workloads
    // (simulated cycles are backend-invariant by design — host time is
    // what compilation buys). The gate checks the compiled/interp ratio,
    // which is hostname-tolerant like every other ratio row.
    let pkts = (iters / 40).max(2_000);
    for (key, backend) in [
        ("netperf_pkt_interp_ns", Backend::Interp),
        ("netperf_pkt_compiled_ns", Backend::Compiled),
    ] {
        let ns = netperf::measure_packet_wall_ns(IsolationMode::Lxfi, backend, 1448, pkts);
        out.push((key.into(), ns));
    }
    let kmc = kernel_mt::run_kernel_mt_backend(1, pkts, false, Backend::Compiled);
    out.push(("kmt_pkt_1t_compiled_ns".into(), kmc.pkt_ns));
    for (key, backend) in [
        ("sound_period_interp_ns", Backend::Interp),
        ("sound_period_compiled_ns", Backend::Compiled),
    ] {
        let ns = sound::measure_playback_wall_ns(IsolationMode::Lxfi, backend, pkts.min(4_000));
        out.push((key.into(), ns));
    }
    // Compiled-program counters (deterministic): every module function
    // must compile — a fallback would silently re-route hot paths back
    // through the interpreter.
    let (k, _dev) = netperf::boot_e1000_backend(IsolationMode::Lxfi, Backend::Compiled);
    let cs = k.core().compile_stats();
    out.push(("compiled_funcs".into(), cs.funcs_compiled as f64));
    out.push(("compiled_blocks".into(), cs.blocks_compiled as f64));
    out.push((
        "compiled_fused_guard_sites".into(),
        cs.fused_guard_sites as f64,
    ));
    out.push(("compiled_fallback_funcs".into(), cs.fallback_funcs as f64));
    // Guard-soundness verifier counters (deterministic): every shipped
    // module (plus the kernel thunks and the canary mutants) re-audited;
    // the gate holds rejects at zero, canary detection at 100%, and the
    // hoisting pass's site count and dynamic-guard saving above floor.
    let rows = soundness_audit::audit_modules(Default::default());
    out.push((
        "soundness_modules_proven".into(),
        rows.iter().filter(|r| r.ok()).count() as f64,
    ));
    out.push((
        "soundness_rejects".into(),
        rows.iter().filter(|r| !r.ok()).count() as f64
            + if soundness_audit::audit_kernel_thunks().ok() {
                0.0
            } else {
                1.0
            },
    ));
    let (canaries, caught) = soundness_audit::canary_outcome();
    out.push(("soundness_canaries_caught".into(), caught as f64));
    out.push((
        "soundness_canaries_missed".into(),
        (canaries - caught) as f64,
    ));
    let hc = guards::hoist_comparison(200, 256);
    out.push(("rewrite_guards_hoisted".into(), hc.sites_hoisted as f64));
    out.push(("netperf_memw_per_pkt_hoisted".into(), hc.hoisted_per_pkt));
    out.push((
        "netperf_memw_per_pkt_unhoisted".into(),
        hc.unhoisted_per_pkt,
    ));
    let ch = chaos::run_chaos(120);
    out.push(("chaos_recoveries".into(), ch.recoveries as f64));
    out.push(("chaos_faults".into(), ch.faults as f64));
    out.push((
        "chaos_crash_loop_detected".into(),
        ch.crash_loop_detected as u64 as f64,
    ));
    out.push((
        "chaos_recovery_ticks_max".into(),
        ch.recovery_ticks_max as f64,
    ));
    out.push((
        "chaos_healthy_pkt_cycles_baseline".into(),
        ch.healthy_pkt_cycles_baseline,
    ));
    out.push((
        "chaos_healthy_pkt_cycles_chaos".into(),
        ch.healthy_pkt_cycles_chaos,
    ));
    out.push(("chaos_overhead_ratio".into(), ch.overhead_ratio()));
    out.push(("chaos_leak_principals".into(), ch.leak_principals as f64));
    out.push(("chaos_leak_slab".into(), ch.leak_slab as f64));
    out.push(("chaos_leak_writer_sets".into(), ch.leak_writer_sets as f64));
    out.push(("chaos_leak_intervals".into(), ch.leak_intervals as f64));
    out.push(("chaos_panics".into(), ch.panics as f64));
    let rx = chaos::run_rx_chaos(10);
    out.push(("rx_chaos_recoveries".into(), rx.recoveries as f64));
    out.push(("rx_chaos_faults".into(), rx.faults as f64));
    out.push(("rx_chaos_injected".into(), rx.injected as f64));
    out.push(("rx_chaos_delivered".into(), rx.delivered as f64));
    out.push(("rx_chaos_leak_principals".into(), rx.leak_principals as f64));
    out.push(("rx_chaos_leak_slab".into(), rx.leak_slab as f64));
    out.push((
        "rx_chaos_leak_writer_sets".into(),
        rx.leak_writer_sets as f64,
    ));
    out.push(("rx_chaos_leak_intervals".into(), rx.leak_intervals as f64));
    out.push(("rx_chaos_panics".into(), rx.panics as f64));
    out
}

fn emit_json(measured: &[(String, f64)]) {
    println!("{{");
    for (i, (k, v)) in measured.iter().enumerate() {
        let comma = if i + 1 == measured.len() { "" } else { "," };
        println!("  \"{k}\": {v:.3}{comma}");
    }
    println!("}}");
}

fn main() {
    if std::env::args().any(|a| a == "--json") {
        emit_json(&measurements(200_000));
        return;
    }

    println!("Figure 13: LXFI guards on the UDP_STREAM TX path\n");
    let rows: Vec<Vec<String>> = guards::figure13(500)
        .into_iter()
        .map(|r| {
            vec![
                r.guard,
                format!("{:.1}", r.per_pkt),
                format!("{:.0}", r.per_guard),
                format!("{:.0}", r.per_pkt_cycles),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Guard type",
                "Guards per pkt",
                "Cycles per guard",
                "Cycles per pkt"
            ],
            &rows
        )
    );
    println!(
        "\nPaper (ns): annotation 13.5×124=1,674; entry 7.1×16=114; exit\n\
         7.1×14=99; mem-write 28.8×51=1,469; ind-call all 9.2×64=589;\n\
         ind-call e1000 3.1×86=267. Annotation actions and write checks\n\
         dominate, and writer-set tracking removes ~2/3 of ind-call work."
    );

    println!("\nWRITE-table lookup latency (host ns, 512 grants):\n");
    let rows: Vec<Vec<String>> = guards::write_table_comparison(512, 200_000)
        .into_iter()
        .map(|r| {
            vec![
                r.structure.to_string(),
                format!("{:.1}", r.hit_ns),
                format!("{:.1}", r.miss_ns),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["Structure", "Hit ns", "Miss ns"], &rows)
    );

    let cache = guards::guard_cache_comparison(512, 200_000);
    println!(
        "\nFull write guard (GuardHandle::check_write, 512 grants): repeated\n\
         stores into one object {:.1} ns (cache hit rate {:.1}%), stores\n\
         rotating across grants {:.1} ns.",
        cache.repeated_ns,
        cache.hit_rate * 100.0,
        cache.rotating_ns
    );

    println!("\nRevoke-heavy write guard (per-store host ns; an unrelated\ninstance's grant revoked+re-granted between stores):\n");
    let rows: Vec<Vec<String>> = guards::revoke_heavy_rows(50_000)
        .into_iter()
        .map(|r| {
            vec![
                format!("{}", r.principals),
                format!("{:.1}", r.steady_ns),
                format!("{:.1}", r.post_revoke_ns),
                format!("{:.1}", r.uncached_ns),
                format!("{:.1}%", r.hit_rate * 100.0),
                format!("{}", r.epoch_bumps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Principals",
                "Steady ns",
                "Post-revoke ns",
                "Uncached ns",
                "Hit rate",
                "Epoch bumps"
            ],
            &rows
        )
    );
    println!(
        "\nThe epoch cache keeps the post-revoke store at cached cost (the\n\
         churned instances' epochs bump, the writer's does not); before,\n\
         every revoke cleared the global one-entry cache and the next\n\
         store paid the uncached interval probe."
    );

    println!(
        "\nGrant/revoke splice latency vs writer-index shards (512\nprincipals, 2048 intervals):\n"
    );
    let rows: Vec<Vec<String>> = writer_index::splice_rows(20_000)
        .into_iter()
        .map(|r| vec![format!("{}", r.shards), format!("{:.1}", r.churn_ns)])
        .collect();
    println!("{}", render_table(&["Shards", "Churn ns"], &rows));

    println!("\nInd-call slow path: writers_of(slot) latency (host ns):\n");
    let rows: Vec<Vec<String>> = writer_index::writer_lookup_rows(200_000)
        .into_iter()
        .map(|r| {
            vec![
                format!("{}", r.principals),
                format!("{:.1}", r.linear_ns),
                format!("{:.1}", r.index_ns),
                format!("{:.1}x", r.linear_ns / r.index_ns.max(0.001)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "Principals",
                "Linear walk ns",
                "Reverse index ns",
                "Speedup"
            ],
            &rows
        )
    );
    println!(
        "\nEvery slot has two writers; the walk pays O(principals) per\n\
         lookup (plus a Vec allocation), the reverse index pays one\n\
         window search over interned writer sets."
    );

    println!("\nMulti-threaded netperf TX (2 workers, churn on/off):\n");
    let m2u = netperf_mt::run_netperf_mt(2, 50_000, false);
    let m2c = netperf_mt::run_netperf_mt(2, 50_000, true);
    let rows: Vec<Vec<String>> = [&m2u, &m2c]
        .iter()
        .map(|m| {
            vec![
                if m.contended { "churn" } else { "idle" }.to_string(),
                format!("{:.1}", m.store_ns),
                format!("{:.2}", m.aggregate_mops),
                format!("{:.1}%", m.hit_rate * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Churn", "Store ns", "Aggregate Mstores/s", "Hit rate"],
            &rows
        )
    );
    println!("(full 1/2/4/8-thread sweep: `cargo run --bin netperf_mt`)");

    println!("\nMulti-threaded kernel workload (2 KernelCpus, churn on/off):\n");
    let km2u = kernel_mt::run_kernel_mt(2, 2_000, false);
    let km2c = kernel_mt::run_kernel_mt(2, 2_000, true);
    let rows: Vec<Vec<String>> = [&km2u, &km2c]
        .iter()
        .map(|m| {
            vec![
                if m.contended { "churn" } else { "idle" }.to_string(),
                format!("{:.0}", m.pkt_ns),
                format!("{:.1}", m.aggregate_kpps),
                format!("{:.1}%", m.hit_rate * 100.0),
                format!("{}", m.churn_loads),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["Churn", "Pkt ns", "Aggregate Kpkt/s", "Hit rate", "Loads"],
            &rows
        )
    );
    println!("(full 1/2/4-CPU sweep: `cargo run --bin kernel_mt`)");
    println!(
        "\nData plane (idle run): magazine hit rate {:.1}%, grant\n\
         transfers fast/slow {}/{}, note_zeroed clean-stripe skips {}.",
        km2u.magazine_hit_rate * 100.0,
        km2u.transfer_fast,
        km2u.transfer_slow,
        km2u.note_zeroed_fast_skips
    );

    let pb = sound::playback_comparison(200);
    println!(
        "\nSound playback period (deterministic cycles): stock {:.0},\n\
         LXFI {:.0} ({:.1}x) — a tiny operation, so fixed crossing costs\n\
         dominate.",
        pb.stock, pb.lxfi, pb.overhead
    );
    let dmr = dm::dm_comparison(100);
    println!(
        "\nDevice-mapper request round (deterministic cycles): stock {:.0},\n\
         LXFI {:.0} ({:.1}x) — crypt write + crypt read + snapshot COW\n\
         write over a {}-byte payload.",
        dmr.stock,
        dmr.lxfi,
        dmr.overhead,
        dm::DM_REQ_BYTES
    );

    let srv = server::run_server(IsolationMode::Lxfi, Backend::Interp, 256);
    let srv_stock = server::run_server(IsolationMode::Stock, Backend::Interp, 256);
    println!(
        "\nRequest server (async I/O plane, cycle-derived ns): LXFI p50\n\
         {:.0} / p99 {:.0}, stock p50 {:.0} / p99 {:.0}; {} requests\n\
         received, {} replies, {} dropped, {} deferred dispatches.\n\
         (`cargo run -p lxfi-bench --bin server` for the histogram.)",
        srv.p50_ns,
        srv.p99_ns,
        srv_stock.p50_ns,
        srv_stock.p99_ns,
        srv.rx_pkts,
        srv.tx_replies,
        srv.dropped + srv_stock.dropped,
        srv.deferred_dispatched
    );

    println!("\nExecution backends (LXFI mode, wall-clock per operation):\n");
    let np_i = netperf::measure_packet_wall_ns(IsolationMode::Lxfi, Backend::Interp, 1448, 4_000);
    let np_c = netperf::measure_packet_wall_ns(IsolationMode::Lxfi, Backend::Compiled, 1448, 4_000);
    let sp_i = sound::measure_playback_wall_ns(IsolationMode::Lxfi, Backend::Interp, 2_000);
    let sp_c = sound::measure_playback_wall_ns(IsolationMode::Lxfi, Backend::Compiled, 2_000);
    let rows = vec![
        vec![
            "netperf TX 1448B (pkt ns)".to_string(),
            format!("{np_i:.0}"),
            format!("{np_c:.0}"),
            format!("{:.2}x", np_i / np_c),
        ],
        vec![
            "sound playback (period ns)".to_string(),
            format!("{sp_i:.0}"),
            format!("{sp_c:.0}"),
            format!("{:.2}x", sp_i / sp_c),
        ],
    ];
    println!(
        "{}",
        render_table(&["Workload", "Interp ns", "Compiled ns", "Speedup"], &rows)
    );
    let (k, _dev) = netperf::boot_e1000_backend(IsolationMode::Lxfi, Backend::Compiled);
    let cs = k.core().compile_stats();
    println!(
        "\nCompiled e1000 kernel: {} funcs / {} blocks, {} fused guard\n\
         sites, {} interpreter fallbacks.",
        cs.funcs_compiled, cs.blocks_compiled, cs.fused_guard_sites, cs.fallback_funcs
    );

    let hc = guards::hoist_comparison(200, 256);
    println!(
        "\nLoop-invariant guard hoisting ({} static sites hoisted,\n\
         verifier-gated): {:.1} mem-write guards per 256B TX packet\n\
         hoisted vs {:.1} unhoisted. Full soundness audit:\n\
         `cargo run -p lxfi-bench --bin verify_guards`. Re-emit as JSON\n\
         with `--json` (the CI perf gate consumes it; see\n\
         bench/baseline.json).",
        hc.sites_hoisted, hc.hoisted_per_pkt, hc.unhoisted_per_pkt
    );
}
