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
//! Every workload runs once into one measured list of `(key, value)`
//! pairs; both outputs render from it. `--json` emits the list as a
//! flat JSON object (stable keys; `*_ns` latencies, `*_rate` fractions,
//! `*_cycles` deterministic simulated cycles, `*_mops` M stores/s, and
//! raw guard counters) for the CI perf gate (`perf_gate`) and the
//! workflow artifact; without it, Figure 13 prints first and the
//! comparison tables follow.

use lxfi_bench::{
    chaos, dm, guards, kernel_mt, loc, netperf, netperf_mt, render_table, server, sound,
    soundness_audit, writer_index,
};
use lxfi_kernel::{Backend, IsolationMode};

/// Measured values, as `(key, value)` pairs with stable names.
fn measurements(iters: u64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut put = |key: &str, value: f64| out.push((key.to_string(), value));
    let tables = guards::write_table_comparison(512, iters);
    put("linear_hit_ns", tables[0].hit_ns);
    put("linear_miss_ns", tables[0].miss_ns);
    put("interval_hit_ns", tables[1].hit_ns);
    put("interval_miss_ns", tables[1].miss_ns);
    let cache = guards::guard_cache_comparison(512, iters);
    put("guard_repeated_ns", cache.repeated_ns);
    put("guard_rotating_ns", cache.rotating_ns);
    for row in writer_index::writer_lookup_rows(iters) {
        let n = row.principals;
        put(&format!("writer_linear_{n}_ns"), row.linear_ns);
        put(&format!("writer_index_{n}_ns"), row.index_ns);
    }
    // Revoke-heavy churn: per-call store latencies, the cache hit rate
    // the epoch design guarantees, and the raw counters behind it.
    for row in guards::revoke_heavy_rows(iters / 4) {
        let k = |what: &str| format!("revoke_heavy_{}_{what}", row.principals);
        put(&k("steady_ns"), row.steady_ns);
        put(&k("post_revoke_ns"), row.post_revoke_ns);
        put(&k("uncached_ns"), row.uncached_ns);
        put(&k("hit_rate"), row.hit_rate);
        put(&k("cache_hits"), row.cache_hits as f64);
        put(&k("cache_misses"), row.cache_misses as f64);
        put(&k("epoch_bumps"), row.epoch_bumps as f64);
    }
    // Grant/revoke splice latency vs shard count, 512 principals.
    for row in writer_index::splice_rows(iters / 10) {
        put(&format!("splice_512p_{}shard_ns", row.shards), row.churn_ns);
    }
    // Multi-threaded netperf TX: scaling (1t vs 4t uncontended) and the
    // contention pair at 2 threads (CI's smoke thread count). The gate
    // conditions the scaling row on the host CPU count.
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    put("mt_cpus", cpus as f64);
    let pkts = (iters / 2).max(10_000);
    let m1 = netperf_mt::run_netperf_mt(1, pkts, false);
    put("mt_store_1t_ns", m1.store_ns);
    put("mt_aggregate_1t_mops", m1.aggregate_mops);
    let m4 = netperf_mt::run_netperf_mt(4, pkts, false);
    put("mt_store_4t_ns", m4.store_ns);
    put("mt_aggregate_4t_mops", m4.aggregate_mops);
    let m2u = netperf_mt::run_netperf_mt(2, pkts, false);
    let m2c = netperf_mt::run_netperf_mt(2, pkts, true);
    put("mt_store_2t_uncontended_ns", m2u.store_ns);
    put("mt_store_2t_contended_ns", m2c.store_ns);
    put("mt_aggregate_2t_mops", m2u.aggregate_mops);
    put("mt_contended_2t_hit_rate", m2c.hit_rate);
    put("mt_contended_2t_churn_ops", m2c.churn_ops as f64);
    // Multi-threaded *kernel* workload: real interpreted e1000 TX on N
    // KernelCpus over one shared KernelCore, against grant/revoke +
    // module-load churn. Scaling pair (1t vs 4t uncontended) plus the
    // contention pair at 2 CPUs (CI's smoke thread count).
    let pkts = (iters / 40).max(2_000);
    let km1 = kernel_mt::run_kernel_mt(1, pkts, false);
    put("kmt_pkt_1t_ns", km1.pkt_ns);
    put("kmt_aggregate_1t_kpps", km1.aggregate_kpps);
    let km4 = kernel_mt::run_kernel_mt(4, pkts, false);
    put("kmt_pkt_4t_ns", km4.pkt_ns);
    put("kmt_aggregate_4t_kpps", km4.aggregate_kpps);
    let km2u = kernel_mt::run_kernel_mt(2, pkts, false);
    let km2c = kernel_mt::run_kernel_mt(2, pkts, true);
    put("kmt_pkt_2t_uncontended_ns", km2u.pkt_ns);
    put("kmt_pkt_2t_contended_ns", km2c.pkt_ns);
    put("kmt_aggregate_2t_kpps", km2u.aggregate_kpps);
    put("kmt_contended_2t_hit_rate", km2c.hit_rate);
    put("kmt_contended_2t_churn_ops", km2c.churn_ops as f64);
    put("kmt_contended_2t_loads", km2c.churn_loads as f64);
    // Data-plane counters from the uncontended 2-CPU run: per-CPU slab
    // magazine hit rate and single-holder grant-transfer fast/slow
    // split. Both deterministic enough to gate on as floors (LIFO reuse keeps the hit rate high;
    // every TX packet's skb transfer has one holder).
    put("kmt_magazine_hit_rate", km2u.magazine_hit_rate);
    put("kmt_transfer_fast", km2u.transfer_fast as f64);
    put("kmt_transfer_slow", km2u.transfer_slow as f64);
    // Sound playback and capture periods (capture is the receive-side
    // path through the deferred-call mux) and the device-mapper request
    // round: deterministic simulated cycles, so the stock/LXFI ratios
    // are machine-independent.
    let pb = sound::playback_comparison(200);
    put("sound_stock_period_cycles", pb.stock);
    put("sound_lxfi_period_cycles", pb.lxfi);
    let cp = sound::capture_comparison(200);
    put("sound_capture_stock_cycles", cp.stock);
    put("sound_capture_lxfi_cycles", cp.lxfi);
    let dmr = dm::dm_comparison(100);
    put("dm_stock_round_cycles", dmr.stock);
    put("dm_lxfi_round_cycles", dmr.lxfi);
    // End-to-end request server (async I/O plane): wire → RX ring →
    // NAPI poll via the deferred-call mux → socket recvmsg → TX reply.
    // Latencies are cycle-derived (deterministic on every host), so
    // the gate holds both the LXFI/stock ratio and the tail bound.
    let srv = server::run_server(IsolationMode::Lxfi, Backend::Interp, 256);
    let srv_stock = server::run_server(IsolationMode::Stock, Backend::Interp, 256);
    put("server_p50_ns", srv.p50_ns);
    put("server_p99_ns", srv.p99_ns);
    put("server_stock_p50_ns", srv_stock.p50_ns);
    put("server_stock_p99_ns", srv_stock.p99_ns);
    put("server_rx_pkts", srv.rx_pkts as f64);
    put("server_tx_replies", srv.tx_replies as f64);
    put("server_dropped", (srv.dropped + srv_stock.dropped) as f64);
    put("deferred_dispatched", srv.deferred_dispatched as f64);
    // Execution-backend comparison: wall-clock time per operation under
    // the interpreter vs the compiled backend on the same workloads
    // (simulated cycles are backend-invariant by design — host time is
    // what compilation buys). The gate checks the compiled/interp ratio,
    // which is hostname-tolerant like every other ratio row.
    for (key, backend) in [
        ("netperf_pkt_interp_ns", Backend::Interp),
        ("netperf_pkt_compiled_ns", Backend::Compiled),
    ] {
        let ns = netperf::measure_packet_wall_ns(IsolationMode::Lxfi, backend, 1448, pkts);
        put(key, ns);
    }
    let kmc = kernel_mt::run_kernel_mt_backend(1, pkts, false, Backend::Compiled);
    put("kmt_pkt_1t_compiled_ns", kmc.pkt_ns);
    for (key, backend) in [
        ("sound_period_interp_ns", Backend::Interp),
        ("sound_period_compiled_ns", Backend::Compiled),
    ] {
        let ns = sound::measure_playback_wall_ns(IsolationMode::Lxfi, backend, pkts.min(4_000));
        put(key, ns);
    }
    // Compiled-program counters (deterministic): every module function
    // must compile — a fallback would silently re-route hot paths back
    // through the interpreter.
    let (k, _dev) = netperf::boot_e1000_backend(IsolationMode::Lxfi, Backend::Compiled);
    let cs = k.compile_stats();
    put("compiled_funcs", cs.funcs_compiled as f64);
    put("compiled_blocks", cs.blocks_compiled as f64);
    put("compiled_fused_guard_sites", cs.fused_guard_sites as f64);
    put("compiled_fallback_funcs", cs.fallback_funcs as f64);
    // Guard-soundness verifier counters (deterministic): every shipped
    // module (plus the kernel thunks and the canary mutants) re-audited;
    // the gate holds rejects at zero, canary detection at 100%, and the
    // hoisting pass's site count and dynamic-guard saving above floor.
    let rows = soundness_audit::audit_modules(Default::default());
    let proven = rows.iter().filter(|r| r.ok()).count();
    let thunks_rejected = !soundness_audit::audit_kernel_thunks().ok();
    put("soundness_modules_proven", proven as f64);
    let rejects = rows.len() - proven + usize::from(thunks_rejected);
    put("soundness_rejects", rejects as f64);
    let (canaries, caught) = soundness_audit::canary_outcome();
    put("soundness_canaries_caught", caught as f64);
    put("soundness_canaries_missed", (canaries - caught) as f64);
    let hc = guards::hoist_comparison(200, 256);
    put("rewrite_guards_hoisted", hc.sites_hoisted as f64);
    put("netperf_memw_per_pkt_hoisted", hc.hoisted_per_pkt);
    put("netperf_memw_per_pkt_unhoisted", hc.unhoisted_per_pkt);
    let ch = chaos::run_chaos(120);
    put("chaos_recoveries", ch.recoveries as f64);
    put("chaos_faults", ch.faults as f64);
    put(
        "chaos_crash_loop_detected",
        ch.crash_loop_detected as u64 as f64,
    );
    put("chaos_recovery_ticks_max", ch.recovery_ticks_max as f64);
    put(
        "chaos_healthy_pkt_cycles_baseline",
        ch.healthy_pkt_cycles_baseline,
    );
    put(
        "chaos_healthy_pkt_cycles_chaos",
        ch.healthy_pkt_cycles_chaos,
    );
    put("chaos_overhead_ratio", ch.overhead_ratio());
    put("chaos_leak_principals", ch.leak_principals as f64);
    put("chaos_leak_slab", ch.leak_slab as f64);
    put("chaos_leak_writer_sets", ch.leak_writer_sets as f64);
    put("chaos_leak_intervals", ch.leak_intervals as f64);
    put("chaos_panics", ch.panics as f64);
    let rx = chaos::run_rx_chaos(10);
    put("rx_chaos_recoveries", rx.recoveries as f64);
    put("rx_chaos_faults", rx.faults as f64);
    put("rx_chaos_injected", rx.injected as f64);
    put("rx_chaos_delivered", rx.delivered as f64);
    put("rx_chaos_leak_principals", rx.leak_principals as f64);
    put("rx_chaos_leak_slab", rx.leak_slab as f64);
    put("rx_chaos_leak_writer_sets", rx.leak_writer_sets as f64);
    put("rx_chaos_leak_intervals", rx.leak_intervals as f64);
    put("rx_chaos_panics", rx.panics as f64);
    // Code lines in the trusted base (Figure 7's last row), so every
    // run's artifact tracks its size.
    let trusted = loc::figure7()
        .pop()
        .expect("Figure 7 ends with the trusted-base row");
    put("trusted_base_lines", trusted.lines as f64);
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

fn print_figure13() {
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
}

/// One comparison table over the measured list: the cell in row `r`,
/// column `(header, key)` is the value of `key` with `{}` replaced by
/// `r`.
fn keyed_table(v: &dyn Fn(&str) -> f64, first: &str, rows: &[&str], cols: &[(&str, &str)]) {
    let headers: Vec<&str> = std::iter::once(first)
        .chain(cols.iter().map(|c| c.0))
        .collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let values = cols
                .iter()
                .map(|c| format!("{:.1}", v(&c.1.replace("{}", r))));
            std::iter::once(r.to_string()).chain(values).collect()
        })
        .collect();
    println!("{}", render_table(&headers, &cells));
}

/// Prints the comparison tables, reading every figure from the
/// measured list.
fn print_tables(measured: &[(String, f64)]) {
    let v = |key: &str| match measured.iter().find(|(k, _)| k == key) {
        Some(&(_, value)) => value,
        None => panic!("{key} was not measured"),
    };
    let pct = |key: &str| v(key) * 100.0;

    println!("\nWRITE-table lookup latency (host ns, 512 grants):\n");
    let cols = [("Hit ns", "{}_hit_ns"), ("Miss ns", "{}_miss_ns")];
    keyed_table(&v, "Structure", &["linear", "interval"], &cols);
    println!(
        "\nFull write guard (GuardHandle::check_write, 512 grants): repeated\n\
         stores into one object {:.1} ns, stores rotating across grants\n\
         {:.1} ns.",
        v("guard_repeated_ns"),
        v("guard_rotating_ns")
    );

    println!(
        "\nRevoke-heavy write guard (per-store host ns; an unrelated\n\
         instance's grant revoked+re-granted between stores):\n"
    );
    let cols = [
        ("Steady ns", "revoke_heavy_{}_steady_ns"),
        ("Post-revoke ns", "revoke_heavy_{}_post_revoke_ns"),
        ("Uncached ns", "revoke_heavy_{}_uncached_ns"),
        ("Hit rate", "revoke_heavy_{}_hit_rate"),
        ("Epoch bumps", "revoke_heavy_{}_epoch_bumps"),
    ];
    keyed_table(&v, "Principals", &["8", "64", "512"], &cols);

    println!("\nInd-call slow path: writers_of(slot) latency (host ns):\n");
    let cols = [
        ("Linear walk ns", "writer_linear_{}_ns"),
        ("Reverse index ns", "writer_index_{}_ns"),
    ];
    keyed_table(&v, "Principals", &["8", "64", "512"], &cols);

    println!(
        "\nGrant/revoke splice latency vs writer-index shards (512\nprincipals, 2048 intervals):\n"
    );
    let cols = [("Churn ns", "splice_512p_{}shard_ns")];
    keyed_table(&v, "Shards", &["1", "4", "16"], &cols);

    println!(
        "\nMulti-threaded TX, idle (guard path: store ns, Mstores/s; kernel\n\
         path on KernelCpus: packet ns, Kpkt/s; {:.0} host CPUs):\n",
        v("mt_cpus")
    );
    let cols = [
        ("Store ns", "mt_store_{}_ns"),
        ("Mstores/s", "mt_aggregate_{}_mops"),
        ("Pkt ns", "kmt_pkt_{}_ns"),
        ("Kpkt/s", "kmt_aggregate_{}_kpps"),
    ];
    keyed_table(&v, "Threads", &["1t", "4t"], &cols);
    println!(
        "\nTwo threads, idle vs churn: guard store {:.1} vs {:.1} ns (churned\n\
         hit rate {:.1}%), kernel packet {:.0} vs {:.0} ns (hit rate {:.1}%,\n\
         {:.0} module loads). Data plane (idle kernel run): magazine hit\n\
         rate {:.1}%, grant transfers fast/slow {:.0}/{:.0}. (Full\n\
         sweeps: `--bin netperf_mt`, `--bin kernel_mt`.)",
        v("mt_store_2t_uncontended_ns"),
        v("mt_store_2t_contended_ns"),
        pct("mt_contended_2t_hit_rate"),
        v("kmt_pkt_2t_uncontended_ns"),
        v("kmt_pkt_2t_contended_ns"),
        pct("kmt_contended_2t_hit_rate"),
        v("kmt_contended_2t_loads"),
        pct("kmt_magazine_hit_rate"),
        v("kmt_transfer_fast"),
        v("kmt_transfer_slow")
    );

    println!("\nExecution backends (LXFI mode, wall-clock ns per operation):\n");
    let cols = [
        ("Interp ns", "{}_interp_ns"),
        ("Compiled ns", "{}_compiled_ns"),
    ];
    keyed_table(&v, "Workload", &["netperf_pkt", "sound_period"], &cols);
    println!(
        "\nKernel TX on one CPU: {:.0} ns interpreted, {:.0} ns compiled.\n\
         Compiled e1000 kernel: {:.0} funcs / {:.0} blocks, {:.0} fused\n\
         guard sites, {:.0} interpreter fallbacks.",
        v("kmt_pkt_1t_ns"),
        v("kmt_pkt_1t_compiled_ns"),
        v("compiled_funcs"),
        v("compiled_blocks"),
        v("compiled_fused_guard_sites"),
        v("compiled_fallback_funcs")
    );

    println!(
        "\nDeterministic cycles, stock vs LXFI: sound playback period\n\
         {:.0} vs {:.0}, capture period {:.0} vs {:.0}, device-mapper\n\
         request round ({}-byte crypt write + read + snapshot COW write)\n\
         {:.0} vs {:.0}.",
        v("sound_stock_period_cycles"),
        v("sound_lxfi_period_cycles"),
        v("sound_capture_stock_cycles"),
        v("sound_capture_lxfi_cycles"),
        dm::DM_REQ_BYTES,
        v("dm_stock_round_cycles"),
        v("dm_lxfi_round_cycles")
    );
    println!(
        "\nRequest server (async I/O plane, cycle-derived ns): LXFI p50\n\
         {:.0} / p99 {:.0}, stock p50 {:.0} / p99 {:.0}; {:.0} requests\n\
         received, {:.0} replies, {:.0} dropped, {:.0} deferred dispatches.",
        v("server_p50_ns"),
        v("server_p99_ns"),
        v("server_stock_p50_ns"),
        v("server_stock_p99_ns"),
        v("server_rx_pkts"),
        v("server_tx_replies"),
        v("server_dropped"),
        v("deferred_dispatched")
    );
    println!(
        "\nGuard soundness: {:.0} modules proven, {:.0} rejects, {:.0}\n\
         canary mutants caught, {:.0} missed. Loop-invariant hoisting\n\
         ({:.0} static sites): {:.1} mem-write guards per 256B TX packet\n\
         hoisted vs {:.1} unhoisted.",
        v("soundness_modules_proven"),
        v("soundness_rejects"),
        v("soundness_canaries_caught"),
        v("soundness_canaries_missed"),
        v("rewrite_guards_hoisted"),
        v("netperf_memw_per_pkt_hoisted"),
        v("netperf_memw_per_pkt_unhoisted")
    );

    println!("\nChaos (supervised crash/recover under fault injection):\n");
    let cols = [
        ("Recoveries", "{}_recoveries"),
        ("Faults", "{}_faults"),
        ("Panics", "{}_panics"),
        ("Leaked principals", "{}_leak_principals"),
        ("Slab", "{}_leak_slab"),
        ("Writer sets", "{}_leak_writer_sets"),
        ("Intervals", "{}_leak_intervals"),
    ];
    keyed_table(&v, "Workload", &["chaos", "rx_chaos"], &cols);
    println!(
        "\nTX chaos healthy path {:.2}x its no-chaos cycles, recovery within\n\
         {:.0} ticks. Re-emit as JSON with `--json` (the CI perf gate\n\
         consumes it; see bench/baseline.json).",
        v("chaos_overhead_ratio"),
        v("chaos_recovery_ticks_max")
    );
}

fn main() {
    if std::env::args().any(|a| a == "--json") {
        emit_json(&measurements(200_000));
        return;
    }
    print_figure13();
    print_tables(&measurements(200_000));
}
