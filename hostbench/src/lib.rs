//! Host-wall-clock benchmark for LXFI.
//!
//! Three single-threaded, closed-loop workloads run on the compiled
//! backend against one `KernelCpu`: `echo_rr` (request/response through
//! the RX ring, NAPI poll, socket layer and TX), `tx_bulk` (1448 B
//! packets back to back) and `recover` (a supervised driver crashed by
//! seeded faults and brought back). An untraced run reports end-to-end
//! metrics; a traced run reports per-layer ones from spans the benchmark
//! records around its own calls into each crate. See `README.md`.

pub mod echo_rr;
pub mod recover;
pub mod rig;
pub mod stats;
pub mod trace;
pub mod tx_bulk;

use std::collections::BTreeMap;
use std::time::Instant;

use lxfi_kernel::{IsolationMode, Kernel};

use crate::rig::{span, Budget, Phase};
use crate::stats::{peak_rss_mb, quiet_median, SplitMix};
use crate::trace::{Breakdown, Tracer};

/// A workload: set-up before the clock starts, then a measured phase.
pub trait Workload {
    /// The booted system the phase runs on.
    type Rig;
    /// Name on the command line.
    const NAME: &'static str;
    /// Whether the traced run also measures an identical stock kernel.
    const STOCK_TWIN: bool;
    /// Boot, load, probe and warm up.
    fn setup(mode: IsolationMode, tr: &mut Tracer) -> Result<Self::Rig, String>;
    /// Measure until `budget` is spent.
    fn measure(rig: &mut Self::Rig, seed: u64, budget: Budget, tr: &mut Tracer) -> Phase;
    /// The kernel the rig runs.
    fn kernel(rig: &Self::Rig) -> &Kernel;
}

/// The `echo_rr` workload.
pub struct EchoRr;
/// The `tx_bulk` workload.
pub struct TxBulk;
/// The `recover` workload.
pub struct Recover;

impl Workload for EchoRr {
    type Rig = echo_rr::Rig;
    const NAME: &'static str = "echo_rr";
    const STOCK_TWIN: bool = true;
    fn setup(mode: IsolationMode, tr: &mut Tracer) -> Result<Self::Rig, String> {
        echo_rr::setup(mode, tr)
    }
    fn measure(rig: &mut Self::Rig, seed: u64, budget: Budget, tr: &mut Tracer) -> Phase {
        echo_rr::measure(rig, seed, budget, tr)
    }
    fn kernel(rig: &Self::Rig) -> &Kernel {
        &rig.k
    }
}

impl Workload for TxBulk {
    type Rig = tx_bulk::Rig;
    const NAME: &'static str = "tx_bulk";
    const STOCK_TWIN: bool = true;
    fn setup(mode: IsolationMode, tr: &mut Tracer) -> Result<Self::Rig, String> {
        tx_bulk::setup(mode, tr)
    }
    fn measure(rig: &mut Self::Rig, seed: u64, budget: Budget, tr: &mut Tracer) -> Phase {
        tx_bulk::measure(rig, seed, budget, tr)
    }
    fn kernel(rig: &Self::Rig) -> &Kernel {
        &rig.k
    }
}

impl Workload for Recover {
    type Rig = recover::Rig;
    const NAME: &'static str = "recover";
    // Injection fires only in isolated modules: a stock driver cannot
    // fault, so there is nothing to recover.
    const STOCK_TWIN: bool = false;
    fn setup(_mode: IsolationMode, tr: &mut Tracer) -> Result<Self::Rig, String> {
        recover::setup(tr)
    }
    fn measure(rig: &mut Self::Rig, seed: u64, budget: Budget, tr: &mut Tracer) -> Phase {
        recover::measure(rig, seed, budget, tr)
    }
    fn kernel(rig: &Self::Rig) -> &Kernel {
        &rig.k
    }
}

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = [EchoRr::NAME, TxBulk::NAME, Recover::NAME];

/// End-to-end metrics of the untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles_per_op", "cycles"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("kernel.net.rx_wire_us", "us"),
    ("kernel.net.rx_poll_us", "us"),
    ("kernel.socket.recvmsg_us", "us"),
    ("kernel.net.tx_us", "us"),
    ("kernel.slab.free_skb_us", "us"),
    ("kernel.enter_self_us", "us"),
    ("kernel.queue_wait_us", "us"),
    ("kernel.contain_us", "us"),
    ("kernel.supervisor.restart_us", "us"),
    ("kernel.net.remove_dead_us", "us"),
    ("kernel.pci.probe_us", "us"),
    ("kernel.load_module_us", "us"),
    ("kernel.magazine_hit_rate", "ratio"),
    ("kernel.deferred.dispatched_per_op", "count"),
    ("kernel.net.rx_dropped_frac", "ratio"),
    ("machine.verify_program_us", "us"),
    ("rewriter.rewrite_module_us", "us"),
    ("machine.verify_soundness_us", "us"),
    ("rewriter.propagate_us", "us"),
    ("machine.compile_us", "us"),
    ("kernel.load_module_other_us", "us"),
    ("machine.compiled_fused_sites", "count"),
    ("machine.fallback_funcs", "count"),
    ("core.memwrite_checks_per_op", "count"),
    ("core.annotation_actions_per_op", "count"),
    ("core.wrapper_calls_per_op", "count"),
    ("core.indcalls_per_op", "count"),
    ("core.transfer_fast_frac", "ratio"),
    ("core.kfree_sweep_visited_per_op", "count"),
    ("core.write_cache_hit_rate", "ratio"),
    ("core.epoch_bumps_per_op", "count"),
    ("core.guard_sim_cycles_per_op", "cycles"),
    ("core.principals_live_drift_per_recovery", "count"),
    ("core.writer_sets_live_drift_per_recovery", "count"),
    ("core.index_intervals_drift_per_recovery", "count"),
    ("core.check_write_ns", "ns"),
    ("core.check_indcall_ns", "ns"),
    ("isolation.overhead_us_per_op", "us"),
    ("isolation.wall_ratio", "ratio"),
    ("isolation.enter_self_overhead_us", "us"),
    ("isolation.net.rx_wire_overhead_us", "us"),
    ("isolation.net.rx_poll_overhead_us", "us"),
    ("isolation.socket.recvmsg_overhead_us", "us"),
    ("isolation.net.tx_overhead_us", "us"),
    ("isolation.slab.free_skb_overhead_us", "us"),
];

/// The spans an `isolation.<span>_overhead_us` metric compares with
/// the stock twin.
const ISOLATION_SPANS: [&str; 6] = [
    span::ENTER,
    span::RX_WIRE,
    span::RX_POLL,
    span::RECVMSG,
    span::TX,
    span::FREE_SKB,
];

/// Chunks of an untraced run, each measured on a rig set up just
/// before it; `setup_s` is taken over their set-ups.
pub const CHUNKS: usize = 60;

/// One run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// Reasons for the first failures.
    pub why: Vec<String>,
    /// `(name, value, unit)` in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    fn absorb(&mut self, ph: &Phase) {
        self.attempted += ph.lat.count();
        self.failed += ph.failed;
        self.why.extend(ph.why.iter().cloned());
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs workload `name`; `Err` for an unknown name or a failed set-up.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    match name {
        EchoRr::NAME => run_workload::<EchoRr>(seed, seconds, trace),
        TxBulk::NAME => run_workload::<TxBulk>(seed, seconds, trace),
        Recover::NAME => run_workload::<Recover>(seed, seconds, trace),
        _ => Err(format!(
            "unknown workload `{name}` (expected one of {WORKLOADS:?})"
        )),
    }
}

fn run_workload<W: Workload>(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    if trace {
        traced::<W>(seed, seconds)
    } else {
        untraced::<W>(seed, seconds)
    }
}

fn untraced<W: Workload>(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut tr = Tracer::new(false);
    let mut seeds = SplitMix::new(seed);
    let mut setups = Vec::new();
    let mut ph = Phase::default();
    // Every chunk runs on a fresh rig, so every segment sees a kernel
    // with the same history: the quiet-segment cut then removes host
    // noise, and cannot hide a cost that grows with the kernel's age.
    for chunk in 0..CHUNKS {
        let t = Instant::now();
        let mut rig = W::setup(IsolationMode::Lxfi, &mut tr)?;
        setups.push(t.elapsed().as_secs_f64());
        let s = if chunk == 0 { seed } else { seeds.next_u64() };
        let part = W::measure(&mut rig, s, Budget::timed(seconds / CHUNKS as f64), &mut tr);
        if chunk == 0 {
            ph = part;
        } else {
            ph.merge(part);
        }
    }

    let mut rep = Report::default();
    rep.absorb(&ph);
    let (p50, p99, ops_per_s) = ph.figures();
    let values = [
        p50,
        p99,
        ops_per_s,
        quiet_median(&setups, 4),
        peak_rss_mb(),
        ph.det.per_op(ph.det.delta.sim_cycles),
    ];
    for ((name, unit), v) in END_TO_END.iter().zip(values) {
        rep.metrics.push((name.to_string(), v, unit));
    }
    rep.notes.push(format!(
        "{} samples in {} segments ({} beyond the whole run's p99), failed_frac {} ratio, counts over {} ops, {} set-ups",
        ph.lat.count(),
        ph.segments.len(),
        ph.lat.count_beyond(0.99),
        ph.failed as f64 / ph.lat.count().max(1) as f64,
        ph.det.ops,
        setups.len()
    ));
    Ok(rep)
}

/// One traced (or untraced) phase on a fresh set-up.
fn phase<W: Workload>(
    mode: IsolationMode,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<(Phase, W::Rig), String> {
    let mut rig = W::setup(mode, tr)?;
    let ph = W::measure(&mut rig, seed, Budget::timed(seconds), tr);
    Ok((ph, rig))
}

fn traced<W: Workload>(seed: u64, seconds: f64) -> Result<Report, String> {
    let share = seconds / if W::STOCK_TWIN { 3.0 } else { 2.0 };
    let mut rep = Report::default();

    // Untraced reference for the tracing overhead.
    let (plain, rig) = phase::<W>(IsolationMode::Lxfi, seed, share, &mut Tracer::new(false))?;
    drop(rig);
    rep.absorb(&plain);

    let mut tr = Tracer::new(true);
    let (ph, rig) = phase::<W>(IsolationMode::Lxfi, seed, share, &mut tr)?;
    rep.absorb(&ph);
    let k = W::kernel(&rig);
    let probes = rig::probes(k).ok_or("no live e1000 to probe")?;
    let compile = k.kernel_core().compile_stats();
    let costs = k.rt.costs;
    drop(rig);
    if let Err(e) = tr.check() {
        rep.failed += 1;
        rep.why.push(format!("trace: {e}"));
    }
    let b = tr.breakdown();

    let stock = if W::STOCK_TWIN {
        let mut tr = Tracer::new(true);
        let (ph, rig) = phase::<W>(IsolationMode::Stock, seed, share, &mut tr)?;
        drop(rig);
        rep.absorb(&ph);
        Some(tr.breakdown())
    } else {
        None
    };

    // Every span's mean self time; PER_LAYER picks the ones it lists.
    let mut v: BTreeMap<String, f64> = b
        .by_name
        .keys()
        .map(|&name| (span_metric(name), b.self_us(name)))
        .collect();
    let w = ph.whole;
    v.insert(
        "kernel.magazine_hit_rate".into(),
        ratio(w.mag_hits, w.mag_hits + w.mag_misses),
    );
    let d = ph.det;
    v.insert(
        "kernel.deferred.dispatched_per_op".into(),
        d.per_op(d.delta.dispatched),
    );
    if b.calls(span::LOAD) > 0 && b.calls(span::REPLAY) > 0 {
        let phases: f64 = span::LOAD_PHASES.iter().map(|p| b.self_us(p)).sum();
        v.insert(
            "kernel.load_module_other_us".into(),
            b.self_us(span::LOAD) - phases,
        );
    }
    v.insert(
        "machine.compiled_fused_sites".into(),
        compile.fused_guard_sites as f64,
    );
    v.insert(
        "machine.fallback_funcs".into(),
        compile.fallback_funcs as f64,
    );
    let c = d.delta;
    v.insert("core.memwrite_checks_per_op".into(), d.per_op(c.memwrite));
    v.insert(
        "core.annotation_actions_per_op".into(),
        d.per_op(c.annotation),
    );
    v.insert("core.wrapper_calls_per_op".into(), d.per_op(c.wrapper));
    v.insert("core.indcalls_per_op".into(), d.per_op(c.indcall));
    v.insert(
        "core.transfer_fast_frac".into(),
        ratio(c.transfer_fast, c.transfer_fast + c.transfer_slow),
    );
    v.insert(
        "core.kfree_sweep_visited_per_op".into(),
        d.per_op(c.kfree_visited),
    );
    v.insert(
        "core.write_cache_hit_rate".into(),
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
    );
    v.insert("core.epoch_bumps_per_op".into(), d.per_op(c.epoch_bumps));
    v.insert(
        "core.guard_sim_cycles_per_op".into(),
        d.per_op(c.guard_cycles),
    );
    v.insert("core.check_write_ns".into(), probes.check_write_ns);
    v.insert("core.check_indcall_ns".into(), probes.check_indcall_ns);
    v.extend(ph.layer.iter().map(|&(n, x)| (n.to_string(), x)));

    if let Some(s) = &stock {
        v.insert(
            "isolation.overhead_us_per_op".into(),
            b.op_mean_us() - s.op_mean_us(),
        );
        v.insert(
            "isolation.wall_ratio".into(),
            b.op_mean_us() / s.op_mean_us(),
        );
        for name in ISOLATION_SPANS {
            let short = span_metric(name).replacen("kernel.", "", 1);
            let short = short.trim_end_matches("_us");
            v.insert(
                format!("isolation.{short}_overhead_us"),
                b.self_us(name) - s.self_us(name),
            );
        }
    }
    let (plain_p50, ..) = plain.figures();
    let (traced_p50, ..) = ph.figures();
    v.insert("trace.overhead_frac".into(), traced_p50 / plain_p50 - 1.0);
    v.insert("trace.unattributed_frac".into(), b.unattributed_frac());

    for (name, unit) in PER_LAYER.iter().chain(TRACE_METRICS.iter()) {
        let value = v.get(*name).copied().unwrap_or(0.0);
        rep.metrics.push((name.to_string(), value, unit));
    }
    rep.notes.extend(span_table(&b, stock.as_ref()));
    // The cost model's charges are constants no program change moves,
    // so they are printed beside the probes rather than reported.
    rep.notes.push(format!(
        "guard probes: check_write {:.1} ns (model charge {} cycles), check_indcall {:.1} ns (model charge {} cycles)",
        probes.check_write_ns, costs.mem_write, probes.check_indcall_ns, costs.ind_call_slow
    ));
    Ok(rep)
}

/// The two `trace.*` metrics, listed after [`PER_LAYER`].
pub const TRACE_METRICS: [(&str, &str); 2] = [
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// The per-layer metric of a span's mean self time.
fn span_metric(name: &str) -> String {
    if name == span::ENTER {
        "kernel.enter_self_us".into()
    } else {
        format!("{name}_us")
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The span table printed before a traced result: calls and self time
/// per span, beside the stock twin's.
fn span_table(b: &Breakdown, stock: Option<&Breakdown>) -> Vec<String> {
    let mut out = vec![format!(
        "{:<28} {:>9} {:>12} {:>12} {:>8}",
        "span", "calls", "self us/call", "stock us", "ratio"
    )];
    for (name, &(calls, _)) in &b.by_name {
        let lxfi = b.self_us(name);
        let (st, ratio) = match stock.filter(|s| s.calls(name) > 0) {
            Some(s) => (
                format!("{:.3}", s.self_us(name)),
                format!("{:.2}", lxfi / s.self_us(name)),
            ),
            None => ("-".into(), "-".into()),
        };
        out.push(format!(
            "{name:<28} {calls:>9} {lxfi:>12.3} {st:>12} {ratio:>8}"
        ));
    }
    out.push(format!(
        "ops {} mean {:.3} us, unattributed {:.2}%",
        b.ops,
        b.op_mean_us(),
        100.0 * b.unattributed_frac()
    ));
    out
}
