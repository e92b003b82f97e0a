//! What the three workloads share: booting on the compiled backend,
//! traced kernel entries, timed module loads with their load path
//! replayed, guard-counter snapshots, and the guard probes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use lxfi_core::GuardHandle;
use lxfi_kernel::net::free_skb_raw;
use lxfi_kernel::types::{net_device, net_device_ops, sk_buff};
use lxfi_kernel::{
    Backend, IsolationMode, Kernel, KernelCpu, KernelError, LoadedModuleId, ModuleSpec,
};
use lxfi_machine::{
    verify_program, verify_soundness, CompiledProgram, SoundnessPolicy, Trap, Word,
};
use lxfi_rewriter::{propagate, rewrite_module, RewriteOptions};

use crate::stats::{quiet_median, Histogram};
use crate::trace::{SpanId, Tracer};

/// Span names. A per-layer metric is the span name plus `_us`: the mean
/// self time per call.
pub mod span {
    /// `KernelCpu::enter` around a closure; its self time is the entry
    /// and exit path (and the deferred drain at the exit).
    pub const ENTER: &str = "kernel.enter";
    /// `net_rx_wire`: frames onto the RX ring, interrupt assertion.
    pub const RX_WIRE: &str = "kernel.net.rx_wire";
    /// `net_rx_flush`: the NAPI poll through the deferred mux.
    pub const RX_POLL: &str = "kernel.net.rx_poll";
    /// `sys_recvmsg`: socket dispatch into the echo module.
    pub const RECVMSG: &str = "kernel.socket.recvmsg";
    /// `net_send_packet`: skb allocation and the e1000's transmit.
    pub const TX: &str = "kernel.net.tx";
    /// `free_skb_raw`: the two-phase skb free.
    pub const FREE_SKB: &str = "kernel.slab.free_skb";
    /// A request's wait between its burst's poll and its own handling.
    pub const QUEUE_WAIT: &str = "kernel.queue_wait";
    /// A burst entry whose poll faulted: its self time is containment.
    pub const CONTAIN: &str = "kernel.contain";
    /// `Supervisor::tick` that restarts the e1000, minus the load.
    pub const RESTART: &str = "kernel.supervisor.restart";
    /// One module load.
    pub const LOAD: &str = "kernel.load_module";
    /// Tearing out the dead driver's device plumbing.
    pub const REMOVE_DEAD: &str = "kernel.net.remove_dead";
    /// `pci_probe_all`.
    pub const PROBE: &str = "kernel.pci.probe";
    /// One replay of a load path (parent of the five phases below).
    pub const REPLAY: &str = "replay";
    /// `verify_program` on the module as loaded.
    pub const VERIFY: &str = "machine.verify_program";
    /// `rewrite_module`.
    pub const REWRITE: &str = "rewriter.rewrite_module";
    /// `verify_soundness` on the rewritten program.
    pub const SOUNDNESS: &str = "machine.verify_soundness";
    /// `propagate` of the interface annotations.
    pub const PROPAGATE: &str = "rewriter.propagate";
    /// `CompiledProgram::compile`.
    pub const COMPILE: &str = "machine.compile";
    /// The load-path phases, in load order.
    pub const LOAD_PHASES: [&str; 5] = [VERIFY, REWRITE, SOUNDNESS, PROPAGATE, COMPILE];
}

/// Ops over which the deterministic counts are taken.
pub const DET_OPS: u64 = 1000;

/// How long a phase measures.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall seconds to measure for.
    pub seconds: f64,
    /// Ops to complete at least, however long that takes. The
    /// deterministic counts (`sim_cycles_per_op`, `core.*_per_op`) are
    /// taken over this many ops at the start of the phase.
    pub min_ops: u64,
}

impl Budget {
    /// A timed phase: at least `seconds` and at least [`DET_OPS`] ops.
    pub fn timed(seconds: f64) -> Self {
        Budget {
            seconds,
            min_ops: DET_OPS,
        }
    }

    /// A phase of exactly `ops` ops (rounded up to a whole burst).
    pub fn ops(ops: u64) -> Self {
        Budget {
            seconds: 0.0,
            min_ops: ops,
        }
    }

    /// Whether a phase that has done `ops` ops in `elapsed` ns is
    /// finished.
    pub fn done(&self, ops: u64, elapsed: u64) -> bool {
        ops >= self.min_ops && elapsed as f64 >= self.seconds * 1e9
    }
}

/// Boots a kernel on the compiled backend.
pub fn boot(mode: IsolationMode) -> Kernel {
    Kernel::boot_with_backend(mode, Backend::Compiled)
}

/// Runs `f` in one kernel entry: a [`span::ENTER`] span around the
/// entry and a `name` span around the closure.
pub fn enter<R>(
    k: &mut KernelCpu,
    tr: &mut Tracer,
    name: &'static str,
    f: impl FnOnce(&mut KernelCpu) -> Result<R, Trap>,
) -> (SpanId, Result<R, KernelError>) {
    let outer = tr.begin(span::ENTER);
    let r = k.enter(|k| {
        let s = tr.begin(name);
        let r = f(k);
        tr.end(s);
        r
    });
    tr.end(outer);
    (outer, r)
}

/// Wires `frames` frames onto `dev`'s RX ring and flushes the NAPI poll
/// inside one entry: [`span::ENTER`] around [`span::RX_WIRE`] and
/// [`span::RX_POLL`]. Returns the entry span and `(accepted, delivered)`.
pub fn rx_burst(
    k: &mut KernelCpu,
    tr: &mut Tracer,
    dev: Word,
    frames: u64,
) -> (SpanId, Result<(u64, u64), KernelError>) {
    let outer = tr.begin(span::ENTER);
    let r = k.enter(|k| {
        let s = tr.begin(span::RX_WIRE);
        let accepted = k.net_rx_wire(dev, frames);
        tr.end(s);
        let s = tr.begin(span::RX_POLL);
        let delivered = k.net_rx_flush(dev);
        tr.end(s);
        Ok((accepted?, delivered?))
    });
    tr.end(outer);
    (outer, r)
}

/// The wire sequence number an RX-delivered skb carries.
pub fn wire_seq(k: &KernelCpu, skb: Word) -> Option<u64> {
    let data = k.mem.read_word(skb + sk_buff::DATA as u64).ok()?;
    k.mem.read_word(data + 8).ok()
}

/// Frees `skb` in its own entry ([`span::FREE_SKB`]).
pub fn free_skb(
    k: &mut KernelCpu,
    tr: &mut Tracer,
    skb: Word,
) -> (SpanId, Result<u64, KernelError>) {
    enter(k, tr, span::FREE_SKB, |k| free_skb_raw(k, skb).map(|()| 0))
}

/// Loads `spec()` in a [`span::LOAD`] span and, when tracing an
/// isolated kernel, replays the same spec's load path.
pub fn load(
    k: &mut Kernel,
    tr: &mut Tracer,
    spec: fn() -> ModuleSpec,
) -> Result<LoadedModuleId, KernelError> {
    let s = tr.begin(span::LOAD);
    let r = k.load_module(spec());
    tr.end(s);
    replay_load(k, tr, spec);
    r
}

/// When tracing an isolated kernel, times each phase of the load path
/// of `spec()` outside the kernel, with the kernel's rewrite options,
/// under one [`span::REPLAY`] span. Panics if the spec that loaded in
/// the kernel fails a phase here.
pub fn replay_load(k: &KernelCpu, tr: &mut Tracer, spec: fn() -> ModuleSpec) {
    if !tr.on() || k.mode != IsolationMode::Lxfi {
        return;
    }
    let opts: RewriteOptions = k.kernel_core().rewrite_opts;
    let spec = spec();
    let root = tr.begin(span::REPLAY);
    let s = tr.begin(span::VERIFY);
    let verified = verify_program(&spec.program);
    tr.end(s);
    let s = tr.begin(span::REWRITE);
    let rw = rewrite_module(&spec.program, opts);
    tr.end(s);
    let s = tr.begin(span::SOUNDNESS);
    let sound = verify_soundness(&rw.program, SoundnessPolicy::module());
    tr.end(s);
    let s = tr.begin(span::PROPAGATE);
    let decls = propagate(&rw.program, &spec.iface);
    tr.end(s);
    let program = Arc::new(rw.program);
    let s = tr.begin(span::COMPILE);
    let compiled = CompiledProgram::compile(program);
    tr.end(s);
    tr.end(root);
    assert!(
        verified.is_ok() && sound.is_ok() && decls.is_ok(),
        "replayed load of {} failed",
        spec.name
    );
    black_box(compiled);
}

/// Guard and kernel counters of one CPU at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snap {
    /// Simulated cycles: executed instructions plus guard charges.
    pub sim_cycles: u64,
    /// Guard charges alone.
    pub guard_cycles: u64,
    /// Mem-write checks.
    pub memwrite: u64,
    /// Annotation actions.
    pub annotation: u64,
    /// Wrapper entries (each wrapper call enters once and exits once).
    pub wrapper: u64,
    /// Kernel indirect-call checks.
    pub indcall: u64,
    /// Transfers on the single-holder fast path.
    pub transfer_fast: u64,
    /// Transfers that swept.
    pub transfer_slow: u64,
    /// Principals the kfree sweeps visited.
    pub kfree_visited: u64,
    /// Write-guard cache hits.
    pub cache_hits: u64,
    /// Write-guard cache misses.
    pub cache_misses: u64,
    /// Write-epoch bumps.
    pub epoch_bumps: u64,
    /// Deferred calls dispatched.
    pub dispatched: u64,
    /// Slab magazine hits.
    pub mag_hits: u64,
    /// Slab magazine misses.
    pub mag_misses: u64,
}

/// The counters of `k` now.
pub fn snap(k: &KernelCpu) -> Snap {
    use lxfi_core::GuardKind::*;
    let s = &k.rt.stats;
    Snap {
        sim_cycles: k.total_cycles(),
        guard_cycles: s.total_cycles(),
        memwrite: s.count(MemWrite),
        annotation: s.count(AnnotationAction),
        wrapper: s.count(FunctionEntry),
        indcall: s.count(KernelIndCall),
        transfer_fast: s.transfer_fast,
        transfer_slow: s.transfer_slow,
        kfree_visited: s.kfree_hint_visited,
        cache_hits: s.write_cache_hits,
        cache_misses: s.write_cache_misses,
        epoch_bumps: s.epoch_bumps,
        dispatched: k.deferred_stats().0,
        mag_hits: k.mags.hits,
        mag_misses: k.mags.misses,
    }
}

impl Snap {
    fn zip(self, o: Snap, op: impl Fn(u64, u64) -> u64) -> Snap {
        Snap {
            sim_cycles: op(self.sim_cycles, o.sim_cycles),
            guard_cycles: op(self.guard_cycles, o.guard_cycles),
            memwrite: op(self.memwrite, o.memwrite),
            annotation: op(self.annotation, o.annotation),
            wrapper: op(self.wrapper, o.wrapper),
            indcall: op(self.indcall, o.indcall),
            transfer_fast: op(self.transfer_fast, o.transfer_fast),
            transfer_slow: op(self.transfer_slow, o.transfer_slow),
            kfree_visited: op(self.kfree_visited, o.kfree_visited),
            cache_hits: op(self.cache_hits, o.cache_hits),
            cache_misses: op(self.cache_misses, o.cache_misses),
            epoch_bumps: op(self.epoch_bumps, o.epoch_bumps),
            dispatched: op(self.dispatched, o.dispatched),
            mag_hits: op(self.mag_hits, o.mag_hits),
            mag_misses: op(self.mag_misses, o.mag_misses),
        }
    }

    /// Counter growth from `before` to `self`.
    pub fn since(self, before: Snap) -> Snap {
        self.zip(before, |a, b| a - b)
    }

    /// Field-wise sum.
    pub fn plus(self, o: Snap) -> Snap {
        self.zip(o, |a, b| a + b)
    }
}

/// Counts taken over the first ops of a phase; identical for a given
/// seed on every run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetCounts {
    /// Ops the counts cover.
    pub ops: u64,
    /// Counter growth over those ops.
    pub delta: Snap,
}

impl DetCounts {
    /// `count / ops`.
    pub fn per_op(&self, count: u64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            count as f64 / self.ops as f64
        }
    }
}

/// Accumulates counter growth over a phase's ops until it covers the
/// budget's deterministic prefix.
pub struct OpCounts {
    want: u64,
    got: DetCounts,
}

impl OpCounts {
    /// An empty window for `budget`.
    pub fn new(budget: &Budget) -> Self {
        OpCounts {
            want: budget.min_ops,
            got: DetCounts::default(),
        }
    }

    /// The counters of `k` now if the window still wants ops, for a
    /// later [`OpCounts::add`].
    pub fn start(&self, k: &KernelCpu) -> Option<Snap> {
        (self.got.ops < self.want).then(|| snap(k))
    }

    /// Counts the growth since `from` as `ops` more ops.
    pub fn add(&mut self, k: &KernelCpu, from: Option<Snap>, ops: u64) {
        if let Some(from) = from {
            self.got.delta = self.got.delta.plus(snap(k).since(from));
            self.got.ops += ops;
        }
    }

    /// The counts.
    pub fn finish(self) -> DetCounts {
        self.got
    }
}

/// Ops per segment of a phase, so that ten samples lie beyond its p99.
pub const SEGMENT_OPS: u64 = 1000;

/// End-to-end figures are medians over this share (one part in
/// `QUIET_PARTS`) of the segments, those with the best value.
pub const QUIET_PARTS: usize = 32;

/// A stretch of [`SEGMENT_OPS`] consecutive ops of a phase. End-to-end
/// figures come from the quiet segments: interference from outside the
/// process (other tenants of the machine) only ever adds time, so the
/// quiet segments are the steadiest estimate of the program's own cost.
/// The tail is hit hardest: its segments must be free of interference
/// for all of their ops, so short segments and a small quiet share keep
/// `op_p99_us` steady.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    /// Median op latency, ns.
    pub p50_ns: f64,
    /// 99th-percentile op latency, ns.
    pub p99_ns: f64,
    /// Ops completed.
    pub ops: u64,
    /// Measured wall time, ns.
    pub wall_ns: u64,
}

impl Segment {
    fn of(lat: &Histogram, wall_ns: u64) -> Self {
        Segment {
            p50_ns: lat.quantile(0.50),
            p99_ns: lat.quantile(0.99),
            ops: lat.count(),
            wall_ns,
        }
    }
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Host wall latency per op, whole phase.
    pub lat: Histogram,
    /// Closed segments.
    pub segments: Vec<Segment>,
    /// Latencies of the open segment.
    open: Histogram,
    open_since: u64,
    /// Measured wall time of the phase, ns.
    pub wall_ns: u64,
    /// Ops that failed a check.
    pub failed: u64,
    /// Human-readable reasons for the first failures.
    pub why: Vec<String>,
    /// Deterministic counts over the first ops.
    pub det: DetCounts,
    /// Counter growth over the whole phase.
    pub whole: Snap,
    /// Workload-specific per-layer values, by metric name.
    pub layer: Vec<(&'static str, f64)>,
}

impl Phase {
    /// Records one op's latency, ns.
    pub fn record(&mut self, ns: u64) {
        self.lat.record(ns);
        self.open.record(ns);
    }

    /// Whether the phase goes on, `elapsed` measured ns and `ops` ops in.
    /// Closes the open segment once it holds [`SEGMENT_OPS`] ops; the
    /// ops after the last full segment count only in `lat`.
    pub fn running(&mut self, budget: &Budget, ops: u64, elapsed: u64) -> bool {
        if self.open.count() >= SEGMENT_OPS {
            let wall = elapsed - self.open_since;
            self.segments.push(Segment::of(&self.open, wall));
            self.open = Histogram::default();
            self.open_since = elapsed;
        }
        !budget.done(ops, elapsed)
    }

    /// `(p50 µs, p99 µs, ops per second)`: each the median over the
    /// quiet segments for that figure, the one in [`QUIET_PARTS`] with
    /// the best value (the whole phase when no segment closed). Ranking
    /// each figure by itself matters for the tail: a segment with a
    /// quiet median can still hold a burst of interference that only
    /// its p99 shows.
    pub fn figures(&self) -> (f64, f64, f64) {
        let segments = if self.segments.is_empty() {
            vec![Segment::of(&self.lat, self.wall_ns)]
        } else {
            self.segments.clone()
        };
        let quiet = |f: fn(&Segment) -> f64| {
            quiet_median(&segments.iter().map(f).collect::<Vec<_>>(), QUIET_PARTS)
        };
        (
            quiet(|s| s.p50_ns / 1e3),
            quiet(|s| s.p99_ns / 1e3),
            // Negated, so that the quiet share is the fastest one.
            -quiet(|s| -(s.ops as f64) * 1e9 / s.wall_ns.max(1) as f64),
        )
    }

    /// Appends a later phase: its ops, segments, wall time and
    /// failures. Counts over the first ops and per-layer values
    /// stay this phase's; `whole` adds up.
    pub fn merge(&mut self, later: Phase) {
        self.lat.merge(&later.lat);
        self.segments.extend(later.segments);
        self.wall_ns += later.wall_ns;
        self.failed += later.failed;
        self.why.extend(later.why);
        self.whole = self.whole.plus(later.whole);
    }

    /// Counts one failed op, keeping the first few reasons.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.why.len() < 8 {
            self.why.push(why());
        }
    }
}

/// Wall-clock guard probes against a live runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `GuardHandle::check_write` on the e1000's TX FIFO, ns per call.
    pub check_write_ns: f64,
    /// `GuardHandle::check_indcall` on the e1000's `ndo_start_xmit`
    /// slot, ns per call.
    pub check_indcall_ns: f64,
}

/// TX FIFO offset inside the e1000 MMIO window (see `lxfi_modules::e1000`).
const E1000_FIFO: u64 = 1280;
/// Calls per probe.
const PROBE_CALLS: u64 = 20_000;

/// Probes the guards with the e1000 principal and the addresses the
/// workload's driver used: a WRITE check on its TX FIFO and the kernel
/// ind-call check on its `ndo_start_xmit` slot. `None` if the kernel has
/// no live isolated e1000 device.
pub fn probes(k: &KernelCpu) -> Option<Probes> {
    let word = |a: u64| k.mem.read_word(a).ok();
    let dev = *k.net().devices.last()?;
    let mmio = word(word(dev + net_device::PRIV as u64)?)?;
    let addr = mmio + E1000_FIFO;
    let mid = k.runtime_module(k.module_id("e1000")?)?;
    let rtc = k.runtime_core();
    let p = rtc
        .module_principals(mid)
        .into_iter()
        .find(|&p| rtc.write_overlaps(p, addr, 8))?;
    let slot = word(dev + net_device::DEV_OPS as u64)? + net_device_ops::NDO_START_XMIT as u64;
    let target = word(slot)?;
    let ahash = rtc.function_ahash(target)?;

    let mut h: GuardHandle = GuardHandle::new(Arc::clone(&rtc));
    h.set_current(Some((mid, p)));
    h.check_write(addr, 8).ok()?;
    h.check_indcall(slot, target, ahash).ok()?;
    let t = Instant::now();
    for i in 0..PROBE_CALLS {
        h.check_write(black_box(addr + (i % 8) * 8), 8).ok()?;
    }
    let check_write_ns = t.elapsed().as_nanos() as f64 / PROBE_CALLS as f64;
    let t = Instant::now();
    for _ in 0..PROBE_CALLS {
        h.check_indcall(black_box(slot), target, ahash).ok()?;
    }
    let check_indcall_ns = t.elapsed().as_nanos() as f64 / PROBE_CALLS as f64;
    Some(Probes {
        check_write_ns,
        check_indcall_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase of `n` segments, segment `i` taking `lat(i, op)` ns per op
    /// and 1 ms of wall time.
    fn phase(n: u64, lat: impl Fn(u64, u64) -> u64) -> Phase {
        let budget = Budget::ops(n * SEGMENT_OPS);
        let mut ph = Phase::default();
        let mut ops = 0;
        while ph.running(&budget, ops, ops * 1000) {
            ph.record(lat(ops / SEGMENT_OPS, ops % SEGMENT_OPS));
            ops += 1;
        }
        ph
    }

    #[test]
    fn segments_hold_a_fixed_op_count() {
        let ph = phase(5, |_, _| 100);
        assert_eq!(ph.segments.len(), 5);
        assert!(ph.segments.iter().all(|s| s.ops == SEGMENT_OPS));
        assert!(ph.segments.iter().all(|s| s.wall_ns == SEGMENT_OPS * 1000));
    }

    #[test]
    fn each_figure_is_ranked_by_itself() {
        // 32 segments, so the quiet share is one segment. Segment 0 has
        // the lowest median but a slow tail (5% of ops at 50 us),
        // segment 1 the quietest tail, and the rest are slower
        // throughout.
        let ph = phase(32, |seg, op| match (seg, op) {
            (0, o) if o % 20 == 0 => 50_000,
            (0, _) => 1_000,
            (1, _) => 2_000,
            _ => 4_000 + op % 3 * 1_000,
        });
        let (p50, p99, ops_per_s) = ph.figures();
        let near = |got: f64, want: f64| (got - want).abs() <= want / 100.0;
        assert!(near(p50, 1.0), "p50 {p50}");
        assert!(near(p99, 2.0), "p99 {p99}");
        assert_eq!(ops_per_s, 1e6);
    }
}
