//! Guard statistics and deterministic guard costs (Figure 13).
//!
//! The runtime counts every guard it executes, by kind, and charges a
//! deterministic cycle cost. The cost constants are calibrated to the
//! per-guard times the paper measured on its 3.2 GHz testbed (Figure 13,
//! "Time per guard (ns)"), with one simulated cycle = 1 ns, so the
//! regenerated table is directly comparable in shape.

use std::collections::HashMap;

use crate::principal::ModuleId;

/// The guard kinds reported in Figure 13.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardKind {
    /// A capability action from a `pre`/`post` annotation (grant, revoke,
    /// transfer, or check).
    AnnotationAction,
    /// Wrapper entry (shadow-stack push, principal switch).
    FunctionEntry,
    /// Wrapper exit (shadow-stack validation, principal restore).
    FunctionExit,
    /// Memory-write permission check.
    MemWrite,
    /// Kernel-side indirect-call check (`lxfi_check_indcall`).
    KernelIndCall,
}

/// All guard kinds, for iteration in reports.
pub const ALL_GUARD_KINDS: [GuardKind; 5] = [
    GuardKind::AnnotationAction,
    GuardKind::FunctionEntry,
    GuardKind::FunctionExit,
    GuardKind::MemWrite,
    GuardKind::KernelIndCall,
];

impl GuardKind {
    /// Row label used in the Figure 13 table.
    pub fn label(self) -> &'static str {
        match self {
            GuardKind::AnnotationAction => "Annotation action",
            GuardKind::FunctionEntry => "Function entry",
            GuardKind::FunctionExit => "Function exit",
            GuardKind::MemWrite => "Mem-write check",
            GuardKind::KernelIndCall => "Kernel ind-call",
        }
    }

    fn index(self) -> usize {
        match self {
            GuardKind::AnnotationAction => 0,
            GuardKind::FunctionEntry => 1,
            GuardKind::FunctionExit => 2,
            GuardKind::MemWrite => 3,
            GuardKind::KernelIndCall => 4,
        }
    }
}

/// Deterministic cycle cost per guard kind.
///
/// Defaults are the paper's measured per-guard ns (Figure 13): annotation
/// action 124, function entry 16, function exit 14, mem-write 51, kernel
/// ind-call 64 (fast path average; a full capability check on the slow
/// path costs `ind_call_slow`).
#[derive(Debug, Clone, Copy)]
pub struct GuardCosts {
    /// Cost of one annotation action.
    pub annotation_action: u64,
    /// Cost of wrapper entry.
    pub function_entry: u64,
    /// Cost of wrapper exit.
    pub function_exit: u64,
    /// Cost of a memory-write check.
    pub mem_write: u64,
    /// Cost of an indirect-call check that the fast path resolves: the
    /// reverse writer index shows no holder of WRITE over the slot.
    pub ind_call_fast: u64,
    /// Cost of an indirect-call check that finds a holder and runs the
    /// full capability and annotation-hash validation (86 ns in Figure
    /// 13's e1000 row).
    pub ind_call_slow: u64,
}

impl Default for GuardCosts {
    fn default() -> Self {
        GuardCosts {
            annotation_action: 124,
            function_entry: 16,
            function_exit: 14,
            mem_write: 51,
            ind_call_fast: 64,
            ind_call_slow: 86,
        }
    }
}

/// Counters: number of guards executed and cycles spent, per kind, plus a
/// per-module breakdown of kernel indirect calls (Figure 13 separates
/// "Kernel ind-call all" from "Kernel ind-call e1000").
///
/// In the thread-safe runtime each `GuardHandle` owns its own
/// `GuardStats` written without synchronization on the guard hot path;
/// [`GuardStats::merge`] folds per-thread counters into the shared
/// core's global stats when a handle flushes or retires.
///
/// Everything here is a counter. Population levels (writer-index
/// entries and the principals holding them, live and retired
/// principals) are read from their owner on demand:
/// `RuntimeCore::index_interval_count`, `index_set_count` and
/// `principal_gauges`.
#[derive(Debug, Default, Clone)]
pub struct GuardStats {
    counts: [u64; 5],
    cycles: [u64; 5],
    indcall_by_module: HashMap<ModuleId, (u64, u64)>,
    /// Mem-write checks answered by the epoch-validated write-guard
    /// cache (a subset of the `MemWrite` count; benches and the CI perf
    /// gate report the hit rate).
    pub write_cache_hits: u64,
    /// Mem-write checks that consulted the cache and fell through to the
    /// interval-table probe (`hits + misses` = cache-consulting checks;
    /// kernel-context and stack writes never reach the cache).
    pub write_cache_misses: u64,
    /// Per-principal write-epoch increments caused by revocation. Each
    /// bump wholesale-invalidates one principal's cached intervals, so
    /// this counts how much cached state revocation traffic destroyed.
    pub epoch_bumps: u64,
    /// Principals a `kfree`-style sweep
    /// (`revoke_write_overlapping_everywhere`) actually visited: the
    /// freed range's holders, as the reverse writer index names them.
    pub kfree_hint_visited: u64,
    /// `transfer` actions resolved by the single-holder fast path: the
    /// reverse writer index showed at most one holder, so the grant moved
    /// principal-to-principal with one index entry in and one out and one
    /// epoch-bump set.
    pub transfer_fast: u64,
    /// `transfer` actions that revoked before granting: a WRITE cap with
    /// several indexed holders (each loses it), or a non-WRITE cap
    /// (`revoke_everywhere`).
    pub transfer_slow: u64,
}

impl GuardStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one guard of `kind` costing `cycles`.
    #[inline]
    pub fn record(&mut self, kind: GuardKind, cycles: u64) {
        let i = kind.index();
        self.counts[i] += 1;
        self.cycles[i] += cycles;
    }

    /// Records a kernel indirect call whose pointer slot was written by
    /// (a principal of) `module`.
    pub fn record_indcall_module(&mut self, module: ModuleId, cycles: u64) {
        let e = self.indcall_by_module.entry(module).or_insert((0, 0));
        e.0 += 1;
        e.1 += cycles;
    }

    /// Number of guards of `kind` executed.
    pub fn count(&self, kind: GuardKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Cycles spent in guards of `kind`.
    pub fn cycles(&self, kind: GuardKind) -> u64 {
        self.cycles[kind.index()]
    }

    /// `(count, cycles)` of kernel indirect calls attributed to `module`.
    pub fn indcall_for_module(&self, module: ModuleId) -> (u64, u64) {
        self.indcall_by_module
            .get(&module)
            .copied()
            .unwrap_or((0, 0))
    }

    /// Fraction of cache-consulting mem-write checks the write-guard
    /// cache answered (0 when none ran).
    pub fn write_cache_hit_rate(&self) -> f64 {
        let total = self.write_cache_hits + self.write_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.write_cache_hits as f64 / total as f64
        }
    }

    /// Total cycles spent in all guards.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Total number of guards executed.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Resets all counters (used between benchmark phases).
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Folds `other`'s counters into `self` (per-thread handle stats
    /// merging into the shared core's global stats).
    pub fn merge(&mut self, other: &GuardStats) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
            self.cycles[i] += other.cycles[i];
        }
        for (m, (c, cy)) in &other.indcall_by_module {
            let e = self.indcall_by_module.entry(*m).or_insert((0, 0));
            e.0 += c;
            e.1 += cy;
        }
        self.write_cache_hits += other.write_cache_hits;
        self.write_cache_misses += other.write_cache_misses;
        self.epoch_bumps += other.epoch_bumps;
        self.kfree_hint_visited += other.kfree_hint_visited;
        self.transfer_fast += other.transfer_fast;
        self.transfer_slow += other.transfer_slow;
    }

    /// Snapshot of `(kind, count, cycles)` rows.
    pub fn rows(&self) -> Vec<(GuardKind, u64, u64)> {
        ALL_GUARD_KINDS
            .iter()
            .map(|&k| (k, self.count(k), self.cycles(k)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_kind() {
        let mut s = GuardStats::new();
        s.record(GuardKind::MemWrite, 51);
        s.record(GuardKind::MemWrite, 51);
        s.record(GuardKind::AnnotationAction, 124);
        assert_eq!(s.count(GuardKind::MemWrite), 2);
        assert_eq!(s.cycles(GuardKind::MemWrite), 102);
        assert_eq!(s.count(GuardKind::AnnotationAction), 1);
        assert_eq!(s.total_count(), 3);
        assert_eq!(s.total_cycles(), 226);
    }

    #[test]
    fn module_attribution() {
        let mut s = GuardStats::new();
        s.record_indcall_module(ModuleId(1), 86);
        s.record_indcall_module(ModuleId(1), 86);
        s.record_indcall_module(ModuleId(2), 86);
        assert_eq!(s.indcall_for_module(ModuleId(1)), (2, 172));
        assert_eq!(s.indcall_for_module(ModuleId(2)), (1, 86));
        assert_eq!(s.indcall_for_module(ModuleId(3)), (0, 0));
    }

    #[test]
    fn default_costs_match_figure_13() {
        let c = GuardCosts::default();
        assert_eq!(c.annotation_action, 124);
        assert_eq!(c.function_entry, 16);
        assert_eq!(c.function_exit, 14);
        assert_eq!(c.mem_write, 51);
    }

    #[test]
    fn cache_hit_rate_counts_only_consulting_checks() {
        let mut s = GuardStats::new();
        assert_eq!(s.write_cache_hit_rate(), 0.0, "no checks yet");
        s.write_cache_hits = 3;
        s.write_cache_misses = 1;
        assert!((s.write_cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_folds_counters() {
        let mut a = GuardStats::new();
        a.record(GuardKind::MemWrite, 51);
        a.write_cache_hits = 10;
        let mut b = GuardStats::new();
        b.record(GuardKind::MemWrite, 51);
        b.record_indcall_module(ModuleId(1), 86);
        b.write_cache_hits = 5;
        b.epoch_bumps = 2;
        a.merge(&b);
        assert_eq!(a.count(GuardKind::MemWrite), 2);
        assert_eq!(a.write_cache_hits, 15);
        assert_eq!(a.epoch_bumps, 2);
        assert_eq!(a.indcall_for_module(ModuleId(1)), (1, 86));
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = GuardStats::new();
        s.record(GuardKind::FunctionEntry, 16);
        s.record_indcall_module(ModuleId(0), 64);
        s.reset();
        assert_eq!(s.total_count(), 0);
        assert_eq!(s.indcall_for_module(ModuleId(0)), (0, 0));
    }
}
