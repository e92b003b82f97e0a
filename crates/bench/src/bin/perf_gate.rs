//! CI perf-regression gate for the guard-path latencies.
//!
//! Usage: `perf_gate <baseline.json> <current.json>`
//!
//! Both files are flat JSON objects of `"key": value` pairs as emitted
//! by `table_guard_costs --json`. The gate is one row list, [`ROWS`]:
//! each row names its keys and bound, and every row is evaluated and
//! printed as one line of a pass/fail table (no first-failure bailout);
//! the exit status reflects the whole set.
//!
//! - **Ratio rows** are hostname-tolerant: for each optimized structure
//!   the ratio `optimized / reference` measured now is compared against
//!   the same ratio recorded in `baseline.json`, failing when it
//!   regresses more than [`REGRESSION_FACTOR`]× — a slower machine
//!   scales numerator and denominator together, but a code regression
//!   moves the ratio.
//! - **Floors** hold regardless of the recorded baseline. Every floor
//!   reads as an upper bound (`current ≤ limit`): an at-least bound is
//!   printed negated and a hit rate as its miss rate. The two scaling
//!   rows are CPU-count aware: parallel speedup cannot exist on fewer
//!   than 4 CPUs (`mt_cpus` in the measured JSON), so there they
//!   degrade to a collapse guard (4 threads keep ≥½ the single-thread
//!   aggregate).
//!
//! Exit status: 0 = pass, 1 = regression, 2 = bad input.

use std::collections::HashMap;
use std::process::ExitCode;

/// A measured ratio may regress up to this factor over the recorded
/// baseline ratio before the gate fails.
const REGRESSION_FACTOR: f64 = 2.0;

/// Absolute tolerance (ns) added to the post-revoke-vs-steady floor:
/// both quantities are single-digit cache hits, where per-call timing
/// noise is a meaningful fraction of the value.
const POST_REVOKE_SLACK_NS: f64 = 2.0;

/// Absolute tolerance (ns) added to the contended-vs-uncontended
/// multi-threaded store floor (batch-timed tens-of-ns quantities on a
/// machine that is, by construction, busy).
const MT_CONTENTION_SLACK_NS: f64 = 5.0;

/// Absolute tolerance (ns) added to the contended-vs-uncontended
/// kernel-path per-packet floor. A packet is a microsecond-scale
/// operation (interpretation + slab + capability transfers), and the
/// churn CPU write-locks the module registry during its load/unload
/// cycles, so the noise floor is proportionally larger.
const KMT_CONTENTION_SLACK_NS: f64 = 2_000.0;

/// How a row reads its keys and bound; each evaluates to
/// `current ≤ limit`.
#[derive(Clone, Copy)]
enum Kind {
    /// `num/den`, at most [`REGRESSION_FACTOR`]× the same ratio in the
    /// baseline.
    Regress(&'static str, &'static str),
    /// `key ≤ bound`.
    Max(&'static str, f64),
    /// `num/den ≤ bound`.
    RatioMax(&'static str, &'static str, f64),
    /// `a ≤ k·b + slack`.
    Scaled(&'static str, f64, &'static str, f64),
    /// `1 − key ≤ bound`: a hit rate gated as its miss rate.
    Miss(&'static str, f64),
    /// `key ≥ bound`, printed as `−key ≤ −bound`.
    AtLeast(&'static str, f64),
    /// `|key| = 0`: a gauge drifting negative is as broken as a leak.
    Zero(&'static str),
    /// `a − b ≤ 0`.
    NotAbove(&'static str, &'static str),
    /// `|a − b| = 0`.
    Equal(&'static str, &'static str),
    /// `num/den ≤ bound` with at least 4 CPUs; below that the row is
    /// the collapse guard `num/den ≤ 2`, labelled from the given prefix.
    Scaling(&'static str, &'static str, f64, &'static str),
}
use Kind::*;

/// The gate: `(label, kind)` per row, in report order.
///
/// Notes on the bounds:
/// - The sound, dm and server ratio rows are deterministic simulated
///   cycles: a drift there is a real guard-path change, not noise.
/// - The compiled/interp rows hold block compilation's wall-clock edge;
///   the 0.95 floor leaves noise room under a ~25–30% measured gap.
/// - Revoke-heavy: an unrelated revoke between two guarded stores must
///   not degrade the second store to uncached cost, must stay within
///   1.5x of the steady cached hit, and the epoch cache keeps hitting.
/// - Kernel-path (`kmt_*`) rows mirror the guard-path `mt_*` ones with
///   proportional slack; the data-plane rows prove the hot path
///   lock-free in fact (magazines absorb kmalloc, the single-holder
///   transfer splice fires).
/// - Soundness, hoisting, chaos and server rows are deterministic
///   counters and gate exactly; the chaos healthy-path bound 1.43 is
///   the ≥0.7x-throughput criterion expressed in cycles.
#[rustfmt::skip]
const ROWS: [(&str, Kind); 68] = [
    ("write-table hit", Regress("interval_hit_ns", "linear_hit_ns")),
    ("write-table miss", Regress("interval_miss_ns", "linear_miss_ns")),
    ("write-guard cache (repeated/rotating)", Regress("guard_repeated_ns", "guard_rotating_ns")),
    ("writer index @8", Regress("writer_index_8_ns", "writer_linear_8_ns")),
    ("writer index @64", Regress("writer_index_64_ns", "writer_linear_64_ns")),
    ("writer index @512", Regress("writer_index_512_ns", "writer_linear_512_ns")),
    ("writer index scaling (512/8)", Regress("writer_index_512_ns", "writer_index_8_ns")),
    ("revoke-heavy @8 (post/uncached)", Regress("revoke_heavy_8_post_revoke_ns", "revoke_heavy_8_uncached_ns")),
    ("revoke-heavy @64 (post/uncached)", Regress("revoke_heavy_64_post_revoke_ns", "revoke_heavy_64_uncached_ns")),
    ("revoke-heavy @512 (post/uncached)", Regress("revoke_heavy_512_post_revoke_ns", "revoke_heavy_512_uncached_ns")),
    ("splice 4-shard/unsharded @512", Regress("splice_512p_4shard_ns", "splice_512p_1shard_ns")),
    ("splice 16-shard/unsharded @512", Regress("splice_512p_16shard_ns", "splice_512p_1shard_ns")),
    ("sound playback lxfi/stock cycles", Regress("sound_lxfi_period_cycles", "sound_stock_period_cycles")),
    ("dm request lxfi/stock cycles", Regress("dm_lxfi_round_cycles", "dm_stock_round_cycles")),
    ("sound capture lxfi/stock cycles", Regress("sound_capture_lxfi_cycles", "sound_capture_stock_cycles")),
    ("netperf compiled/interp pkt ns", Regress("netperf_pkt_compiled_ns", "netperf_pkt_interp_ns")),
    ("sound compiled/interp period ns", Regress("sound_period_compiled_ns", "sound_period_interp_ns")),
    ("kernel 1cpu compiled/interp pkt ns", Regress("kmt_pkt_1t_compiled_ns", "kmt_pkt_1t_ns")),
    ("server p50 lxfi/stock ns", Regress("server_p50_ns", "server_stock_p50_ns")),
    ("server p99 lxfi/stock ns", Regress("server_p99_ns", "server_stock_p99_ns")),
    ("floor: interval/linear hit < 1", RatioMax("interval_hit_ns", "linear_hit_ns", 1.0)),
    ("floor: writer index ≥5x @512 (ratio ≤0.2)", RatioMax("writer_index_512_ns", "writer_linear_512_ns", 0.2)),
    ("floor: post-revoke < uncached @8", Scaled("revoke_heavy_8_post_revoke_ns", 1.0, "revoke_heavy_8_uncached_ns", 0.0)),
    ("floor: post-revoke ≤ 1.5x steady @8", Scaled("revoke_heavy_8_post_revoke_ns", 1.5, "revoke_heavy_8_steady_ns", POST_REVOKE_SLACK_NS)),
    ("floor: churn miss rate ≤5% @8", Miss("revoke_heavy_8_hit_rate", 0.05)),
    ("floor: post-revoke < uncached @64", Scaled("revoke_heavy_64_post_revoke_ns", 1.0, "revoke_heavy_64_uncached_ns", 0.0)),
    ("floor: post-revoke ≤ 1.5x steady @64", Scaled("revoke_heavy_64_post_revoke_ns", 1.5, "revoke_heavy_64_steady_ns", POST_REVOKE_SLACK_NS)),
    ("floor: churn miss rate ≤5% @64", Miss("revoke_heavy_64_hit_rate", 0.05)),
    ("floor: post-revoke < uncached @512", Scaled("revoke_heavy_512_post_revoke_ns", 1.0, "revoke_heavy_512_uncached_ns", 0.0)),
    ("floor: post-revoke ≤ 1.5x steady @512", Scaled("revoke_heavy_512_post_revoke_ns", 1.5, "revoke_heavy_512_steady_ns", POST_REVOKE_SLACK_NS)),
    ("floor: churn miss rate ≤5% @512", Miss("revoke_heavy_512_hit_rate", 0.05)),
    ("floor: 4-shard splice < unsharded @512", RatioMax("splice_512p_4shard_ns", "splice_512p_1shard_ns", 1.0)),
    ("floor: mt contended ≤2x uncontended @2t", Scaled("mt_store_2t_contended_ns", 2.0, "mt_store_2t_uncontended_ns", MT_CONTENTION_SLACK_NS)),
    ("floor: mt contended miss rate ≤50% @2t", Miss("mt_contended_2t_hit_rate", 0.5)),
    ("floor: mt 4t aggregate ≥2.5x 1t (ratio ≤0.4)", Scaling("mt_aggregate_1t_mops", "mt_aggregate_4t_mops", 0.4, "floor: mt 4t")),
    ("floor: kernel contended ≤1.3x uncontended @2cpu", Scaled("kmt_pkt_2t_contended_ns", 1.3, "kmt_pkt_2t_uncontended_ns", KMT_CONTENTION_SLACK_NS)),
    ("floor: kernel churn ops ≥1 (neg ≤ -1)", AtLeast("kmt_contended_2t_churn_ops", 1.0)),
    ("floor: magazine miss rate ≤10%", Miss("kmt_magazine_hit_rate", 0.10)),
    ("floor: transfer fast path ≥1 (neg ≤ -1)", AtLeast("kmt_transfer_fast", 1.0)),
    ("floor: kernel 4cpu aggregate ≥1.3x 1cpu (ratio ≤0.77)", Scaling("kmt_aggregate_1t_kpps", "kmt_aggregate_4t_kpps", 0.77, "floor: kernel 4cpu")),
    ("floor: netperf compiled ≥1.05x faster (ratio ≤0.95)", RatioMax("netperf_pkt_compiled_ns", "netperf_pkt_interp_ns", 0.95)),
    ("floor: fused guard sites ≥1 (neg ≤ -1)", AtLeast("compiled_fused_guard_sites", 1.0)),
    ("floor: compiled fallback funcs = 0", Max("compiled_fallback_funcs", 0.0)),
    ("floor: soundness rejects = 0", Max("soundness_rejects", 0.0)),
    ("floor: soundness canaries missed = 0", Max("soundness_canaries_missed", 0.0)),
    ("floor: hoisted guard sites ≥1 (neg ≤ -1)", AtLeast("rewrite_guards_hoisted", 1.0)),
    ("floor: hoisting cuts mem-write guards/pkt", RatioMax("netperf_memw_per_pkt_hoisted", "netperf_memw_per_pkt_unhoisted", 0.999)),
    ("floor: chaos recoveries ≥100 (neg ≤ -100)", AtLeast("chaos_recoveries", 100.0)),
    ("floor: chaos crash loop detected ≥1 (neg ≤ -1)", AtLeast("chaos_crash_loop_detected", 1.0)),
    ("floor: chaos recovery ≤16 ticks", Max("chaos_recovery_ticks_max", 16.0)),
    ("floor: chaos healthy path ≤1.43x baseline", Max("chaos_overhead_ratio", 1.43)),
    ("floor: chaos leak principals = 0", Zero("chaos_leak_principals")),
    ("floor: chaos leak slab = 0", Zero("chaos_leak_slab")),
    ("floor: chaos leak writer sets = 0", Zero("chaos_leak_writer_sets")),
    ("floor: chaos leak intervals = 0", Zero("chaos_leak_intervals")),
    ("floor: chaos kernel panics = 0", Max("chaos_panics", 0.0)),
    ("floor: server p99 ≤ 4x p50", RatioMax("server_p99_ns", "server_p50_ns", 4.0)),
    ("floor: server dropped packets = 0", Max("server_dropped", 0.0)),
    ("floor: server replies = requests", Equal("server_rx_pkts", "server_tx_replies")),
    ("floor: deferred dispatches ≥1 (neg ≤ -1)", AtLeast("deferred_dispatched", 1.0)),
    ("floor: rx chaos recoveries ≥10 (neg ≤ -10)", AtLeast("rx_chaos_recoveries", 10.0)),
    ("floor: rx chaos delivered ≥ recoveries", NotAbove("rx_chaos_recoveries", "rx_chaos_delivered")),
    ("floor: rx chaos delivered ≤ injected", NotAbove("rx_chaos_delivered", "rx_chaos_injected")),
    ("floor: rx chaos leak principals = 0", Zero("rx_chaos_leak_principals")),
    ("floor: rx chaos leak slab = 0", Zero("rx_chaos_leak_slab")),
    ("floor: rx chaos leak writer sets = 0", Zero("rx_chaos_leak_writer_sets")),
    ("floor: rx chaos leak intervals = 0", Zero("rx_chaos_leak_intervals")),
    ("floor: rx chaos kernel panics = 0", Max("rx_chaos_panics", 0.0)),
];

/// One evaluated gate row.
struct Check {
    label: String,
    /// Baseline quantity (`None` for absolute floors).
    baseline: Option<f64>,
    current: f64,
    /// Upper bound `current` must stay at or below.
    limit: f64,
}

impl Check {
    fn pass(&self) -> bool {
        self.current <= self.limit
    }
}

/// Parses a flat JSON object of string→number pairs. Deliberately
/// minimal (the workspace vendors no serde): accepts exactly the shape
/// `table_guard_costs --json` emits, rejects anything nested.
fn parse_flat_json(text: &str) -> Result<HashMap<String, f64>, String> {
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("expected a top-level JSON object")?;
    let mut map = HashMap::new();
    for (ln, line) in body.lines().enumerate() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(':')
            .ok_or_else(|| format!("line {}: expected \"key\": value", ln + 1))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("line {}: key must be quoted", ln + 1))?;
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("line {}: bad number ({e})", ln + 1))?;
        map.insert(key.to_string(), value);
    }
    Ok(map)
}

fn load(path: &str) -> Result<HashMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_flat_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn get(m: &HashMap<String, f64>, key: &str, src: &str) -> Result<f64, String> {
    m.get(key)
        .copied()
        .ok_or_else(|| format!("{src}: missing {key}"))
}

fn ratio(m: &HashMap<String, f64>, num: &str, den: &str, src: &str) -> Result<f64, String> {
    let n = get(m, num, src)?;
    let d = get(m, den, src)?;
    if d <= 0.0 {
        return Err(format!("{src}: {den} must be positive"));
    }
    Ok(n / d)
}

/// A measured file: its path (for error messages) and its values.
type Measured<'a> = (&'a str, &'a HashMap<String, f64>);

/// Evaluates every row of [`ROWS`] in order; the first missing key or
/// non-positive denominator is an error.
fn evaluate(baseline: Measured<'_>, current: Measured<'_>) -> Result<Vec<Check>, String> {
    let (cur_path, cur) = current;
    let v = |key| get(cur, key, cur_path);
    let r = |num, den| ratio(cur, num, den, cur_path);
    ROWS.iter()
        .map(|&(label, kind)| {
            let floor = |current, limit| Check {
                label: label.to_string(),
                baseline: None,
                current,
                limit,
            };
            Ok(match kind {
                Regress(num, den) => {
                    let base = ratio(baseline.1, num, den, baseline.0)?;
                    Check {
                        baseline: Some(base),
                        ..floor(r(num, den)?, base * REGRESSION_FACTOR)
                    }
                }
                Max(key, bound) => floor(v(key)?, bound),
                RatioMax(num, den, bound) => floor(r(num, den)?, bound),
                Scaled(a, k, b, slack) => floor(v(a)?, k * v(b)? + slack),
                Miss(key, bound) => floor(1.0 - v(key)?, bound),
                AtLeast(key, bound) => floor(-v(key)?, -bound),
                Zero(key) => floor(v(key)?.abs(), 0.0),
                NotAbove(a, b) => floor(v(a)? - v(b)?, 0.0),
                Equal(a, b) => floor((v(a)? - v(b)?).abs(), 0.0),
                Scaling(num, den, bound, prefix) => {
                    let cpus = v("mt_cpus")?;
                    let inv = r(num, den)?;
                    if cpus >= 4.0 {
                        floor(inv, bound)
                    } else {
                        Check {
                            label: format!("{prefix} no collapse ({cpus:.0} cpus: ratio ≤2)"),
                            ..floor(inv, 2.0)
                        }
                    }
                }
            })
        })
        .collect()
}

fn run(baseline_path: &str, current_path: &str) -> Result<bool, String> {
    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    let checks = evaluate((baseline_path, &baseline), (current_path, &current))?;

    // Report: one row per check, no first-failure bailout.
    println!(
        "perf gate: {current_path} vs {baseline_path} \
         (ratio rows fail beyond {REGRESSION_FACTOR}x of baseline)\n"
    );
    println!(
        "{:<42} {:>10} {:>10} {:>10}  verdict",
        "check", "baseline", "current", "limit"
    );
    for c in &checks {
        let base = c
            .baseline
            .map(|b| format!("{b:>10.4}"))
            .unwrap_or_else(|| format!("{:>10}", "-"));
        println!(
            "{:<42} {} {:>10.4} {:>10.4}  {}",
            c.label,
            base,
            c.current,
            c.limit,
            if c.pass() { "ok" } else { "FAIL" }
        );
    }
    let failed = checks.iter().filter(|c| !c.pass()).count();
    println!("\n{} checks, {} failed", checks.len(), failed);
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline, current] = &args[..] else {
        eprintln!("usage: perf_gate <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    match run(baseline, current) {
        Ok(true) => {
            println!("perf gate: PASS");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("perf gate: FAIL");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perf_gate: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_emitted_shape() {
        let m = parse_flat_json("{\n  \"a_ns\": 1.5,\n  \"b_ns\": 2\n}").unwrap();
        assert_eq!(m["a_ns"], 1.5);
        assert_eq!(m["b_ns"], 2.0);
    }

    #[test]
    fn rejects_non_objects() {
        assert!(parse_flat_json("[1, 2]").is_err());
        assert!(parse_flat_json("{\"k\": \"str\"}").is_err());
    }

    /// The checked-in baseline resolves every key a row reads and
    /// passes against itself, so a renamed or dropped key fails here
    /// rather than only in the bench-smoke gate.
    #[test]
    fn baseline_passes_against_itself() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baseline.json");
        let base = load(path).unwrap();
        let checks = evaluate((path, &base), (path, &base)).unwrap();
        assert_eq!(checks.len(), 68);
        for c in &checks {
            assert!(c.pass(), "{}: {} > {}", c.label, c.current, c.limit);
        }
    }
}
