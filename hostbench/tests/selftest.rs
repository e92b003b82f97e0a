//! The benchmark's own checks: counts repeat for a seed, spans nest,
//! and span self times plus the unattributed remainder add up to each
//! op's wall time.

use lxfi_hostbench::rig::{span, Budget, DetCounts};
use lxfi_hostbench::trace::Tracer;
use lxfi_hostbench::{EchoRr, Recover, TxBulk, Workload, END_TO_END, PER_LAYER, TRACE_METRICS};
use lxfi_kernel::IsolationMode;

/// Sets up `W` and measures `ops` ops with `seed`; returns the counts
/// and the tracer.
fn run<W: Workload>(seed: u64, ops: u64, traced: bool) -> (DetCounts, Tracer) {
    let mut tr = Tracer::new(traced);
    let mut rig = W::setup(IsolationMode::Lxfi, &mut tr).expect("set-up");
    let ph = W::measure(&mut rig, seed, Budget::ops(ops), &mut tr);
    assert_eq!(ph.failed, 0, "{:?}", ph.why);
    (ph.det, tr)
}

fn counts_repeat<W: Workload>(ops: u64) {
    let (a, _) = run::<W>(7, ops, false);
    let (b, _) = run::<W>(7, ops, true);
    assert!(a.ops >= ops && a.delta.sim_cycles > 0, "{a:?}");
    assert_eq!(a, b, "same seed, same sim cycles and guard counts");
}

#[test]
fn echo_rr_counts_repeat_for_a_seed() {
    counts_repeat::<EchoRr>(200);
    let (a, _) = run::<EchoRr>(7, 200, false);
    let (b, _) = run::<EchoRr>(8, 200, false);
    assert_ne!(a, b, "the seed draws the bursts");
}

#[test]
fn tx_bulk_counts_repeat_for_a_seed() {
    counts_repeat::<TxBulk>(100);
}

#[test]
fn recover_counts_repeat_for_a_seed() {
    counts_repeat::<Recover>(12);
}

/// Traces `W`, checks nesting and op accounting, and returns the share
/// of op time no span covers.
fn traced<W: Workload>(ops: u64, spans: &[&str]) -> f64 {
    let (_, tr) = run::<W>(3, ops, true);
    tr.check().expect("spans nest and account for every op");
    let b = tr.breakdown();
    assert!(b.ops >= ops, "{} ops traced", b.ops);
    for s in spans {
        assert!(b.calls(s) > 0, "no `{s}` span");
    }
    b.unattributed_frac()
}

#[test]
fn echo_rr_spans_cover_the_request() {
    let spans = [
        span::ENTER,
        span::RX_WIRE,
        span::RX_POLL,
        span::RECVMSG,
        span::TX,
        span::FREE_SKB,
        span::QUEUE_WAIT,
        span::LOAD,
        span::COMPILE,
    ];
    let gap = traced::<EchoRr>(300, &spans);
    assert!(gap <= 0.10, "unattributed {gap}");
}

#[test]
fn tx_bulk_spans_cover_the_packet() {
    let gap = traced::<TxBulk>(300, &[span::ENTER, span::TX]);
    assert!(gap <= 0.10, "unattributed {gap}");
}

#[test]
fn recover_spans_cover_the_recovery() {
    let spans = [
        span::CONTAIN,
        span::RESTART,
        span::LOAD,
        span::REMOVE_DEAD,
        span::PROBE,
        span::REPLAY,
        span::REWRITE,
    ];
    let gap = traced::<Recover>(8, &spans);
    assert!(gap <= 0.10, "unattributed {gap}");
}

#[test]
fn metric_names_are_unique_and_well_formed() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(TRACE_METRICS.iter())
        .map(|&(n, _)| n)
        .collect();
    for n in &names {
        assert!(n.len() <= 64, "{n}");
        assert!(
            n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
            "{n}"
        );
    }
    let len = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), len, "duplicate metric name");
}
