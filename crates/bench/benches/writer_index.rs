//! Wall-clock companion for the indirect-call slow path: `writers_of`
//! via the reverse writer index vs the paper's global principal walk,
//! at 8 / 64 / 512 principals, plus the full `check_indcall` guard with
//! the fast path disabled (every call takes the slow path).

use criterion::{criterion_group, criterion_main, Criterion};
use lxfi_bench::writer_index::{bench_writer_indexes, rotating_slot_probe, SLOT_BASE};
use lxfi_core::runtime::FnMeta;
use lxfi_core::{GuardHandle, RawCap};

fn lookup_benches(c: &mut Criterion) {
    for n in [8usize, 64, 512] {
        let (linear, index) = bench_writer_indexes(n);
        let name = format!("writers_of_{n}_principals");
        let mut group = c.benchmark_group(&name);
        let mut i = 0u64;
        group.bench_function("linear_walk", |b| {
            b.iter(|| {
                let a = rotating_slot_probe(i);
                i += 1;
                linear.writers_of(std::hint::black_box(a), 8).len()
            })
        });
        let mut i = 0u64;
        group.bench_function("reverse_index", |b| {
            b.iter(|| {
                let a = rotating_slot_probe(i);
                i += 1;
                index.writers_over(std::hint::black_box(a), 8).count()
            })
        });
        group.finish();
    }
}

/// The full guard at 512 principals: a runtime where the probed slot is
/// writable by two principals that both hold CALL for the target, so
/// `check_indcall` runs the whole writer-set + capability check.
fn indcall_slow_path_bench(c: &mut Criterion) {
    let mut rt: GuardHandle = GuardHandle::new(Default::default());
    let m = rt.register_module("bench");
    let slot = SLOT_BASE;
    let target = 0xf000u64;
    for i in 0..512u64 {
        let p = rt.principal_for_name(m, 0x9000 + i * 8);
        // Private arena per principal; two of them also write the slot.
        rt.grant(p, RawCap::write(0x100_0000 + i * 0x1000, 0x100));
        if i < 2 {
            rt.grant(p, RawCap::write(slot, 8));
            rt.grant(p, RawCap::call(target));
        }
    }
    rt.register_function(
        target,
        FnMeta {
            name: "cb".into(),
            ahash: 7,
            module: Some(m),
        },
    );
    c.bench_function("guard_indcall_slow_512_principals", |b| {
        b.iter(|| {
            rt.check_indcall(std::hint::black_box(slot), target, 7)
                .unwrap()
        })
    });
}

/// Grant/revoke splice latency at 512 principals, 1/4/16 shards over an
/// identical 2048-interval population.
fn splice_benches(c: &mut Criterion) {
    use lxfi_bench::writer_index::{bench_sharded_index, splice_churn_op, SPLICE_SHARD_COUNTS};
    let mut group = c.benchmark_group("splice_churn_512_principals");
    for &shards in &SPLICE_SHARD_COUNTS {
        let mut ix = bench_sharded_index(512, shards);
        let mut i = 0u64;
        let name = format!("{shards}_shards");
        group.bench_function(&name, |b| {
            b.iter(|| {
                splice_churn_op(&mut ix, 512, i);
                i += 1;
            })
        });
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    lookup_benches(c);
    splice_benches(c);
    indcall_slow_path_bench(c);
}

criterion_group! {
    name = writer_index;
    config = Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = benches
}
criterion_main!(writer_index);
