//! Wall-clock companion to Figure 13: host cost of the individual LXFI
//! runtime guards (write check, indirect-call fast/slow path, wrapper
//! entry+exit, capability grant/revoke).

use criterion::{criterion_group, criterion_main, Criterion};
use lxfi_core::{GuardHandle, RawCap};

fn benches(c: &mut Criterion) {
    let mut rt: GuardHandle = GuardHandle::new(Default::default());
    let m = rt.register_module("bench");
    rt.set_kernel_stack(0xffff_9000_0000_0000, 0x2000);
    let p = rt.principal_for_name(m, 0x9000);
    rt.grant(p, RawCap::write(0x5000, 4096));
    rt.grant(p, RawCap::call(0xf000));
    rt.register_function(0xf000, 7);
    rt.set_current(Some((m, p)));

    c.bench_function("guard_mem_write", |b| {
        b.iter(|| rt.check_write(std::hint::black_box(0x5100), 8).unwrap())
    });

    // Fast path: a slot no module can write.
    c.bench_function("guard_indcall_fast", |b| {
        b.iter(|| {
            rt.check_indcall(std::hint::black_box(0x7000), 0xf000, 7)
                .unwrap()
        })
    });

    // Slow path: the slot sits inside the module's WRITE range.
    c.bench_function("guard_indcall_slow", |b| {
        b.iter(|| {
            rt.check_indcall(std::hint::black_box(0x5080), 0xf000, 7)
                .unwrap()
        })
    });

    c.bench_function("wrapper_entry_exit", |b| {
        b.iter(|| {
            let tok = rt.wrapper_enter(Some((m, p)));
            rt.wrapper_exit(tok).unwrap();
        })
    });

    c.bench_function("capability_grant_revoke", |b| {
        b.iter(|| {
            let cap = RawCap::write(std::hint::black_box(0x6000), 64);
            rt.grant(p, cap);
            rt.revoke(p, cap);
        })
    });

    // Interval index vs the paper's masked-slot linear scan, and the
    // guard cache's repeated-store fast path: same harness the
    // table_guard_costs binary reports, exposed as wall-clock benches.
    write_table_benches(c);
}

fn write_table_benches(c: &mut Criterion) {
    use lxfi_bench::guards::{
        bench_guard_runtime, bench_tables, rotating_hit_probe, rotating_miss_probe, ARENA,
    };
    const GRANTS: usize = 512;
    let (linear, interval) = bench_tables(GRANTS);

    let mut group = c.benchmark_group("write_table_hit");
    let mut i = 0u64;
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            let a = rotating_hit_probe(i, GRANTS);
            i += 1;
            linear.covers(std::hint::black_box(a), 8)
        })
    });
    let mut i = 0u64;
    group.bench_function("interval", |b| {
        b.iter(|| {
            let a = rotating_hit_probe(i, GRANTS);
            i += 1;
            interval.covers(std::hint::black_box(a), 8)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("write_table_miss");
    let mut i = 0u64;
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            let a = rotating_miss_probe(i, GRANTS);
            i += 1;
            linear.covers(std::hint::black_box(a), 8)
        })
    });
    let mut i = 0u64;
    group.bench_function("interval", |b| {
        b.iter(|| {
            let a = rotating_miss_probe(i, GRANTS);
            i += 1;
            interval.covers(std::hint::black_box(a), 8)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("guard_write_512_grants");
    let mut rt = bench_guard_runtime(GRANTS);
    group.bench_function("repeated_store_cache_hit", |b| {
        b.iter(|| rt.check_write(std::hint::black_box(ARENA), 8).unwrap())
    });
    let mut i = 0u64;
    group.bench_function("rotating_store_cache_miss", |b| {
        b.iter(|| {
            let a = rotating_hit_probe(i, GRANTS);
            i += 1;
            rt.check_write(std::hint::black_box(a), 8).unwrap()
        })
    });
    group.finish();

    // Revoke-heavy churn: guarded store with an unrelated instance's
    // grant revoked+re-granted in the same iteration (the churn is part
    // of the measured loop here; the table harness separates them).
    let mut group = c.benchmark_group("guard_write_revoke_churn_64");
    use lxfi_bench::guards::{churn_unrelated, revoke_heavy_runtime};
    let (mut rt, ps) = revoke_heavy_runtime(64);
    group.bench_function("steady_store", |b| {
        b.iter(|| rt.check_write(std::hint::black_box(ARENA), 8).unwrap())
    });
    let mut i = 0u64;
    group.bench_function("unrelated_revoke_plus_store", |b| {
        b.iter(|| {
            churn_unrelated(&mut rt, &ps, i);
            i += 1;
            rt.check_write(std::hint::black_box(ARENA), 8).unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = guards;
    config = Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = benches
}
criterion_main!(guards);
