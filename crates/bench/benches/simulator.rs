//! Simulator throughput: instructions per second and machine-fork cost —
//! the two quantities that bound campaign wall-clock time.

use sofi::machine::Machine;
use sofi::workloads::{crc32, matmul, sync2, Variant};
use sofi_bench::harness::{BatchSize, Criterion, Throughput};
use sofi_bench::{criterion_group, criterion_main};

fn bench_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/execute");
    for program in [crc32(), matmul(), sync2(Variant::Baseline)] {
        let cycles = {
            let mut m = Machine::new(&program);
            m.run(10_000_000);
            m.cycle()
        };
        group.throughput(Throughput::Elements(cycles));
        group.bench_function(program.name.clone(), |b| {
            b.iter_batched(
                || Machine::new(&program),
                |mut m| m.run(10_000_000),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_fork(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/fork");
    let program = sync2(Variant::SumDmr);
    let mut m = Machine::new(&program);
    m.run(1_000);
    group.bench_function("clone_mid_run", |b| b.iter(|| m.clone()));
    group.finish();
}

fn bench_flip(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/flip_bit");
    let program = sync2(Variant::Baseline);
    let m = Machine::new(&program);
    group.bench_function("flip_and_restore", |b| {
        b.iter_batched(
            || m.clone(),
            |mut m| {
                m.flip_bit(64);
                m
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_execution, bench_fork, bench_flip);
criterion_main!(benches);
