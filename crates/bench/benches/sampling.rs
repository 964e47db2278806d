//! Sampling-campaign throughput: draw resolution via the class index and
//! end-to-end sampled campaigns.

use sofi::campaign::{Campaign, FaultDomain, SamplingMode};
use sofi::space::{sample, ClassIndex};
use sofi::workloads::{bin_sem2, Variant};
use sofi_bench::harness::{Criterion, Throughput};
use sofi_bench::{criterion_group, criterion_main};
use sofi_rng::DefaultRng;

fn bench_draw_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling/resolve_draws");
    let campaign = Campaign::new(&bin_sem2(Variant::Baseline)).unwrap();
    let index = ClassIndex::new(
        campaign.analysis_for(FaultDomain::Memory),
        campaign.plan_for(FaultDomain::Memory),
    );
    let mut rng = DefaultRng::seed_from_u64(7);
    let coords = sample::draw_uniform(
        campaign.plan_for(FaultDomain::Memory).space,
        100_000,
        &mut rng,
    );
    group.throughput(Throughput::Elements(coords.len() as u64));
    group.bench_function("bin_sem2_100k", |b| {
        b.iter(|| sample::resolve_draws(&coords, &index));
    });
    group.finish();
}

fn bench_sampled_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling/campaign");
    group.sample_size(10);
    let campaign = Campaign::new(&bin_sem2(Variant::Baseline)).unwrap();
    for mode in [SamplingMode::UniformRaw, SamplingMode::WeightedClasses] {
        group.bench_function(format!("{mode:?}_10k"), |b| {
            b.iter(|| {
                let mut rng = DefaultRng::seed_from_u64(7);
                campaign.run_sampled_in(FaultDomain::Memory, 10_000, mode, &mut rng)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_draw_resolution, bench_sampled_campaign);
criterion_main!(benches);
