//! Workload-balance ablation (Table 3's mechanism): the same causal /
//! sliding-window attention under contiguous vs zigzag vs striped
//! partitions. Real wall time: the imbalanced layout is gated by its
//! slowest rank.

use burst_bench::attn_problem;
use burst_comm::{Topology, World};
use burst_dattn::{try_run_attention_opts, Algo, CostModel, Layout};
use burst_kernels::AttnMask;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// Keep full-workspace bench runs short: the comparisons of interest are
/// order-of-magnitude, not microsecond-precise.
fn fast<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    g
}

fn bench_layouts(c: &mut Criterion) {
    let mut group = fast(c, "causal_balance");
    let n = 512;
    let d = 32;
    let g = 8;
    let p = attn_problem(n, d, 11);
    let mask = AttnMask::Causal;
    for (name, layout) in [
        ("contiguous", Layout::Contiguous),
        ("zigzag", Layout::Zigzag),
        ("striped", Layout::Striped),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| {
                let world = World::new(Topology::single_node(g));
                world.run_results(|comm| {
                    let idx = layout.indices(n, g, comm.rank());
                    try_run_attention_opts(
                        Algo::BurstFlat,
                        comm,
                        &p.q.gather_rows(&idx),
                        &p.k.gather_rows(&idx),
                        &p.v.gather_rows(&idx),
                        &p.grad_o.gather_rows(&idx),
                        p.scale,
                        &mask,
                        layout,
                        n,
                        &CostModel::free(),
                        false,
                    )
                    .expect("fault-free run")
                })
            })
        });
    }
    group.finish();
}

fn bench_sparse_patterns(c: &mut Criterion) {
    let mut group = fast(c, "sparse_patterns_striped");
    let n = 512;
    let d = 32;
    let g = 8;
    let p = attn_problem(n, d, 12);
    for (name, mask) in [
        ("masking_full", AttnMask::Full),
        ("causal", AttnMask::Causal),
        ("swa_64", AttnMask::SlidingWindow { window: 64 }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| {
                let world = World::new(Topology::single_node(g));
                world.run_results(|comm| {
                    let idx = Layout::Striped.indices(n, g, comm.rank());
                    try_run_attention_opts(
                        Algo::BurstFlat,
                        comm,
                        &p.q.gather_rows(&idx),
                        &p.k.gather_rows(&idx),
                        &p.v.gather_rows(&idx),
                        &p.grad_o.gather_rows(&idx),
                        p.scale,
                        &mask,
                        Layout::Striped,
                        n,
                        &CostModel::free(),
                        false,
                    )
                    .expect("fault-free run")
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_layouts, bench_sparse_patterns);
criterion_main!(benches);
