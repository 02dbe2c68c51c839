//! Distributed attention implementations on the simulated cluster: real
//! wall time of a full forward+backward across rank threads (Fig. 14's
//! comparison at executable scale).

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

fn bench_algorithms(c: &mut Criterion) {
    let mut group = fast(c, "distributed_attention");
    let n = 256;
    let d = 32;
    let p = attn_problem(n, d, 3);
    let mask = AttnMask::Causal;
    for (name, algo, topo) in [
        ("ring_flat", Algo::RingFlat, Topology::a800(2, 4)),
        ("burst_flat", Algo::BurstFlat, Topology::a800(2, 4)),
        ("double_ring", Algo::DoubleRing, Topology::a800(2, 4)),
        ("burst_topo", Algo::BurstTopo, Topology::a800(2, 4)),
    ] {
        let g = topo.world_size();
        group.bench_with_input(BenchmarkId::new(name, g), &g, |b, _| {
            b.iter(|| {
                let world = World::new(topo.clone());
                world.run_results(|comm| {
                    let idx = Layout::Zigzag.indices(n, g, comm.rank());
                    try_run_attention_opts(
                        algo,
                        comm,
                        &p.q.gather_rows(&idx),
                        &p.k.gather_rows(&idx),
                        &p.v.gather_rows(&idx),
                        &p.grad_o.gather_rows(&idx),
                        p.scale,
                        &mask,
                        Layout::Zigzag,
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

fn bench_world_scaling(c: &mut Criterion) {
    let mut group = fast(c, "burst_scaling");
    let n = 256;
    let d = 32;
    let p = attn_problem(n, d, 4);
    let mask = AttnMask::Causal;
    for g in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(g), &g, |b, &g| {
            b.iter(|| {
                let world = World::new(Topology::single_node(g));
                world.run_results(|comm| {
                    let idx = Layout::Zigzag.indices(n, g, comm.rank());
                    try_run_attention_opts(
                        Algo::BurstFlat,
                        comm,
                        &p.q.gather_rows(&idx),
                        &p.k.gather_rows(&idx),
                        &p.v.gather_rows(&idx),
                        &p.grad_o.gather_rows(&idx),
                        p.scale,
                        &mask,
                        Layout::Zigzag,
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

criterion_group!(benches, bench_algorithms, bench_world_scaling);
criterion_main!(benches);
