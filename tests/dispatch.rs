//! Ring-family dispatch agreement: the model's `DistExec`, the elastic
//! `ElasticExec` over the full membership and the library entry point
//! `try_run_attention_opts` must pick the same schedule for every `Algo`,
//! with mask-aware round skipping off and on. Their outputs agree bit for
//! bit, and so do each rank's virtual clock and wire traffic.

use burstengine::dattn::try_run_attention_opts;
use burstengine::model::{AttnExec, DistExec, ElasticExec};
use burstengine::prelude::*;

const N: usize = 32;
const D: usize = 8;
const ALGOS: [Algo; 4] = [
    Algo::RingFlat,
    Algo::BurstFlat,
    Algo::DoubleRing,
    Algo::BurstTopo,
];

/// One rank's `(O, Lse, ∇Q, ∇K, ∇V)` plus its virtual time and messages.
type RankOut = (Mat, Vec<f32>, Mat, Mat, Mat, f64, u64);

fn globals() -> (Mat, Mat, Mat, Mat) {
    (
        randn_mat(N, D, 0.7, 11),
        randn_mat(N, D, 0.7, 12),
        randn_mat(N, D, 0.7, 13),
        randn_mat(N, D, 0.8, 14),
    )
}

/// Run `body` on a 2 × 2 world with this rank's causal zigzag shard.
fn on_world(
    body: impl Fn(&mut Communicator, [Mat; 4]) -> (Mat, Vec<f32>, Mat, Mat, Mat) + Sync,
) -> Vec<RankOut> {
    let (q, k, v, go) = globals();
    let world = World::new(Topology::a800(2, 2));
    world.run_results(|comm| {
        let idx = Layout::Zigzag.indices(N, comm.world_size(), comm.rank());
        let shard = [&q, &k, &v, &go].map(|m| m.gather_rows(&idx));
        let (o, lse, dq, dk, dv) = body(comm, shard);
        (o, lse, dq, dk, dv, comm.time(), comm.stats().total_msgs())
    })
}

/// Forward then backward of one head through an `AttnExec`.
fn through_exec(
    exec: &mut impl AttnExec,
    [q, k, v, go]: [Mat; 4],
) -> (Mat, Vec<f32>, Mat, Mat, Mat) {
    let (q, k, v) = ([q], [k], [v]);
    let (mut o, mut lse) = exec.forward(&q, &k, &v);
    let (mut dq, mut dk, mut dv) = exec.backward(&q, &k, &v, &o, &lse, &[go]);
    (
        o.remove(0),
        lse.remove(0),
        dq.remove(0),
        dk.remove(0),
        dv.remove(0),
    )
}

fn bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn assert_same(what: &str, a: &[RankOut], b: &[RankOut]) {
    assert_eq!(a.len(), b.len());
    for (rank, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(bits(&x.0), bits(&y.0), "{what} rank {rank}: O");
        let lse = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(lse(&x.1), lse(&y.1), "{what} rank {rank}: Lse");
        assert_eq!(bits(&x.2), bits(&y.2), "{what} rank {rank}: dQ");
        assert_eq!(bits(&x.3), bits(&y.3), "{what} rank {rank}: dK");
        assert_eq!(bits(&x.4), bits(&y.4), "{what} rank {rank}: dV");
        assert_eq!(x.5.to_bits(), y.5.to_bits(), "{what} rank {rank}: time");
        assert_eq!(x.6, y.6, "{what} rank {rank}: messages");
    }
}

#[test]
fn dist_elastic_and_library_dispatch_agree_bit_for_bit() {
    let cost = CostModel::a800();
    let mask = AttnMask::Causal;
    for algo in ALGOS {
        for skip in [false, true] {
            let dist = on_world(|comm, shard| {
                let mut exec = DistExec::new(comm, algo, Layout::Zigzag, mask.clone(), N, cost);
                exec.skip = skip;
                through_exec(&mut exec, shard)
            });
            let elastic = on_world(|comm, shard| {
                let members = (0..comm.world_size()).collect();
                let mut exec =
                    ElasticExec::new(comm, members, algo, Layout::Zigzag, mask.clone(), N, cost);
                exec.skip = skip;
                let out = through_exec(&mut exec, shard);
                assert!(exec.take_failure().is_none(), "healthy elastic run");
                assert!(!exec.flat_fallback(), "full membership is node-balanced");
                out
            });
            let library = on_world(|comm, [q, k, v, go]| {
                try_run_attention_opts(
                    algo,
                    comm,
                    &q,
                    &k,
                    &v,
                    &go,
                    1.0 / (D as f32).sqrt(),
                    &mask,
                    Layout::Zigzag,
                    N,
                    &cost,
                    skip,
                )
                .expect("fault-free run")
            });
            let case = format!("{algo:?} skip={skip}");
            assert_same(&format!("{case}: DistExec vs ElasticExec"), &dist, &elastic);
            assert_same(&format!("{case}: DistExec vs library"), &dist, &library);
        }
    }
}
