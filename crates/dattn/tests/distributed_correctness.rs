//! End-to-end correctness of every distributed attention implementation
//! against the single-device blocked kernel, across topologies, layouts,
//! masks and overlap modes. Real tensors move between rank threads, so
//! these are exact (up to f32 accumulation-order noise) equivalences.

use burst_comm::{Topology, World};
use burst_dattn::{
    double_ring, try_burst_backward, try_ring_backward, try_ring_forward, try_run_attention_opts,
    Algo, AttnShard, BackwardInputs, CostModel, DoubleRingSpec, Layout, OverlapMode, Ring,
};
use burst_kernels::{flash_backward, flash_forward, AttnMask, BlockSparseMask};
use burst_tensor::testutil::assert_allclose;
use burst_tensor::{randn_mat, Mat};

const TOL: f32 = 2e-3;

struct Reference {
    o: Mat,
    dq: Mat,
    dk: Mat,
    dv: Mat,
}

fn reference(q: &Mat, k: &Mat, v: &Mat, grad_o: &Mat, scale: f32, mask: &AttnMask) -> Reference {
    let n = q.rows();
    let idx: Vec<usize> = (0..n).collect();
    let fwd = flash_forward(q, k, v, scale, mask, &idx, &idx);
    let (dq, dk, dv, _) =
        flash_backward(q, k, v, &fwd.o, grad_o, &fwd.lse, scale, mask, &idx, &idx);
    Reference {
        o: fwd.o,
        dq,
        dk,
        dv,
    }
}

fn problem(n: usize, d: usize) -> (Mat, Mat, Mat, Mat, f32) {
    let q = randn_mat(n, d, 0.7, 1);
    let k = randn_mat(n, d, 0.7, 2);
    let v = randn_mat(n, d, 0.7, 3);
    let grad_o = randn_mat(n, d, 0.8, 4);
    let scale = 1.0 / (d as f32).sqrt();
    (q, k, v, grad_o, scale)
}

/// Run `algo` on `topo` and compare every rank's outputs and gradients to
/// the single-device reference.
fn check_algo(algo: Algo, topo: Topology, layout: Layout, mask: AttnMask, n: usize, d: usize) {
    let g = topo.world_size();
    let (q, k, v, grad_o, scale) = problem(n, d);
    let r = reference(&q, &k, &v, &grad_o, scale, &mask);
    let world = World::new(topo);
    let outs = world.run_results(|comm| {
        let idx = layout.indices(n, g, comm.rank());
        let ql = q.gather_rows(&idx);
        let kl = k.gather_rows(&idx);
        let vl = v.gather_rows(&idx);
        let dol = grad_o.gather_rows(&idx);
        try_run_attention_opts(
            algo,
            comm,
            &ql,
            &kl,
            &vl,
            &dol,
            scale,
            &mask,
            layout,
            n,
            &CostModel::free(),
            false,
        )
        .expect("fault-free run")
    });
    for (rank, (o, _lse, dq, dk, dv)) in outs.iter().enumerate() {
        let idx = layout.indices(n, g, rank);
        let ctx = format!("{algo:?}/{layout:?} rank {rank}");
        assert_allclose(o, &r.o.gather_rows(&idx), TOL, &format!("{ctx} O"));
        assert_allclose(dq, &r.dq.gather_rows(&idx), TOL, &format!("{ctx} dQ"));
        assert_allclose(dk, &r.dk.gather_rows(&idx), TOL, &format!("{ctx} dK"));
        assert_allclose(dv, &r.dv.gather_rows(&idx), TOL, &format!("{ctx} dV"));
    }
}

#[test]
fn ring_flat_matches_reference_all_layouts() {
    for layout in [Layout::Contiguous, Layout::Zigzag, Layout::Striped] {
        check_algo(
            Algo::RingFlat,
            Topology::single_node(4),
            layout,
            AttnMask::Causal,
            32,
            6,
        );
    }
}

#[test]
fn burst_flat_matches_reference_all_layouts() {
    for layout in [Layout::Contiguous, Layout::Zigzag, Layout::Striped] {
        check_algo(
            Algo::BurstFlat,
            Topology::single_node(4),
            layout,
            AttnMask::Causal,
            32,
            6,
        );
    }
}

#[test]
fn double_ring_matches_reference_multi_node() {
    // 2×2, 2×4 and 3×2 exercise different completion-hop counts
    // (nodes mod gpn = 0, 2 and 1).
    for topo in [
        Topology::a800(2, 2),
        Topology::a800(2, 4),
        Topology::a800(3, 2),
    ] {
        check_algo(
            Algo::DoubleRing,
            topo,
            Layout::Zigzag,
            AttnMask::Causal,
            48,
            5,
        );
    }
}

#[test]
fn burst_topo_matches_reference_multi_node() {
    for topo in [
        Topology::a800(2, 2),
        Topology::a800(2, 4),
        Topology::a800(3, 2),
    ] {
        check_algo(
            Algo::BurstTopo,
            topo,
            Layout::Zigzag,
            AttnMask::Causal,
            48,
            5,
        );
    }
}

#[test]
fn topo_algorithms_handle_single_gpu_nodes_and_single_node() {
    // Degenerate shapes: 4 nodes × 1 GPU (pure inter ring) and 1 node × 4
    // GPUs (pure intra ring).
    for topo in [Topology::a800(4, 1), Topology::a800(1, 4)] {
        check_algo(
            Algo::DoubleRing,
            topo.clone(),
            Layout::Contiguous,
            AttnMask::Causal,
            32,
            4,
        );
        check_algo(
            Algo::BurstTopo,
            topo,
            Layout::Contiguous,
            AttnMask::Causal,
            32,
            4,
        );
    }
}

#[test]
fn full_and_sliding_window_masks_work_distributed() {
    for mask in [
        AttnMask::Full,
        AttnMask::SlidingWindow { window: 12 },
        AttnMask::BlockSparse(BlockSparseMask::sliding_window_blocks(8, 6, 2)),
    ] {
        check_algo(
            Algo::BurstTopo,
            Topology::a800(2, 2),
            Layout::Striped,
            mask.clone(),
            48,
            4,
        );
        check_algo(
            Algo::RingFlat,
            Topology::single_node(4),
            Layout::Striped,
            mask,
            48,
            4,
        );
    }
}

#[test]
fn overlap_modes_agree_numerically() {
    // Fine vs None overlap must be a pure scheduling change.
    let n = 32;
    let d = 4;
    let (q, k, v, grad_o, scale) = problem(n, d);
    let mask = AttnMask::Causal;
    let run = |overlap: OverlapMode, burst: bool| {
        let world = World::new(Topology::single_node(4));
        world.run_results(|comm| {
            let layout = Layout::Zigzag;
            let idx = layout.indices(n, 4, comm.rank());
            let ql = q.gather_rows(&idx);
            let kl = k.gather_rows(&idx);
            let vl = v.gather_rows(&idx);
            let dol = grad_o.gather_rows(&idx);
            let shard = AttnShard {
                q: &ql,
                k: &kl,
                v: &vl,
                scale,
                mask: &mask,
                layout,
                seq_len: n,
                cost: CostModel::free(),
                max_token: None,
                skip: false,
            };
            let ring = Ring::global(comm);
            let fwd = try_ring_forward(comm, &ring, &shard).expect("fault-free run");
            let back = BackwardInputs {
                o: &fwd.o,
                lse: &fwd.lse,
                grad_o: &dol,
            };
            if burst {
                try_burst_backward(comm, &ring, &shard, &back, overlap).expect("fault-free run")
            } else {
                try_ring_backward(comm, &ring, &shard, &back, overlap).expect("fault-free run")
            }
        })
    };
    for burst in [false, true] {
        let fine = run(OverlapMode::Fine, burst);
        let none = run(OverlapMode::None, burst);
        for (rank, (f, s)) in fine.iter().zip(&none).enumerate() {
            let ctx = format!("burst={burst} rank {rank}");
            assert_allclose(&f.0, &s.0, 1e-5, &format!("{ctx} dQ"));
            assert_allclose(&f.1, &s.1, 1e-5, &format!("{ctx} dK"));
            assert_allclose(&f.2, &s.2, 1e-5, &format!("{ctx} dV"));
        }
    }
}

#[test]
fn double_ring_forward_standalone_matches_flat_ring() {
    let n = 32;
    let d = 4;
    let (q, k, v, _, scale) = problem(n, d);
    let mask = AttnMask::Causal;
    let layout = Layout::Zigzag;
    let world = World::new(Topology::a800(2, 2));
    let outs = world.run_results(|comm| {
        let idx = layout.indices(n, 4, comm.rank());
        let shard = AttnShard {
            q: &q.gather_rows(&idx),
            k: &k.gather_rows(&idx),
            v: &v.gather_rows(&idx),
            scale,
            mask: &mask,
            layout,
            seq_len: n,
            cost: CostModel::free(),
            max_token: None,
            skip: false,
        };
        let flat = try_ring_forward(comm, &Ring::global(comm), &shard).expect("fault-free run");
        let spec = DoubleRingSpec::full(comm.topology());
        let topo =
            double_ring::try_double_ring_forward(comm, &shard, &spec).expect("fault-free run");
        (flat.o, topo.o, flat.lse, topo.lse)
    });
    for (rank, (fo, to, flse, tlse)) in outs.iter().enumerate() {
        assert_allclose(fo, to, 1e-5, &format!("rank {rank} O"));
        for (a, b) in flse.iter().zip(tlse) {
            assert!((a - b).abs() < 1e-5, "rank {rank} lse");
        }
    }
}
