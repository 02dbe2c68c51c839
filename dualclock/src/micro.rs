//! Single-layer timings at a workload's own shapes, for the traced run.
//! Each is the median of repeated calls through a layer's public entry.

use std::hint::black_box;
use std::time::Instant;

use burst_comm::{Topology, World};
use burst_dattn::Layout;
use burst_kernels::lmhead::fused_lm_loss_with_blocks;
use burst_kernels::{flash_backward, flash_forward, AttnMask};
use burst_model::Model;
use burst_tensor::randn_mat;

use crate::stats::median;
use crate::train::{Shape, HEADS};
use crate::{GPUS_PER_NODE, NODES};

/// Median wall seconds of `f` over `reps` calls.
fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn world_size() -> usize {
    NODES * GPUS_PER_NODE
}

/// `(flash_forward, flash_backward)` seconds on one ring tile of a
/// long-context step: rank 0's zigzag rows of one head against rank 1's,
/// under the causal mask (a partially masked tile).
pub fn flash_tile(shape: Shape, seed: u64) -> (f64, f64) {
    let g = world_size();
    let rows = shape.seq_len / g;
    let dh = shape.d_model / HEADS;
    let q = randn_mat(rows, dh, 0.7, seed);
    let k = randn_mat(rows, dh, 0.7, seed + 1);
    let v = randn_mat(rows, dh, 0.7, seed + 2);
    let grad_o = randn_mat(rows, dh, 0.8, seed + 3);
    let q_idx = Layout::Zigzag.indices(shape.seq_len, g, 1);
    let k_idx = Layout::Zigzag.indices(shape.seq_len, g, 0);
    let scale = 1.0 / (dh as f32).sqrt();
    let mask = AttnMask::Causal;
    let fwd = flash_forward(&q, &k, &v, scale, &mask, &q_idx, &k_idx);
    let fwd_s = time_reps(30, || {
        black_box(flash_forward(&q, &k, &v, scale, &mask, &q_idx, &k_idx));
    });
    let bwd_s = time_reps(30, || {
        black_box(flash_backward(
            &q, &k, &v, &fwd.o, &grad_o, &fwd.lse, scale, &mask, &q_idx, &k_idx,
        ));
    });
    (fwd_s, bwd_s)
}

/// Seconds of one ring shift of a rank's K and V shards (one head) on the
/// 8-rank world, per shift: `shifts` back-to-back shifts between barriers,
/// timed on rank 0, median of a few worlds.
pub fn ring_shift(shape: Shape, seed: u64) -> f64 {
    let rows = shape.seq_len / world_size();
    let dh = shape.d_model / HEADS;
    let k = randn_mat(rows, dh, 0.7, seed);
    let v = randn_mat(rows, dh, 0.7, seed + 1);
    let world = World::new(Topology::a800(NODES, GPUS_PER_NODE));
    let shifts = 64;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let outs = world.run(|comm| {
                let (mut k, mut v) = (k.clone(), v.clone());
                comm.barrier();
                let t = Instant::now();
                for _ in 0..shifts {
                    let next = comm.next_rank();
                    let prev = comm.prev_rank();
                    comm.send_mat(next, &k);
                    comm.send_mat(next, &v);
                    k = comm.recv_mat(prev);
                    v = comm.recv_mat(prev);
                }
                comm.barrier();
                t.elapsed().as_secs_f64() / shifts as f64
            });
            outs[0].result
        })
        .collect();
    median(&samples)
}

/// Seconds of one all-gather pass over every parameter's row shard of the
/// model (the traffic of `fsdp::gather_weights`, without its replica
/// check), on the 8-rank world; median of a few worlds.
pub fn all_gather(model: &Model) -> f64 {
    let g = world_size();
    let shapes: Vec<(usize, usize)> = model.params().iter().map(|p| p.w.shape()).collect();
    let world = World::new(Topology::a800(NODES, GPUS_PER_NODE));
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let outs = world.run(|comm| {
                let shards: Vec<_> = shapes
                    .iter()
                    .enumerate()
                    .map(|(i, &(r, c))| {
                        let rows = r * (comm.rank() + 1) / g - r * comm.rank() / g;
                        randn_mat(rows, c, 1.0, i as u64)
                    })
                    .collect();
                comm.barrier();
                let t = Instant::now();
                for s in &shards {
                    black_box(comm.all_gather_mat(s));
                }
                comm.barrier();
                t.elapsed().as_secs_f64()
            });
            outs[0].result
        })
        .collect();
    median(&samples)
}

/// Seconds of the fused LM head + loss at one rank's rows × vocab × d, with
/// the model's own tile sizes.
pub fn lm_loss(model: &Model, seed: u64) -> f64 {
    let rows = model.cfg.seq_len / world_size();
    let h = randn_mat(rows, model.cfg.d_model, 1.0, seed);
    let targets: Vec<usize> = (0..rows).map(|i| (i * 7 + 3) % model.cfg.vocab).collect();
    let (bs, bv) = model.lm_tiles.expect("the model fuses its LM head");
    time_reps(20, || {
        black_box(fused_lm_loss_with_blocks(
            &h,
            &model.head.w,
            &targets,
            bs,
            bv,
        ));
    })
}

/// Seconds of the FFN up-projection matmul at one rank's rows
/// (`rows × d_model` times `d_ff × d_model` transposed, as `Linear` runs it).
pub fn ffn_matmul(shape: Shape, seed: u64) -> f64 {
    let rows = shape.seq_len / world_size();
    let x = randn_mat(rows, shape.d_model, 1.0, seed);
    let w = randn_mat(shape.d_ff, shape.d_model, 0.02, seed + 1);
    time_reps(200, || {
        black_box(x.matmul_nt(&w));
    })
}
