//! Sequence-level fusion of the LM head and cross-entropy loss
//! (paper §3.3, Algorithm 3).
//!
//! The LM head `Logits = H W_headᵀ` produces an `N × v` matrix — at 1M
//! tokens and a 128K vocabulary, half a terabyte in bf16 (paper Fig. 8). The
//! fused kernel tiles `H` along the sequence (`B_s` rows) and `W_head` along
//! the vocabulary (`B_v` rows), accumulates the per-row log-sum-exp online,
//! and runs the backward **immediately after** each row tile's forward,
//! while that tile's (unnormalised) probabilities are still live — so the
//! logits are never recomputed and the live working set is `B_s × v`
//! instead of `N × v`.
//!
//! The forward stores `P̃ = exp(logits − rowmax)` per vocabulary tile, which
//! makes the backward exp-free: `∇Logits = P̃ · exp(max − Lse) / N` is a pure
//! row scaling. One `exp` per logit total.
//!
//! Problems with more than one row tile (`N > B_s`) and enough volume run
//! two parallel passes with a decomposition fixed by the tile sizes — row
//! tiles own disjoint `∇H`/loss rows, vocabulary tiles own disjoint `∇W`
//! rows — and the per-tile loss sum uses a fixed-shape tree reduction, so
//! results are bit-identical for any thread count and to the serial path.
//! (The parallel path recomputes each logits tile once in the `∇W` pass
//! and keeps one live row tile *per task*, trading the serial path's strict
//! `B_s × v` bound for speed.) With a single row tile the `∇H` pass has
//! nothing to split and the recompute would add a third to the serial
//! work, so that case stays serial.
//!
//! Gradient convention: mean-reduced cross-entropy, i.e.
//! `∇Logits = (softmax(Logits) − onehot(Y)) / N`.

use crate::flash::row_blocks;
use crate::online::OnlineState;
use burst_tensor::{
    axpy_rows_slice, matmul_into, matmul_nt_into, matmul_tn_into, simd, tree_sum, Mat, MatRef,
    Scratch,
};

/// Default sequence-tile rows.
pub const DEFAULT_BLOCK_S: usize = 32;
/// Default vocabulary-tile rows.
pub const DEFAULT_BLOCK_V: usize = 64;

/// Problem volume (`n · v · d`) below which the kernel stays serial.
const PAR_VOLUME: usize = 64 * 64 * 16;

/// Result of an LM-head + loss evaluation (forward **and** backward).
#[derive(Debug, Clone)]
pub struct LmLossOut {
    /// Mean cross-entropy over the `N` positions.
    pub loss: f32,
    /// Per-position losses.
    pub losses: Vec<f32>,
    /// Gradient w.r.t. the hidden states, `N × d`.
    pub grad_h: Mat,
    /// Gradient w.r.t. the head weights, `v × d`.
    pub grad_w: Mat,
    /// Per-position log-sum-exp over the vocabulary.
    pub lse: Vec<f32>,
    /// Peak number of live logit elements — the quantity Fig. 8 plots.
    pub peak_logits_elems: usize,
}

/// Unfused reference: materialises the full `N × v` logits matrix.
#[track_caller]
pub fn naive_lm_loss(h: &Mat, w: &Mat, targets: &[usize]) -> LmLossOut {
    let n = h.rows();
    let v = w.rows();
    assert_eq!(targets.len(), n, "naive_lm_loss: target length");
    assert!(
        targets.iter().all(|&t| t < v),
        "naive_lm_loss: target out of vocabulary"
    );
    let logits = h.matmul_nt(w);
    let lse = logits.lse_rows();
    let losses: Vec<f32> = (0..n).map(|r| lse[r] - logits.get(r, targets[r])).collect();
    let loss = losses.iter().sum::<f32>() / n as f32;
    // ∇Logits = (softmax − onehot) / N
    let mut grad_logits = logits.exp_sub_rowwise(&lse);
    let inv_n = 1.0 / n as f32;
    for r in 0..n {
        let row = grad_logits.row_mut(r);
        for x in row.iter_mut() {
            *x *= inv_n;
        }
        row[targets[r]] -= inv_n;
    }
    let grad_h = grad_logits.matmul(w);
    let grad_w = grad_logits.matmul_tn(h);
    LmLossOut {
        loss,
        losses,
        grad_h,
        grad_w,
        lse,
        peak_logits_elems: n * v,
    }
}

/// Borrowed problem description threaded through the tile loops.
#[derive(Clone, Copy)]
struct LmCtx<'a> {
    h: MatRef<'a>,
    w: MatRef<'a>,
    targets: &'a [usize],
    inv_n: f32,
    block_s: usize,
    block_v: usize,
}

/// Forward one row tile `[r0, r1)`: for each vocabulary tile, leave
/// `P̃ = exp(logits − rowmax)` in `scratch.vtiles[j]` and the row maxes in
/// `scratch.tile_max[j·rows..]`, folding the tile LSEs into `lse_rows`
/// online. Also writes the per-position losses.
fn lm_forward_rows(
    ctx: &LmCtx<'_>,
    r0: usize,
    r1: usize,
    losses_rows: &mut [f32],
    lse_rows: &mut [f32],
    scratch: &mut Scratch,
) {
    let rows = r1 - r0;
    let v = ctx.w.rows();
    let hb = ctx.h.rows_view(r0, r1);
    let n_vtiles = v.div_ceil(ctx.block_v);
    scratch.ensure_vtiles(n_vtiles);
    scratch.tile_max.clear();
    scratch.tile_max.resize(n_vtiles * rows, 0.0);
    lse_rows.fill(f32::NEG_INFINITY);
    let Scratch {
        vtiles, tile_max, ..
    } = scratch;
    for (j, pt) in vtiles.iter_mut().take(n_vtiles).enumerate() {
        let c0 = j * ctx.block_v;
        let c1 = (c0 + ctx.block_v).min(v);
        matmul_nt_into(hb, ctx.w.rows_view(c0, c1), pt);
        let maxes = &mut tile_max[j * rows..(j + 1) * rows];
        for r in 0..rows {
            let row = pt.row_mut(r);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if m == f32::NEG_INFINITY {
                row.fill(0.0);
                maxes[r] = f32::NEG_INFINITY;
                continue;
            }
            let sum = simd::exp_shift_sum_inplace(row, m);
            maxes[r] = m;
            lse_rows[r] = OnlineState::merge_lse(lse_rows[r], m + sum.ln());
        }
    }
    // ℒ_r = Lse_r − h_r · w_{y_r}
    for r in 0..rows {
        let y = ctx.targets[r0 + r];
        let dot: f32 = hb.row(r).iter().zip(ctx.w.row(y)).map(|(a, b)| a * b).sum();
        losses_rows[r] = lse_rows[r] - dot;
    }
}

/// Scale a retained `P̃` tile into `∇Logits` in place:
/// `∇Logits = P̃ · exp(max − Lse) / N − onehot(Y) / N`. No `exp` per element.
#[allow(clippy::too_many_arguments)]
fn scale_to_grad_logits(
    pt: &mut Mat,
    maxes: &[f32],
    lse_rows: &[f32],
    inv_n: f32,
    targets: &[usize],
    r0: usize,
    c0: usize,
    c1: usize,
) {
    for r in 0..pt.rows() {
        let sr = (maxes[r] - lse_rows[r]).exp() * inv_n;
        let row = pt.row_mut(r);
        simd::scale_slice(row, sr);
        let y = targets[r0 + r];
        if (c0..c1).contains(&y) {
            row[y - c0] -= inv_n;
        }
    }
}

/// Serial backward for one row tile, reusing the live `P̃` tiles: both
/// `∇H` rows and every `∇W` tile.
fn lm_backward_rows(
    ctx: &LmCtx<'_>,
    r0: usize,
    r1: usize,
    lse_rows: &[f32],
    grad_h_rows: &mut [f32],
    grad_w: &mut [f32],
    scratch: &mut Scratch,
) {
    let rows = r1 - r0;
    let v = ctx.w.rows();
    let hb = ctx.h.rows_view(r0, r1);
    let n_vtiles = v.div_ceil(ctx.block_v);
    let Scratch {
        vtiles,
        tile_max,
        gtmp,
        ..
    } = scratch;
    for (j, pt) in vtiles.iter_mut().take(n_vtiles).enumerate() {
        let c0 = j * ctx.block_v;
        let c1 = (c0 + ctx.block_v).min(v);
        let maxes = &tile_max[j * rows..(j + 1) * rows];
        scale_to_grad_logits(pt, maxes, lse_rows, ctx.inv_n, ctx.targets, r0, c0, c1);
        // ∇H_block += ∇Logits_tile · W_tile
        matmul_into(pt.view(), ctx.w.rows_view(c0, c1), gtmp);
        axpy_rows_slice(grad_h_rows, 0, 1.0, gtmp);
        // ∇W_tile += ∇Logitsᵀ · H_block
        matmul_tn_into(pt.view(), hb, gtmp);
        axpy_rows_slice(grad_w, c0, 1.0, gtmp);
    }
}

/// Pass H of the parallel schedule: forward + losses + `∇H` for one row
/// tile. Identical arithmetic to the serial path for everything it writes.
fn lm_pass_h_rows(
    ctx: &LmCtx<'_>,
    r0: usize,
    r1: usize,
    losses_rows: &mut [f32],
    lse_rows: &mut [f32],
    grad_h_rows: &mut [f32],
    scratch: &mut Scratch,
) {
    lm_forward_rows(ctx, r0, r1, losses_rows, lse_rows, scratch);
    let rows = r1 - r0;
    let v = ctx.w.rows();
    let n_vtiles = v.div_ceil(ctx.block_v);
    let Scratch {
        vtiles,
        tile_max,
        gtmp,
        ..
    } = scratch;
    for (j, pt) in vtiles.iter_mut().take(n_vtiles).enumerate() {
        let c0 = j * ctx.block_v;
        let c1 = (c0 + ctx.block_v).min(v);
        let maxes = &tile_max[j * rows..(j + 1) * rows];
        scale_to_grad_logits(pt, maxes, lse_rows, ctx.inv_n, ctx.targets, r0, c0, c1);
        matmul_into(pt.view(), ctx.w.rows_view(c0, c1), gtmp);
        axpy_rows_slice(grad_h_rows, 0, 1.0, gtmp);
    }
}

/// Pass W of the parallel schedule: `∇W` rows `[c0, c1)`, folding row tiles
/// in ascending order — the order the serial path uses — after recomputing
/// each `P̃` tile with the exact serial arithmetic.
fn lm_pass_w_tile(
    ctx: &LmCtx<'_>,
    c0: usize,
    c1: usize,
    lse_all: &[f32],
    gw_rows: &mut [f32],
    scratch: &mut Scratch,
) {
    let n = ctx.h.rows();
    let wb = ctx.w.rows_view(c0, c1);
    let Scratch {
        score,
        gtmp,
        tile_max,
        ..
    } = scratch;
    let mut r0 = 0;
    while r0 < n {
        let r1 = (r0 + ctx.block_s).min(n);
        let hb = ctx.h.rows_view(r0, r1);
        matmul_nt_into(hb, wb, score);
        tile_max.clear();
        for r in 0..score.rows() {
            let row = score.row_mut(r);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if m == f32::NEG_INFINITY {
                row.fill(0.0);
                tile_max.push(f32::NEG_INFINITY);
                continue;
            }
            simd::exp_shift_inplace(row, m);
            tile_max.push(m);
        }
        scale_to_grad_logits(
            score,
            tile_max,
            &lse_all[r0..r1],
            ctx.inv_n,
            ctx.targets,
            r0,
            c0,
            c1,
        );
        matmul_tn_into(score.view(), hb, gtmp);
        axpy_rows_slice(gw_rows, 0, 1.0, gtmp);
        r0 = r1;
    }
}

fn lm_par_h(
    ctx: &LmCtx<'_>,
    blocks: &[(usize, usize)],
    losses: &mut [f32],
    lse: &mut [f32],
    gh: &mut [f32],
) {
    let Some(&(base, _)) = blocks.first() else {
        return;
    };
    if blocks.len() == 1 {
        let (r0, r1) = blocks[0];
        lm_pass_h_rows(ctx, r0, r1, losses, lse, gh, &mut Scratch::new());
        return;
    }
    let (lo, hi) = blocks.split_at(blocks.len() / 2);
    let cut = hi[0].0 - base;
    let (lo_losses, hi_losses) = losses.split_at_mut(cut);
    let (lo_lse, hi_lse) = lse.split_at_mut(cut);
    let (lo_gh, hi_gh) = gh.split_at_mut(cut * ctx.h.cols());
    rayon::join(
        || lm_par_h(ctx, lo, lo_losses, lo_lse, lo_gh),
        || lm_par_h(ctx, hi, hi_losses, hi_lse, hi_gh),
    );
}

fn lm_par_w(ctx: &LmCtx<'_>, blocks: &[(usize, usize)], lse_all: &[f32], gw: &mut [f32]) {
    let Some(&(base, _)) = blocks.first() else {
        return;
    };
    if blocks.len() == 1 {
        let (c0, c1) = blocks[0];
        lm_pass_w_tile(ctx, c0, c1, lse_all, gw, &mut Scratch::new());
        return;
    }
    let (lo, hi) = blocks.split_at(blocks.len() / 2);
    let (lo_gw, hi_gw) = gw.split_at_mut((hi[0].0 - base) * ctx.w.cols());
    rayon::join(
        || lm_par_w(ctx, lo, lse_all, lo_gw),
        || lm_par_w(ctx, hi, lse_all, hi_gw),
    );
}

/// Algorithm 3 with default tile sizes.
pub fn fused_lm_loss(h: &Mat, w: &Mat, targets: &[usize]) -> LmLossOut {
    fused_lm_loss_with_blocks(h, w, targets, DEFAULT_BLOCK_S, DEFAULT_BLOCK_V)
}

/// Algorithm 3: tiled, fused forward + backward of LM head and loss.
#[track_caller]
pub fn fused_lm_loss_with_blocks(
    h: &Mat,
    w: &Mat,
    targets: &[usize],
    block_s: usize,
    block_v: usize,
) -> LmLossOut {
    assert!(block_s > 0 && block_v > 0, "fused_lm_loss: zero tile size");
    let n = h.rows();
    let v = w.rows();
    let d = h.cols();
    assert_eq!(w.cols(), d, "fused_lm_loss: H/W dim mismatch");
    assert_eq!(targets.len(), n, "fused_lm_loss: target length");
    assert!(
        targets.iter().all(|&t| t < v),
        "fused_lm_loss: target out of vocabulary"
    );

    let inv_n = 1.0 / n as f32;
    let mut losses = vec![0.0f32; n];
    let mut lse_all = vec![0.0f32; n];
    let mut grad_h = Mat::zeros(n, d);
    let mut grad_w = Mat::zeros(v, d);
    // Live logits on the serial path: one row tile × the whole vocabulary
    // (B_s × v), reused across row tiles — the fusion's memory win.
    let peak_logits_elems = block_s.min(n) * v;
    let ctx = LmCtx {
        h: h.view(),
        w: w.view(),
        targets,
        inv_n,
        block_s,
        block_v,
    };
    let sblocks = row_blocks(n, block_s);
    let vblocks = row_blocks(v, block_v);
    let parallel = sblocks.len() > 1 && n * v * d >= PAR_VOLUME && rayon::current_num_threads() > 1;
    if parallel {
        lm_par_h(
            &ctx,
            &sblocks,
            &mut losses,
            &mut lse_all,
            grad_h.as_mut_slice(),
        );
        lm_par_w(&ctx, &vblocks, &lse_all, grad_w.as_mut_slice());
    } else {
        let mut scratch = Scratch::new();
        for &(r0, r1) in &sblocks {
            lm_forward_rows(
                &ctx,
                r0,
                r1,
                &mut losses[r0..r1],
                &mut lse_all[r0..r1],
                &mut scratch,
            );
            lm_backward_rows(
                &ctx,
                r0,
                r1,
                &lse_all[r0..r1],
                &mut grad_h.as_mut_slice()[r0 * d..r1 * d],
                grad_w.as_mut_slice(),
                &mut scratch,
            );
        }
    }
    let loss = tree_sum(&losses) * inv_n;
    LmLossOut {
        loss,
        losses,
        grad_h,
        grad_w,
        lse: lse_all,
        peak_logits_elems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use burst_tensor::randn_mat;
    use burst_tensor::testutil::{assert_allclose, assert_allclose_vec, numerical_grad};
    use rand::prelude::*;

    fn targets(n: usize, v: usize, seed: u64) -> Vec<usize> {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..v)).collect()
    }

    #[test]
    fn fused_matches_naive_across_tilings() {
        let (n, d, v) = (13, 6, 23);
        let h = randn_mat(n, d, 0.8, 100);
        let w = randn_mat(v, d, 0.8, 101);
        let y = targets(n, v, 102);
        let reference = naive_lm_loss(&h, &w, &y);
        for (bs, bv) in [(1, 1), (4, 8), (5, 7), (32, 64), (13, 23)] {
            let fused = fused_lm_loss_with_blocks(&h, &w, &y, bs, bv);
            assert!(
                (fused.loss - reference.loss).abs() < 1e-4,
                "loss mismatch at tiles ({bs},{bv})"
            );
            assert_allclose(&fused.grad_h, &reference.grad_h, 1e-4, "∇H");
            assert_allclose(&fused.grad_w, &reference.grad_w, 1e-4, "∇W");
            assert_allclose_vec(&fused.lse, &reference.lse, 1e-4, "lse");
            assert_allclose_vec(&fused.losses, &reference.losses, 1e-4, "losses");
        }
    }

    #[test]
    fn loss_is_negative_log_probability_of_target() {
        let (n, d, v) = (4, 3, 7);
        let h = randn_mat(n, d, 1.0, 110);
        let w = randn_mat(v, d, 1.0, 111);
        let y = targets(n, v, 112);
        let out = fused_lm_loss(&h, &w, &y);
        let logits = h.matmul_nt(&w);
        let p = logits.softmax_rows();
        for (r, &yr) in y.iter().enumerate() {
            let expect = -p.get(r, yr).ln();
            assert!(
                (out.losses[r] - expect).abs() < 1e-4,
                "row {r}: {} vs {}",
                out.losses[r],
                expect
            );
        }
    }

    #[test]
    fn gradients_match_numerical() {
        let (n, d, v) = (5, 3, 6);
        let h = randn_mat(n, d, 0.7, 120);
        let w = randn_mat(v, d, 0.7, 121);
        let y = targets(n, v, 122);
        let out = fused_lm_loss(&h, &w, &y);
        let y2 = y.clone();
        let w2 = w.clone();
        let nh = numerical_grad(&h, 1e-2, move |m| fused_lm_loss(m, &w2, &y2).loss);
        assert_allclose(&out.grad_h, &nh, 2e-2, "∇H numerical");
        let y3 = y.clone();
        let h2 = h.clone();
        let nw = numerical_grad(&w, 1e-2, move |m| fused_lm_loss(&h2, m, &y3).loss);
        assert_allclose(&out.grad_w, &nw, 2e-2, "∇W numerical");
    }

    #[test]
    fn peak_logits_memory_is_bounded_by_row_tile() {
        let (n, d, v) = (64, 4, 50);
        let h = randn_mat(n, d, 1.0, 130);
        let w = randn_mat(v, d, 1.0, 131);
        let y = targets(n, v, 132);
        let naive = naive_lm_loss(&h, &w, &y);
        let fused = fused_lm_loss_with_blocks(&h, &w, &y, 8, 16);
        assert_eq!(naive.peak_logits_elems, n * v);
        assert_eq!(fused.peak_logits_elems, 8 * v);
        assert!(fused.peak_logits_elems < naive.peak_logits_elems / 4);
    }

    #[test]
    fn gradient_sums_to_zero_over_vocabulary() {
        // Column sums of ∇W are Σ_r ∇Logits[r, :]ᵀ h_r; the softmax−onehot
        // rows each sum to zero, so Σ_v ∇W[v] = Σ_r (Σ_c ∇Logits[r,c]) h_r = 0.
        let (n, d, v) = (6, 4, 9);
        let h = randn_mat(n, d, 1.0, 140);
        let w = randn_mat(v, d, 1.0, 141);
        let y = targets(n, v, 142);
        let out = fused_lm_loss(&h, &w, &y);
        for c in 0..d {
            let col_sum: f32 = (0..v).map(|r| out.grad_w.get(r, c)).sum();
            assert!(col_sum.abs() < 1e-4, "col {c} sums to {col_sum}");
        }
    }

    #[test]
    #[should_panic(expected = "target out of vocabulary")]
    fn rejects_out_of_vocab_target() {
        let h = randn_mat(2, 2, 1.0, 150);
        let w = randn_mat(3, 2, 1.0, 151);
        let _ = fused_lm_loss(&h, &w, &[0, 3]);
    }
}
