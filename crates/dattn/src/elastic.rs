//! Elastic ring attention: when a rank dies mid-ring, the survivors agree
//! to evict it, re-partition the sequence over the shrunken ring —
//! recovering the dead rank's tokens from its checkpoint shard — and re-run
//! the step, producing output **bit-identical** to a run that started with
//! the smaller world.
//!
//! The full re-run (rather than patching only the affected rounds) is what
//! makes bit-identity possible: re-partitioning changes every survivor's
//! `Q` ownership, so the online-softmax merge order of a patched run could
//! never match a fresh small-world run. Because the kernels and the virtual
//! clock are deterministic, re-running on identically assembled shards is
//! exactly a fresh run.
//!
//! Failure detection, eviction agreement and the stale-message drain
//! barrier come from `burst_comm::membership`; this module adds the
//! attention-specific pieces: suspect extraction from [`AttnFailure`],
//! shard re-assembly from per-rank checkpoint data, and the re-run loop.

use crate::cost::CostModel;
use crate::layout::Layout;
use crate::ring::{AttnFailure, AttnShard, BackwardInputs, OverlapMode};
use crate::{Algo, RingSchedule};
use burst_comm::{
    agree_on_eviction, send_abort, CommError, Communicator, MemCategory, MemId, Membership,
    RetryPolicy, SpanKind,
};
use burst_kernels::AttnMask;
use burst_tensor::Mat;
use std::collections::HashMap;

/// A rank's original `(Q, K, V, ∇O)` shard, as a checkpoint loader returns
/// it (rows in that rank's original layout order).
pub type ShardData = (Mat, Mat, Mat, Mat);

/// Result of an elastic attention step on one survivor.
#[derive(Debug, Clone)]
pub struct ElasticAttnOut {
    pub o: Mat,
    pub lse: Vec<f32>,
    pub dq: Mat,
    pub dk: Mat,
    pub dv: Mat,
    /// Global token indices this rank owns after any re-partitioning.
    pub idx: Vec<usize>,
    /// Every rank evicted over the course of the call.
    pub evicted: Vec<usize>,
    /// Final membership epoch.
    pub epoch: u64,
    /// Checkpoint shards loaded to rebuild this rank's partition (IO
    /// accounting: restore-after-shrink must only load what it needs).
    pub shards_loaded: usize,
    /// Ring attempts run (1 = no failure).
    pub attempts: usize,
    /// Attempts where a topology-aware double-ring was requested but the
    /// alive set was ragged (no valid inner/outer split), so the flat ring
    /// ran instead.
    pub flat_fallbacks: usize,
}

/// Options for [`try_elastic_attention_opts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ElasticOpts {
    /// Run the topology-aware double-ring schedules (forward + Algorithm 2
    /// backward, [`Algo::BurstTopo`]) whenever the alive set preserves node
    /// locality; ragged alive sets fall back to the flat ring for that
    /// attempt (counted in [`ElasticAttnOut::flat_fallbacks`]). Off runs
    /// [`Algo::BurstFlat`].
    pub double_ring: bool,
    /// This rank's local `Q/K/V/∇O` buffers are stale (a freshly re-admitted
    /// joiner warm-starting from checkpoint): force a partition rebuild even
    /// at full world, sourcing *every* row — including this rank's own —
    /// from `load_shard`.
    pub warm_start: bool,
    /// Mask-aware round skipping on every schedule the elastic loop runs
    /// (flat ring, burst backward, double-ring): fully-masked rounds send
    /// nothing, compute nothing and advance no virtual time, bit-identical
    /// to the dense run. Off by default.
    pub skip_masked_rounds: bool,
}

/// Ranks an attention failure implicates, for the eviction proposal.
fn suspects_of(e: &AttnFailure) -> Vec<usize> {
    match &e.source {
        CommError::PeerLost { src, .. } | CommError::Timeout { src, .. } => vec![*src],
        CommError::Aborted { suspects, .. } => suspects.clone(),
        _ => Vec::new(),
    }
}

/// Assemble this rank's `(Q, K, V, ∇O)` partition for the current alive
/// set: rows it already owns are copied locally, rows owned by other
/// *original* ranks come from `load_shard` (cached across attempts,
/// counted in `loads`). Returns the rebuilt shard and its global indices.
#[allow(clippy::too_many_arguments)]
fn rebuild_partition(
    layout: Layout,
    seq_len: usize,
    orig_world: usize,
    me: usize,
    ring_size: usize,
    pos: usize,
    local: &ShardData,
    use_local: bool,
    cache: &mut HashMap<usize, ShardData>,
    loads: &mut usize,
    load_shard: &mut dyn FnMut(usize) -> ShardData,
) -> (ShardData, Vec<usize>) {
    let new_idx = layout.indices(seq_len, ring_size, pos);
    // token → (original owner, row within that owner's shard).
    let mut home = vec![(usize::MAX, usize::MAX); seq_len];
    for r in 0..orig_world {
        for (row, t) in layout
            .indices(seq_len, orig_world, r)
            .into_iter()
            .enumerate()
        {
            home[t] = (r, row);
        }
    }
    let cols = [
        local.0.cols(),
        local.1.cols(),
        local.2.cols(),
        local.3.cols(),
    ];
    let mut out = (
        Mat::zeros(new_idx.len(), cols[0]),
        Mat::zeros(new_idx.len(), cols[1]),
        Mat::zeros(new_idx.len(), cols[2]),
        Mat::zeros(new_idx.len(), cols[3]),
    );
    for (row_out, &t) in new_idx.iter().enumerate() {
        let (owner, row_in) = home[t];
        let src: &ShardData = if owner == me && use_local {
            local
        } else {
            cache.entry(owner).or_insert_with(|| {
                *loads += 1;
                load_shard(owner)
            })
        };
        let copy = |dst: &mut Mat, s: &Mat, c: usize| {
            dst.as_mut_slice()[row_out * c..(row_out + 1) * c]
                .copy_from_slice(&s.as_slice()[row_in * c..(row_in + 1) * c]);
        };
        copy(&mut out.0, &src.0, cols[0]);
        copy(&mut out.1, &src.1, cols[1]);
        copy(&mut out.2, &src.2, cols[2]);
        copy(&mut out.3, &src.3, cols[3]);
    }
    (out, new_idx)
}

/// One elastic forward+backward (BurstAttention Algorithm 2, fine overlap)
/// on this rank's shard.
///
/// `q/k/v/grad_o` are the rank's shard under `layout` over the *original*
/// world; `load_shard(r)` returns original rank `r`'s shard from its
/// checkpoint (only called for rows this rank does not hold locally, and
/// at most once per `r`). On a mid-ring failure the survivors evict the
/// dead rank(s), re-partition over the shrunken ring and re-run; the
/// output is bit-identical to a run that started with the smaller world.
/// [`ElasticOpts`] selects topology-aware double-ring scheduling, a
/// warm-starting joiner whose shard must be reassembled entirely from
/// checkpoint data, and mask-aware round skipping.
///
/// A rank observing its own scheduled crash returns the failure without
/// joining the agreement — the dead stay silent.
#[allow(clippy::too_many_arguments)]
pub fn try_elastic_attention_opts(
    comm: &mut Communicator,
    m: &mut Membership,
    q: &Mat,
    k: &Mat,
    v: &Mat,
    grad_o: &Mat,
    scale: f32,
    mask: &AttnMask,
    layout: Layout,
    seq_len: usize,
    cost: &CostModel,
    load_shard: &mut dyn FnMut(usize) -> ShardData,
    policy: &RetryPolicy,
    opts: ElasticOpts,
) -> Result<ElasticAttnOut, AttnFailure> {
    let me = comm.rank();
    let orig_world = comm.world_size();
    assert!(
        m.is_alive(me),
        "rank {me}: elastic attention on an evicted rank"
    );
    let local: ShardData = (q.clone(), k.clone(), v.clone(), grad_o.clone());
    // Accountant entries that live across attempts: the cloned local shard
    // (checkpoint-shaped recovery data) plus every peer shard loaded into
    // the cache. Closed on every surviving exit path; a rank that dies
    // mid-call leaves them open, and the ledger's force-close at crash time
    // keeps its books balanced.
    let mut mem_open: Vec<Option<MemId>> = vec![comm.mem_alloc(
        "elastic_local_stash",
        MemCategory::CkptStash,
        (local.0.nbytes() + local.1.nbytes() + local.2.nbytes() + local.3.nbytes()) as u64,
    )];
    let my_orig_idx = layout.indices(seq_len, orig_world, me);
    let mut cache: HashMap<usize, ShardData> = HashMap::new();
    let mut loads = 0usize;
    let mut evicted_all: Vec<usize> = Vec::new();
    let mut attempts = 0usize;
    let mut flat_fallbacks = 0usize;
    let mut last_err: Option<AttnFailure> = None;
    while attempts <= orig_world {
        attempts += 1;
        let members = m.alive_ranks();
        let pos = m.pos_of(me).expect("alive rank has a ring position");
        // First attempt on the full world runs straight off the caller's
        // borrowed shard; any shrunken ring — or a warm-starting joiner
        // whose local buffers are stale — re-assembles its partition.
        let cached_before: Vec<usize> = cache.keys().copied().collect();
        let (shard_data, idx) = if members.len() == orig_world && !opts.warm_start {
            (None, my_orig_idx.clone())
        } else {
            let (data, idx) = rebuild_partition(
                layout,
                seq_len,
                orig_world,
                me,
                members.len(),
                pos,
                &local,
                !opts.warm_start,
                &mut cache,
                &mut loads,
                load_shard,
            );
            (Some(data), idx)
        };
        // Bill this attempt's cache growth (shards newly loaded from
        // checkpoint; they stay resident for later attempts) and the
        // rebuilt partition itself (dropped when the attempt ends).
        let fresh_bytes: usize = cache
            .iter()
            .filter(|(owner, _)| !cached_before.contains(owner))
            .map(|(_, s)| s.0.nbytes() + s.1.nbytes() + s.2.nbytes() + s.3.nbytes())
            .sum();
        if fresh_bytes > 0 {
            mem_open.push(comm.mem_alloc(
                "elastic_shard_cache",
                MemCategory::CkptStash,
                fresh_bytes as u64,
            ));
        }
        let mem_rebuilt = shard_data.as_ref().map(|s| {
            comm.mem_alloc(
                "elastic_rebuilt_shard",
                MemCategory::RingShards,
                (s.0.nbytes() + s.1.nbytes() + s.2.nbytes() + s.3.nbytes()) as u64,
            )
        });
        let (sq, sk, sv, sgo): (&Mat, &Mat, &Mat, &Mat) = match &shard_data {
            Some((a, b, c, d)) => (a, b, c, d),
            None => (q, k, v, grad_o),
        };
        let shard = AttnShard {
            q: sq,
            k: sk,
            v: sv,
            scale,
            mask,
            layout,
            seq_len,
            cost: *cost,
            max_token: None,
            skip: opts.skip_masked_rounds,
        };
        // Attempts past the first re-run the step on the shrunken ring:
        // mark them as replay time so the trace separates productive work
        // from recovery.
        let span_depth = comm.span_depth();
        if attempts > 1 {
            comm.span_begin(SpanKind::Replay, "replay_attempt");
        }
        let algo = if opts.double_ring {
            Algo::BurstTopo
        } else {
            Algo::BurstFlat
        };
        let schedule = RingSchedule::new(comm, algo, &members);
        if schedule.flat_fallback() {
            flat_fallbacks += 1;
        }
        let result = schedule.try_forward(comm, &shard).and_then(|fwd| {
            let back = BackwardInputs {
                o: &fwd.o,
                lse: &fwd.lse,
                grad_o: sgo,
            };
            schedule
                .try_backward(comm, &shard, &back, OverlapMode::Fine)
                .map(|(dq, dk, dv)| (fwd, dq, dk, dv))
        });
        // Settle the span stack: closes the replay span and any round span
        // a failure left open via `?`.
        comm.span_unwind(span_depth);
        comm.mem_free(mem_rebuilt.flatten());
        let my_suspects = match &result {
            Ok(_) => Vec::new(),
            Err(e) => {
                if matches!(e.source, CommError::Crashed { rank, .. } if rank == me) {
                    return Err(result.unwrap_err());
                }
                let s = suspects_of(e);
                send_abort(comm, m, &s);
                s
            }
        };
        // Commit barrier: every survivor agrees before anyone moves on —
        // this also catches a rank that died so late that no data
        // operation failed (the leader's gather sees its channels drop).
        let outcome =
            agree_on_eviction(comm, m, &my_suspects, policy).map_err(AttnFailure::from)?;
        if !m.is_alive(me) {
            // The agreement parked this rank — it sat on the minority side
            // of a split and lost the quorum. Surface it as a self-eviction
            // so the caller parks instead of retrying on a ring it left.
            for id in mem_open.drain(..) {
                comm.mem_free(id);
            }
            return Err(AttnFailure::from(CommError::Evicted {
                rank: me,
                epoch: outcome.epoch,
                evicted: outcome.evicted,
                at: comm.time(),
            }));
        }
        if outcome.evicted.is_empty() {
            for id in mem_open.drain(..) {
                comm.mem_free(id);
            }
            match result {
                Ok((fwd, dq, dk, dv)) => {
                    return Ok(ElasticAttnOut {
                        o: fwd.o,
                        lse: fwd.lse,
                        dq,
                        dk,
                        dv,
                        idx,
                        evicted: evicted_all,
                        epoch: outcome.epoch,
                        shards_loaded: loads,
                        attempts,
                        flat_fallbacks,
                    });
                }
                // Nothing evicted yet the ring failed: a non-membership
                // fault (corruption, shape) — not recoverable by shrinking.
                Err(e) => return Err(e),
            }
        }
        evicted_all.extend(outcome.evicted);
        last_err = result.err();
    }
    for id in mem_open.drain(..) {
        comm.mem_free(id);
    }
    Err(last_err.unwrap_or_else(|| {
        AttnFailure::from(CommError::Panicked {
            rank: me,
            detail: "elastic attention did not converge within the eviction budget".to_string(),
        })
    }))
}
