//! FSDP-style parameter handling (the paper trains with BMTrain's fully
//! sharded data parallelism).
//!
//! Compute replicas hold full parameters; sharding shows up as *real*
//! collective traffic on the simulated cluster: weights are all-gathered
//! from row shards at step start, gradients are all-reduced (ring
//! reduce-scatter + all-gather, numerically the sum every rank needs before
//! the identical Adam update). The virtual clock therefore carries the
//! FSDP communication the paper identifies as the reason end-to-end
//! overlap is imperfect (§4.3).
//!
//! Every per-parameter collective is wrapped in a [`SpanKind::Optim`] span
//! (`fsdp_gather` / `fsdp_sync`), so optimizer-path communication — and
//! under the reliable transport, its retransmissions — is attributable
//! per operation in the trace, not just in aggregate.

use crate::param::Param;
use burst_comm::obs::MemCategory;
use burst_comm::{
    shrink_all_gather_stacked, shrink_all_reduce_mat, CommError, Communicator, Membership,
    RetryPolicy, SpanKind, WireDtype,
};
use burst_tensor::Mat;

/// Near-equal row range of `rank` for an `rows`-row parameter.
fn shard_range(rows: usize, g: usize, rank: usize) -> (usize, usize) {
    (rows * rank / g, rows * (rank + 1) / g)
}

/// Install a gathered parameter after checking it against the replica as
/// the wire delivers it (bf16-rounded under a bf16 wire), which catches any
/// divergence between ranks.
fn install_gathered(comm: &Communicator, p: &mut Param, gathered: Mat) {
    debug_assert_eq!(gathered.shape(), p.w.shape());
    let agrees = match comm.topology().wire_dtype {
        WireDtype::F32 => burst_tensor::testutil::allclose(&gathered, &p.w, 1e-6, 1e-6),
        WireDtype::Bf16 => {
            let sent = comm.wire_round(p.w.clone());
            burst_tensor::testutil::allclose(&gathered, &sent, 1e-6, 1e-6)
        }
    };
    assert!(
        agrees,
        "FSDP: rank replicas diverged for a parameter of shape {:?}",
        p.w.shape()
    );
    p.w = gathered;
}

/// All-gather every parameter's row shard (charges the weight-gather
/// traffic; the gathered values must reproduce the replica, which is
/// asserted — catching any divergence between ranks). Under a bf16 wire
/// the gathered, bf16-rounded weights become the replica, identically on
/// every rank.
pub fn gather_weights(comm: &mut Communicator, params: &mut [&mut Param]) {
    let g = comm.world_size();
    if g == 1 {
        return;
    }
    for p in params.iter_mut() {
        let (r0, r1) = shard_range(p.w.rows(), g, comm.rank());
        let shard = p.w.slice_rows(r0, r1);
        // The gathered replica is a transient wire-width buffer, live from
        // the collective until the shards are stitched back together.
        let buf = comm.mem_alloc(
            "fsdp_gather_buf",
            MemCategory::CommBuffers,
            comm.mem_wire_bytes(p.w.rows() * p.w.cols()),
        );
        comm.span_begin(SpanKind::Optim, "fsdp_gather");
        let gathered = match comm.try_all_gather_stacked(shard) {
            Ok(m) => m,
            Err(e) => comm.escalate(e),
        };
        comm.span_end();
        comm.mem_free(buf);
        install_gathered(comm, p, gathered);
    }
}

/// Membership-aware [`gather_weights`]: shards over the **alive set** (ring
/// positions replace rank ids), so a shrunken or regrown world gathers
/// exactly like a fresh world of the same size — the bit-identity the
/// elastic engine's differential gates rely on. Fallible: a rank dying
/// mid-gather surfaces as a typed error for the in-step recovery loop.
pub fn try_gather_weights_m(
    comm: &mut Communicator,
    m: &mut Membership,
    params: &mut [&mut Param],
    policy: &RetryPolicy,
) -> Result<(), CommError> {
    let g = m.num_alive();
    if g == 1 {
        return Ok(());
    }
    let pos = m
        .pos_of(comm.rank())
        .expect("FSDP gather on an evicted rank");
    for p in params.iter_mut() {
        let (r0, r1) = shard_range(p.w.rows(), g, pos);
        let shard = p.w.slice_rows(r0, r1);
        let buf = comm.mem_alloc(
            "fsdp_gather_buf",
            MemCategory::CommBuffers,
            comm.mem_wire_bytes(p.w.rows() * p.w.cols()),
        );
        comm.span_begin(SpanKind::Optim, "fsdp_gather");
        let gathered = shrink_all_gather_stacked(comm, m, shard, policy);
        comm.span_end();
        // A member dying mid-gather leaves `buf` open; the ledger
        // force-closes it with a warning — the crash's true footprint.
        let gathered = gathered?;
        comm.mem_free(buf);
        install_gathered(comm, p, gathered);
    }
    Ok(())
}

/// Membership-aware [`sync_grads`]: all-reduce over the alive set with the
/// same accumulation order as a fresh world of that size (see
/// [`burst_comm::shrink_all_reduce_mat`]).
pub fn try_sync_grads_m(
    comm: &mut Communicator,
    m: &mut Membership,
    params: &mut [&mut Param],
    policy: &RetryPolicy,
) -> Result<(), CommError> {
    if m.num_alive() == 1 {
        return Ok(());
    }
    for p in params.iter_mut() {
        let buf = comm.mem_alloc(
            "fsdp_sync_buf",
            MemCategory::CommBuffers,
            comm.mem_wire_bytes(p.grad.rows() * p.grad.cols()),
        );
        comm.span_begin(SpanKind::Optim, "fsdp_sync");
        let reduced = shrink_all_reduce_mat(comm, m, &p.grad, policy);
        comm.span_end();
        p.grad = reduced?;
        comm.mem_free(buf);
    }
    Ok(())
}

/// All-reduce (sum) every parameter's gradient across ranks.
pub fn sync_grads(comm: &mut Communicator, params: &mut [&mut Param]) {
    let g = comm.world_size();
    if g == 1 {
        return;
    }
    for p in params.iter_mut() {
        let buf = comm.mem_alloc(
            "fsdp_sync_buf",
            MemCategory::CommBuffers,
            comm.mem_wire_bytes(p.grad.rows() * p.grad.cols()),
        );
        comm.span_begin(SpanKind::Optim, "fsdp_sync");
        p.grad = comm.all_reduce_mat(&p.grad);
        comm.span_end();
        comm.mem_free(buf);
    }
}

/// Modeled per-rank parameter + optimizer memory under FSDP sharding:
/// each rank persists `1/G` of weights, gradients and the two Adam moments
/// (all f32 here; the perf crate models mixed precision at paper scale).
pub fn sharded_state_bytes(total_params: usize, g: usize) -> usize {
    total_params * 4 * 4 / g
}

/// Device-resident state with optional optimizer offloading (ZeRO-Offload):
/// the Adam moments (2 × 4 B/param) move to host memory, leaving weights +
/// gradients on device.
pub fn device_state_bytes(total_params: usize, g: usize, offload_optimizer: bool) -> usize {
    let per_param = if offload_optimizer { 2 * 4 } else { 4 * 4 };
    total_params * per_param / g
}

/// PCIe round-trip seconds for one offloaded optimizer step: gradients
/// stream to the host and updated parameters stream back (ZeRO-Offload's
/// data path), at an effective 12 GB/s per direction.
pub fn offload_step_seconds(total_params: usize, g: usize) -> f64 {
    const PCIE_BW: f64 = 12e9;
    let down = (total_params / g) as f64 * 4.0; // fp32 gradients out
    let up = (total_params / g) as f64 * 4.0; // fp32 master weights back
    down / PCIE_BW + up / PCIE_BW
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_rows() {
        for rows in [7usize, 8, 33] {
            for g in [1usize, 3, 4] {
                let mut covered = 0;
                for r in 0..g {
                    let (a, b) = shard_range(rows, g, r);
                    assert_eq!(a, covered);
                    covered = b;
                }
                assert_eq!(covered, rows);
            }
        }
    }

    #[test]
    fn sharded_state_shrinks_with_world() {
        assert_eq!(sharded_state_bytes(1000, 1), 16_000);
        assert_eq!(sharded_state_bytes(1000, 4), 4_000);
    }

    #[test]
    fn offload_halves_device_state() {
        assert_eq!(device_state_bytes(1000, 1, false), 16_000);
        assert_eq!(device_state_bytes(1000, 1, true), 8_000);
        assert_eq!(device_state_bytes(1000, 4, true), 2_000);
    }

    #[test]
    fn offload_time_scales_with_params_and_shards() {
        let t1 = offload_step_seconds(12_000_000, 1);
        let t4 = offload_step_seconds(12_000_000, 4);
        assert!(t1 > 0.0);
        assert!((t1 / t4 - 4.0).abs() < 1e-9);
    }
}
