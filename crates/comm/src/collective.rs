//! Ring collective cores over shared payloads.
//!
//! The fixed-world collectives on [`Communicator`] and their
//! membership-aware twins in [`crate::membership`] run the same loops,
//! parameterised by a [`Seat`]: the ring's member list, this rank's
//! position in it and the receive retry policy.
//!
//! Blocks travel as shared, immutable `Arc<Mat>`. Forwarding a block costs
//! a pointer under [`crate::WireDtype::F32`] (and a lossless re-encode
//! under bf16). Data is copied only where it changes: the reduce-scatter's
//! accumulate, a bf16 decode, and the final stack. Injected corruption goes
//! through `Arc::make_mut`, so it never reaches a block someone else holds.
//! None of this changes what the census bills: the wire still carries, and
//! is charged for, every modelled byte.

use crate::comm::Communicator;
use crate::fault::CommError;
use crate::membership::{backoff_retry, RetryPolicy};
use burst_tensor::{Mat, MatRef};
use std::sync::Arc;

/// One rank's seat in a ring collective.
pub(crate) struct Seat<'a> {
    /// Ring members in ring order (ascending rank order).
    members: Vec<usize>,
    /// This rank's position in `members`.
    pos: usize,
    /// Receive-timeout retries (`None` = the first timeout fails).
    retry: Option<&'a RetryPolicy>,
}

impl<'a> Seat<'a> {
    pub(crate) fn new(members: Vec<usize>, pos: usize, retry: Option<&'a RetryPolicy>) -> Self {
        debug_assert!(pos < members.len(), "seat position outside the ring");
        Seat {
            members,
            pos,
            retry,
        }
    }

    /// The fixed world's ring: every rank in rank order, no retries.
    pub(crate) fn world(comm: &Communicator) -> Self {
        Seat::new((0..comm.world_size()).collect(), comm.rank(), None)
    }

    fn g(&self) -> usize {
        self.members.len()
    }

    fn next(&self) -> usize {
        self.members[(self.pos + 1) % self.g()]
    }

    fn prev(&self) -> usize {
        self.members[(self.pos + self.g() - 1) % self.g()]
    }
}

/// `m` split into `g` equal row blocks, borrowed (the caller checks that
/// `g` divides the row count).
pub(crate) fn row_views(m: &Mat, g: usize) -> Vec<MatRef<'_>> {
    let step = m.rows() / g;
    (0..g)
        .map(|i| m.rows_view(i * step, (i + 1) * step))
        .collect()
}

/// Receive a block from `src`, retrying timeouts on `retry`'s schedule.
fn recv_block(
    comm: &mut Communicator,
    src: usize,
    retry: Option<&RetryPolicy>,
) -> Result<Arc<Mat>, CommError> {
    let mut attempt = 0u32;
    loop {
        match (comm.try_recv_shared(src), retry) {
            (Err(CommError::Timeout { .. }), Some(p)) if attempt + 1 < p.max_attempts.max(1) => {
                backoff_retry(comm, p, attempt);
                attempt += 1;
            }
            (other, _) => return other,
        }
    }
}

fn shape_mismatch(
    rank: usize,
    src: usize,
    expected: &'static str,
    got: &Mat,
    want: (usize, usize),
) -> CommError {
    CommError::ShapeMismatch {
        rank,
        src,
        expected,
        got: format!(
            "Mat {}x{} (expected {}x{})",
            got.rows(),
            got.cols(),
            want.0,
            want.1
        ),
    }
}

/// Ring all-gather: every member's block, indexed by ring position.
///
/// The standard `g − 1`-step ring: each step forwards the block received in
/// the step before. With more than one member, the own block is first
/// rounded through the wire encoding, so every member holds the same bits
/// for every block.
pub(crate) fn all_gather(
    comm: &mut Communicator,
    seat: &Seat<'_>,
    mine: Mat,
) -> Result<Vec<Arc<Mat>>, CommError> {
    let g = seat.g();
    let mine = if g > 1 { comm.wire_round(mine) } else { mine };
    let mut parts: Vec<Option<Arc<Mat>>> = vec![None; g];
    parts[seat.pos] = Some(Arc::new(mine));
    let mut cursor = seat.pos; // index of the block we forward next
    for _ in 1..g {
        let outgoing = parts[cursor].as_ref().expect("ring all-gather invariant");
        let payload = comm.shared_payload(outgoing);
        comm.try_send(seat.next(), payload)?;
        cursor = (cursor + g - 1) % g;
        parts[cursor] = Some(recv_block(comm, seat.prev(), seat.retry)?);
    }
    Ok(parts
        .into_iter()
        .map(|p| p.expect("ring all-gather missed a block"))
        .collect())
}

/// Ring reduce-scatter (sum) over borrowed parts: `parts[p]` is this rank's
/// contribution to ring position `p`; returns the reduced block this rank
/// owns.
///
/// Block `b` starts at position `b − 1` and flows toward decreasing
/// positions. Each hop computes `own + incoming` — written into the
/// incoming block, which the sender gave away, so under an f32 wire no hop
/// allocates — until the block lands on position `b`.
#[allow(
    clippy::assign_op_pattern,
    reason = "`own + incoming` keeps add_assign's operand order, NaN payloads included"
)]
pub(crate) fn reduce_scatter(
    comm: &mut Communicator,
    seat: &Seat<'_>,
    parts: &[MatRef<'_>],
) -> Result<Mat, CommError> {
    let g = seat.g();
    debug_assert_eq!(parts.len(), g, "reduce-scatter: one part per member");
    let mut cursor = (seat.pos + 1) % g; // block we send first
    let mut block = parts[cursor].to_mat();
    for _ in 1..g {
        let payload = comm.mat_payload(block);
        comm.try_send(seat.prev(), payload)?;
        let incoming = recv_block(comm, seat.next(), seat.retry)?;
        cursor = (cursor + 1) % g;
        let own = parts[cursor];
        if incoming.shape() != (own.rows(), own.cols()) {
            return Err(shape_mismatch(
                comm.rank(),
                seat.next(),
                "reduce-scatter block of matching shape",
                &incoming,
                (own.rows(), own.cols()),
            ));
        }
        block = Arc::unwrap_or_clone(incoming);
        for (x, o) in block.as_mut_slice().iter_mut().zip(own.as_slice()) {
            *x = o + *x;
        }
    }
    debug_assert_eq!(cursor, seat.pos);
    Ok(block)
}

/// Leader all-reduce (sum) for row counts the ring cannot split: members
/// send to the leader (ring position 0), which sums in ascending member
/// order, rounds the sum through the wire encoding and broadcasts it as one
/// shared block.
pub(crate) fn star_all_reduce(
    comm: &mut Communicator,
    seat: &Seat<'_>,
    m: &Mat,
) -> Result<Mat, CommError> {
    let leader = seat.members[0];
    if seat.pos != 0 {
        comm.try_send_mat(leader, m)?;
        return recv_block(comm, leader, seat.retry).map(Arc::unwrap_or_clone);
    }
    let mut acc = m.clone();
    for &src in &seat.members[1..] {
        let part = recv_block(comm, src, seat.retry)?;
        if part.shape() != acc.shape() {
            return Err(shape_mismatch(
                comm.rank(),
                src,
                "all-reduce contribution of matching shape",
                &part,
                acc.shape(),
            ));
        }
        acc.add_assign(&part);
    }
    let acc = Arc::new(comm.wire_round(acc));
    for &dst in &seat.members[1..] {
        let payload = comm.shared_payload(&acc);
        comm.try_send(dst, payload)?;
    }
    Ok(Arc::unwrap_or_clone(acc))
}
