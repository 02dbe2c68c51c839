//! # burst-dattn
//!
//! Distributed attention — the paper's primary contribution — implemented on
//! the simulated cluster of [`burst_comm`]. Real tensors move between rank
//! threads, so every algorithm here is validated bit-for-bit against the
//! single-device kernels; virtual time and byte counters reproduce the
//! paper's communication claims.
//!
//! Algorithms:
//!
//! * [`ring`] — the flat global ring: forward pass (shared by RingAttention
//!   and BurstAttention, `2Nd` communication), RingAttention's backward
//!   (Algorithm 1, `4Nd`) and BurstAttention's backward (Algorithm 2,
//!   `3Nd + 2N`) with optional fine-grained gradient overlap;
//! * [`double_ring`] — topology-aware two-level rings (paper §3.1, Fig. 4):
//!   intra-node NVLink sub-rings nested inside an inter-node NIC ring, with
//!   the inter-node exchange posted early so it hides behind a whole
//!   intra-node sweep. Provides both the DoubleRingAttention baseline
//!   (no gradient overlap in backward) and BurstAttention's topology-aware
//!   variant;
//! * [`ulysses`] — DeepSpeed-Ulysses head parallelism (all-to-all);
//! * [`usp`] — LoongTrain's hybrid head+context parallelism;
//! * [`layout`] — sequence partitions: contiguous, zigzag (Eq. 11–12) and
//!   striped (Eq. 13–14) causal workload balance. Because the kernels take
//!   global token indices and skip fully-masked tiles, balance follows from
//!   the partition alone — including for block-wise sparse masks (Fig. 11);
//! * [`cost`] — the FLOP→seconds model that turns kernel work counters into
//!   virtual compute time on the simulated A800s.

pub mod cost;
pub mod double_ring;
pub mod elastic;
pub mod layout;
pub mod ring;
pub mod skip;
pub mod ulysses;
pub mod usp;

pub use cost::CostModel;
pub use double_ring::DoubleRingSpec;
pub use elastic::{try_elastic_attention_opts, ElasticAttnOut, ElasticOpts, ShardData};
pub use layout::Layout;
pub use ring::{
    escalate_attn, try_burst_backward, try_ring_backward, try_ring_forward, AttnFailure, AttnShard,
    BackwardInputs, DistAttnOut, OverlapMode, Phase, Ring,
};
pub use skip::{
    census_dr_alg1, census_dr_alg2, census_dr_forward, census_flat_alg1, census_flat_alg2,
    census_flat_forward, MaskedWire, RingGeom, SkipPlan,
};

use burst_comm::{CommError, Communicator, MemCategory};
use burst_kernels::AttnMask;
use burst_tensor::Mat;
use ulysses::UlyssesError;

/// Why a distributed attention call failed: either the requested geometry
/// is infeasible (a configuration error, reported before any communication
/// happens) or a communication fault struck mid-loop (carrying phase, round,
/// rank and peer via [`AttnFailure`]).
#[derive(Debug, Clone, PartialEq)]
pub enum DattnError {
    /// A communication failure inside an attention loop.
    Comm(AttnFailure),
    /// The requested head/group geometry cannot run.
    Infeasible(UlyssesError),
}

impl From<AttnFailure> for DattnError {
    fn from(e: AttnFailure) -> Self {
        DattnError::Comm(e)
    }
}

impl From<UlyssesError> for DattnError {
    fn from(e: UlyssesError) -> Self {
        DattnError::Infeasible(e)
    }
}

impl From<CommError> for DattnError {
    fn from(e: CommError) -> Self {
        DattnError::Comm(AttnFailure::from(e))
    }
}

impl std::fmt::Display for DattnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DattnError::Comm(e) => write!(f, "{e}"),
            DattnError::Infeasible(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DattnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DattnError::Comm(e) => Some(e),
            DattnError::Infeasible(e) => Some(e),
        }
    }
}

/// Which distributed attention implementation to run — mirrors the paper's
/// evaluated systems (Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// RingAttention on the flat global ring (Megatron-CP style).
    RingFlat,
    /// BurstAttention (Alg. 2 backward) on the flat global ring.
    BurstFlat,
    /// DoubleRingAttention (LoongTrain): topology-aware rings, Alg. 1
    /// backward, no gradient overlap.
    DoubleRing,
    /// Full BurstAttention: topology-aware rings + Alg. 2 backward with
    /// fine-grained gradient overlap.
    BurstTopo,
}

/// Where a ring-family schedule runs.
#[derive(Debug, Clone)]
enum Placement {
    /// The flat ring over the member set.
    Flat(Ring),
    /// The two-level ring of §3.1 over a node-balanced member set.
    Double(DoubleRingSpec),
}

/// A ring-family schedule over a member set: the placement an [`Algo`]
/// runs on, plus its forward and its Algorithm 1 or Algorithm 2 backward.
/// Every ring-family entry point — [`try_run_attention_opts`],
/// [`try_elastic_attention_opts`] and the model's ring executors — runs
/// through it, so this is the one place an `Algo` maps to schedule passes.
#[derive(Debug, Clone)]
pub struct RingSchedule {
    placement: Placement,
    /// BurstAttention's Algorithm 2 backward; RingAttention's Algorithm 1
    /// otherwise.
    alg2: bool,
    flat_fallback: bool,
}

impl RingSchedule {
    /// The schedule of `algo` over `members` (ascending; the calling rank
    /// must be one of them). Topology-aware algorithms take the two-level
    /// ring when the members preserve node balance
    /// ([`DoubleRingSpec::from_members`]) and fall back to the flat ring
    /// when they are ragged. Slot order == ascending member order == ring
    /// position, so both placements consume the identical partition.
    pub fn new(comm: &Communicator, algo: Algo, members: &[usize]) -> Self {
        let (topo_aware, alg2) = match algo {
            Algo::RingFlat => (false, false),
            Algo::BurstFlat => (false, true),
            Algo::DoubleRing => (true, false),
            Algo::BurstTopo => (true, true),
        };
        let spec = if topo_aware {
            DoubleRingSpec::from_members(comm.topology(), members)
        } else {
            None
        };
        RingSchedule {
            flat_fallback: topo_aware && spec.is_none(),
            placement: match spec {
                Some(spec) => Placement::Double(spec),
                None => Placement::Flat(Ring::subgroup(comm, members.to_vec())),
            },
            alg2,
        }
    }

    /// Whether a topology-aware algorithm runs on the flat ring because the
    /// members are ragged across nodes.
    pub fn flat_fallback(&self) -> bool {
        self.flat_fallback
    }

    /// The forward pass (shared by Algorithms 1 and 2).
    pub fn try_forward(
        &self,
        comm: &mut Communicator,
        shard: &AttnShard,
    ) -> Result<DistAttnOut, AttnFailure> {
        match &self.placement {
            Placement::Flat(ring) => try_ring_forward(comm, ring, shard),
            Placement::Double(spec) => double_ring::try_double_ring_forward(comm, shard, spec),
        }
    }

    /// The backward pass: `(∇Q, ∇K, ∇V)`. `overlap` applies to the flat
    /// ring; the two-level schedules have their overlap built in.
    pub fn try_backward(
        &self,
        comm: &mut Communicator,
        shard: &AttnShard,
        back: &BackwardInputs,
        overlap: OverlapMode,
    ) -> Result<(Mat, Mat, Mat), AttnFailure> {
        match (&self.placement, self.alg2) {
            (Placement::Flat(ring), false) => try_ring_backward(comm, ring, shard, back, overlap),
            (Placement::Flat(ring), true) => try_burst_backward(comm, ring, shard, back, overlap),
            (Placement::Double(spec), false) => {
                double_ring::try_double_ring_backward_alg1(comm, shard, back, spec)
            }
            (Placement::Double(spec), true) => {
                double_ring::try_double_ring_backward_alg2(comm, shard, back, spec)
            }
        }
    }
}

/// One forward+backward of the selected algorithm on this rank's shard of
/// the full world, returning `(O, Lse, ∇Q, ∇K, ∇V)`. A mid-loop
/// communication fault surfaces as an [`AttnFailure`] naming the rank, the
/// peer, the ring round and the phase.
///
/// With `skip` on, every schedule classifies each (q-shard × kv-shard) tile
/// via [`AttnMask::tile_state`] and elides fully-masked rounds — no
/// compute, no wire traffic, no virtual time — while staying bit-identical
/// to the unskipped run (a skipped tile contributes exactly nothing).
#[allow(clippy::too_many_arguments)]
pub fn try_run_attention_opts(
    algo: Algo,
    comm: &mut Communicator,
    q: &Mat,
    k: &Mat,
    v: &Mat,
    grad_o: &Mat,
    scale: f32,
    mask: &AttnMask,
    layout: Layout,
    seq_len: usize,
    cost: &CostModel,
    skip: bool,
) -> Result<(Mat, Vec<f32>, Mat, Mat, Mat), AttnFailure> {
    let shard = AttnShard {
        q,
        k,
        v,
        scale,
        mask,
        layout,
        seq_len,
        cost: *cost,
        max_token: None,
        skip,
    };
    // The rank's resident sequence shards — Q, K, V and ∇O, f32 on device —
    // live for the whole forward+backward call.
    let mem_inputs = comm.mem_alloc(
        "attn_inputs",
        MemCategory::RingShards,
        (q.nbytes() + k.nbytes() + v.nbytes() + grad_o.nbytes()) as u64,
    );
    let members: Vec<usize> = (0..comm.world_size()).collect();
    let schedule = RingSchedule::new(comm, algo, &members);
    let fwd = schedule.try_forward(comm, &shard)?;
    // The forward's (O, Lse) outputs stay live through the backward (the
    // schedule's own accumulator entry closed when it returned them).
    let mem_out = comm.mem_alloc(
        "attn_fwd_out",
        MemCategory::Activations,
        (fwd.o.nbytes() + 4 * fwd.lse.len()) as u64,
    );
    let back = BackwardInputs {
        o: &fwd.o,
        lse: &fwd.lse,
        grad_o,
    };
    let (dq, dk, dv) = schedule.try_backward(comm, &shard, &back, OverlapMode::Fine)?;
    comm.mem_free(mem_out);
    comm.mem_free(mem_inputs);
    Ok((fwd.o, fwd.lse, dq, dk, dv))
}
