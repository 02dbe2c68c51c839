//! The FSDP training path end to end: two engine steps on an 8-rank
//! `a800(2, 4)` cluster with FSDP on, over both wire dtypes. Each rank
//! holds 32 sequence rows, one LM-head row tile, and the vocabulary spans
//! several vocabulary tiles.
//!
//! Every rank must end with bit-identical parameters and optimizer state,
//! and the loss bits and final state are pinned. The f32 values were
//! recorded before the collectives forwarded shared payloads and before
//! the one-row-tile LM head stopped taking its parallel path; both changes
//! are bit-transparent. Before that change the bf16 run aborted in
//! `gather_weights` (the all-reduce kept each rank's own block unrounded,
//! so replicas diverged); its values were recorded once every rank
//! received the same wire-rounded blocks.

use burstengine::comm::WireDtype;
use burstengine::model::engine::{run_span, Backend, EngineConfig};
use burstengine::prelude::*;

fn fsdp_engine() -> EngineConfig {
    EngineConfig {
        model: ModelConfig {
            layers: 2,
            d_model: 16,
            heads: 4,
            d_ff: 32,
            vocab: 256,
            seq_len: 256,
            rope: true,
        },
        backend: Backend::Ring(Algo::BurstTopo),
        layout: Layout::Zigzag,
        strategy: Strategy::SeqSelective { rho: 0.5 },
        mask: AttnMask::Causal,
        cost: CostModel::a800(),
        fsdp: true,
        offload_optimizer: false,
        grad_accum: 1,
        emulate_bf16: false,
        bf16_activations: false,
        overlap: burst_dattn::OverlapMode::Fine,
        skip_masked_rounds: false,
        adam: AdamCfg::default(),
        seed: 7,
    }
}

/// FNV-1a over the bits of a flat training state.
fn state_hash(state: &[f32]) -> u64 {
    state.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
        (h ^ x.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run two steps on `dtype`; assert every rank agrees bit for bit and
/// return the shared `(loss bits, state hash)`.
fn two_steps(dtype: WireDtype) -> (Vec<u32>, u64) {
    let cfg = fsdp_engine();
    let world = World::new(Topology::a800(2, 4).with_wire_dtype(dtype));
    let outs = world.run(|comm| {
        let mut model = Model::new(cfg.model, cfg.seed);
        let out = run_span(comm, &cfg, &mut model, 0, 2, |_, _, _, _| {})
            .unwrap_or_else(|e| panic!("rank {}: {e}", comm.rank()));
        let losses: Vec<u32> = out.losses.iter().map(|l| l.to_bits()).collect();
        (losses, model.flat_state())
    });
    let (losses, state) = &outs[0].result;
    for (rank, o) in outs.iter().enumerate() {
        assert_eq!(&o.result.0, losses, "{dtype:?}: rank {rank} loss bits");
        let same = o.result.1.len() == state.len()
            && o.result
                .1
                .iter()
                .zip(state)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "{dtype:?}: rank {rank} parameters differ from rank 0");
    }
    (losses.clone(), state_hash(state))
}

// `state_hash` of the final state on each wire dtype.
const F32_STATE: u64 = 13_802_058_822_089_928_405;
const BF16_STATE: u64 = 398_828_671_329_572_041;

#[test]
fn fsdp_f32_wire_matches_the_pinned_run() {
    let (losses, hash) = two_steps(WireDtype::F32);
    assert_eq!(losses, [0x40b1_6ed3, 0x40b1_2174], "f32 loss bits");
    assert_eq!(hash, F32_STATE, "f32 final state");
}

#[test]
fn fsdp_bf16_wire_keeps_ranks_identical() {
    let (losses, hash) = two_steps(WireDtype::Bf16);
    assert_eq!(losses, [0x40b1_6ed8, 0x40b1_208e], "bf16 loss bits");
    assert_eq!(hash, BF16_STATE, "bf16 final state");
}
