//! Shared collective payloads: the ring collectives forward immutable
//! `Arc` blocks, so these tests pin what that must not change.
//!
//! * Copy-on-write corruption: an injected corruption of a forwarded
//!   all-gather hop reaches that one message only — never the sender's
//!   retained block, nor the copies other ranks gathered of it.
//! * Bit-exact results: `all_gather_mat`, `broadcast_mat`,
//!   `reduce_scatter_mat` and `all_reduce_mat` equal, to the bit, a serial
//!   fold in the ring's own accumulation order, for divisible and
//!   non-divisible row counts, both wire dtypes and worlds of 1, 3 and 8
//!   ranks. Every rank receives the same bits.

use burst_comm::{CommError, FaultCounters, FaultPlan, Topology, WireDtype, World};
use burst_tensor::{randn_mat, Bf16Mat, Mat};

/// Rank `r`'s input: irregular values, so any change in summation order
/// changes the bits.
fn input(rank: usize, rows: usize, cols: usize, salt: u64) -> Mat {
    randn_mat(rows, cols, 1.0, 1000 * salt + rank as u64)
}

fn bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn assert_bits(what: &str, got: &Mat, want: &Mat) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    assert!(bits(got) == bits(want), "{what}: bits differ");
}

/// A matrix as a receiver sees it after one trip over `dtype`.
fn wire(m: &Mat, dtype: WireDtype) -> Mat {
    match dtype {
        WireDtype::F32 => m.clone(),
        WireDtype::Bf16 => Bf16Mat::from_mat(m).to_mat(),
    }
}

/// `own + incoming`, element by element, in that operand order.
fn add(own: &Mat, incoming: &Mat) -> Mat {
    let data = own
        .as_slice()
        .iter()
        .zip(incoming.as_slice())
        .map(|(o, i)| o + i)
        .collect();
    Mat::from_vec(own.rows(), own.cols(), data)
}

/// Serial reduce-scatter of block `b`: it starts on rank `b − 1` and walks
/// down the ring, each rank adding its own part to what arrived over the
/// wire, until it lands on rank `b`.
fn fold_block(parts: &[Vec<Mat>], b: usize, dtype: WireDtype) -> Mat {
    let g = parts.len();
    let mut acc = parts[(b + g - 1) % g][b].clone();
    for k in 2..=g {
        acc = add(&parts[(b + g - k) % g][b], &wire(&acc, dtype));
    }
    acc
}

fn topo(g: usize, dtype: WireDtype) -> Topology {
    Topology::single_node(g).with_wire_dtype(dtype)
}

#[test]
fn all_gather_is_every_block_over_the_wire() {
    for dtype in [WireDtype::F32, WireDtype::Bf16] {
        for g in [1usize, 3, 8] {
            let outs = World::new(topo(g, dtype))
                .run_results(move |comm| comm.all_gather_mat(&input(comm.rank(), 5, 7, 1)));
            for (viewer, blocks) in outs.iter().enumerate() {
                assert_eq!(blocks.len(), g);
                for (b, got) in blocks.iter().enumerate() {
                    let x = input(b, 5, 7, 1);
                    let want = if g == 1 { x } else { wire(&x, dtype) };
                    assert_bits(
                        &format!("{dtype:?} g={g} rank {viewer} block {b}"),
                        got,
                        &want,
                    );
                }
            }
        }
    }
}

#[test]
fn broadcast_hands_every_rank_the_root_block_over_the_wire() {
    for dtype in [WireDtype::F32, WireDtype::Bf16] {
        for g in [1usize, 3, 8] {
            let root = g / 2;
            let outs = World::new(topo(g, dtype)).run_results(move |comm| {
                let x = input(root, 5, 7, 4);
                comm.broadcast_mat(root, (comm.rank() == root).then_some(&x))
            });
            let x = input(root, 5, 7, 4);
            let want = if g == 1 { x } else { wire(&x, dtype) };
            for (rank, got) in outs.iter().enumerate() {
                assert_bits(&format!("{dtype:?} g={g} rank {rank}"), got, &want);
            }
        }
    }
}

#[test]
fn reduce_scatter_matches_the_ring_fold() {
    for dtype in [WireDtype::F32, WireDtype::Bf16] {
        for g in [1usize, 3, 8] {
            let parts_of = move |r: usize| -> Vec<Mat> {
                (0..g).map(|d| input(r, 4, 6, 10 + d as u64)).collect()
            };
            let outs = World::new(topo(g, dtype))
                .run_results(move |comm| comm.reduce_scatter_mat(&parts_of(comm.rank())));
            let parts: Vec<Vec<Mat>> = (0..g).map(parts_of).collect();
            for (b, got) in outs.iter().enumerate() {
                let want = fold_block(&parts, b, dtype);
                assert_bits(&format!("{dtype:?} g={g} block {b}"), got, &want);
            }
        }
    }
}

#[test]
fn all_reduce_matches_the_serial_fold() {
    for dtype in [WireDtype::F32, WireDtype::Bf16] {
        for g in [1usize, 3, 8] {
            // 2g rows split into g ring blocks; 2g + 1 takes the leader path.
            for rows in [2 * g, 2 * g + 1] {
                let outs = World::new(topo(g, dtype))
                    .run_results(move |comm| comm.all_reduce_mat(&input(comm.rank(), rows, 3, 2)));
                let xs: Vec<Mat> = (0..g).map(|r| input(r, rows, 3, 2)).collect();
                let want = if g == 1 {
                    xs[0].clone()
                } else if rows % g == 0 {
                    let step = rows / g;
                    let parts: Vec<Vec<Mat>> = xs
                        .iter()
                        .map(|x| {
                            (0..g)
                                .map(|b| x.slice_rows(b * step, (b + 1) * step))
                                .collect()
                        })
                        .collect();
                    let blocks: Vec<Mat> = (0..g)
                        .map(|b| wire(&fold_block(&parts, b, dtype), dtype))
                        .collect();
                    Mat::vstack(&blocks)
                } else {
                    // The leader (rank 0) sums contributions in rank order.
                    let mut acc = xs[0].clone();
                    for x in &xs[1..] {
                        acc = add(&acc, &wire(x, dtype));
                    }
                    wire(&acc, dtype)
                };
                for (rank, got) in outs.iter().enumerate() {
                    let what = format!("{dtype:?} g={g} rows={rows} rank {rank}");
                    assert_bits(&what, got, &want);
                }
            }
        }
    }
}

/// An all-gather on 4 ranks where rank 1's last send to rank 2 — a block
/// rank 1 received from rank 0 and forwards, rank 3's — is corrupted.
/// Returns each rank's result and rank 1's fault counters.
fn gather_with_corrupt_forward(
    plan: FaultPlan,
) -> (Vec<Result<Vec<Mat>, CommError>>, FaultCounters) {
    let world = World::with_faults(Topology::single_node(4), plan);
    let outs = world.run_faulty::<_, CommError, _>(|comm| {
        comm.try_all_gather_mat(&input(comm.rank(), 6, 5, 3))
    });
    let sender = outs[1].faults;
    (outs.into_iter().map(|o| o.result).collect(), sender)
}

fn assert_clean_gather(rank: usize, blocks: &[Mat]) {
    for (b, got) in blocks.iter().enumerate() {
        assert_bits(&format!("rank {rank} block {b}"), got, &input(b, 6, 5, 3));
    }
}

#[test]
fn corrupting_a_forwarded_hop_copies_instead_of_poisoning_shared_blocks() {
    // Rank 1 sends rank 2 its own block (message 0), then forwards rank
    // 0's (message 1) and rank 3's (message 2).
    let (outs, sender) = gather_with_corrupt_forward(FaultPlan::new(7).corrupt_msg(1, 2, 2));
    assert_eq!(sender.corruptions, 1);
    match &outs[2] {
        Err(CommError::Corrupt {
            rank: 2, src: 1, ..
        }) => {}
        other => panic!("rank 2 must see the typed corruption, got {other:?}"),
    }
    // Rank 1 still holds rank 3's block as it was forwarded, and ranks 0
    // and 3 — which hold the very same shared block — are untouched too.
    for rank in [0, 1, 3] {
        match &outs[rank] {
            Ok(blocks) => assert_clean_gather(rank, blocks),
            Err(e) => panic!("rank {rank} must complete its gather, got {e}"),
        }
    }
}

#[test]
fn reliable_transport_heals_the_corrupted_forward() {
    let plan = FaultPlan::new(7).corrupt_msg(1, 2, 2).reliable();
    let (outs, sender) = gather_with_corrupt_forward(plan);
    assert_eq!((sender.corruptions, sender.healed), (1, 1));
    for (rank, out) in outs.iter().enumerate() {
        match out {
            Ok(blocks) => assert_clean_gather(rank, blocks),
            Err(e) => panic!("rank {rank}: the hop must heal, got {e}"),
        }
    }
}
