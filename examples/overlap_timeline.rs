//! Visualise the paper's Fig. 5: how BurstAttention's fine-grained overlap
//! hides communication under compute.
//!
//! Traces one distributed attention forward+backward per algorithm on a
//! simulated 2-node × 4-GPU cluster with a deliberately slow device (so
//! compute and communication are comparable) and renders each rank's
//! virtual timeline: `#` = compute, `.` = blocked on communication.
//!
//! ```text
//! cargo run --release --example overlap_timeline
//! ```

use burstengine::comm::{ascii_lane, summarize};
use burstengine::prelude::*;

fn main() {
    let n = 128;
    let d = 32;
    let topo = Topology::a800(2, 4);
    let g = topo.world_size();
    let q = randn_mat(n, d, 0.7, 1);
    let k = randn_mat(n, d, 0.7, 2);
    let v = randn_mat(n, d, 0.7, 3);
    let go = randn_mat(n, d, 0.8, 4);
    let mask = AttnMask::Causal;
    // A slow simulated device: per-step compute is comparable to the ring
    // transfers, which is where overlap discipline matters.
    let cost = CostModel {
        peak_flops: 5e9,
        efficiency: 1.0,
    };

    for algo in [Algo::RingFlat, Algo::DoubleRing, Algo::BurstTopo] {
        let world = World::new(topo.clone());
        let outs = world.run_results(|comm| {
            comm.start_trace();
            let idx = Layout::Zigzag.indices(n, g, comm.rank());
            try_run_attention_opts(
                algo,
                comm,
                &q.gather_rows(&idx),
                &k.gather_rows(&idx),
                &v.gather_rows(&idx),
                &go.gather_rows(&idx),
                1.0 / (d as f32).sqrt(),
                &mask,
                Layout::Zigzag,
                n,
                &cost,
                false,
            )
            .expect("fault-free run");
            (comm.take_trace(), comm.time())
        });
        let t_end = outs.iter().map(|(_, t)| *t).fold(0.0, f64::max);
        println!("\n== {algo:?} — makespan {:.1} µs ==", t_end * 1e6);
        println!("   (each lane is one rank: '#' compute, '.' blocked on comm)");
        let mut total_wait = 0.0;
        let mut total_compute = 0.0;
        let mut inter_sends = 0;
        for (rank, (trace, _)) in outs.iter().enumerate() {
            let lane = ascii_lane(trace, t_end, 72);
            let s = summarize(trace);
            total_wait += s.wait_secs;
            total_compute += s.compute_secs;
            inter_sends += s.inter_sends;
            println!("  r{rank} |{lane}|");
        }
        println!(
            "  blocked/compute ratio: {:.1}%  ({inter_sends} inter-node sends total)",
            total_wait / total_compute * 100.0,
        );
    }
    println!("\nThe flat ring stalls on its NIC-gated hops; the double ring shrinks");
    println!("them; BurstAttention's early-posted activations and delayed gradient");
    println!("stream leave almost nothing exposed. OK");
}
