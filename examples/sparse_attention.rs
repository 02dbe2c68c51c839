//! Sparse attention integration and workload balance (paper §3.4, Table 3).
//!
//! Runs distributed attention under three sparsity patterns — dense
//! masking, causal, and sliding-window — with naive (contiguous) vs
//! balanced (zigzag/striped) sequence partitions, and shows how the
//! balanced layouts equalise per-rank work and cut the virtual makespan.
//!
//! ```text
//! cargo run --release --example sparse_attention
//! ```

use burstengine::prelude::*;

fn measure(mask: &AttnMask, layout: Layout, n: usize, g: usize) -> (f64, Vec<f64>) {
    let d = 16;
    let q = randn_mat(n, d, 0.7, 21);
    let k = randn_mat(n, d, 0.7, 22);
    let v = randn_mat(n, d, 0.7, 23);
    let grad_o = randn_mat(n, d, 0.8, 24);
    // A deliberately slow simulated device so compute dominates and the
    // balance effect is visible in the makespan.
    let cost = CostModel {
        peak_flops: 1e8,
        efficiency: 1.0,
    };
    let world = World::new(Topology::single_node(g));
    let outs = world.run(|comm| {
        let idx = layout.indices(n, g, comm.rank());
        try_run_attention_opts(
            Algo::BurstFlat,
            comm,
            &q.gather_rows(&idx),
            &k.gather_rows(&idx),
            &v.gather_rows(&idx),
            &grad_o.gather_rows(&idx),
            1.0 / (d as f32).sqrt(),
            mask,
            layout,
            n,
            &cost,
            false,
        )
        .expect("fault-free run");
    });
    let makespan = outs.iter().map(|o| o.time).fold(0.0, f64::max);
    let per_rank: Vec<f64> = outs.iter().map(|o| o.stats.compute_time).collect();
    (makespan, per_rank)
}

fn bar(frac: f64) -> String {
    let filled = (frac * 24.0).round() as usize;
    format!("{}{}", "█".repeat(filled), "░".repeat(24 - filled))
}

fn main() {
    let (n, g) = (128usize, 8usize);
    println!("workload balance on {g} simulated GPUs, {n}-token causal attention\n");

    for (name, mask) in [
        ("dense masking", AttnMask::Full),
        ("causal", AttnMask::Causal),
        (
            "sliding window (32)",
            AttnMask::SlidingWindow { window: 32 },
        ),
    ] {
        println!("-- {name} --");
        let mut base = 0.0;
        for (lname, layout) in [
            ("contiguous", Layout::Contiguous),
            ("zigzag", Layout::Zigzag),
            ("striped", Layout::Striped),
        ] {
            let (t, per_rank) = measure(&mask, layout, n, g);
            if base == 0.0 {
                base = t;
            }
            let max = per_rank.iter().cloned().fold(0.0, f64::max);
            print!(
                "  {lname:<11} makespan {:>8.1} µs ({:>4.2}x)  per-rank load:",
                t * 1e6,
                base / t
            );
            for r in &per_rank {
                print!(" {:>3.0}%", r / max * 100.0);
            }
            println!();
        }
        println!();
    }

    // Visualise causal imbalance.
    println!("contiguous causal per-rank compute (why balance matters):");
    let (_, loads) = measure(&AttnMask::Causal, Layout::Contiguous, n, g);
    let max = loads.iter().cloned().fold(0.0, f64::max);
    for (r, l) in loads.iter().enumerate() {
        println!("  rank {r}: {}", bar(l / max));
    }
    println!("zigzag causal per-rank compute:");
    let (_, loads) = measure(&AttnMask::Causal, Layout::Zigzag, n, g);
    let max = loads.iter().cloned().fold(0.0, f64::max);
    for (r, l) in loads.iter().enumerate() {
        println!("  rank {r}: {}", bar(l / max));
    }
    println!("OK");
}
