//! Trace-level verification of the Fig. 5 overlap schedules: the event
//! timelines must show BurstAttention's read-only payloads departing before
//! the compute that hides them, and its blocked time shrinking relative to
//! the flat ring.

use burst_comm::{summarize, Topology, TraceEvent, World};
use burst_dattn::{try_run_attention_opts, Algo, CostModel, Layout};
use burst_kernels::AttnMask;
use burst_tensor::randn_mat;

fn traced_run(algo: Algo) -> Vec<(Vec<TraceEvent>, f64)> {
    let n = 128;
    let d = 32;
    let topo = Topology::a800(2, 4);
    let g = topo.world_size();
    let q = randn_mat(n, d, 0.7, 61);
    let k = randn_mat(n, d, 0.7, 62);
    let v = randn_mat(n, d, 0.7, 63);
    let go = randn_mat(n, d, 0.8, 64);
    let cost = CostModel {
        peak_flops: 5e9,
        efficiency: 1.0,
    };
    let world = World::new(topo);
    world.run_results(move |comm| {
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
            &AttnMask::Causal,
            Layout::Zigzag,
            n,
            &cost,
            false,
        )
        .expect("fault-free run");
        (comm.take_trace(), comm.time())
    })
}

fn blocked_fraction(traces: &[(Vec<TraceEvent>, f64)]) -> f64 {
    let (mut wait, mut compute) = (0.0, 0.0);
    for (t, _) in traces {
        let s = summarize(t);
        wait += s.wait_secs;
        compute += s.compute_secs;
    }
    wait / compute
}

#[test]
fn burst_blocks_far_less_than_flat_ring() {
    let flat = blocked_fraction(&traced_run(Algo::RingFlat));
    let double = blocked_fraction(&traced_run(Algo::DoubleRing));
    let burst = blocked_fraction(&traced_run(Algo::BurstTopo));
    assert!(
        burst < 0.5 * flat,
        "burst blocked fraction {burst} vs flat ring {flat}"
    );
    assert!(burst < double, "burst {burst} vs double ring {double}");
}

#[test]
fn burst_posts_read_only_payloads_before_computing() {
    // In the trace, the first send must precede the end of the first
    // compute span (early posting), for every rank.
    for (trace, _) in traced_run(Algo::BurstTopo) {
        let first_send = trace.iter().find_map(|e| match e {
            TraceEvent::Send { depart, .. } => Some(*depart),
            _ => None,
        });
        let first_compute_end = trace.iter().find_map(|e| match e {
            TraceEvent::Compute { end, .. } => Some(*end),
            _ => None,
        });
        let (s, c) = (first_send.unwrap(), first_compute_end.unwrap());
        assert!(
            s < c,
            "first send at {s} must precede first compute end {c}"
        );
    }
}

#[test]
fn trace_events_are_monotone_and_complete() {
    for (trace, t_end) in traced_run(Algo::BurstTopo) {
        assert!(!trace.is_empty());
        for e in &trace {
            let (a, b) = e.interval();
            assert!(a <= b + 1e-12, "inverted interval {a}..{b}");
            assert!(b <= t_end + 1e-9, "event past the final clock");
        }
        // Compute spans never overlap each other (one device, one stream).
        let mut computes: Vec<(f64, f64)> = trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Compute { start, end } => Some((*start, *end)),
                _ => None,
            })
            .collect();
        computes.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in computes.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-12, "overlapping compute spans");
        }
    }
}
