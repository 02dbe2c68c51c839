//! The `trace_pipeline` workload: the `burst-trace` pipeline rebuilt from
//! public calls. Six attention-only rows (ring, double_ring and burst, each
//! dense causal over zigzag and as a sliding window over the contiguous
//! layout with round skipping), every rank traced and memory-accounted,
//! then validation, the wire census, the method reports and the streamed
//! Perfetto export. One step is one full iteration.

use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use burst_comm::obs::{
    self, mem_counter_events, to_perfetto_grouped, validate_mem, E2eReport, MemReport,
    MethodReport, RankTrace, StreamingPerfettoWriter,
};
use burst_comm::{CommStats, Topology, WireDtype, World};
use burst_dattn::{try_run_attention_opts, Algo, CostModel, Layout};
use burst_kernels::{flash_backward, flash_forward, AttnMask};
use burst_perf::commtime::{
    exact_wire_counts, exact_wire_counts_masked_dtype, layer_comm_times, RingMethod,
};
use burst_perf::Cluster;
use burst_tensor::{randn_mat, Mat};
use burst_verify::{
    compare_slice, ORACLE_ATTN_ATOL, ORACLE_ATTN_RTOL, ORACLE_GRAD_ATOL, ORACLE_GRAD_RTOL,
};

use crate::spans::Spans;
use crate::stats::thread_cpu_ns;
use crate::{GPUS_PER_NODE, NODES};

pub const SEQ: usize = 8192;
pub const HEAD_DIM: usize = 64;
/// burst-trace's gate on measured vs exact-census wire time.
const MAX_COMM_REL_ERR: f64 = 0.01;

pub const VALIDATE: &str = "obs.validate";
pub const REPORT: &str = "obs.report";
pub const EXPORT: &str = "obs.export";
pub const CENSUS: &str = "perf.census";

/// One row of the pipeline.
struct Row {
    name: &'static str,
    /// Span (and per-layer metric) name of this row's attention pass.
    span: &'static str,
    algo: Algo,
    method: RingMethod,
    mask: AttnMask,
    layout: Layout,
    skip: bool,
}

fn rows() -> Vec<Row> {
    let window = AttnMask::SlidingWindow { window: SEQ / 4 };
    let row = |name, span, algo, method, masked: bool| Row {
        name,
        span,
        algo,
        method,
        mask: if masked {
            window.clone()
        } else {
            AttnMask::Causal
        },
        layout: if masked {
            Layout::Contiguous
        } else {
            Layout::Zigzag
        },
        skip: masked,
    };
    vec![
        row(
            "ring",
            "dattn.pass_s.ring",
            Algo::RingFlat,
            RingMethod::Ring,
            false,
        ),
        row(
            "double_ring",
            "dattn.pass_s.double_ring",
            Algo::DoubleRing,
            RingMethod::DoubleRing,
            false,
        ),
        row(
            "burst",
            "dattn.pass_s.burst",
            Algo::BurstTopo,
            RingMethod::Burst,
            false,
        ),
        row(
            "ring_masked",
            "dattn.pass_s.ring_masked",
            Algo::RingFlat,
            RingMethod::Ring,
            true,
        ),
        row(
            "double_ring_masked",
            "dattn.pass_s.double_ring_masked",
            Algo::DoubleRing,
            RingMethod::DoubleRing,
            true,
        ),
        row(
            "burst_masked",
            "dattn.pass_s.burst_masked",
            Algo::BurstTopo,
            RingMethod::Burst,
            true,
        ),
    ]
}

/// Span names of every row pass, in row order.
pub fn row_spans() -> Vec<&'static str> {
    rows().iter().map(|r| r.span).collect()
}

/// Everything a step needs, built by [`setup`].
pub struct Pipeline {
    world: World,
    cluster: Cluster,
    q: Mat,
    k: Mat,
    v: Mat,
    grad_o: Mat,
    scale: f32,
    rows: Vec<Row>,
    out_dir: PathBuf,
}

/// Seeded inputs and the world: the set-up the benchmark times.
pub fn setup(seed: u64, out_dir: &Path) -> Pipeline {
    let base = seed.wrapping_mul(4);
    Pipeline {
        world: World::new(Topology::a800(NODES, GPUS_PER_NODE)),
        cluster: Cluster::a800(NODES, GPUS_PER_NODE),
        q: randn_mat(SEQ, HEAD_DIM, 0.7, base),
        k: randn_mat(SEQ, HEAD_DIM, 0.7, base + 1),
        v: randn_mat(SEQ, HEAD_DIM, 0.7, base + 2),
        grad_o: randn_mat(SEQ, HEAD_DIM, 0.8, base + 3),
        scale: 1.0 / (HEAD_DIM as f32).sqrt(),
        rows: rows(),
        out_dir: out_dir.to_path_buf(),
    }
}

/// Attention outputs `(O, Lse, ∇Q, ∇K, ∇V)`.
pub type AttnOutputs = (Mat, Vec<f32>, Mat, Mat, Mat);

/// One row's outputs, per rank.
pub type RankOutputs = Vec<AttnOutputs>;

/// What one pipeline step produced.
pub struct StepOut {
    pub stats: CommStats,
    /// Σ over rows of the row's virtual makespan.
    pub virtual_secs: f64,
    /// Worst gated ledger peak of any rank in any row.
    pub gated_peak: u64,
    /// Σ over ranks of rank-thread on-CPU seconds inside the row passes.
    pub rank_cpu_secs: f64,
    /// Per-row outputs, when kept.
    pub outputs: Option<Vec<RankOutputs>>,
    /// The streamed Perfetto document.
    pub export_path: PathBuf,
    /// The buffered serialization of the same trace, when kept.
    pub buffered_export: Option<String>,
}

struct Pass {
    traces: Vec<RankTrace>,
    stats: Vec<CommStats>,
    mem: Vec<MemReport>,
    outputs: RankOutputs,
    cpu_secs: f64,
}

/// One row's distributed attention pass, traced and memory-accounted when
/// `observe` is on.
fn pass(p: &Pipeline, row: &Row, observe: bool) -> Result<Pass, String> {
    let g = p.world.topology().world_size();
    let cost = CostModel::a800();
    let outs = p.world.run(|comm| {
        let cpu0 = thread_cpu_ns();
        let idx = row.layout.indices(SEQ, g, comm.rank());
        let (ql, kl, vl, dol) = (
            p.q.gather_rows(&idx),
            p.k.gather_rows(&idx),
            p.v.gather_rows(&idx),
            p.grad_o.gather_rows(&idx),
        );
        if observe {
            comm.start_trace();
            comm.start_mem_accounting();
        }
        let out = try_run_attention_opts(
            row.algo, comm, &ql, &kl, &vl, &dol, p.scale, &row.mask, row.layout, SEQ, &cost,
            row.skip,
        )
        .map_err(|e| format!("{}: rank {}: {e:?}", row.name, comm.rank()));
        let mem = comm.take_mem_report();
        let cpu = match (cpu0, thread_cpu_ns()) {
            (Some(a), Some(b)) => (b - a) as f64 * 1e-9,
            _ => 0.0,
        };
        (out, mem, cpu)
    });
    let mut run = Pass {
        traces: Vec::with_capacity(g),
        stats: Vec::with_capacity(g),
        mem: Vec::with_capacity(g),
        outputs: Vec::with_capacity(g),
        cpu_secs: 0.0,
    };
    for o in outs {
        let (out, mem, cpu) = o.result;
        run.outputs.push(out?);
        run.stats.push(o.stats);
        run.cpu_secs += cpu;
        if observe {
            run.mem
                .push(mem.ok_or("accounting was on; rank lost its ledger")?);
            run.traces
                .push(o.trace.ok_or("tracing was on; rank lost its trace")?);
        }
    }
    Ok(run)
}

/// Useful FLOPs of one attention pass under `mask` (14·d per allowed pair,
/// as burst-trace counts them).
fn masked_attn_flops(mask: &AttnMask) -> f64 {
    14.0 * HEAD_DIM as f64 * mask.allowed_pairs(SEQ) as f64
}

/// Run one full pipeline iteration. Every burst-trace gate is checked; a
/// violation is an `Err`. Layer spans land in `spans` (a disabled timer
/// records nothing). With `keep`, the step also keeps what [`check`] needs:
/// every row's outputs and the buffered serialization of the export.
pub fn step(p: &Pipeline, spans: &mut Spans, keep: bool) -> Result<StepOut, String> {
    let cluster = &p.cluster;
    let table1 = spans.time(CENSUS, || layer_comm_times(cluster, SEQ, HEAD_DIM));
    let mut report = E2eReport::new(NODES, GPUS_PER_NODE, SEQ, HEAD_DIM);
    let mut groups: Vec<(String, Vec<RankTrace>)> = Vec::with_capacity(p.rows.len());
    let mut mem_groups: Vec<Vec<MemReport>> = Vec::with_capacity(p.rows.len());
    let mut outputs = Vec::new();
    let mut out = StepOut {
        stats: CommStats::default(),
        virtual_secs: 0.0,
        gated_peak: 0,
        rank_cpu_secs: 0.0,
        outputs: None,
        export_path: p.out_dir.join("trace.perfetto.json"),
        buffered_export: None,
    };
    for row in &p.rows {
        let name = row.name;
        let run = spans.time(row.span, || pass(p, row, true))?;
        out.rank_cpu_secs += run.cpu_secs;
        spans.time(VALIDATE, || -> Result<(), String> {
            for t in &run.traces {
                obs::validate(t).map_err(|e| format!("{name} rank {} trace: {e}", t.rank))?;
                if !t.warnings.is_empty() {
                    return Err(format!("{name} rank {} left spans unclosed", t.rank));
                }
            }
            for m in &run.mem {
                validate_mem(m).map_err(|e| format!("{name} rank {} ledger: {e}", m.rank))?;
                if !m.warnings.is_empty() || m.live_at_close != 0 {
                    return Err(format!(
                        "{name} rank {} leaked {} B",
                        m.rank, m.live_at_close
                    ));
                }
            }
            Ok(())
        })?;
        let (predicted, dense_bytes) = spans.time(CENSUS, || {
            let dense = exact_wire_counts(cluster, SEQ, HEAD_DIM, row.method);
            let predicted = if row.skip {
                exact_wire_counts_masked_dtype(
                    cluster,
                    SEQ,
                    HEAD_DIM,
                    row.method,
                    WireDtype::F32,
                    &row.mask,
                    row.layout,
                    None,
                    true,
                )
                .counts
                .secs(cluster)
            } else {
                dense.secs(cluster)
            };
            (predicted, dense.intra_bytes + dense.inter_bytes)
        });
        let table1_secs = match row.method {
            RingMethod::Ring => table1.ring,
            RingMethod::DoubleRing => table1.double_ring,
            RingMethod::Burst => table1.burst,
        };
        let row_stats = run
            .stats
            .iter()
            .fold(CommStats::default(), |a, b| a.merge(b));
        spans.time(REPORT, || -> Result<(), String> {
            let mut m = MethodReport::from_traces(
                name,
                &run.traces,
                SEQ,
                HEAD_DIM,
                cluster.peak_flops,
                predicted,
                table1_secs,
            )
            .with_mem(&run.mem)
            .with_skips(row_stats.rounds_skipped, row_stats.skipped_bytes);
            m.mfu = obs::mfu(
                masked_attn_flops(&row.mask),
                m.makespan_secs,
                m.world,
                cluster.peak_flops,
            );
            if row.skip {
                if m.rounds_skipped == 0 || m.wire_bytes_saved <= 0.0 {
                    return Err(format!("{name}: masked run elided no rounds"));
                }
                if row_stats.total_bytes() + m.wire_bytes_saved != dense_bytes {
                    return Err(format!(
                        "{name}: measured {} B + saved {} B != dense census {dense_bytes} B",
                        row_stats.total_bytes(),
                        m.wire_bytes_saved
                    ));
                }
            } else if m.rounds_skipped != 0 || m.wire_bytes_saved != 0.0 {
                return Err(format!("{name}: dense run billed phantom skips"));
            }
            if m.comm_rel_err > MAX_COMM_REL_ERR {
                return Err(format!(
                    "{name}: measured comm {}s vs exact census {}s (rel err {})",
                    m.comm_measured_secs, m.comm_predicted_secs, m.comm_rel_err
                ));
            }
            out.virtual_secs += m.makespan_secs;
            out.gated_peak = out.gated_peak.max(m.peak.gated_total);
            report.methods.push(m);
            Ok(())
        })?;
        out.stats = out.stats.merge(&row_stats);
        if keep {
            outputs.push(run.outputs);
        }
        groups.push((name.to_string(), run.traces));
        mem_groups.push(run.mem);
    }
    spans.time(REPORT, || -> Result<(), String> {
        report.validate_schema()?;
        serde_json::to_string_pretty(&report).map_err(|e| format!("report serde: {e}"))?;
        Ok(())
    })?;
    out.buffered_export = spans.time(EXPORT, || -> Result<Option<String>, String> {
        let mut perfetto = to_perfetto_grouped(&groups);
        for (g, mems) in mem_groups.iter().enumerate() {
            for m in mems {
                perfetto
                    .traceEvents
                    .extend(mem_counter_events(m, (g as u64) * 100 + m.rank as u64));
            }
        }
        let path = &out.export_path;
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = StreamingPerfettoWriter::pretty(BufWriter::new(file));
        for e in &perfetto.traceEvents {
            w.write_event(e)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let mut sink = w.finish().map_err(|e| format!("{}: {e}", path.display()))?;
        std::io::Write::flush(&mut sink).map_err(|e| format!("{}: {e}", path.display()))?;
        if keep {
            let json = serde_json::to_string_pretty(&perfetto)
                .map_err(|e| format!("perfetto serde: {e}"))?;
            return Ok(Some(json));
        }
        Ok(None)
    })?;
    if keep {
        out.outputs = Some(outputs);
    }
    Ok(out)
}

/// The dense burst row with tracing and the ledger off: the baseline of
/// `obs.trace_overhead_s`. Returns its wall seconds.
pub fn burst_pass_unobserved(p: &Pipeline) -> Result<f64, String> {
    let row = p
        .rows
        .iter()
        .find(|r| r.name == "burst")
        .expect("the burst row exists");
    let t = Instant::now();
    pass(p, row, false)?;
    Ok(t.elapsed().as_secs_f64())
}

/// The dense burst row's span name: `obs.trace_overhead_s` compares it with
/// [`burst_pass_unobserved`].
pub const BURST_SPAN: &str = "dattn.pass_s.burst";

/// Check a step's outputs against single-device flash attention on the
/// whole sequence, and its streamed export against the buffered one.
pub fn check(p: &Pipeline, out: &StepOut) -> Result<(), String> {
    let outputs = out.outputs.as_ref().expect("step kept its outputs");
    let g = p.world.topology().world_size();
    let all: Vec<usize> = (0..SEQ).collect();
    let mut reference: Vec<(AttnMask, AttnOutputs)> = Vec::new();
    for (row, ranks) in p.rows.iter().zip(outputs) {
        if !reference.iter().any(|(m, _)| *m == row.mask) {
            let f = flash_forward(&p.q, &p.k, &p.v, p.scale, &row.mask, &all, &all);
            let (dq, dk, dv, _) = flash_backward(
                &p.q, &p.k, &p.v, &f.o, &p.grad_o, &f.lse, p.scale, &row.mask, &all, &all,
            );
            reference.push((row.mask.clone(), (f.o, f.lse, dq, dk, dv)));
        }
        let (_, (o, lse, dq, dk, dv)) = reference
            .iter()
            .find(|(m, _)| *m == row.mask)
            .expect("reference built above");
        for (rank, (ro, rlse, rdq, rdk, rdv)) in ranks.iter().enumerate() {
            let idx = row.layout.indices(SEQ, g, rank);
            let lse_want: Vec<f32> = idx.iter().map(|&i| lse[i]).collect();
            let at = |what: &str| format!("{} rank {rank} {what}", row.name);
            let attn = [
                (at("o"), ro.as_slice(), o.gather_rows(&idx)),
                (at("dq"), rdq.as_slice(), dq.gather_rows(&idx)),
                (at("dk"), rdk.as_slice(), dk.gather_rows(&idx)),
                (at("dv"), rdv.as_slice(), dv.gather_rows(&idx)),
            ];
            for (i, (what, got, want)) in attn.iter().enumerate() {
                let (atol, rtol) = if i == 0 {
                    (ORACLE_ATTN_ATOL, ORACLE_ATTN_RTOL)
                } else {
                    (ORACLE_GRAD_ATOL, ORACLE_GRAD_RTOL)
                };
                compare_slice(what, got, want.as_slice(), atol, rtol).map_err(|d| d.to_string())?;
            }
            compare_slice(
                &at("lse"),
                rlse,
                &lse_want,
                ORACLE_ATTN_ATOL,
                ORACLE_ATTN_RTOL,
            )
            .map_err(|d| d.to_string())?;
        }
    }
    let buffered = out
        .buffered_export
        .as_ref()
        .expect("step kept its buffered export");
    let streamed = std::fs::read_to_string(&out.export_path)
        .map_err(|e| format!("{}: {e}", out.export_path.display()))?;
    if &streamed != buffered {
        return Err("streamed perfetto export diverges from the buffered one".to_string());
    }
    Ok(())
}
