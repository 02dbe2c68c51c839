//! Dual-clock benchmark of the BurstEngine simulator.
//!
//! ```text
//! burst-dualclock --workload <long_context|fsdp_state|trace_pipeline>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one main thread, a closed loop with one `World` in
//! flight at a time on the 8-rank `Topology::a800(2, 4)`. With `--trace 0`
//! it prints the end-to-end metrics on both clocks; with `--trace 1` it
//! runs the traced pass and prints the per-layer metrics. Correctness is
//! checked outside the timed region; any failure exits non-zero. The last
//! stdout line is the result object; the line before it, `record {…}`,
//! carries the host stamp, directions and sample counts.

mod micro;
mod pipeline;
mod spans;
mod stats;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;

use spans::{Spans, DATTN_BWD, DATTN_FWD, DATTN_RECOMPUTE};
use stats::{median, peak_rss_mb, residual_share, stolen_secs_per_cpu, tail};

pub const NODES: usize = 2;
pub const GPUS_PER_NODE: usize = 4;
const RANKS: usize = NODES * GPUS_PER_NODE;
/// Set-up runs per process: at least `SETUP_MIN_REPS`, and more while
/// their total stays under `SETUP_BUDGET_S`, up to `SETUP_MAX_REPS`.
/// `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.5;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    LongContext,
    FsdpState,
    TracePipeline,
}

impl Workload {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "long_context" => Ok(Workload::LongContext),
            "fsdp_state" => Ok(Workload::FsdpState),
            "trace_pipeline" => Ok(Workload::TracePipeline),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LongContext => "long_context",
            Workload::FsdpState => "fsdp_state",
            Workload::TracePipeline => "trace_pipeline",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value)?),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A metric's name, unit and better direction. The two tables below are
/// the single source of the names `BENCHMARK.json` lists.
type Meta = (&'static str, &'static str, &'static str);

const END_TO_END: [Meta; 9] = [
    ("setup_s", "s", "lower"),
    ("host_tokens_per_s", "tok/s", "higher"),
    ("step_s_p50", "s", "lower"),
    ("step_s_tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("virtual_tgs", "tok/s/GPU", "higher"),
    ("virtual_peak_bytes", "B", "lower"),
    ("wire_bytes", "B/step", "lower"),
    ("ok_frac", "fraction", "higher"),
];

const PER_LAYER: [Meta; 39] = [
    ("model.init_s", "s", "lower"),
    ("model.train_step_self_s", "s", "lower"),
    ("model.fsdp_gather_s", "s", "lower"),
    ("model.fsdp_sync_s", "s", "lower"),
    ("model.adam_s", "s", "lower"),
    ("model.share", "fraction", "lower"),
    ("dattn.fwd_s", "s", "lower"),
    ("dattn.bwd_s", "s", "lower"),
    ("dattn.recompute_s", "s", "lower"),
    ("dattn.calls", "count", "lower"),
    ("dattn.pass_s.ring", "s", "lower"),
    ("dattn.pass_s.double_ring", "s", "lower"),
    ("dattn.pass_s.burst", "s", "lower"),
    ("dattn.pass_s.ring_masked", "s", "lower"),
    ("dattn.pass_s.double_ring_masked", "s", "lower"),
    ("dattn.pass_s.burst_masked", "s", "lower"),
    ("dattn.rounds_skipped", "count", "higher"),
    ("dattn.share", "fraction", "lower"),
    ("comm.msgs.intra", "count", "lower"),
    ("comm.msgs.inter", "count", "lower"),
    ("comm.bytes.intra", "B", "lower"),
    ("comm.bytes.inter", "B", "lower"),
    ("comm.world_new_s", "s", "lower"),
    ("comm.ring_shift_s", "s", "lower"),
    ("comm.all_gather_s", "s", "lower"),
    ("comm.all_reduce_s", "s", "lower"),
    ("comm.cpu_share", "fraction", "higher"),
    ("kernels.flash_fwd_s", "s", "lower"),
    ("kernels.flash_bwd_s", "s", "lower"),
    ("kernels.lm_loss_s", "s", "lower"),
    ("tensor.matmul_s", "s", "lower"),
    ("obs.trace_overhead_s", "s", "lower"),
    ("obs.validate_s", "s", "lower"),
    ("obs.report_s", "s", "lower"),
    ("obs.export_s", "s", "lower"),
    ("perf.census_s", "s", "lower"),
    ("residual_share", "fraction", "lower"),
    ("bench.span_overhead_s", "s", "lower"),
    ("bench.traced_step_s_p50", "s", "lower"),
];

/// Metrics of one run plus its failure accounting.
#[derive(Default)]
struct Report {
    values: Vec<(&'static str, f64, usize)>,
    /// Every timed step of an end-to-end run, in run order.
    walls: Walls,
    /// Percentile of `step_s_tail`.
    tail_percentile: Option<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Report {
    /// Record `name` measured over `samples` samples.
    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.push((name, value, samples));
    }

    fn fail(&mut self, steps: u64, why: String) {
        self.failed += steps;
        self.errors.push(why);
    }
}

/// The host facts a result depends on. Results are comparable only when
/// every field but `commit` agrees.
fn host_stamp() -> Value {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The x86-64 micro-architecture level the code was compiled for (the
    // repository's `.cargo/config.toml` picks it).
    let target_cpu = if cfg!(target_feature = "avx512f") {
        "v4"
    } else if cfg!(all(target_feature = "avx2", target_feature = "fma")) {
        "v3"
    } else {
        "baseline"
    };
    Value::Object(vec![
        ("nproc".into(), Value::Number(nproc as f64)),
        (
            "rayon_num_threads".into(),
            Value::String(env("RAYON_NUM_THREADS")),
        ),
        ("burst_no_simd".into(), Value::String(env("BURST_NO_SIMD"))),
        (
            "simd_dispatch".into(),
            Value::String(burst_tensor::simd::dispatch_label().into()),
        ),
        (
            "target".into(),
            Value::String(format!("{}-{target_cpu}", std::env::consts::ARCH)),
        ),
        ("commit".into(), Value::String(commit())),
    ])
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a repository.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
            .unwrap_or_else(|| "unknown".to_string()),
    }
}

/// Repeated set-up: the median seconds, the number of runs, and the value
/// the last run built.
fn setup_median<T>(mut f: impl FnMut() -> T) -> (f64, usize, T) {
    let mut secs: Vec<f64> = Vec::with_capacity(SETUP_MAX_REPS);
    let mut last = None;
    while secs.len() < SETUP_MIN_REPS
        || (secs.len() < SETUP_MAX_REPS && secs.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        median(&secs),
        secs.len(),
        last.expect("at least one set-up ran"),
    )
}

fn shape(w: Workload) -> train::Shape {
    match w {
        Workload::LongContext => train::LONG_CONTEXT,
        Workload::FsdpState => train::FSDP_STATE,
        Workload::TracePipeline => unreachable!("trace_pipeline is not a train workload"),
    }
}

/// Host seconds of each timed step: its wall, and the part of that wall the
/// hypervisor took from this machine's CPUs (per CPU, see
/// [`stolen_secs_per_cpu`]).
#[derive(Default)]
struct Walls {
    wall: Vec<f64>,
    stolen: Vec<f64>,
}

impl Walls {
    /// Step seconds net of steal: what the step takes on CPUs of its own.
    fn net(&self) -> Vec<f64> {
        self.wall
            .iter()
            .zip(&self.stolen)
            .map(|(w, s)| w - s)
            .collect()
    }
}

/// Run `step` until `seconds` have passed, timing each call.
fn timed_loop(seconds: f64, mut step: impl FnMut() -> Result<(), String>, r: &mut Report) -> Walls {
    let start = Instant::now();
    let mut walls = Walls::default();
    while start.elapsed().as_secs_f64() < seconds {
        r.attempted += 1;
        let stolen = stolen_secs_per_cpu();
        let t = Instant::now();
        let out = step();
        let wall = t.elapsed().as_secs_f64();
        match out {
            Ok(()) => {
                walls.wall.push(wall);
                walls.stolen.push(stolen_secs_per_cpu() - stolen);
            }
            Err(e) => r.fail(1, e),
        }
    }
    walls
}

/// The end-to-end figures every workload reports from its timed loop. Step
/// times are net of hypervisor steal, so that other tenants of a shared
/// host do not read as a slower program; the raw walls and the steal go to
/// the record line.
fn host_metrics(r: &mut Report, setup: (f64, usize), walls: Walls, tokens_per_step: usize) {
    let net = walls.net();
    let n = net.len();
    r.walls = walls;
    r.set("setup_s", setup.0, setup.1);
    if n == 0 {
        r.fail(0, "no timed step completed".to_string());
        return;
    }
    let total: f64 = net.iter().sum();
    r.set("host_tokens_per_s", (tokens_per_step * n) as f64 / total, n);
    r.set("step_s_p50", median(&net), n);
    let (t, pct) = tail(&net);
    r.set("step_s_tail", t, n);
    r.tail_percentile = Some(pct);
    match peak_rss_mb() {
        Some(mb) => r.set("peak_rss_mb", mb, 1),
        None => r.fail(0, "no VmHWM in /proc/self/status".to_string()),
    }
}

fn ok_frac(r: &mut Report) {
    let frac = 1.0 - r.failed as f64 / r.attempted.max(1) as f64;
    r.set("ok_frac", frac, r.attempted as usize);
}

/// Every train step of one run must move the same bytes and take the same
/// virtual time: the virtual clock depends on shapes only.
fn check_deterministic(outs: &[train::StepOut], r: &mut Report) {
    let Some(first) = outs.first() else { return };
    for o in &outs[1..] {
        let same = o.stats.intra_msgs == first.stats.intra_msgs
            && o.stats.inter_msgs == first.stats.inter_msgs
            && o.stats.total_bytes() == first.stats.total_bytes()
            && o.virtual_secs == first.virtual_secs
            && o.peak_activation_bytes == first.peak_activation_bytes;
        if !same {
            r.fail(
                1,
                format!(
                    "step {}: virtual-clock figures differ from step {}",
                    o.step, first.step
                ),
            );
        }
    }
}

fn train_e2e(w: Workload, args: &Args) -> Report {
    let mut r = Report::default();
    let cfg = train::config(shape(w), args.seed);
    let (setup_s, reps, (mut job, _)) = setup_median(|| train::setup(&cfg));
    let mut outs: Vec<train::StepOut> = Vec::new();
    // Warm-up: two untimed steps let lazy set-up (kernel autotuning,
    // first-touch pages) finish. They are the steps checked against the
    // one-device run: both losses, and rank 0's state after the first.
    r.attempted += 2;
    let first = train::step(&mut job);
    let first_state = train::rank0_state(&job);
    for o in [first, train::step(&mut job)] {
        match o {
            Ok(o) => outs.push(o),
            Err(e) => r.fail(1, e),
        }
    }
    let walls = timed_loop(
        args.seconds,
        || {
            outs.push(train::step(&mut job)?);
            Ok(())
        },
        &mut r,
    );
    host_metrics(&mut r, (setup_s, reps), walls, cfg.model.seq_len);
    drop(job);
    for o in &outs {
        if let Err(e) = train::check_step(o) {
            r.fail(1, e);
        }
    }
    check_deterministic(&outs, &mut r);
    let checked: Vec<f32> = outs.iter().take(2).map(|o| o.losses[0]).collect();
    if let Err(e) = train::check_against_local(&cfg, &checked, &first_state) {
        r.fail(checked.len() as u64, e);
    }
    if let Some(o) = outs.last() {
        r.set(
            "virtual_tgs",
            cfg.model.seq_len as f64 / o.virtual_secs / RANKS as f64,
            outs.len(),
        );
        r.set(
            "virtual_peak_bytes",
            o.peak_activation_bytes as f64,
            outs.len(),
        );
        r.set("wire_bytes", o.stats.total_bytes(), outs.len());
    }
    ok_frac(&mut r);
    r
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("dualclock");
    std::fs::create_dir_all(&dir).expect("create target/dualclock for the trace export");
    dir
}

fn pipeline_e2e(args: &Args) -> Report {
    let mut r = Report::default();
    let dir = out_dir();
    let (setup_s, reps, p) = setup_median(|| pipeline::setup(args.seed, &dir));
    let rows = pipeline::row_spans().len();
    r.attempted += 1;
    let warm = pipeline::step(&p, &mut Spans::off(), true);
    let mut last = None;
    let walls = timed_loop(
        args.seconds,
        || {
            last = Some(pipeline::step(&p, &mut Spans::off(), false)?);
            Ok(())
        },
        &mut r,
    );
    host_metrics(&mut r, (setup_s, reps), walls, rows * pipeline::SEQ);
    match warm {
        Ok(w) => {
            if let Err(e) = pipeline::check(&p, &w) {
                r.fail(1, e);
            }
            if let Some(o) = &last {
                if o.stats != w.stats || o.virtual_secs != w.virtual_secs {
                    r.fail(
                        1,
                        "pipeline virtual-clock figures moved between steps".into(),
                    );
                }
            }
            r.set(
                "virtual_tgs",
                (rows * pipeline::SEQ) as f64 / w.virtual_secs / RANKS as f64,
                1,
            );
            r.set("virtual_peak_bytes", w.gated_peak as f64, 1);
            r.set("wire_bytes", w.stats.total_bytes(), 1);
        }
        Err(e) => r.fail(1, e),
    }
    ok_frac(&mut r);
    r
}

/// The comm counts of one step, per link class.
fn comm_counts(r: &mut Report, stats: &burst_comm::CommStats, samples: usize) {
    r.set("comm.msgs.intra", stats.intra_msgs as f64, samples);
    r.set("comm.msgs.inter", stats.inter_msgs as f64, samples);
    r.set("comm.bytes.intra", stats.intra_bytes, samples);
    r.set("comm.bytes.inter", stats.inter_bytes, samples);
    r.set("dattn.rounds_skipped", stats.rounds_skipped as f64, samples);
}

fn train_traced(w: Workload, args: &Args) -> Report {
    let mut r = Report::default();
    let cfg = train::config(shape(w), args.seed);
    let mut init = Vec::new();
    let mut world_new = Vec::new();
    let (_, _, mut job) = setup_median(|| {
        let (job, t) = train::setup(&cfg);
        init.push(t.model_new);
        world_new.push(t.world_new);
        job
    });
    r.set("model.init_s", median(&init), init.len());
    r.set("comm.world_new_s", median(&world_new), world_new.len());
    let half = args.seconds / 2.0;

    // Phase 1: the engine's own steps, no spans.
    let mut plain = Vec::new();
    r.attempted += 1;
    match train::step(&mut job) {
        Ok(o) => plain.push(o),
        Err(e) => r.fail(1, e),
    }
    let plain_walls = timed_loop(
        half,
        || {
            plain.push(train::step(&mut job)?);
            Ok(())
        },
        &mut r,
    )
    .wall;
    drop(job);

    // Phase 2: the rebuilt step from a fresh job, spans on.
    let (mut job, _) = train::setup(&cfg);
    let mut traced = Vec::new();
    let mut timings: Vec<Vec<train::RankTiming>> = Vec::new();
    r.attempted += 1;
    traced.push(train::traced_step(&mut job).0);
    let traced_walls = timed_loop(
        half,
        || {
            let (o, t) = train::traced_step(&mut job);
            traced.push(o);
            timings.push(t);
            Ok(())
        },
        &mut r,
    )
    .wall;
    drop(job);

    // The traced run must be the program under test: same losses, bit for
    // bit, and the same messages and bytes, step by step.
    for (a, b) in plain.iter().zip(&traced) {
        let same_loss = a
            .losses
            .iter()
            .zip(&b.losses)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        let same_comm = a.stats.intra_msgs == b.stats.intra_msgs
            && a.stats.inter_msgs == b.stats.inter_msgs
            && a.stats.intra_bytes == b.stats.intra_bytes
            && a.stats.inter_bytes == b.stats.inter_bytes;
        if !same_loss || !same_comm {
            r.fail(
                1,
                format!(
                    "traced step {} does not reproduce the engine: losses {:?} vs {:?}, \
                     comm {:?} vs {:?}",
                    a.step, b.losses, a.losses, b.stats, a.stats
                ),
            );
        }
    }
    for o in plain.iter().chain(&traced) {
        if let Err(e) = train::check_step(o) {
            r.fail(1, e);
        }
    }

    let n = timings.len();
    if n == 0 || plain_walls.is_empty() {
        r.fail(0, "no timed step completed".to_string());
        return r;
    }
    let mut all = Spans::on();
    let (mut rank_secs, mut cpu_secs, mut cpu_known) = (0.0, 0.0, true);
    for t in timings.iter().flatten() {
        all.merge(&t.spans);
        rank_secs += t.rank_secs;
        match t.cpu_secs {
            Some(c) => cpu_secs += c,
            None => cpu_known = false,
        }
    }
    let wall: f64 = traced_walls.iter().sum();
    let per_rank_step = |name: &str| all.self_secs(name) / (RANKS * n) as f64;
    r.set(
        "model.train_step_self_s",
        per_rank_step(train::TRAIN_STEP),
        n,
    );
    r.set("model.fsdp_gather_s", per_rank_step(train::FSDP_GATHER), n);
    r.set("model.fsdp_sync_s", per_rank_step(train::FSDP_SYNC), n);
    r.set("model.adam_s", per_rank_step(train::ADAM), n);
    r.set("dattn.fwd_s", per_rank_step(DATTN_FWD), n);
    r.set("dattn.bwd_s", per_rank_step(DATTN_BWD), n);
    r.set("dattn.recompute_s", per_rank_step(DATTN_RECOMPUTE), n);
    r.set("comm.all_reduce_s", per_rank_step(train::ALL_REDUCE), n);
    let dattn_calls = all.calls(DATTN_FWD) + all.calls(DATTN_BWD) + all.calls(DATTN_RECOMPUTE);
    r.set("dattn.calls", dattn_calls as f64 / n as f64, n);
    let dattn: f64 = [DATTN_FWD, DATTN_BWD, DATTN_RECOMPUTE]
        .iter()
        .map(|s| all.self_secs(s))
        .sum();
    let model: f64 = [
        train::TRAIN_STEP,
        train::FSDP_GATHER,
        train::FSDP_SYNC,
        train::ADAM,
    ]
    .iter()
    .map(|s| all.self_secs(s))
    .sum();
    r.set("dattn.share", dattn / rank_secs, n);
    r.set("model.share", model / rank_secs, n);
    r.set(
        "residual_share",
        residual_share(&[all.total_self_secs()], RANKS, wall),
        n,
    );
    if cpu_known {
        r.set("comm.cpu_share", cpu_secs / (RANKS as f64 * wall), n);
    } else {
        r.fail(0, "no /proc/thread-self/schedstat".to_string());
    }
    comm_counts(&mut r, &traced[traced.len() - 1].stats, n);
    let traced_p50 = median(&traced_walls);
    r.set("bench.traced_step_s_p50", traced_p50, n);
    r.set(
        "bench.span_overhead_s",
        traced_p50 - median(&plain_walls),
        n,
    );

    // Single-layer timings at this workload's shapes.
    let s = shape(w);
    match w {
        Workload::LongContext => {
            let (fwd, bwd) = micro::flash_tile(s, args.seed);
            r.set("kernels.flash_fwd_s", fwd, 30);
            r.set("kernels.flash_bwd_s", bwd, 30);
            r.set("comm.ring_shift_s", micro::ring_shift(s, args.seed), 5);
        }
        Workload::FsdpState => {
            let model = burst_model::Model::new(cfg.model, cfg.seed);
            r.set("kernels.lm_loss_s", micro::lm_loss(&model, args.seed), 20);
            r.set("comm.all_gather_s", micro::all_gather(&model), 5);
            r.set("tensor.matmul_s", micro::ffn_matmul(s, args.seed), 200);
        }
        Workload::TracePipeline => unreachable!(),
    }
    r
}

fn pipeline_traced(args: &Args) -> Report {
    let mut r = Report::default();
    let dir = out_dir();
    let mut world_new = Vec::new();
    let (_, _, p) = setup_median(|| {
        let t = Instant::now();
        let w = burst_comm::World::new(burst_comm::Topology::a800(NODES, GPUS_PER_NODE));
        world_new.push(t.elapsed().as_secs_f64());
        drop(w);
        pipeline::setup(args.seed, &dir)
    });
    r.set("comm.world_new_s", median(&world_new), world_new.len());
    let half = args.seconds / 2.0;

    let mut plain_stats = None;
    r.attempted += 1;
    if let Err(e) = pipeline::step(&p, &mut Spans::off(), false) {
        r.fail(1, e);
    }
    let plain_walls = timed_loop(
        half,
        || {
            plain_stats = Some(pipeline::step(&p, &mut Spans::off(), false)?.stats);
            Ok(())
        },
        &mut r,
    )
    .wall;

    let mut all = Spans::on();
    let mut cpu_secs = 0.0;
    let mut traced_stats = None;
    let traced_walls = timed_loop(
        half,
        || {
            let mut spans = Spans::on();
            let o = pipeline::step(&p, &mut spans, false)?;
            all.merge(&spans);
            cpu_secs += o.rank_cpu_secs;
            traced_stats = Some(o.stats);
            Ok(())
        },
        &mut r,
    )
    .wall;
    // The baseline of `obs.trace_overhead_s`: the dense burst row with
    // tracing and the ledger off, a few times.
    let mut unobserved = Vec::new();
    for _ in 0..traced_walls.len().min(5) {
        match pipeline::burst_pass_unobserved(&p) {
            Ok(secs) => unobserved.push(secs),
            Err(e) => r.fail(1, e),
        }
    }
    if plain_stats != traced_stats {
        r.fail(
            1,
            "traced pipeline moved different messages than the plain one".into(),
        );
    }
    let n = traced_walls.len();
    if n == 0 || plain_walls.is_empty() {
        r.fail(0, "no timed step completed".to_string());
        return r;
    }
    let wall: f64 = traced_walls.iter().sum();
    let per_step = |name: &str| all.self_secs(name) / n as f64;
    let mut dattn = 0.0;
    for span in pipeline::row_spans() {
        r.set(span, per_step(span), n);
        dattn += all.self_secs(span);
    }
    r.set("obs.validate_s", per_step(pipeline::VALIDATE), n);
    r.set("obs.report_s", per_step(pipeline::REPORT), n);
    r.set("obs.export_s", per_step(pipeline::EXPORT), n);
    r.set("perf.census_s", per_step(pipeline::CENSUS), n);
    if !unobserved.is_empty() {
        r.set(
            "obs.trace_overhead_s",
            per_step(pipeline::BURST_SPAN)
                - unobserved.iter().sum::<f64>() / unobserved.len() as f64,
            n,
        );
    }
    r.set("dattn.share", dattn / wall, n);
    r.set(
        "residual_share",
        residual_share(&[all.total_self_secs()], 1, wall),
        n,
    );
    r.set("comm.cpu_share", cpu_secs / (RANKS as f64 * wall), n);
    if let Some(s) = &traced_stats {
        comm_counts(&mut r, s, n);
    }
    let traced_p50 = median(&traced_walls);
    r.set("bench.traced_step_s_p50", traced_p50, n);
    r.set(
        "bench.span_overhead_s",
        traced_p50 - median(&plain_walls),
        n,
    );
    r
}

/// A listed metric with its value and sample count.
type Row = (Meta, f64, usize);

/// Every listed metric in the table's order. One the run did not measure
/// reads 0 (a layer the workload does not exercise); a measured metric the
/// table does not list is an error.
fn listed_rows(r: &Report, table: &[Meta]) -> Result<Vec<Row>, String> {
    if let Some((n, _, _)) = r
        .values
        .iter()
        .find(|(n, _, _)| !table.iter().any(|m| m.0 == *n))
    {
        return Err(format!("metric {n} is not listed"));
    }
    table
        .iter()
        .map(|&meta| {
            let found = r.values.iter().find(|(n, _, _)| *n == meta.0);
            let (value, samples) = found.map_or((0.0, 0), |&(_, v, s)| (v, s));
            if value.is_finite() {
                Ok((meta, value, samples))
            } else {
                Err(format!("{} is not finite: {value}", meta.0))
            }
        })
        .collect()
}

fn numbers(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::Number(x)).collect())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "burst-dualclock: {e}\nusage: burst-dualclock --workload \
                 <long_context|fsdp_state|trace_pipeline> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let report = match (args.workload, args.trace) {
        (Workload::TracePipeline, false) => pipeline_e2e(&args),
        (Workload::TracePipeline, true) => pipeline_traced(&args),
        (w, false) => train_e2e(w, &args),
        (w, true) => train_traced(w, &args),
    };
    let table: &[Meta] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let rows = match listed_rows(&report, table) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("burst-dualclock: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("burst-dualclock: FAIL: {e}");
    }
    let mut record = Vec::new();
    let mut metrics = Vec::new();
    for ((name, unit, better), value, samples) in &rows {
        println!("{name:>32} {value:>16.6e} {unit:<10} {better:<6} n={samples}");
        record.push(Value::Object(vec![
            ("name".into(), Value::String(name.to_string())),
            ("value".into(), Value::Number(*value)),
            ("unit".into(), Value::String(unit.to_string())),
            ("better".into(), Value::String(better.to_string())),
            ("samples".into(), Value::Number(*samples as f64)),
        ]));
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Number(*value)),
                ("unit".into(), Value::String(unit.to_string())),
            ]),
        ));
    }
    let record = Value::Object(vec![
        (
            "workload".into(),
            Value::String(args.workload.name().into()),
        ),
        ("seed".into(), Value::Number(args.seed as f64)),
        ("seconds".into(), Value::Number(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("stamp".into(), host_stamp()),
        (
            "step_s_tail_percentile".into(),
            report.tail_percentile.map_or(Value::Null, Value::Number),
        ),
        ("step_wall_secs".into(), numbers(&report.walls.wall)),
        ("step_stolen_secs".into(), numbers(&report.walls.stolen)),
        ("metrics".into(), Value::Array(record)),
    ]);
    let correct = report.errors.is_empty();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Number(report.attempted as f64)),
        ("failed".into(), Value::Number(report.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    let json = |v: &Value| serde_json::to_string(v).expect("a value tree always serializes");
    println!("record {}", json(&record));
    println!("{}", json(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of every metric in one section of
    /// `BENCHMARK.json`.
    fn listed(section: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to dualclock/");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
        json.get(section)
            .and_then(Value::as_array)
            .expect("section is a list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn owned(table: &[Meta]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(owned(&END_TO_END), listed("end_to_end"));
        assert_eq!(owned(&PER_LAYER), listed("per_layer"));
    }

    #[test]
    fn every_row_span_is_a_listed_metric() {
        for span in pipeline::row_spans() {
            assert!(PER_LAYER.iter().any(|m| m.0 == span), "{span} not listed");
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload fsdp_state --seed 7 --seconds 30 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(a.workload, Workload::FsdpState);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload fsdp_state --seconds 1",
            "--workload fsdp_state --seed 1 --seconds 0",
            "--workload fsdp_state --seed 1 --seconds 1 --trace 2",
            "--workload fsdp_state --seed 1 --seconds 1 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn unmeasured_layers_read_zero_and_unknown_metrics_fail() {
        let mut r = Report::default();
        r.set("dattn.fwd_s", 0.5, 3);
        let rows = listed_rows(&r, &PER_LAYER).expect("listed metric");
        let get = |name: &str| rows.iter().find(|(m, _, _)| m.0 == name).unwrap();
        assert_eq!((get("dattn.fwd_s").1, get("dattn.fwd_s").2), (0.5, 3));
        assert_eq!((get("obs.export_s").1, get("obs.export_s").2), (0.0, 0));
        let mut r = Report::default();
        r.set("not.a.metric", 1.0, 1);
        assert!(listed_rows(&r, &PER_LAYER).is_err());
        let mut r = Report::default();
        r.set("dattn.fwd_s", f64::NAN, 1);
        assert!(listed_rows(&r, &PER_LAYER).is_err());
    }
}
