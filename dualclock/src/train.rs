//! The two training workloads: `long_context` and `fsdp_state`. The timed
//! step is the engine's own `run_span` for one step on every rank; the
//! traced step rebuilds that step from public calls with a span around
//! each layer.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use burst_comm::{CommStats, Communicator, Topology, World};
use burst_dattn::{Algo, CostModel, Layout};
use burst_kernels::AttnMask;
use burst_model::engine::{run_span, synthetic_batch, Backend, EngineConfig};
use burst_model::{fsdp, ActPrecision, DistExec, Model, ModelConfig, Strategy};
use burst_verify::{compare_slice, ORACLE_TRAIN_ATOL, ORACLE_TRAIN_RTOL};

use crate::spans::{Spans, TimedExec};
use crate::stats::thread_cpu_ns;
use crate::{GPUS_PER_NODE, NODES};

pub const TRAIN_STEP: &str = "model.train_step";
pub const FSDP_GATHER: &str = "model.fsdp_gather";
pub const FSDP_SYNC: &str = "model.fsdp_sync";
pub const ADAM: &str = "model.adam";
pub const ALL_REDUCE: &str = "comm.all_reduce";

/// Model shape of a training workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub d_model: usize,
    pub d_ff: usize,
    pub vocab: usize,
    pub seq_len: usize,
}

pub const LONG_CONTEXT: Shape = Shape {
    d_model: 64,
    d_ff: 128,
    vocab: 256,
    seq_len: 4096,
};

pub const FSDP_STATE: Shape = Shape {
    d_model: 256,
    d_ff: 512,
    vocab: 8192,
    seq_len: 256,
};

pub const HEADS: usize = 4;

/// The engine configuration of a workload. The seed drives the weights and
/// the position in the synthetic token stream where training starts.
pub fn config(shape: Shape, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::tiny(Backend::Ring(Algo::BurstTopo));
    cfg.model = ModelConfig {
        layers: 2,
        d_model: shape.d_model,
        heads: HEADS,
        d_ff: shape.d_ff,
        vocab: shape.vocab,
        seq_len: shape.seq_len,
        rope: true,
    };
    cfg.layout = Layout::Zigzag;
    cfg.mask = AttnMask::Causal;
    cfg.strategy = Strategy::SeqSelective { rho: 0.5 };
    cfg.cost = CostModel::a800();
    cfg.fsdp = true;
    cfg.seed = seed;
    cfg
}

/// First step index of a run: a seeded offset into the token stream.
pub fn start_step(seed: u64) -> usize {
    (seed % 1000) as usize
}

/// A training job ready to step: the world and one model replica per rank.
pub struct Train {
    cfg: EngineConfig,
    world: World,
    models: Vec<Mutex<Model>>,
    next_step: usize,
}

/// Seconds spent in the parts of [`setup`].
pub struct SetupTimes {
    pub model_new: f64,
    pub world_new: f64,
}

/// Build the job: `World::new`, `Model::new` and a replica per rank.
pub fn setup(cfg: &EngineConfig) -> (Train, SetupTimes) {
    let t = Instant::now();
    let world = World::new(Topology::a800(NODES, GPUS_PER_NODE));
    let world_new = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = Model::new(cfg.model, cfg.seed);
    let model_new = t.elapsed().as_secs_f64();
    let g = world.topology().world_size();
    let mut models: Vec<Mutex<Model>> = (1..g).map(|_| Mutex::new(model.clone())).collect();
    models.push(Mutex::new(model));
    let train = Train {
        cfg: cfg.clone(),
        world,
        models,
        next_step: start_step(cfg.seed),
    };
    (
        train,
        SetupTimes {
            model_new,
            world_new,
        },
    )
}

fn replica<'a>(models: &'a [Mutex<Model>], comm: &Communicator) -> MutexGuard<'a, Model> {
    models[comm.rank()]
        .lock()
        .expect("a rank panicked while holding its replica")
}

/// What one step produced, over all ranks.
pub struct StepOut {
    pub step: usize,
    /// The global mean loss as each rank saw it.
    pub losses: Vec<f32>,
    pub stats: CommStats,
    /// Virtual makespan of the step (max over ranks).
    pub virtual_secs: f64,
    /// Max over ranks of tracked peak activation bytes.
    pub peak_activation_bytes: usize,
}

/// Fold per-rank `((loss, peak bytes, extra), stats, virtual time)`.
fn collect<T>(step: usize, outs: Vec<((f32, usize, T), CommStats, f64)>) -> (StepOut, Vec<T>) {
    let mut out = StepOut {
        step,
        losses: Vec::with_capacity(outs.len()),
        stats: CommStats::default(),
        virtual_secs: 0.0,
        peak_activation_bytes: 0,
    };
    let mut extra = Vec::with_capacity(outs.len());
    for ((loss, peak, x), stats, time) in outs {
        out.losses.push(loss);
        out.peak_activation_bytes = out.peak_activation_bytes.max(peak);
        out.stats = out.stats.merge(&stats);
        out.virtual_secs = out.virtual_secs.max(time);
        extra.push(x);
    }
    (out, extra)
}

/// One training step through the engine (`run_span` on every rank).
pub fn step(t: &mut Train) -> Result<StepOut, String> {
    let s = t.next_step;
    t.next_step += 1;
    let (cfg, models) = (&t.cfg, &t.models);
    let outs = t.world.run(|comm| {
        let mut model = replica(models, comm);
        match run_span(comm, cfg, &mut model, s, s + 1, |_, _, _, _| {}) {
            Ok(o) => {
                let peak = o.last.map_or(0, |l| l.peak_activation_bytes);
                Ok((o.losses[0], peak, ()))
            }
            Err(e) => Err(format!("step {s} rank {}: {e}", comm.rank())),
        }
    });
    let outs = outs
        .into_iter()
        .map(|o| o.result.map(|r| (r, o.stats, o.time)))
        .collect::<Result<_, _>>()?;
    Ok(collect(s, outs).0)
}

/// Host-clock facts of one rank during a traced step.
pub struct RankTiming {
    pub spans: Spans,
    /// Wall of the rank's closure.
    pub rank_secs: f64,
    /// On-CPU seconds of the rank thread (`None` without schedstat).
    pub cpu_secs: Option<f64>,
}

/// The same step rebuilt from public calls, with a span around each
/// layer: `fsdp::gather_weights` → `train_step_prec` through
/// [`TimedExec`] → the loss `all_reduce_vec` → `fsdp::sync_grads` →
/// `adam_step`. It must reproduce [`step`] bit for bit; the virtual clock is
/// not compared (the engine also charges dense compute to it).
pub fn traced_step(t: &mut Train) -> (StepOut, Vec<RankTiming>) {
    let s = t.next_step;
    t.next_step += 1;
    let (cfg, models) = (&t.cfg, &t.models);
    let Backend::Ring(algo) = cfg.backend else {
        unreachable!("train workloads run a ring backend")
    };
    let n = cfg.model.seq_len;
    let outs = t.world.run(|comm| {
        let cpu0 = thread_cpu_ns();
        let t0 = Instant::now();
        let mut spans = Spans::on();
        let mut model = replica(models, comm);
        model.zero_grads();
        spans.time(FSDP_GATHER, || {
            fsdp::gather_weights(comm, &mut model.params_mut())
        });
        let (tokens, targets) = synthetic_batch(&cfg.model, s);
        let mut exec = DistExec::new(comm, algo, cfg.layout, cfg.mask.clone(), n, cfg.cost);
        exec.overlap = cfg.overlap;
        exec.skip = cfg.skip_masked_rounds;
        let mut timed = TimedExec::new(exec, spans);
        let idx = burst_model::AttnExec::local_indices(&timed);
        let local_tokens: Vec<usize> = idx.iter().map(|&i| tokens[i]).collect();
        let local_targets: Vec<usize> = idx.iter().map(|&i| targets[i]).collect();
        timed.spans.begin(TRAIN_STEP);
        let out = model.train_step_prec(
            &local_tokens,
            &local_targets,
            &mut timed,
            cfg.strategy,
            n,
            ActPrecision::F32,
        );
        timed.spans.end();
        let mut spans = timed.spans;
        let reduced = spans.time(ALL_REDUCE, || comm.all_reduce_vec(&[out.loss_sum, 0.0]));
        let loss = reduced[0] / n as f32;
        spans.time(FSDP_SYNC, || {
            fsdp::sync_grads(comm, &mut model.params_mut())
        });
        spans.time(ADAM, || model.adam_step(&cfg.adam, s as u64 + 1));
        let rank_secs = t0.elapsed().as_secs_f64();
        let cpu_secs = match (cpu0, thread_cpu_ns()) {
            (Some(a), Some(b)) => Some((b - a) as f64 * 1e-9),
            _ => None,
        };
        let timing = RankTiming {
            spans,
            rank_secs,
            cpu_secs,
        };
        (loss, out.peak_activation_bytes, timing)
    });
    let outs = outs
        .into_iter()
        .map(|o| (o.result, o.stats, o.time))
        .collect();
    collect(s, outs)
}

/// Correctness of one step: finite, and every rank agrees on the loss.
pub fn check_step(out: &StepOut) -> Result<(), String> {
    let first = out.losses[0];
    if !first.is_finite() {
        return Err(format!("step {}: non-finite loss {first}", out.step));
    }
    if out.losses.iter().any(|l| l.to_bits() != first.to_bits()) {
        return Err(format!(
            "step {}: ranks disagree on the loss: {:?}",
            out.step, out.losses
        ));
    }
    Ok(())
}

/// Rank 0's full training state (weights, gradients, Adam moments).
pub fn rank0_state(t: &Train) -> Vec<f32> {
    t.models[0]
        .lock()
        .expect("no rank holds its replica between steps")
        .flat_state()
}

/// The same job on one device (`Backend::Local`) for `steps` steps from the
/// run's first step: its losses, and its training state after the first
/// step.
fn local_run(cfg: &EngineConfig, steps: usize) -> Result<(Vec<f32>, Vec<f32>), String> {
    let mut local = cfg.clone();
    local.backend = Backend::Local;
    let start = start_step(cfg.seed);
    let world = World::new(Topology::a800(1, 1));
    let outs = world.run(|comm| {
        let mut model = Model::new(local.model, local.seed);
        let span = |comm: &mut Communicator, model: &mut Model, from, to| {
            run_span(comm, &local, model, from, to, |_, _, _, _| {})
                .map(|o| o.losses)
                .map_err(|e| format!("local reference: {e}"))
        };
        let mut losses = span(comm, &mut model, start, start + 1)?;
        let first_state = model.flat_state();
        losses.extend(span(comm, &mut model, start + 1, start + steps)?);
        Ok((losses, first_state))
    });
    outs.into_iter()
        .next()
        .expect("a one-rank world has one output")
        .result
}

/// Compare the run's first losses, and rank 0's training state after its
/// first step, with the one-device run of the same steps, within the
/// `ORACLE_TRAIN_*` bounds. The state is compared after one step only: Adam
/// divides by `√v + eps`, so from the second update on, a parameter whose
/// gradient sits at rounding level can legitimately move by up to the
/// learning rate either way.
pub fn check_against_local(
    cfg: &EngineConfig,
    losses: &[f32],
    first_state: &[f32],
) -> Result<(), String> {
    let (want_losses, want_state) = local_run(cfg, losses.len())?;
    let bounded = |what: &str, got: &[f32], want: &[f32]| {
        compare_slice(what, got, want, ORACLE_TRAIN_ATOL, ORACLE_TRAIN_RTOL)
            .map_err(|d| d.to_string())
    };
    bounded("loss vs Backend::Local", losses, &want_losses)?;
    bounded("rank 0 state vs Backend::Local", first_state, &want_state)
}
