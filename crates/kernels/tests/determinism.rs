//! Bitwise determinism of the parallel kernels across thread counts.
//!
//! The parallel schedules in `flash.rs` and `lmhead.rs` decompose work into
//! *fixed* row/vocab blocks whose per-destination accumulation order never
//! depends on how many workers execute them, so the results must be
//! bit-identical — not merely close — to the serial path at any
//! `RAYON_NUM_THREADS`. These tests sweep 1, 2, and 8 threads over every
//! mask kind and compare outputs with `f32::to_bits`.
//!
//! The rayon shim re-reads `RAYON_NUM_THREADS` on every call, which is what
//! lets a single process sweep thread counts. The variable is process-global
//! state, so everything runs inside one `#[test]` to keep the sweeps from
//! racing each other under the default parallel test harness.

use burst_kernels::{attn_tile_backward, flash_forward, fused_lm_loss, AttnMask, BlockSparseMask};
use burst_tensor::randn_mat;
use std::sync::{Barrier, Mutex};

const THREADS: [usize; 3] = [1, 2, 8];

/// Both tests in this file mutate process-global state (env vars, the SIMD
/// dispatch atom), so they serialise on one lock.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    std::env::set_var("RAYON_NUM_THREADS", n.to_string());
    let r = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    r
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bit mismatch at {i}: {x} vs {y}"
        );
    }
}

fn mask_kinds(n: usize) -> Vec<(&'static str, AttnMask)> {
    vec![
        ("full", AttnMask::Full),
        ("causal", AttnMask::Causal),
        ("swa", AttnMask::SlidingWindow { window: 24 }),
        (
            "dilated",
            AttnMask::Dilated {
                window: 32,
                step: 2,
            },
        ),
        (
            "blocksparse",
            AttnMask::BlockSparse(BlockSparseMask::sliding_window_blocks(4, n.div_ceil(4), 2)),
        ),
    ]
}

#[test]
fn parallel_kernels_bit_identical_across_thread_counts() {
    let _env = ENV_LOCK.lock().unwrap();
    // n and d chosen so n·n·d clears the PAR_VOLUME gate (96·96·16 = 147456)
    // and n is not a multiple of the 32-row block, exercising the ragged
    // final block under every thread count.
    let (n, d) = (97usize, 16usize);
    let q = randn_mat(n, d, 0.6, 11);
    let k = randn_mat(n, d, 0.6, 12);
    let v = randn_mat(n, d, 0.6, 13);
    let grad_o = randn_mat(n, d, 0.4, 14);
    let idx: Vec<usize> = (0..n).collect();
    let scale = 1.0 / (d as f32).sqrt();

    for (name, mask) in mask_kinds(n) {
        let reference = with_threads(1, || {
            let fwd = flash_forward(&q, &k, &v, scale, &mask, &idx, &idx);
            let d_vec = grad_o.rowsum_hadamard(&fwd.o);
            let (dq, dk, dv, _) = attn_tile_backward(
                &q, &k, &v, &grad_o, &fwd.lse, &d_vec, scale, &mask, &idx, &idx,
            );
            (fwd, dq, dk, dv)
        });
        for threads in THREADS {
            let (fwd, dq, dk, dv) = with_threads(threads, || {
                let fwd = flash_forward(&q, &k, &v, scale, &mask, &idx, &idx);
                let d_vec = grad_o.rowsum_hadamard(&fwd.o);
                let (dq, dk, dv, _) = attn_tile_backward(
                    &q, &k, &v, &grad_o, &fwd.lse, &d_vec, scale, &mask, &idx, &idx,
                );
                (fwd, dq, dk, dv)
            });
            let tag = format!("flash/{name}/t{threads}");
            assert_bits_eq(fwd.o.as_slice(), reference.0.o.as_slice(), &tag);
            assert_bits_eq(&fwd.lse, &reference.0.lse, &tag);
            assert_bits_eq(dq.as_slice(), reference.1.as_slice(), &tag);
            assert_bits_eq(dk.as_slice(), reference.2.as_slice(), &tag);
            assert_bits_eq(dv.as_slice(), reference.3.as_slice(), &tag);
        }
    }

    // Fused LM head: 97·512·16 = 794624 clears the gate; both the row-tile
    // and vocab-tile lists have several blocks.
    let vocab = 512usize;
    let h = randn_mat(n, d, 0.7, 15);
    let w = randn_mat(vocab, d, 0.7, 16);
    let y: Vec<usize> = (0..n).map(|i| (i * 131) % vocab).collect();
    let reference = with_threads(1, || fused_lm_loss(&h, &w, &y));
    for threads in THREADS {
        let out = with_threads(threads, || fused_lm_loss(&h, &w, &y));
        let tag = format!("lmhead/t{threads}");
        assert_eq!(out.loss.to_bits(), reference.loss.to_bits(), "{tag}: loss");
        assert_bits_eq(&out.losses, &reference.losses, &tag);
        assert_bits_eq(&out.lse, &reference.lse, &tag);
        assert_bits_eq(out.grad_h.as_slice(), reference.grad_h.as_slice(), &tag);
        assert_bits_eq(out.grad_w.as_slice(), reference.grad_w.as_slice(), &tag);
    }

    concurrent_callers_match_serial();
}

/// The benchmark's traffic: every simulated rank thread calls the parallel
/// kernels at once, so their joins share one pool. Eight concurrent callers
/// at the `fsdp_state` LM-head shape, a 512 × 512 causal attention tile and
/// a 512-row product must each reproduce the serial result bit for bit.
fn concurrent_callers_match_serial() {
    const CALLERS: usize = 8;
    let (n, d) = (512usize, 16usize);
    let q = randn_mat(n, d, 0.6, 31);
    let k = randn_mat(n, d, 0.6, 32);
    let v = randn_mat(n, d, 0.6, 33);
    let grad_o = randn_mat(n, d, 0.4, 34);
    let idx: Vec<usize> = (0..n).collect();
    let scale = 1.0 / (d as f32).sqrt();
    let (rows, vocab, dm) = (32usize, 8192usize, 256usize);
    let h = randn_mat(rows, dm, 0.7, 35);
    let w = randn_mat(vocab, dm, 0.7, 36);
    let y: Vec<usize> = (0..rows).map(|i| (i * 2731) % vocab).collect();
    let a = randn_mat(512, dm, 0.5, 37);
    let b = randn_mat(dm, dm, 0.5, 38);

    let run_all = || {
        let fwd = flash_forward(&q, &k, &v, scale, &AttnMask::Causal, &idx, &idx);
        let d_vec = grad_o.rowsum_hadamard(&fwd.o);
        let (dq, dk, dv, _) = attn_tile_backward(
            &q,
            &k,
            &v,
            &grad_o,
            &fwd.lse,
            &d_vec,
            scale,
            &AttnMask::Causal,
            &idx,
            &idx,
        );
        (fwd, dq, dk, dv, fused_lm_loss(&h, &w, &y), a.matmul_nt(&b))
    };
    let reference = with_threads(1, run_all);
    let outs = with_threads(CALLERS, || {
        let start = Barrier::new(CALLERS);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        run_all()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    for (c, out) in outs.iter().enumerate() {
        let tag = format!("concurrent/caller{c}");
        assert_bits_eq(out.0.o.as_slice(), reference.0.o.as_slice(), &tag);
        assert_bits_eq(&out.0.lse, &reference.0.lse, &tag);
        assert_bits_eq(out.1.as_slice(), reference.1.as_slice(), &tag);
        assert_bits_eq(out.2.as_slice(), reference.2.as_slice(), &tag);
        assert_bits_eq(out.3.as_slice(), reference.3.as_slice(), &tag);
        assert_eq!(
            out.4.loss.to_bits(),
            reference.4.loss.to_bits(),
            "{tag}: loss"
        );
        assert_bits_eq(&out.4.losses, &reference.4.losses, &tag);
        assert_bits_eq(&out.4.lse, &reference.4.lse, &tag);
        assert_bits_eq(out.4.grad_h.as_slice(), reference.4.grad_h.as_slice(), &tag);
        assert_bits_eq(out.4.grad_w.as_slice(), reference.4.grad_w.as_slice(), &tag);
        assert_bits_eq(out.5.as_slice(), reference.5.as_slice(), &tag);
    }
}

/// The AVX2+FMA microkernels and the scalar fallback are bound to each
/// other bit for bit: both contract multiply–add to a single rounding
/// (`f32::mul_add` ⟷ `vfmadd`), share one polynomial `exp`, and reduce in
/// the same lane order. `BURST_NO_SIMD=1` must therefore reproduce the
/// vector path exactly — this is the contract that makes the CI fallback
/// leg and the vectorised leg interchangeable witnesses.
#[test]
fn simd_and_scalar_dispatch_bit_identical() {
    let _env = ENV_LOCK.lock().unwrap();
    // d = 20 is not a multiple of the 8-lane AVX2 width, so every inner
    // loop exercises its ragged remainder; n·n·d clears the volume gates.
    let (n, d) = (97usize, 20usize);
    let q = randn_mat(n, d, 0.6, 21);
    let k = randn_mat(n, d, 0.6, 22);
    let v = randn_mat(n, d, 0.6, 23);
    let grad_o = randn_mat(n, d, 0.4, 24);
    let idx: Vec<usize> = (0..n).collect();
    let scale = 1.0 / (d as f32).sqrt();
    let vocab = 509usize; // prime: ragged vocab tiles too
    let h = randn_mat(n, d, 0.7, 25);
    let w = randn_mat(vocab, d, 0.7, 26);
    let y: Vec<usize> = (0..n).map(|i| (i * 131) % vocab).collect();

    let run_all = |mask: &AttnMask| {
        let fwd = flash_forward(&q, &k, &v, scale, mask, &idx, &idx);
        let d_vec = grad_o.rowsum_hadamard(&fwd.o);
        let (dq, dk, dv, _) = attn_tile_backward(
            &q, &k, &v, &grad_o, &fwd.lse, &d_vec, scale, mask, &idx, &idx,
        );
        let lm = fused_lm_loss(&h, &w, &y);
        (fwd, dq, dk, dv, lm)
    };

    for (name, mask) in mask_kinds(n) {
        burst_tensor::simd::refresh();
        let native = run_all(&mask);
        let native_label = burst_tensor::simd::dispatch_label();

        std::env::set_var("BURST_NO_SIMD", "1");
        burst_tensor::simd::refresh();
        assert!(
            !burst_tensor::simd::avx2_active(),
            "BURST_NO_SIMD=1 must force the scalar fallback"
        );
        let scalar = run_all(&mask);
        std::env::remove_var("BURST_NO_SIMD");
        burst_tensor::simd::refresh();

        let tag = format!("simd-vs-scalar/{name} (native dispatch: {native_label})");
        assert_bits_eq(scalar.0.o.as_slice(), native.0.o.as_slice(), &tag);
        assert_bits_eq(&scalar.0.lse, &native.0.lse, &tag);
        assert_bits_eq(scalar.1.as_slice(), native.1.as_slice(), &tag);
        assert_bits_eq(scalar.2.as_slice(), native.2.as_slice(), &tag);
        assert_bits_eq(scalar.3.as_slice(), native.3.as_slice(), &tag);
        assert_eq!(
            scalar.4.loss.to_bits(),
            native.4.loss.to_bits(),
            "{tag}: loss"
        );
        assert_bits_eq(&scalar.4.losses, &native.4.losses, &tag);
        assert_bits_eq(&scalar.4.lse, &native.4.lse, &tag);
        assert_bits_eq(scalar.4.grad_h.as_slice(), native.4.grad_h.as_slice(), &tag);
        assert_bits_eq(scalar.4.grad_w.as_slice(), native.4.grad_w.as_slice(), &tag);
    }
}
