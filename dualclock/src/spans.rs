//! Host-clock spans recorded from outside the program: around public calls
//! into each layer, and through [`TimedExec`], a timing `AttnExec` wrapper.

use std::collections::BTreeMap;
use std::time::Instant;

use burst_comm::SpanKind;
use burst_kernels::AttnMask;
use burst_model::attention::AttnOut;
use burst_model::AttnExec;
use burst_tensor::Mat;

/// One thread's layer timer. Spans nest; each layer accumulates its *self*
/// time (its duration minus the time its child spans cover) and a count.
/// A timer made by [`Spans::off`] records nothing and reads no clock.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    stack: Vec<Open>,
    self_secs: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, u64>,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start: Instant,
    child_secs: f64,
}

impl Spans {
    pub fn on() -> Self {
        Spans {
            on: true,
            stack: Vec::new(),
            self_secs: BTreeMap::new(),
            calls: BTreeMap::new(),
        }
    }

    pub fn off() -> Self {
        Spans {
            on: false,
            ..Spans::on()
        }
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.stack.push(Open {
            name,
            start: Instant::now(),
            child_secs: 0.0,
        });
    }

    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let open = self.stack.pop().expect("span end without begin");
        let dur = open.start.elapsed().as_secs_f64();
        *self.self_secs.entry(open.name).or_default() += dur - open.child_secs;
        *self.calls.entry(open.name).or_default() += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_secs += dur;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Self seconds of `name` (0 when it never ran).
    pub fn self_secs(&self, name: &str) -> f64 {
        self.self_secs.get(name).copied().unwrap_or(0.0)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Sum of every layer's self seconds.
    pub fn total_self_secs(&self) -> f64 {
        self.self_secs.values().sum()
    }

    /// Fold another thread's totals into these.
    pub fn merge(&mut self, other: &Spans) {
        assert!(other.stack.is_empty(), "merging a timer with open spans");
        for (k, v) in &other.self_secs {
            *self.self_secs.entry(k).or_default() += v;
        }
        for (k, v) in &other.calls {
            *self.calls.entry(k).or_default() += v;
        }
    }
}

pub const DATTN_FWD: &str = "dattn.fwd";
pub const DATTN_BWD: &str = "dattn.bwd";
pub const DATTN_RECOMPUTE: &str = "dattn.recompute";

/// Delegates every call to `inner` and times the three attention entry
/// points. A forward inside the model's recompute scope, or a partial
/// forward, counts as recompute.
pub struct TimedExec<E> {
    inner: E,
    pub spans: Spans,
    recomputing: bool,
}

impl<E: AttnExec> TimedExec<E> {
    pub fn new(inner: E, spans: Spans) -> Self {
        TimedExec {
            inner,
            spans,
            recomputing: false,
        }
    }
}

impl<E: AttnExec> AttnExec for TimedExec<E> {
    fn forward(&mut self, q: &[Mat], k: &[Mat], v: &[Mat]) -> AttnOut {
        let name = if self.recomputing {
            DATTN_RECOMPUTE
        } else {
            DATTN_FWD
        };
        self.spans.time(name, || self.inner.forward(q, k, v))
    }

    fn backward(
        &mut self,
        q: &[Mat],
        k: &[Mat],
        v: &[Mat],
        o: &[Mat],
        lse: &[Vec<f32>],
        grad_o: &[Mat],
    ) -> (Vec<Mat>, Vec<Mat>, Vec<Mat>) {
        self.spans
            .time(DATTN_BWD, || self.inner.backward(q, k, v, o, lse, grad_o))
    }

    fn forward_partial(
        &mut self,
        q: &[Mat],
        k: &[Mat],
        v: &[Mat],
        cutoff: usize,
    ) -> Option<AttnOut> {
        self.spans.time(DATTN_RECOMPUTE, || {
            self.inner.forward_partial(q, k, v, cutoff)
        })
    }

    fn local_indices(&self) -> Vec<usize> {
        self.inner.local_indices()
    }

    fn mask(&self) -> &AttnMask {
        self.inner.mask()
    }

    fn span_begin(&mut self, kind: SpanKind, name: &'static str) {
        self.inner.span_begin(kind, name);
    }

    fn span_end(&mut self) {
        self.inner.span_end();
    }

    fn recompute_scope(&mut self, enter: bool) {
        self.recomputing = enter;
        self.inner.recompute_scope(enter);
    }

    fn stash_push(&mut self, bytes: usize) {
        self.inner.stash_push(bytes);
    }

    fn stash_pop(&mut self) {
        self.inner.stash_pop();
    }

    fn note_workspace(&mut self, bytes: usize) {
        self.inner.note_workspace(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < micros as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::on();
        s.begin("outer");
        spin(2_000);
        s.time("inner", || spin(3_000));
        s.end();
        let outer = s.self_secs("outer");
        let inner = s.self_secs("inner");
        assert!(inner >= 3e-3, "inner {inner}");
        assert!((2e-3..3e-3 + 2e-3).contains(&outer), "outer {outer}");
        assert_eq!(s.calls("inner"), 1);
        assert_eq!(s.self_secs("absent"), 0.0);
        let mut total = Spans::on();
        total.merge(&s);
        total.merge(&s);
        assert_eq!(total.calls("outer"), 2);
        assert!((total.total_self_secs() - 2.0 * s.total_self_secs()).abs() < 1e-12);
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::off();
        s.time("x", || spin(100));
        assert_eq!(s.calls("x"), 0);
        assert_eq!(s.total_self_secs(), 0.0);
    }
}
