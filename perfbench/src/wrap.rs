//! Wrappers that time calls into the program's public layer APIs from
//! outside: NN layers ([`Layer`]), Max N / exchange strategies
//! ([`ExchangeStrategy`]) and transport endpoints ([`ExchangeTransport`]).
//! Each delegates every call unchanged, so a wrapped run computes the same
//! bits as an unwrapped one; the correctness gates check that it does.

use crate::trace::{now_ns, WorkerTrace, STEP};
use dlion_core::messages::{Payload, WireCfg};
use dlion_core::{
    ExchangeStrategy, ExchangeTransport, PeerUpdate, StrategyCtx, SyncPolicy, TransportError,
};
use dlion_nn::{Conv2d, Dense, Flatten, Layer, MaxPool2, Model, Relu};
use dlion_tensor::{DetRng, Scratch, Tensor};
use std::sync::Arc;
use std::time::Duration;

/// Times one layer's training forward and backward passes (the scratch
/// path the worker step takes). Layer 0 opens and closes the step span,
/// so the step covers everything from the first forward to the last
/// backward. Evaluation forwards pass through untimed: the profiler's
/// `eval` phase covers them.
pub struct TracedLayer {
    inner: Box<dyn Layer>,
    index: usize,
    fwd: &'static str,
    bwd: &'static str,
    trace: Arc<WorkerTrace>,
}

/// Span names of layer `index`: `nn.l<i>_<kind>.fwd` / `.bwd`. Leaked
/// once per distinct name, so a 1024-worker cluster shares 24 strings.
pub fn layer_span_names(index: usize, kind: &str) -> (&'static str, &'static str) {
    use std::collections::HashMap;
    use std::sync::Mutex;
    static NAMES: Mutex<Option<HashMap<String, &'static str>>> = Mutex::new(None);
    let mut names = NAMES.lock().expect("name table poisoned");
    let names = names.get_or_insert_with(HashMap::new);
    let mut get = |suffix: &str| -> &'static str {
        let key = format!("nn.l{index}_{kind}.{suffix}");
        names
            .entry(key.clone())
            .or_insert_with(|| Box::leak(key.into_boxed_str()))
    };
    (get("fwd"), get("bwd"))
}

impl TracedLayer {
    pub fn new(inner: Box<dyn Layer>, index: usize, trace: Arc<WorkerTrace>) -> TracedLayer {
        let (fwd, bwd) = layer_span_names(index, inner.name());
        TracedLayer {
            inner,
            index,
            fwd,
            bwd,
            trace,
        }
    }
}

impl Layer for TracedLayer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.inner.forward(x)
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        self.inner.backward(dout)
    }

    fn forward_s(&mut self, x: Tensor, s: &mut Scratch) -> Tensor {
        if self.index == 0 {
            self.trace.begin_iteration(STEP);
        }
        let t0 = now_ns();
        let y = self.inner.forward_s(x, s);
        self.trace.record(self.fwd, t0, now_ns());
        y
    }

    fn backward_s(&mut self, dout: Tensor, s: &mut Scratch) -> Tensor {
        let t0 = now_ns();
        let dx = self.inner.backward_s(dout, s);
        self.trace.record(self.bwd, t0, now_ns());
        if self.index == 0 {
            self.trace.end_iteration();
        }
        dx
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn param(&self, i: usize) -> &Tensor {
        self.inner.param(i)
    }

    fn param_mut(&mut self, i: usize) -> &mut Tensor {
        self.inner.param_mut(i)
    }

    fn grad(&self, i: usize) -> &Tensor {
        self.inner.grad(i)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(TracedLayer::new(
            self.inner.clone_box(),
            self.index,
            Arc::clone(&self.trace),
        ))
    }
}

/// Rebuild a CipherNet (`dlion_nn::cipher_net`'s layer stack) with every
/// layer wrapped in a [`TracedLayer`], carrying `model`'s weights and wire
/// size. The layer dimensions come from `model`'s variable shapes, and
/// [`Model::set_weights`] refuses any shape that does not line up.
pub fn traced_cipher(model: &Model, trace: &Arc<WorkerTrace>) -> Model {
    assert_eq!(model.num_vars(), 10, "CipherNet has 10 weight variables");
    let dims = |v: usize| model.var(v).shape().dims().to_vec();
    let (c1, c2, c3) = (dims(0), dims(2), dims(4));
    let (fc1, fc2) = (dims(6), dims(8));
    // Conv weights are (out, in, k, k) with k = 3 and padding 1; dense
    // weights are (in, out).
    let mut rng = DetRng::seed_from_u64(0);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(c1[1], c1[0], c1[2], 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2::new()),
        Box::new(Conv2d::new(c2[1], c2[0], c2[2], 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2::new()),
        Box::new(Conv2d::new(c3[1], c3[0], c3[2], 1, &mut rng)),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::new(fc1[0], fc1[1], &mut rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(fc2[0], fc2[1], &mut rng)),
    ];
    let wrapped = layers
        .into_iter()
        .enumerate()
        .map(|(i, l)| Box::new(TracedLayer::new(l, i, Arc::clone(trace))) as Box<dyn Layer>)
        .collect();
    let mut traced = Model::new(wrapped);
    traced.set_weights(&model.weights());
    traced.set_wire_bytes(model.wire_bytes());
    traced
}

/// Wraps a worker's exchange strategy. Always counts samples and stamps
/// the time each iteration reaches gradient exchange (the untraced
/// instrumentation); traced, it also times Max N selection and counts
/// the entries it keeps.
pub struct TracedStrategy {
    inner: Box<dyn ExchangeStrategy>,
    trace: Arc<WorkerTrace>,
}

impl TracedStrategy {
    pub fn new(inner: Box<dyn ExchangeStrategy>, trace: Arc<WorkerTrace>) -> TracedStrategy {
        TracedStrategy { inner, trace }
    }
}

impl ExchangeStrategy for TracedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sync_policy(&self) -> SyncPolicy {
        self.inner.sync_policy()
    }

    fn generate_partial_gradients(
        &mut self,
        ctx: &StrategyCtx,
        grads: &[Tensor],
        model: &Model,
    ) -> Vec<PeerUpdate> {
        self.trace.stamp_iteration(ctx.lbs);
        if !self.trace.traced {
            return self.inner.generate_partial_gradients(ctx, grads, model);
        }
        let t0 = now_ns();
        let updates = self.inner.generate_partial_gradients(ctx, grads, model);
        self.trace.record("core.select", t0, now_ns());
        let computed: usize = grads.iter().map(Tensor::numel).sum();
        let sent: usize = updates.iter().map(|u| u.msg.entries()).sum();
        self.trace
            .count_entries(sent as u64, (computed * updates.len()) as u64);
        updates
    }
}

/// Counters of one wrapped transport endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NetCounters {
    pub send_calls: u64,
    pub bytes_sent: u64,
    pub frames_recv: u64,
    pub errors: u64,
    /// Nanoseconds inside blocking receives (`recv_frame_timeout`).
    pub recv_block_ns: u64,
}

impl NetCounters {
    pub fn add(&mut self, o: &NetCounters) {
        self.send_calls += o.send_calls;
        self.bytes_sent += o.bytes_sent;
        self.frames_recv += o.frames_recv;
        self.errors += o.errors;
        self.recv_block_ns += o.recv_block_ns;
    }
}

/// Every payload an endpoint sent, with the wire settings it went out
/// under.
pub type Sent = Vec<(Arc<Payload>, WireCfg)>;

/// Wraps a live transport endpoint: times sends (which block only under
/// backpressure) and receives, counts bytes, frames and errors, and keeps
/// what it needs to replay the codec after the run — every sent payload,
/// and with `keep_frames` a copy of every received frame. Encoding runs
/// in the TCP writer thread, out of reach of a wrapper, so the codec is
/// timed by replaying it on the same inputs once the run is over.
pub struct TracedTransport {
    inner: Box<dyn ExchangeTransport>,
    trace: Arc<WorkerTrace>,
    keep_frames: bool,
    counters: NetCounters,
    sent: Sent,
    frames: Vec<Vec<u8>>,
}

impl TracedTransport {
    pub fn new(
        inner: Box<dyn ExchangeTransport>,
        trace: Arc<WorkerTrace>,
        keep_frames: bool,
    ) -> TracedTransport {
        TracedTransport {
            inner,
            trace,
            keep_frames,
            counters: NetCounters::default(),
            sent: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// Drop the endpoint (closing its links) and keep what was recorded.
    pub fn into_parts(self) -> (NetCounters, Sent, Vec<Vec<u8>>) {
        (self.counters, self.sent, self.frames)
    }

    fn on_recv<T>(
        &mut self,
        r: Result<Option<(usize, Vec<u8>)>, T>,
    ) -> Result<Option<(usize, Vec<u8>)>, T> {
        match &r {
            Ok(Some((_, frame))) => {
                self.counters.frames_recv += 1;
                if self.keep_frames {
                    self.frames.push(frame.clone());
                }
            }
            Ok(None) => {}
            Err(_) => self.counters.errors += 1,
        }
        r
    }
}

impl ExchangeTransport for TracedTransport {
    fn me(&self) -> usize {
        self.inner.me()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn send_frame(&mut self, to: usize, frame: Vec<u8>) -> Result<(), TransportError> {
        let len = frame.len() as u64;
        let t0 = now_ns();
        let r = self.inner.send_frame(to, frame);
        self.trace.record("net.send", t0, now_ns());
        self.counters.send_calls += 1;
        match r {
            Ok(()) => self.counters.bytes_sent += len,
            Err(_) => self.counters.errors += 1,
        }
        r
    }

    fn send_wire(
        &mut self,
        to: usize,
        payload: Arc<Payload>,
        cfg: &WireCfg,
    ) -> Result<usize, TransportError> {
        self.sent.push((Arc::clone(&payload), *cfg));
        let t0 = now_ns();
        let r = self.inner.send_wire(to, payload, cfg);
        self.trace.record("net.send", t0, now_ns());
        self.counters.send_calls += 1;
        match &r {
            Ok(bytes) => self.counters.bytes_sent += *bytes as u64,
            Err(_) => self.counters.errors += 1,
        }
        r
    }

    fn try_recv_frame(&mut self) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        let t0 = now_ns();
        let r = self.inner.try_recv_frame();
        self.trace.record("net.recv_wait", t0, now_ns());
        self.on_recv(r)
    }

    fn recv_frame_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<(usize, Vec<u8>)>, TransportError> {
        let t0 = now_ns();
        let r = self.inner.recv_frame_timeout(timeout);
        let t1 = now_ns();
        self.trace.record("net.recv_wait", t0, t1);
        self.counters.recv_block_ns += t1 - t0;
        self.on_recv(r)
    }

    fn link_health(&mut self) -> Vec<dlion_core::LinkHealth> {
        self.inner.link_health()
    }
}

/// A `Write` sink that only counts: what `Payload::write_wire` streams,
/// minus the socket.
#[derive(Default)]
pub struct CountingSink {
    pub bytes: u64,
    pub writes: u64,
}

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        self.writes += 1;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlion_nn::ModelSpec;
    use dlion_tensor::Shape;

    #[test]
    fn traced_cipher_computes_the_same_bits() {
        let mut rng = DetRng::seed_from_u64(9);
        let shape = Shape::d4(1, 1, 12, 12);
        let mut plain = ModelSpec::Cipher.build(&shape, 10, &mut rng);
        let trace = Arc::new(WorkerTrace::new(0, true));
        let mut traced = traced_cipher(&plain, &trace);
        assert_eq!(traced.wire_bytes(), plain.wire_bytes());
        let x = Tensor::randn(Shape::d4(8, 1, 12, 12), 1.0, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
        let (mut s1, mut s2) = (Scratch::new(), Scratch::new());
        let (mut g1, mut g2) = (Vec::new(), Vec::new());
        let l1 = plain.forward_backward_scratch(x.clone(), &labels, &mut s1, &mut g1);
        let l2 = traced.forward_backward_scratch(x, &labels, &mut s2, &mut g2);
        assert_eq!(l1.to_bits(), l2.to_bits());
        for (a, b) in g1.iter().zip(&g2) {
            assert!(a
                .data()
                .iter()
                .zip(b.data())
                .all(|(p, q)| p.to_bits() == q.to_bits()));
        }
        let spans = trace.take_spans();
        // One step span plus a forward and a backward span per layer.
        assert_eq!(spans.len(), 1 + 2 * 12);
        assert!(spans[1..].iter().all(|s| s.parent == 0));
        assert!(spans.iter().any(|s| s.name == "nn.l9_dense.bwd"));
    }
}
