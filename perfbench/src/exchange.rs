//! `exchange-5mb`: two loopback TCP endpoints swap the paper-scale 5 MB
//! dense Cipher gradient in lock-step rounds, decoding and verifying
//! every bit — the chunked streaming codec and the TCP bulk path, with
//! no training around them.

use crate::trace::{now_ns, tick, Stamp, WorkerTrace};
use crate::workload::{peak_kb_per_worker, replay_encode, Block, Op, Traced, Workload};
use crate::wrap::{NetCounters, Sent, TracedTransport};
use dlion_core::messages::{decode_wire, GradData, GradMsg, Payload, WireCfg};
use dlion_core::ExchangeTransport;
use dlion_net::{loopback_mesh, TcpOpts};
use dlion_tensor::{DetRng, Shape, Tensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Entries of the paper's 5 MB CipherNet gradient.
pub const ENTRIES: usize = 1_310_720;
/// Lock-step rounds per operation: with two endpoints, 1000 round
/// timings, enough for a 99th percentile per operation.
pub const ROUNDS: u64 = 500;
/// The local batch each gradient summarizes: a verified gradient counts
/// as this many samples' worth of exchange.
const LBS: usize = 32;
const ENDPOINTS: usize = 2;
const RECV_TIMEOUT: Duration = Duration::from_secs(30);

pub struct ExchangeWorkload {
    seed: u64,
    rounds: u64,
    /// The gradient each endpoint sends, drawn from the seed.
    grads: Vec<Tensor>,
}

fn payload(grad: &Tensor, round: u64) -> Payload {
    Payload::Grad(GradMsg {
        iteration: round,
        lbs: LBS,
        // Tensors are copy-on-write: every round shares one buffer.
        data: GradData::Dense(vec![grad.clone()]),
        n_used: 100.0,
    })
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What one endpoint's rounds produced.
struct Endpoint {
    verified: u64,
    /// One stamp when the rounds start, then one per verified round.
    stamps: Vec<Stamp>,
    error: Option<String>,
    wall_ns: u64,
    net: Option<(NetCounters, Sent)>,
}

impl ExchangeWorkload {
    pub fn new(seed: u64, rounds: u64) -> ExchangeWorkload {
        let mut rng = DetRng::seed_from_u64(seed);
        let grads = (0..ENDPOINTS)
            .map(|_| Tensor::randn(Shape::d1(ENTRIES), 1.0, &mut rng))
            .collect();
        ExchangeWorkload {
            seed,
            rounds,
            grads,
        }
    }

    fn mesh(&self) -> (Result<Vec<dlion_net::TcpTransport>, String>, f64) {
        let t0 = Instant::now();
        let opts = TcpOpts {
            queue_cap: 4,
            establish_timeout: RECV_TIMEOUT,
            ..TcpOpts::default()
        };
        let mesh = loopback_mesh(ENDPOINTS, self.seed, &opts, None).map_err(|e| e.to_string());
        (mesh, t0.elapsed().as_secs_f64())
    }

    /// Is `got` exactly what endpoint `sender` sent in `round`?
    fn is_sent(&self, got: &Payload, sender: usize, round: u64) -> bool {
        matches!(got, Payload::Grad(GradMsg {
            iteration, lbs: LBS, data: GradData::Dense(vars), n_used
        }) if *iteration == round
            && *n_used == 100.0
            && vars.len() == 1
            && same_bits(vars[0].data(), self.grads[sender].data()))
    }

    /// Endpoint `me`'s rounds: send, receive the peer's frame, decode,
    /// verify against what the peer sent.
    fn rounds(&self, me: usize, t: &mut dyn ExchangeTransport, trace: &WorkerTrace) -> Endpoint {
        let peer = 1 - me;
        let cfg = WireCfg::default();
        let (mut scratch, mut pool) = (Vec::new(), Vec::new());
        let mut out = Endpoint {
            verified: 0,
            stamps: Vec::with_capacity(self.rounds as usize + 1),
            error: None,
            wall_ns: 0,
            net: None,
        };
        let start = tick();
        out.stamps.push(Stamp { at: start, lbs: 0 });
        for round in 0..self.rounds {
            if trace.traced {
                trace.begin_iteration("exchange.round");
            }
            let result = (|| -> Result<(), String> {
                let p = Arc::new(payload(&self.grads[me], round));
                t.send_wire(peer, p, &cfg)
                    .map_err(|e| format!("send: {e}"))?;
                let (from, frame) = t
                    .recv_frame_timeout(RECV_TIMEOUT)
                    .map_err(|e| format!("recv: {e}"))?
                    .ok_or("no frame before the timeout")?;
                let d0 = now_ns();
                let (kind, body) = decode_wire(&frame, &mut scratch).map_err(|e| e.to_string())?;
                let d1 = now_ns();
                let got = Payload::decode_body_pooled(kind, body, &mut pool)
                    .map_err(|e| e.to_string())?;
                if trace.traced {
                    trace.record("codec.decode_wire", d0, d1);
                    trace.record("codec.decode_body", d1, now_ns());
                }
                let v0 = now_ns();
                let ok = from == peer && self.is_sent(&got, peer, round);
                got.recycle(&mut pool);
                if trace.traced {
                    trace.record("verify", v0, now_ns());
                }
                if ok {
                    Ok(())
                } else {
                    Err(format!(
                        "round {round}: decoded gradient differs from the one sent"
                    ))
                }
            })();
            if trace.traced {
                trace.end_iteration();
            }
            match result {
                Ok(()) => {
                    out.verified += 1;
                    out.stamps.push(Stamp {
                        at: tick(),
                        lbs: LBS as u64,
                    });
                }
                Err(e) => {
                    out.error = Some(e);
                    break;
                }
            }
        }
        out.wall_ns = now_ns() - start.wall;
        out
    }
}

impl Workload for ExchangeWorkload {
    fn op(&mut self, traced: bool) -> Op {
        let (mesh, setup_s) = self.mesh();
        let mut op = Op {
            setup_s,
            attempted: ENDPOINTS as u64 * self.rounds,
            ..Op::default()
        };
        let mesh = match mesh {
            Ok(mesh) => mesh,
            Err(e) => {
                op.fail(format!("mesh: {e}"));
                return op;
            }
        };
        let traces: Vec<Arc<WorkerTrace>> = (0..ENDPOINTS)
            .map(|e| Arc::new(WorkerTrace::new(e, traced)))
            .collect();
        let t0 = tick();
        let endpoints: Vec<Endpoint> = std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .enumerate()
                .map(|(me, tcp)| {
                    let trace = Arc::clone(&traces[me]);
                    let this = &*self;
                    s.spawn(move || {
                        if traced {
                            let mut t =
                                TracedTransport::new(Box::new(tcp), Arc::clone(&trace), false);
                            let mut e = this.rounds(me, &mut t, &trace);
                            let (counters, sent, _) = t.into_parts();
                            e.net = Some((counters, sent));
                            e
                        } else {
                            let mut tcp = tcp;
                            this.rounds(me, &mut tcp, &trace)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("endpoint thread panicked"))
                .collect()
        });
        let t1 = tick();
        op.wall_s = (t1.wall - t0.wall) as f64 / 1e9;

        let mut traced_data = Traced {
            rss_per_worker_kb: peak_kb_per_worker(ENDPOINTS),
            ..Traced::default()
        };
        let mut verified = 0;
        for e in endpoints {
            verified += e.verified;
            op.add_intervals(&e.stamps);
            if let Some(err) = e.error {
                op.error.get_or_insert(err);
            }
            traced_data.loop_ns += e.wall_ns;
            if let Some((counters, sent)) = e.net {
                traced_data.net.add(&counters);
                if let Err(err) = replay_encode(&sent, &mut traced_data.codec) {
                    op.error.get_or_insert(format!("codec replay: {err}"));
                }
            }
        }
        op.failed = op.attempted - verified;
        op.samples = verified * LBS as u64;
        op.blocks = vec![Block::between(op.samples, t0, t1)];
        op.fingerprint = format!("verified={verified} entries={ENTRIES}");
        if traced {
            traced_data.traces = traces;
            op.traced = Some(traced_data);
        }
        op
    }

    fn setup_only(&mut self) -> f64 {
        self.mesh().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_verify_every_bit_and_repeat_per_seed() {
        let mut w = ExchangeWorkload::new(1, 3);
        let plain = w.op(false);
        assert_eq!((plain.attempted, plain.failed), (6, 0), "{:?}", plain.error);
        assert_eq!((plain.iter_ms.len(), plain.samples), (6, 6 * LBS as u64));
        let traced = w.op(true);
        assert_eq!(traced.fingerprint, plain.fingerprint);
        let t = traced.traced.expect("traced op records");
        let cfg = WireCfg::default();
        let chunks = payload(&w.grads[0], 0)
            .body_len_with(cfg.format)
            .div_ceil(cfg.chunk_bytes);
        assert_eq!(t.codec.chunks, 6 * chunks as u64);
        assert_eq!(
            (t.net.send_calls, t.net.frames_recv, t.net.errors),
            (6, 6, 0)
        );
        // Another seed draws other gradients.
        let other = ExchangeWorkload::new(2, 1);
        assert!(!same_bits(other.grads[0].data(), w.grads[0].data()));
    }

    #[test]
    fn verification_rejects_a_flipped_bit_or_wrong_round() {
        let w = ExchangeWorkload::new(3, 1);
        let sent = payload(&w.grads[1], 4);
        assert!(w.is_sent(&sent, 1, 4));
        assert!(!w.is_sent(&sent, 1, 5));
        assert!(!w.is_sent(&sent, 0, 4));
        let mut grad = w.grads[1].clone();
        grad.data_mut()[ENTRIES / 2] = f32::from_bits(grad.data()[ENTRIES / 2].to_bits() ^ 1);
        assert!(!w.is_sent(&payload(&grad, 4), 1, 4));
    }
}
