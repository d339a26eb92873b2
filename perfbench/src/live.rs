//! `live-tcp`: the live driver over loopback TCP, strict BSP, checked
//! bit for bit against a simulated twin of the same configuration.

use crate::trace::{tick, WorkerTrace};
use crate::workload::{
    peak_kb_per_worker, replay_decode, replay_encode, weight_bits, Block, CodecStats, Op, Traced,
    Workload,
};
use crate::wrap::{traced_cipher, NetCounters, TracedStrategy, TracedTransport};
use dlion_core::cluster::ClusterInit;
use dlion_core::strategy::build_strategy;
use dlion_core::{build_cluster, run_with_models, RunConfig, SyncPolicy, SystemKind};
use dlion_net::{
    assemble_metrics, link_masks, live_config, loopback_mesh, run_worker, LiveOpts, TcpOpts,
    WorkerEnv,
};
use dlion_simnet::{ComputeModel, NetworkModel};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iterations each worker runs per operation: over 1000 iteration
/// timings per operation, enough for a 99th percentile.
pub const LIVE_ITERS: u64 = 600;
const WORKERS: usize = 2;
/// The twin's links and the bandwidth the live strategies assume.
const BW_MBPS: f64 = 1000.0;
/// The twin's modelled iteration time at LBS 32, pinned in the live run
/// so the controllers see a fixed iteration time.
const ITER_TIME: f64 = 0.05 + 0.001 * 32.0;

pub struct LiveWorkload {
    cfg: RunConfig,
    opts: LiveOpts,
    twin_weights: Vec<Vec<u32>>,
}

impl LiveWorkload {
    pub fn new(seed: u64, iters: u64) -> LiveWorkload {
        let mut cfg = live_config(SystemKind::Baseline, seed);
        cfg.workload.data_seed = seed;
        cfg.duration = 1e9;
        cfg.eval_interval = 1e9;
        cfg.max_iters = Some(iters);
        cfg.capture_weights = true;
        // Strict BSP pins the float apply order, so live must equal the
        // simulated twin bit for bit.
        cfg.sync_override = Some(SyncPolicy::Synchronous);
        let opts = LiveOpts {
            iters,
            eval_every: 0,
            bw_mbps: BW_MBPS,
            assumed_iter_time: Some(ITER_TIME),
            stall_timeout: Duration::from_secs(60),
            ..LiveOpts::default()
        };
        let twin = run_with_models(
            &cfg,
            ComputeModel::homogeneous(WORKERS, 1.0, 0.001, 0.05),
            NetworkModel::uniform(WORKERS, BW_MBPS, 0.001),
            "perfbench/twin",
        );
        LiveWorkload {
            cfg,
            opts,
            twin_weights: weight_bits(&twin.final_weights),
        }
    }

    fn setup(&self) -> (ClusterInit, Vec<Vec<bool>>, Mesh, f64) {
        let n = WORKERS;
        let t0 = Instant::now();
        let init = build_cluster(&self.cfg, n);
        let masks = link_masks(&init.schedule, &self.cfg, &self.opts, n);
        let tcp = TcpOpts {
            queue_cap: self.opts.queue_cap,
            establish_timeout: self.opts.stall_timeout,
            ..TcpOpts::default()
        };
        let mesh = loopback_mesh(n, self.cfg.seed, &tcp, Some(&masks)).map_err(|e| e.to_string());
        (init, masks, mesh, t0.elapsed().as_secs_f64())
    }
}

type Mesh = Result<Vec<dlion_net::TcpTransport>, String>;

impl Workload for LiveWorkload {
    fn op(&mut self, traced: bool) -> Op {
        let n = WORKERS;
        let (init, masks, mesh, setup_s) = self.setup();
        let mut op = Op {
            setup_s,
            attempted: n as u64 * self.opts.iters,
            ..Op::default()
        };
        let mesh = match mesh {
            Ok(mesh) => mesh,
            Err(e) => {
                op.fail(format!("mesh: {e}"));
                return op;
            }
        };
        let ClusterInit {
            mut workers,
            data,
            eval_indices,
            schedule,
            total_params,
            bytes_per_param,
            ..
        } = init;
        let traces: Vec<Arc<WorkerTrace>> = (0..n)
            .map(|w| Arc::new(WorkerTrace::new(w, traced)))
            .collect();
        for w in &mut workers {
            let trace = &traces[w.id];
            let inner = std::mem::replace(&mut w.strategy, build_strategy(&self.cfg));
            w.strategy = Box::new(TracedStrategy::new(inner, Arc::clone(trace)));
            if traced {
                w.model = traced_cipher(&w.model, trace);
            }
        }
        if traced {
            dlion_telemetry::profiler::reset();
            dlion_telemetry::profiler::enable(true);
        }
        let (cfg, opts) = (&self.cfg, &self.opts);
        let t0 = tick();
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .into_iter()
                .zip(mesh)
                .map(|(worker, tcp)| {
                    let env = WorkerEnv {
                        cfg,
                        opts,
                        data: &data,
                        eval_indices: &eval_indices,
                        schedule: Arc::clone(&schedule),
                        links: masks[worker.id].clone(),
                        total_params,
                        bytes_per_param,
                        clock: Arc::clone(&opts.clock),
                        env_label: "perfbench/live".into(),
                    };
                    let trace = Arc::clone(&traces[worker.id]);
                    s.spawn(move || {
                        let start = Instant::now();
                        if traced {
                            let mut t = TracedTransport::new(Box::new(tcp), trace, true);
                            let r = run_worker(worker, &env, &mut t);
                            (r, start.elapsed(), Some(t.into_parts()))
                        } else {
                            let mut tcp = tcp;
                            let r = run_worker(worker, &env, &mut tcp);
                            (r, start.elapsed(), None)
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect::<Vec<_>>()
        });
        let t1 = tick();
        op.wall_s = (t1.wall - t0.wall) as f64 / 1e9;
        dlion_telemetry::profiler::enable(false);

        let mut outcomes = Vec::with_capacity(n);
        let (mut loop_ns, mut net, mut codec) =
            (0u64, NetCounters::default(), CodecStats::default());
        for (r, wall, parts) in results {
            loop_ns += wall.as_nanos() as u64;
            match r {
                Ok(o) => outcomes.push(o),
                Err(e) => op.fail(format!("worker: {e}")),
            }
            if let Some((c, sent, frames)) = parts {
                net.add(&c);
                if let Err(e) = replay_encode(&sent, &mut codec)
                    .and_then(|()| replay_decode(&frames, &mut codec))
                {
                    op.fail(format!("codec replay: {e}"));
                }
            }
        }
        if op.error.is_some() {
            return op;
        }
        let m = assemble_metrics(&self.cfg, "perfbench/live", outcomes);
        let done: u64 = m.iterations.iter().sum();
        op.failed = op.attempted.saturating_sub(done);
        if op.failed > 0 {
            op.error = Some(format!("iterations {:?}", m.iterations));
        }
        if weight_bits(&m.final_weights) != self.twin_weights {
            op.fail("final weights differ from the simulated twin".into());
        }
        // One stamp per gradient exchange and worker: each interval is one
        // worker iteration, gate wait included; its CPU time is the whole
        // process's, so both workers and the transport threads count.
        for t in &traces {
            let stamps = t.take_stamps();
            op.samples += stamps.iter().map(|s| s.lbs).sum::<u64>();
            op.add_intervals(&stamps);
        }
        op.blocks = vec![Block::between(op.samples, t0, t1)];
        op.final_accuracy = m.final_mean_acc();
        op.fingerprint = format!(
            "workers={n} iterations={:?} samples={} accuracy={:#x} grad_bytes={:#x} wire={:?}",
            m.iterations,
            op.samples,
            op.final_accuracy.to_bits(),
            m.grad_bytes.to_bits(),
            m.wire_bytes_by_kind,
        );
        if traced {
            op.traced = Some(Traced {
                traces,
                loop_ns,
                profiler: dlion_telemetry::profiler::snapshot(),
                rss_per_worker_kb: peak_kb_per_worker(n),
                codec,
                net,
                driver: true,
                ..Traced::default()
            });
        }
        op
    }

    fn setup_only(&mut self) -> f64 {
        self.setup().3
    }

    /// The 1-worker run is plain local SGD on worker 0's model, shard and
    /// batch size (the program has no 1-worker cluster): the same steps
    /// without exchange, so the ratio is what the exchange costs.
    fn scaling_efficiency(&mut self, two_worker_samples_per_s: f64) -> Option<f64> {
        let init = build_cluster(&self.cfg, WORKERS);
        let mut w = init.workers.into_iter().next()?;
        let factor = -self.cfg.lr;
        let t0 = Instant::now();
        for _ in 0..self.opts.iters {
            w.sample_batch_reuse();
            let (x, y) = init.data.batch_scratch(&w.batch_buf, &mut w.scratch);
            w.model
                .forward_backward_scratch(x, &y, &mut w.scratch, &mut w.grads);
            for g in &mut w.grads {
                g.clip_inplace(self.cfg.grad_clip);
            }
            w.model.apply_dense_update(&w.grads, factor);
        }
        let one = (self.opts.iters * w.lbs as u64) as f64 / t0.elapsed().as_secs_f64();
        Some(two_worker_samples_per_s / (WORKERS as f64 * one))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_run_equals_its_twin_traced_or_not() {
        let mut w = LiveWorkload::new(1, 12);
        let plain = w.op(false);
        assert!(plain.error.is_none(), "{:?}", plain.error);
        assert_eq!((plain.attempted, plain.failed), (24, 0));
        assert_eq!(plain.iter_ms.len(), 2 * 11);
        let traced = w.op(true);
        assert_eq!(traced.fingerprint, plain.fingerprint);
        let t = traced.traced.expect("traced op records");
        assert!(t.codec.bytes > 0 && t.net.frames_recv > 0);
        let other = LiveWorkload::new(2, 12).op(false);
        assert!(other.error.is_none(), "{:?}", other.error);
        assert_ne!(other.fingerprint, plain.fingerprint);
    }
}
