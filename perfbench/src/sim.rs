//! `sim-paper`: DLion on Homo A (6 workers) over the paper's 1500 s CPU
//! cell, one full `ClusterRunner` run per operation.

use crate::trace::{tick, Stamp, WorkerTrace};
use crate::workload::{blocks, peak_kb_per_worker, Op, Traced, Workload};
use crate::wrap::{traced_cipher, TracedStrategy};
use dlion_core::strategy::build_strategy;
use dlion_core::{ClusterRunner, RunConfig, SystemKind};
use dlion_microcloud::{ClusterKind, EnvId};
use std::sync::Arc;
use std::time::Instant;

const ENV: EnvId = EnvId::HomoA;
/// Throughput blocks per simulated run, about 90 worker iterations (a
/// quarter second) each.
const BLOCKS_PER_RUN: usize = 32;

pub struct SimWorkload {
    cfg: RunConfig,
}

impl SimWorkload {
    pub fn paper(seed: u64) -> SimWorkload {
        let mut cfg = RunConfig::paper_default(SystemKind::DLion, ClusterKind::Cpu);
        cfg.seed = seed;
        cfg.workload.data_seed = seed;
        SimWorkload { cfg }
    }

    fn runner(&self, cfg: RunConfig) -> (ClusterRunner, f64) {
        let spec = ENV.spec();
        let (compute, net) = (spec.compute_model(), spec.network_model());
        let t0 = Instant::now();
        let runner = ClusterRunner::new(cfg, compute, net, spec.name);
        (runner, t0.elapsed().as_secs_f64())
    }
}

impl Workload for SimWorkload {
    fn op(&mut self, traced: bool) -> Op {
        let mut cfg = self.cfg.clone();
        // The per-run registry (the `events` counter) is instrumentation:
        // on for the traced run only.
        cfg.telemetry = traced;
        let (mut runner, setup_s) = self.runner(cfg.clone());
        let mut traces = Vec::new();
        runner.for_each_worker(|w| {
            let trace = Arc::new(WorkerTrace::new(w.id, traced));
            let inner = std::mem::replace(&mut w.strategy, build_strategy(&cfg));
            w.strategy = Box::new(TracedStrategy::new(inner, Arc::clone(&trace)));
            if traced {
                w.model = traced_cipher(&w.model, &trace);
            }
            traces.push(trace);
        });
        if traced {
            dlion_telemetry::profiler::reset();
            dlion_telemetry::profiler::enable(true);
        }
        let run_start = tick();
        let m = runner.run();
        let run_end = tick();
        dlion_telemetry::profiler::enable(false);
        let wall_s = (run_end.wall - run_start.wall) as f64 / 1e9;

        // The event loop is one thread: the interval between consecutive
        // gradient exchanges, over all workers, is the cost of one
        // simulated worker iteration.
        let mut stamps: Vec<Stamp> = traces.iter().flat_map(|t| t.take_stamps()).collect();
        stamps.sort_unstable();
        let samples = stamps.iter().map(|s| s.lbs).sum();
        let final_accuracy = m.final_mean_acc();
        let mut op = Op {
            setup_s,
            wall_s,
            samples,
            blocks: blocks(&stamps, run_start, run_end, BLOCKS_PER_RUN),
            attempted: 1,
            fingerprint: format!(
                "iterations={:?} samples={samples} accuracy={:#x} grad_bytes={:#x} dkt_merges={} wire={:?}",
                m.iterations,
                final_accuracy.to_bits(),
                m.grad_bytes.to_bits(),
                m.dkt_merges,
                m.wire_bytes_by_kind,
            ),
            final_accuracy,
            ..Op::default()
        };
        op.add_intervals(&stamps);
        if traced {
            op.traced = Some(Traced {
                rss_per_worker_kb: peak_kb_per_worker(traces.len()),
                traces,
                loop_ns: run_end.wall - run_start.wall,
                profiler: dlion_telemetry::profiler::snapshot(),
                events: m.telemetry.counter("events"),
                ..Traced::default()
            });
        }
        op
    }

    fn setup_only(&mut self) -> f64 {
        self.runner(self.cfg.clone()).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_repeats_counts_traced_or_not_and_another_seed_differs() {
        let short = |seed| {
            let mut w = SimWorkload::paper(seed);
            w.cfg.duration = 60.0;
            w
        };
        let mut w = short(1);
        let first = w.op(false);
        assert!(first.samples > 0 && first.error.is_none());
        assert_eq!(
            first.blocks.iter().map(|b| b.samples).sum::<u64>(),
            first.samples
        );
        assert_eq!(w.op(false).fingerprint, first.fingerprint);
        let traced = w.op(true);
        assert_eq!(traced.fingerprint, first.fingerprint);
        let t = traced.traced.expect("traced op records");
        assert!(t.events > 0);
        let spans = t.traces[0].take_spans();
        let steps = spans
            .iter()
            .filter(|s| s.name == crate::trace::STEP)
            .count();
        let selects = spans.iter().filter(|s| s.name == "core.select").count();
        assert!(steps > 0 && selects > 0 && steps >= selects);
        assert_ne!(short(2).op(false).fingerprint, first.fingerprint);
    }
}
