//! The per-round worker protocol of Figures 4 and 10, written once: the
//! simulator ([`crate::runner::ClusterRunner`]) and the live driver
//! (`dlion-net`) both call it, so they perform the same model mutations in
//! the same order by construction.
//!
//! The module does no I/O and reads no clock. Callers pass in `now`, the
//! iteration time `dt`, the per-link bandwidth and the [`Ledger`]; it
//! returns the payloads to send, and the caller puts them on its network
//! model or transport.

use crate::config::RunConfig;
use crate::messages::{GradData, GradMsg, Payload};
use crate::strategy::{PeerUpdate, StrategyCtx};
use crate::sync::SyncPolicy;
use crate::weighted::update_factor;
use crate::worker::Worker;
use dlion_nn::Dataset;
use dlion_telemetry::{event, profile_scope, Phase};
use dlion_tensor::Tensor;
use dlion_topo::TopologySchedule;
use std::sync::Arc;

/// The Eq. 7 divisor ledger: the round from which each worker stopped
/// contributing (`Some(k)`: it computes rounds `0..k`), and each worker's
/// LBS share. The simulator keeps one for the cluster, each live worker
/// its own; both seed it from the fault plan, so members renormalize at
/// the same round no matter when a departure notice lands.
#[derive(Debug)]
pub struct Ledger {
    departed_at: Vec<Option<u64>>,
    lbs: Vec<usize>,
}

impl Ledger {
    pub fn new(n: usize, lbs: usize) -> Ledger {
        Ledger {
            departed_at: vec![None; n],
            lbs: vec![lbs; n],
        }
    }

    pub fn departed_at(&self, j: usize) -> Option<u64> {
        self.departed_at[j]
    }

    /// Record that `j` contributes only to rounds `< k`; the first record
    /// for a worker wins.
    pub fn depart(&mut self, j: usize, k: u64) {
        self.departed_at[j].get_or_insert(k);
    }

    /// Does `j` contribute gradients for `round` (it computes that round)?
    pub fn counts_for(&self, j: usize, round: u64) -> bool {
        self.departed_at[j].is_none_or(|k| round < k)
    }

    pub fn set_lbs(&mut self, j: usize, lbs: usize) {
        self.lbs[j] = lbs;
    }

    /// Group-wise Eq. 7 divisor `(n, GBS)` for `me` in `round`: `me` plus
    /// the round's neighbors `nbrs` the ledger counts. On a full mesh with
    /// no departures this is the global `(n, GBS)` pair exactly.
    pub fn divisor(&self, me: usize, nbrs: &[usize], round: u64) -> (usize, usize) {
        let mut n = 1;
        let mut gbs = self.lbs[me];
        for &j in nbrs.iter().filter(|&&j| self.counts_for(j, round)) {
            n += 1;
            gbs += self.lbs[j];
        }
        (n, gbs.max(1))
    }
}

/// Strict-BSP peer gradients `(sender, gradient)` parked until their
/// round's flush point (see [`Protocol::take_ready`]).
pub type Parked = Vec<(usize, GradMsg)>;

/// What a completed step produced.
pub struct Step {
    /// The round the step completed (the worker's iteration before it).
    pub round: u64,
    /// Partial gradients to send, in the rotated send order.
    pub updates: Vec<PeerUpdate>,
    /// Whether the worker runs a DKT round now.
    pub share_dkt: bool,
}

/// What an inbound payload asks of the caller.
pub enum Inbound {
    /// Nothing further: a loss share was recorded.
    Handled,
    /// A strict-BSP gradient was parked for the next flush.
    Parked,
    /// A gradient was applied on receipt (storage back to the caller).
    Applied(GradMsg),
    /// A DKT pull: send this reply to the requester.
    Reply(Payload),
    /// DKT weights were merged (storage back to the caller).
    Merged(Vec<Tensor>),
    /// The sender left after completing this many rounds.
    Leave(u64),
}

/// The protocol's fixed inputs: the run configuration, the topology
/// schedule and the model's wire dimensions.
pub struct Protocol {
    cfg: RunConfig,
    schedule: Arc<dyn TopologySchedule>,
    n: usize,
    total_params: usize,
    bytes_per_param: f64,
}

impl Protocol {
    pub fn new(
        cfg: &RunConfig,
        n: usize,
        schedule: Arc<dyn TopologySchedule>,
        total_params: usize,
        bytes_per_param: f64,
    ) -> Protocol {
        Protocol {
            cfg: cfg.clone(),
            schedule,
            n,
            total_params,
            bytes_per_param,
        }
    }

    /// Sample a batch, run forward and backward into `worker.grads`, and
    /// clip; returns the loss. Every buffer is the worker's own, reused.
    pub fn compute(&self, worker: &mut Worker, data: &Dataset) -> f64 {
        worker.sample_batch_reuse();
        let (x, y) = data.batch_scratch(&worker.batch_buf, &mut worker.scratch);
        let Worker {
            model,
            scratch,
            grads,
            ..
        } = worker;
        let loss = model.forward_backward_scratch(x, &y, scratch, grads);
        for g in grads.iter_mut() {
            g.clip_inplace(self.cfg.grad_clip);
        }
        loss
    }

    /// Complete the worker's round with the gradient in `worker.grads`:
    /// record the loss for DKT, apply the own update (the self term of the
    /// group-wise Eq. 7), build the per-peer messages, advance the
    /// iteration, and gate the next round on this round's neighbors
    /// (per-round sets are symmetric, so they are the senders to expect).
    /// Strategies budget with iteration time `dt` and `bw_mbps(j)`, asked
    /// for this round's neighbors only.
    pub fn step(
        &self,
        worker: &mut Worker,
        ledger: &Ledger,
        loss: f64,
        now: f64,
        dt: f64,
        bw_mbps: impl Fn(usize) -> f64,
    ) -> Step {
        let me = worker.id;
        let round = worker.iteration;
        let nbrs = self.schedule.neighbors(me, round);
        if round == 0 || self.schedule.rotates() {
            event!(now, w: me, "topology_round";
                "round" => round,
                "topology" => self.schedule.name(),
                "neighbors" => nbrs.len(),
                "links" => self.schedule.link_count(round));
        }
        worker.dkt.record_loss(loss);
        let own_factor = self.factor(worker.lbs, ledger.divisor(me, &nbrs, round));
        let mut bw = vec![0.0; self.n];
        for &j in &nbrs {
            bw[j] = bw_mbps(j);
        }
        let ctx = StrategyCtx {
            worker: me,
            n: self.n,
            iteration: round,
            now,
            lbs: worker.lbs,
            iter_time: dt,
            neighbors: nbrs,
            bw_mbps: bw,
            bytes_per_param: self.bytes_per_param,
            total_params: self.total_params,
            lr: self.cfg.lr,
        };
        let Worker {
            strategy,
            model,
            grads,
            ..
        } = worker;
        model.apply_dense_update(grads, own_factor);
        let mut updates = {
            let _sg = profile_scope(Phase::Serialize);
            strategy.generate_partial_gradients(&ctx, grads, model)
        };
        // Rotate the send order each round so no peer is permanently
        // first (or last) in this worker's send queue.
        if !updates.is_empty() {
            let r = (round as usize) % updates.len();
            updates.rotate_left(r);
        }
        worker.iteration += 1;
        worker.sync.retarget(&ctx.neighbors);
        let share_dkt = worker.dkt.is_share_round(worker.iteration);
        event!(now, w: me, "iter_done";
            "iter" => worker.iteration,
            "updates" => updates.len(),
            "share_dkt" => share_dkt);
        Step {
            round,
            updates,
            share_dkt,
        }
    }

    /// The Eq. 7 update factor for a gradient computed over `lbs` samples
    /// in a group with divisor `(n, gbs)`.
    fn factor(&self, lbs: usize, (n, gbs): (usize, usize)) -> f32 {
        let weighted = self.cfg.system.weighted_update();
        update_factor(self.cfg.lr, n, lbs, gbs, weighted)
    }

    /// Apply one peer gradient, averaging over the workers the ledger
    /// counts in the gradient's round.
    pub fn apply_grad(&self, worker: &mut Worker, ledger: &Ledger, msg: &GradMsg) {
        let nbrs = self.schedule.neighbors(worker.id, msg.iteration);
        let factor = self.factor(msg.lbs, ledger.divisor(worker.id, &nbrs, msg.iteration));
        match &msg.data {
            GradData::Dense(vars) => worker.model.apply_dense_update(vars, factor),
            GradData::Sparse(vars) => {
                for (v, s) in vars.iter().enumerate() {
                    worker.model.apply_sparse_update(v, s, factor);
                }
            }
        }
    }

    /// Handle one inbound training payload from `from`.
    pub fn on_payload(
        &self,
        worker: &mut Worker,
        ledger: &Ledger,
        parked: &mut Parked,
        from: usize,
        payload: Payload,
        now: f64,
    ) -> Inbound {
        match payload {
            Payload::Grad(msg) => {
                worker.sync.on_gradient(from, msg.iteration);
                if worker.strategy.sync_policy() == SyncPolicy::Synchronous {
                    parked.push((from, msg));
                    Inbound::Parked
                } else {
                    self.apply_grad(worker, ledger, &msg);
                    Inbound::Applied(msg)
                }
            }
            Payload::LossShare { avg_loss } => {
                worker.dkt.update_known(from, avg_loss);
                Inbound::Handled
            }
            // We are the (believed) best worker: ship our weights back.
            Payload::DktRequest => Inbound::Reply(Payload::Weights {
                weights: worker.model.weights(),
                sender_loss: worker.dkt.avg_loss().unwrap_or(f64::INFINITY),
            }),
            Payload::Weights { weights, .. } => {
                worker.model.merge_weights(&weights, self.cfg.dkt.lambda);
                event!(now, w: worker.id, "dkt_merge"; "from" => from);
                Inbound::Merged(weights)
            }
            Payload::Leave { completed } => Inbound::Leave(completed),
        }
    }

    /// Take the parked gradients `me` applies before computing round
    /// `cur` (everything when `force`: no further round will come), in
    /// `(round, sender)` order; the caller applies each with
    /// [`Protocol::apply_grad`]. Arrival order depends on frame racing
    /// (live) or gating-release order (sim) and must not decide the float
    /// addition order, so a round is taken only once complete: every
    /// neighbor the ledger counts for it has delivered. This cannot
    /// stall: per-link FIFO delivers a counted sender's gradient before
    /// any departure notice, and gating waits on the same set anyway.
    pub fn take_ready(
        &self,
        parked: &mut Parked,
        me: usize,
        cur: u64,
        ledger: &Ledger,
        force: bool,
    ) -> Parked {
        parked.sort_by_key(|&(from, ref m)| (m.iteration, from));
        let ready: Vec<u64> = parked
            .chunk_by(|a, b| a.1.iteration == b.1.iteration)
            .map(|batch| (batch[0].1.iteration, batch))
            .filter(|&(r, batch)| {
                force
                    || (r < cur
                        && self
                            .schedule
                            .neighbors(me, r)
                            .into_iter()
                            .filter(|&j| ledger.counts_for(j, r))
                            .all(|j| batch.iter().any(|&(from, _)| from == j)))
            })
            .map(|(r, _)| r)
            .collect();
        let (out, keep) = parked
            .drain(..)
            .partition(|(_, m)| ready.contains(&m.iteration));
        *parked = keep;
        out
    }

    /// A DKT round (§3.4): share the average loss with this round's
    /// neighbors, then pull from the best-known worker once per period.
    /// Only `reachable` peers are sent to (the sim reaches everyone, live
    /// skips departed peers). Returns the payloads to send, or `None`
    /// before the worker has a loss to share.
    pub fn dkt_round(
        &self,
        worker: &mut Worker,
        now: f64,
        reachable: impl Fn(usize) -> bool,
    ) -> Option<Vec<(usize, Payload)>> {
        let avg = worker.dkt.avg_loss()?;
        let me = worker.id;
        event!(now, w: me, "dkt_round"; "avg_loss" => avg);
        worker.dkt.update_known(me, avg);
        let mut sends: Vec<(usize, Payload)> = self
            .schedule
            .neighbors(me, worker.iteration)
            .into_iter()
            .filter(|&j| reachable(j))
            .map(|j| (j, Payload::LossShare { avg_loss: avg }))
            .collect();
        let round = worker.iteration / worker.dkt.cfg().period_iters;
        if worker.last_pull_round < round {
            if let Some(target) = worker.dkt.pull_target().filter(|&t| reachable(t)) {
                worker.last_pull_round = round;
                sends.push((target, Payload::DktRequest));
            }
        }
        Some(sends)
    }
}
