//! What every workload shares: the closed-loop operation record, the
//! per-layer metrics of a traced run, the codec replay and host facts.

use crate::report::{metric, Metric};
use crate::trace::{add_totals, now_ns, write_tsv, NameTotals, Stamp, Tick, WorkerTrace, STEP};
use crate::wrap::{CountingSink, NetCounters};
use dlion_core::messages::{
    decode_wire, Payload, WireCfg, CHUNK_HEADER_BYTES, FRAME_HEADER_BYTES, KIND_NET_BASE,
};
use dlion_telemetry::PhaseStat;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A workload is a closed loop of identical operations: one client (the
/// benchmark) starts the next operation only after the previous one
/// finished. Every operation sets up from scratch and then does a fixed,
/// seed-determined amount of work, so its counts must repeat exactly.
pub trait Workload {
    /// Set up, run one operation, tear down.
    fn op(&mut self, traced: bool) -> Op;
    /// Set up and tear down only; returns the set-up seconds.
    fn setup_only(&mut self) -> f64;
    /// 2-worker throughput over twice a 1-worker run of the same task,
    /// where the workload has one.
    fn scaling_efficiency(&mut self, two_worker_samples_per_s: f64) -> Option<f64> {
        let _ = two_worker_samples_per_s;
        None
    }
}

/// One operation's results.
#[derive(Default)]
pub struct Op {
    pub setup_s: f64,
    /// Wall seconds of the measured work (set-up excluded).
    pub wall_s: f64,
    /// Training samples processed (exchange: samples whose gradients were
    /// delivered and verified).
    pub samples: u64,
    /// Per worker iteration (exchange: per endpoint round), the wall and
    /// the process CPU milliseconds it took.
    pub iter_ms: Vec<f64>,
    pub iter_cpu_ms: Vec<f64>,
    /// The measured work in blocks, for a throughput median.
    pub blocks: Vec<Block>,
    /// Units of work tried and failed (sim runs, worker iterations,
    /// exchange rounds). Failed counts every unit of a wrong result.
    pub attempted: u64,
    pub failed: u64,
    /// Counts and result bits that must repeat for the same seed.
    pub fingerprint: String,
    pub final_accuracy: f64,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
    pub traced: Option<Traced>,
}

impl Op {
    /// Count every unit as failed and keep the reason.
    pub fn fail(&mut self, why: String) {
        self.failed = self.attempted;
        self.error.get_or_insert(why);
    }

    /// Per-iteration timings from one worker's (or endpoint's) stamps.
    pub fn add_intervals(&mut self, stamps: &[Stamp]) {
        for w in stamps.windows(2) {
            let (a, b) = (w[0].at, w[1].at);
            self.iter_ms.push((b.wall - a.wall) as f64 / 1e6);
            self.iter_cpu_ms.push((b.cpu - a.cpu) as f64 / 1e6);
        }
    }
}

/// A stretch of measured work: samples processed in `secs` wall seconds
/// and `cpu_secs` of process CPU time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Block {
    pub samples: u64,
    pub secs: f64,
    pub cpu_secs: f64,
}

impl Block {
    /// The whole stretch from `start` to `end`.
    pub fn between(samples: u64, start: Tick, end: Tick) -> Block {
        Block {
            samples,
            secs: (end.wall - start.wall) as f64 / 1e9,
            cpu_secs: (end.cpu - start.cpu) as f64 / 1e9,
        }
    }
}

/// Split the run from `start` to `end` into `k` blocks of about as many
/// consecutive stamps; the first block starts at `start`, each block ends
/// at a stamp, and the last one ends at `end`. Every sample and every
/// nanosecond of the run lands in exactly one block.
pub fn blocks(stamps: &[Stamp], start: Tick, end: Tick, k: usize) -> Vec<Block> {
    let k = k.clamp(1, stamps.len().max(1));
    let mut out = Vec::with_capacity(k);
    let (mut from, mut t) = (0, start);
    for i in 1..=k {
        let to = i * stamps.len() / k;
        let until = if i == k { end } else { stamps[to - 1].at };
        out.push(Block::between(
            stamps[from..to].iter().map(|s| s.lbs).sum(),
            t,
            until,
        ));
        (from, t) = (to, until);
    }
    out
}

/// What a traced operation recorded.
#[derive(Default)]
pub struct Traced {
    pub traces: Vec<Arc<WorkerTrace>>,
    /// Σ over the operation's loop threads (the sim's event loop, each
    /// live worker, each exchange endpoint) of their wall nanoseconds.
    pub loop_ns: u64,
    pub profiler: Vec<PhaseStat>,
    pub events: u64,
    pub rss_per_worker_kb: f64,
    pub codec: CodecStats,
    pub net: NetCounters,
    /// Live driver loop (reports `driver.other_ms`).
    pub driver: bool,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CodecStats {
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub bytes: u64,
    pub chunks: u64,
}

/// Time `Payload::write_wire` on every sent payload, into a sink that
/// only counts.
pub fn replay_encode(
    sent: &[(Arc<Payload>, WireCfg)],
    stats: &mut CodecStats,
) -> Result<(), String> {
    let mut scratch = Vec::new();
    for (payload, cfg) in sent {
        let mut sink = CountingSink::default();
        let t0 = now_ns();
        let n = payload
            .write_wire(&mut sink, cfg, &mut scratch)
            .map_err(|e| format!("encode: {e}"))?;
        stats.encode_ns += now_ns() - t0;
        if n as u64 != sink.bytes {
            return Err(format!(
                "write_wire reported {n} bytes, wrote {}",
                sink.bytes
            ));
        }
        stats.bytes += n as u64;
        let body = payload.body_len_with(cfg.format);
        stats.chunks += ((n - FRAME_HEADER_BYTES - body) / CHUNK_HEADER_BYTES) as u64;
    }
    Ok(())
}

/// Time `decode_wire` plus `Payload::decode_body_pooled` on every
/// received frame (net-control frames carry no payload body).
pub fn replay_decode(frames: &[Vec<u8>], stats: &mut CodecStats) -> Result<(), String> {
    let (mut scratch, mut pool) = (Vec::new(), Vec::new());
    for frame in frames {
        let t0 = now_ns();
        let (kind, body) = decode_wire(frame, &mut scratch).map_err(|e| format!("decode: {e}"))?;
        if kind < KIND_NET_BASE {
            Payload::decode_body_pooled(kind, body, &mut pool)
                .map_err(|e| format!("decode body: {e}"))?
                .recycle(&mut pool);
        }
        stats.decode_ns += now_ns() - t0;
    }
    Ok(())
}

/// The CipherNet layer stack every training workload runs, by index.
pub const CIPHER_KINDS: [&str; 12] = [
    "conv2d", "relu", "maxpool2", "conv2d", "relu", "maxpool2", "conv2d", "relu", "flatten",
    "dense", "relu", "dense",
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_units() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("tensor.gemm.ms".into(), "ms"),
        ("tensor.gemm.calls".into(), "count"),
    ];
    for (i, kind) in CIPHER_KINDS.iter().enumerate() {
        v.push((format!("nn.l{i}_{kind}.fwd_ms"), "ms"));
        v.push((format!("nn.l{i}_{kind}.bwd_ms"), "ms"));
        v.push((format!("nn.l{i}_{kind}.calls"), "count"));
    }
    for (name, unit) in [
        ("nn.step.other_ms", "ms"),
        ("nn.eval.ms", "ms"),
        ("final_accuracy", "fraction"),
        ("core.select.ms", "ms"),
        ("core.select.calls", "count"),
        ("core.select.entry_ratio", "fraction"),
        ("core.unattributed_ms", "ms"),
        ("core.unattributed_share", "fraction"),
        ("simnet.events", "count"),
        ("simnet.event_queue_ms", "ms"),
        ("core.rss_per_worker_kb", "KB"),
        ("codec.encode_ms", "ms"),
        ("codec.decode_ms", "ms"),
        ("codec.bytes", "bytes"),
        ("codec.chunks", "count"),
        ("net.send.calls", "count"),
        ("net.send_ms", "ms"),
        ("net.recv_wait_ms", "ms"),
        ("net.bytes_sent", "bytes"),
        ("net.frames_recv", "count"),
        ("net.errors", "count"),
        ("sync.wait_share", "fraction"),
        ("driver.other_ms", "ms"),
        ("trace.overhead_share", "fraction"),
        ("core.scaling_efficiency", "fraction"),
    ] {
        v.push((name.into(), unit));
    }
    v
}

fn phase(stats: &[PhaseStat], name: &str) -> (u64, u64) {
    stats
        .iter()
        .find(|s| s.phase == name)
        .map_or((0, 0), |s| (s.total_ns, s.calls))
}

/// Per-layer metrics of the traced operations, each a mean per operation.
/// Writes every span to `spans_out` on the way.
pub fn per_layer(
    ops: &[Op],
    overhead_share: f64,
    scaling: Option<f64>,
    spans_out: &mut dyn std::io::Write,
) -> std::io::Result<Vec<Metric>> {
    let traced: Vec<&Traced> = ops.iter().filter_map(|o| o.traced.as_ref()).collect();
    let k = traced.len().max(1) as f64;
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    let (mut sent, mut offered) = (0u64, 0u64);
    let (mut loop_ns, mut root_ns, mut excluded_ns) = (0u64, 0u64, 0u64);
    let (mut gemm, mut eval, mut queue) = ((0u64, 0u64), 0u64, 0u64);
    let (mut events, mut rss, mut codec, mut net) =
        (0u64, 0f64, CodecStats::default(), NetCounters::default());
    let mut driver = false;
    for t in &traced {
        let mut op_totals = BTreeMap::new();
        for w in &t.traces {
            let spans = w.take_spans();
            write_tsv(spans_out, w.worker, &spans)?;
            add_totals(&spans, &mut op_totals);
            let (s, o) = w.entries();
            sent += s;
            offered += o;
        }
        for (name, x) in op_totals {
            root_ns += x.root_ns;
            let acc = totals.entry(name).or_default();
            acc.calls += x.calls;
            acc.total_ns += x.total_ns;
            acc.self_ns += x.self_ns;
            acc.root_ns += x.root_ns;
        }
        let g = phase(&t.profiler, "gemm");
        gemm = (gemm.0 + g.0, gemm.1 + g.1);
        let e = phase(&t.profiler, "eval").0;
        let q = phase(&t.profiler, "event_queue").0;
        eval += e;
        queue += q;
        excluded_ns += e + q;
        loop_ns += t.loop_ns;
        events += t.events;
        rss += t.rss_per_worker_kb;
        codec.encode_ns += t.codec.encode_ns;
        codec.decode_ns += t.codec.decode_ns;
        codec.bytes += t.codec.bytes;
        codec.chunks += t.codec.chunks;
        net.add(&t.net);
        driver |= t.driver;
    }
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let ms = |ns: u64| ns as f64 / 1e6 / k;
    let per_op = |n: u64| n as f64 / k;
    let share = |part: u64| {
        if loop_ns == 0 {
            0.0
        } else {
            part as f64 / loop_ns as f64
        }
    };
    // Loop time no span covers: the runner's (or driver's) own work —
    // peer apply, ledgers, DKT, gradient copies.
    let unattributed = loop_ns.saturating_sub(root_ns + excluded_ns);
    let accuracy = ops.first().map_or(0.0, |o| o.final_accuracy);

    let mut m = vec![
        metric("tensor.gemm.ms", ms(gemm.0), "ms"),
        metric("tensor.gemm.calls", per_op(gemm.1), "count"),
    ];
    for (i, kind) in CIPHER_KINDS.iter().enumerate() {
        let (fwd, bwd) = crate::wrap::layer_span_names(i, kind);
        m.push(metric(
            format!("nn.l{i}_{kind}.fwd_ms"),
            ms(get(fwd).total_ns),
            "ms",
        ));
        m.push(metric(
            format!("nn.l{i}_{kind}.bwd_ms"),
            ms(get(bwd).total_ns),
            "ms",
        ));
        m.push(metric(
            format!("nn.l{i}_{kind}.calls"),
            per_op(get(fwd).calls),
            "count",
        ));
    }
    let entry_ratio = if offered == 0 {
        0.0
    } else {
        sent as f64 / offered as f64
    };
    let codec_decode =
        codec.decode_ns + get("codec.decode_wire").total_ns + get("codec.decode_body").total_ns;
    m.extend([
        metric("nn.step.other_ms", ms(get(STEP).self_ns), "ms"),
        metric("nn.eval.ms", ms(eval), "ms"),
        metric("final_accuracy", accuracy, "fraction"),
        metric("core.select.ms", ms(get("core.select").total_ns), "ms"),
        metric(
            "core.select.calls",
            per_op(get("core.select").calls),
            "count",
        ),
        metric("core.select.entry_ratio", entry_ratio, "fraction"),
        metric("core.unattributed_ms", ms(unattributed), "ms"),
        metric("core.unattributed_share", share(unattributed), "fraction"),
        metric("simnet.events", per_op(events), "count"),
        metric("simnet.event_queue_ms", ms(queue), "ms"),
        metric("core.rss_per_worker_kb", rss / k, "KB"),
        metric("codec.encode_ms", ms(codec.encode_ns), "ms"),
        metric("codec.decode_ms", ms(codec_decode), "ms"),
        metric("codec.bytes", per_op(codec.bytes), "bytes"),
        metric("codec.chunks", per_op(codec.chunks), "count"),
        metric("net.send.calls", per_op(net.send_calls), "count"),
        metric("net.send_ms", ms(get("net.send").total_ns), "ms"),
        metric("net.recv_wait_ms", ms(get("net.recv_wait").total_ns), "ms"),
        metric("net.bytes_sent", per_op(net.bytes_sent), "bytes"),
        metric("net.frames_recv", per_op(net.frames_recv), "count"),
        metric("net.errors", per_op(net.errors), "count"),
        metric("sync.wait_share", share(net.recv_block_ns), "fraction"),
        metric(
            "driver.other_ms",
            if driver { ms(unattributed) } else { 0.0 },
            "ms",
        ),
        metric("trace.overhead_share", overhead_share, "fraction"),
        metric(
            "core.scaling_efficiency",
            scaling.unwrap_or(0.0),
            "fraction",
        ),
    ]);
    Ok(m)
}

/// VmRSS in KB when first called — before any workload input exists,
/// if `main` calls it first. Per-worker memory is peak RSS above it.
pub fn baseline_rss_kb() -> u64 {
    static BASE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *BASE.get_or_init(|| rss_kb().0)
}

/// Peak RSS above the baseline, per worker, in KB.
pub fn peak_kb_per_worker(workers: usize) -> f64 {
    rss_kb().1.saturating_sub(baseline_rss_kb()) as f64 / workers as f64
}

/// `(VmRSS, VmHWM)` of this process in KB, from `/proc/self/status`
/// (zeros where procfs is missing).
pub fn rss_kb() -> (u64, u64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0);
    };
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// The host facts recorded with every result: logical CPUs and CPU model.
pub fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{model}\"")
}

/// Bit patterns of weight tensors, for exact comparison.
pub fn weight_bits(weights: &[Vec<dlion_tensor::Tensor>]) -> Vec<Vec<u32>> {
    weights
        .iter()
        .map(|ws| {
            ws.iter()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;
    use dlion_core::messages::{GradData, GradMsg};
    use dlion_tensor::{DetRng, Shape, Tensor};

    #[test]
    fn per_layer_names_are_valid_and_unique() {
        let units = per_layer_units();
        for (i, (name, _)) in units.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!units[..i].iter().any(|(n, _)| n == name), "{name} twice");
        }
        let reported = per_layer(&[], 0.0, None, &mut std::io::sink()).unwrap();
        let names: Vec<&str> = reported.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = units.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, declared);
    }

    #[test]
    fn blocks_cover_every_sample_and_nanosecond() {
        let at = |wall: u64| Tick {
            wall,
            cpu: wall / 2,
        };
        let stamps: Vec<Stamp> = (1..=10)
            .map(|i| Stamp {
                at: at(100 * i),
                lbs: i,
            })
            .collect();
        let b = blocks(&stamps, at(0), at(1_500), 3);
        assert_eq!(b.len(), 3);
        assert_eq!(b.iter().map(|b| b.samples).sum::<u64>(), 55);
        assert!((b.iter().map(|b| b.secs).sum::<f64>() - 1_500e-9).abs() < 1e-18);
        // Blocks end at stamps 3 and 6, the last at the run's end.
        assert_eq!(b[0], Block::between(6, at(0), at(300)));
        assert_eq!(b[1], Block::between(15, at(300), at(600)));
        assert_eq!(b[2], Block::between(34, at(600), at(1_500)));
        assert_eq!(b[2].cpu_secs, 450e-9);
        assert_eq!(blocks(&stamps[..2], at(0), at(500), 8).len(), 2);
        assert_eq!(
            blocks(&[], at(0), at(500), 8),
            vec![Block::between(0, at(0), at(500))]
        );
        let mut op = Op::default();
        op.add_intervals(&stamps[..3]);
        assert_eq!(op.iter_ms, vec![1e-4, 1e-4]);
        assert_eq!(op.iter_cpu_ms, vec![5e-5, 5e-5]);
    }

    #[test]
    fn codec_replay_counts_chunks_and_bytes() {
        let mut rng = DetRng::seed_from_u64(3);
        let payload = Arc::new(Payload::Grad(GradMsg {
            iteration: 1,
            lbs: 32,
            data: GradData::Dense(vec![Tensor::randn(Shape::d1(100_000), 1.0, &mut rng)]),
            n_used: 100.0,
        }));
        let cfg = WireCfg {
            chunk_bytes: 64 << 10,
            ..WireCfg::default()
        };
        let mut stats = CodecStats::default();
        replay_encode(&[(Arc::clone(&payload), cfg)], &mut stats).unwrap();
        assert_eq!(stats.bytes, payload.wire_len(&cfg) as u64);
        let body = payload.body_len_with(cfg.format);
        assert_eq!(stats.chunks, body.div_ceil(64 << 10) as u64);
        replay_decode(&[payload.to_wire(&cfg)], &mut stats).unwrap();
        assert!(replay_decode(&[vec![0u8; 8]], &mut stats).is_err());
    }
}
