//! Cross-commit golden runs: small simulator configurations whose final
//! weights, per-worker iteration counts, gradient byte counter and DKT
//! merge count are pinned to constants.
//!
//! Every other bit-identity suite compares two runs of the same build (sim
//! against sim, sim against live). A change that moves both sides the same
//! way passes them all; these constants catch it. They were recorded once
//! and must never be edited to make a change pass: a mismatch means the
//! change altered training arithmetic or the message schedule.

use dlion_core::{run_env, FaultPlan, RunConfig, RunMetrics, SyncPolicy, SystemKind, Topology};
use dlion_microcloud::EnvId;

/// The pinned observables of one run.
#[derive(Debug, PartialEq)]
struct Golden {
    /// FNV-1a over every captured weight's bit pattern, worker by worker
    /// (a departed worker contributes an empty slot).
    weights: u64,
    iterations: Vec<u64>,
    grad_bytes_bits: u64,
    dkt_merges: u64,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn observe(m: &RunMetrics) -> Golden {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (w, ws) in m.final_weights.iter().enumerate() {
        fnv1a(&mut h, &(w as u64).to_le_bytes());
        fnv1a(&mut h, &(ws.len() as u64).to_le_bytes());
        for t in ws {
            for v in t.data() {
                fnv1a(&mut h, &v.to_bits().to_le_bytes());
            }
        }
    }
    Golden {
        weights: h,
        iterations: m.iterations.clone(),
        grad_bytes_bits: m.grad_bytes.to_bits(),
        dkt_merges: m.dkt_merges,
    }
}

fn small(system: SystemKind) -> RunConfig {
    let mut cfg = RunConfig::small_test(system);
    cfg.duration = 150.0;
    cfg.dkt.period_iters = 10;
    cfg.capture_weights = true;
    cfg
}

fn check(name: &str, cfg: &RunConfig, env: EnvId, expect: Golden) {
    let got = observe(&run_env(cfg, env));
    assert_eq!(got, expect, "{name}: golden run changed");
}

#[test]
fn golden_baseline() {
    check(
        "baseline",
        &small(SystemKind::Baseline),
        EnvId::HeteroSysA,
        Golden {
            weights: 0xc6a0a6b619846bfa,
            iterations: vec![20, 19, 19, 20, 15, 15],
            grad_bytes_bits: 0x41e41dd760000000,
            dkt_merges: 0,
        },
    );
}

#[test]
fn golden_ako() {
    check(
        "ako",
        &small(SystemKind::Ako),
        EnvId::HeteroSysA,
        Golden {
            weights: 0x594fd6dc3301ce6d,
            iterations: vec![60, 60, 30, 30, 15, 15],
            grad_bytes_bits: 0x41dc40660455ba8b,
            dkt_merges: 0,
        },
    );
}

#[test]
fn golden_gaia() {
    check(
        "gaia",
        &small(SystemKind::Gaia),
        EnvId::HeteroSysA,
        Golden {
            weights: 0x9edeca1dc0eeb556,
            iterations: vec![19, 19, 14, 14, 8, 8],
            grad_bytes_bits: 0x41d7fd0cbf5b8083,
            dkt_merges: 0,
        },
    );
}

#[test]
fn golden_hop() {
    check(
        "hop",
        &small(SystemKind::Hop),
        EnvId::HeteroSysA,
        Golden {
            weights: 0xc0f71bcc0b9a86c6,
            iterations: vec![20, 19, 19, 20, 15, 15],
            grad_bytes_bits: 0x41e41dd760000000,
            dkt_merges: 0,
        },
    );
}

#[test]
fn golden_dlion() {
    check(
        "dlion",
        &small(SystemKind::DLion),
        EnvId::HeteroSysA,
        Golden {
            weights: 0xe0284e4688c41ff9,
            iterations: vec![38, 38, 35, 35, 34, 34],
            grad_bytes_bits: 0x41e1378424d8b1c2,
            dkt_merges: 11,
        },
    );
}

/// Strict BSP on a rotating 2-regular graph with one permanent kill: the
/// canonical `(round, sender)` flush and the departure ledger's divisor.
#[test]
fn golden_bsp_kregular_with_permanent_kill() {
    let mut cfg = small(SystemKind::Baseline);
    cfg.duration = 10_000.0;
    cfg.max_iters = Some(20);
    cfg.sync_override = Some(SyncPolicy::Synchronous);
    cfg.topology = Topology::parse("kregular:2").expect("valid topology");
    cfg.fault = FaultPlan::parse("2@7").expect("valid fault plan");
    check(
        "bsp-kregular-kill",
        &cfg,
        EnvId::HomoA,
        Golden {
            weights: 0x0eea72b37e1d0055,
            iterations: vec![20, 20, 7, 20, 20, 20],
            grad_bytes_bits: 0x41cc03a180000000,
            dkt_merges: 0,
        },
    );
}

/// DLion with a worker that leaves and rejoins (the simulator pauses it).
#[test]
fn golden_dlion_rejoining_kill() {
    let mut cfg = small(SystemKind::DLion);
    cfg.duration = 200.0;
    cfg.fault = FaultPlan::parse("1@8+40").expect("valid fault plan");
    check(
        "dlion-rejoin",
        &cfg,
        EnvId::HeteroSysA,
        Golden {
            weights: 0xe8b17f82166510a1,
            iterations: vec![44, 41, 43, 42, 41, 41],
            grad_bytes_bits: 0x41e431a53bd7d308,
            dkt_merges: 11,
        },
    );
}
