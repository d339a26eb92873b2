//! Semantics of the shared per-round protocol (`dlion_core::protocol`):
//! the Eq. 7 divisor ledger and the strict-BSP flush rule. The flush's
//! completeness hold-back never triggers in the simulator (gating already
//! guarantees complete rounds), so it is pinned here directly.

use dlion_core::messages::GradData;
use dlion_core::{GradMsg, Ledger, Parked, Protocol, RunConfig, SystemKind};

#[test]
fn divisor_counts_self_plus_contributing_neighbors() {
    let mut l = Ledger::new(4, 32);
    l.set_lbs(2, 64);
    l.depart(3, 5);
    l.depart(3, 9); // the first record wins
    assert_eq!(l.divisor(0, &[1, 2, 3], 4), (4, 160));
    assert_eq!(l.divisor(0, &[1, 2, 3], 5), (3, 128));
}

#[test]
fn flush_takes_complete_rounds_in_round_sender_order() {
    let cfg = RunConfig::small_test(SystemKind::Baseline);
    let proto = Protocol::new(&cfg, 3, cfg.topology.build(3, 1).unwrap(), 0, 4.0);
    let ledger = Ledger::new(3, 32);
    let grad = |iteration| GradMsg {
        iteration,
        lbs: 32,
        data: GradData::Dense(Vec::new()),
        n_used: 100.0,
    };
    let mut parked: Parked = vec![(2, grad(1)), (2, grad(0)), (1, grad(1))];
    let take = |parked: &mut Parked, force| -> Vec<(u64, usize)> {
        let out = proto.take_ready(parked, 0, 1, &ledger, force);
        out.into_iter().map(|(f, m)| (m.iteration, f)).collect()
    };
    // Round 0 lacks worker 1's gradient; round 1 is the current one.
    assert!(take(&mut parked, false).is_empty());
    parked.push((1, grad(0)));
    assert_eq!(take(&mut parked, false), vec![(0, 1), (0, 2)]);
    assert_eq!(take(&mut parked, true), vec![(1, 1), (1, 2)]);
    assert!(parked.is_empty());
}
