//! Fault isolation inside the fused noiseless/noisy pair: an armed
//! NaN-solve fault poisons exactly the column whose poll it answers, and
//! the other column comes back bit-identical to a clean run.
//!
//! The injection plan is process-global and every sweep polls it, so this
//! binary holds a single test: nothing else can consume its opportunities.

// Integration tests panic on failure by design; the workspace's
// library-only unwrap/expect denies do not apply here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nsta_circuit::{
    Circuit, CircuitError, NodeId, NumericError, RcLineSpec, SolverBackend, StarCoupledLines,
    TransientOptions,
};
use nsta_obs::fault;
use nsta_waveform::Waveform;

/// A seed whose one-shot `nan-solve` plan fires at opportunity `target`.
fn seed_firing_at(target: u64) -> u64 {
    (0..)
        .find(|&seed| {
            fault::arm("nan-solve", seed).unwrap();
            let first = (0..8).position(|_| fault::should_fire(fault::NAN_SOLVE));
            fault::disarm();
            first == Some(target as usize)
        })
        .unwrap()
}

/// A victim star-coupled to two aggressors, probed at its far end.
fn victim_stage(backend: SolverBackend) -> (nsta_circuit::FactoredSystem, NodeId) {
    let mut ckt = Circuit::new();
    let placeholder = Waveform::constant(0.0, 0.0, 2e-9).unwrap();
    let v_in = ckt.node("v_in");
    ckt.thevenin_driver(v_in, placeholder.clone(), 200.0)
        .unwrap();
    let mut agg_ins = Vec::new();
    for _ in 0..2 {
        let a_in = ckt.anon_node();
        ckt.thevenin_driver(a_in, placeholder.clone(), 150.0)
            .unwrap();
        agg_ins.push(a_in);
    }
    let line = RcLineSpec::new(40.0, 30e-15, 3).unwrap();
    let bundle = StarCoupledLines::new(line, vec![(line, 40e-15), (line, 60e-15)]).unwrap();
    let (far, _) = bundle.build(&mut ckt, v_in, &agg_ins, "w").unwrap();
    ckt.capacitor(far, Circuit::GROUND, 5e-15).unwrap();
    let opts = TransientOptions::new(0.0, 2e-9, 2e-12)
        .unwrap()
        .with_backend(backend);
    (ckt.factor_transient(opts).unwrap(), far)
}

fn is_non_finite(r: &Result<Vec<Waveform>, CircuitError>) -> bool {
    matches!(r, Err(CircuitError::Numeric(NumericError::NonFinite(_))))
}

#[test]
fn nan_solve_poisons_only_the_column_whose_poll_fires() {
    let edge = |t0: f64| Waveform::new(vec![t0, t0 + 80e-12, 3e-9], vec![0.0, 1.2, 1.2]).unwrap();
    let quiet = Waveform::constant(0.0, 0.0, 2e-9).unwrap();
    let victim = edge(0.5e-9);
    let (agg_a, agg_b) = (edge(0.45e-9), edge(0.6e-9));
    let noiseless = [&victim, &quiet, &quiet];
    let noisy = [&victim, &agg_a, &agg_b];
    let (at_0, at_1) = (seed_firing_at(0), seed_firing_at(1));

    for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
        let (sys, far) = victim_stage(backend);
        let [clean_a, clean_b] = sys.run_node_pair(&noiseless, &noisy, &[far]).unwrap();
        let (clean_a, clean_b) = (clean_a.unwrap(), clean_b.unwrap());
        assert_ne!(clean_a, clean_b, "the aggressors must move the victim");

        // Opportunity 0 is the noiseless column's poll: only it is
        // poisoned, and the noisy column never polls.
        fault::arm("nan-solve", at_0).unwrap();
        let [a, b] = sys.run_node_pair(&noiseless, &noisy, &[far]).unwrap();
        let fired = fault::total_fired();
        fault::disarm();
        assert_eq!(fired, 1, "{backend:?}");
        assert!(is_non_finite(&a), "{backend:?}: noiseless column {a:?}");
        assert_eq!(
            b.unwrap(),
            clean_b,
            "{backend:?}: noisy column must be clean"
        );

        // Opportunity 1 is the noisy column's poll.
        fault::arm("nan-solve", at_1).unwrap();
        let [a, b] = sys.run_node_pair(&noiseless, &noisy, &[far]).unwrap();
        let fired = fault::total_fired();
        fault::disarm();
        assert_eq!(fired, 1, "{backend:?}");
        assert_eq!(
            a.unwrap(),
            clean_a,
            "{backend:?}: noiseless column must be clean"
        );
        assert!(is_non_finite(&b), "{backend:?}: noisy column {b:?}");

        // A plan firing at both opportunities only reaches the first: the
        // poisoned noiseless column ends the pair's polling, as a failed
        // noiseless run ended the pair when the two were separate sweeps.
        let both = (0..)
            .find(|&seed| {
                fault::arm("nan-solve:2", seed).unwrap();
                let hits: Vec<usize> = (0..8)
                    .filter(|_| fault::should_fire(fault::NAN_SOLVE))
                    .collect();
                fault::disarm();
                hits == [0, 1]
            })
            .unwrap();
        fault::arm("nan-solve:2", both).unwrap();
        let [a, b] = sys.run_node_pair(&noiseless, &noisy, &[far]).unwrap();
        let fired = fault::total_fired();
        let next_run = sys.run_nodes(&noisy, &[far]);
        fault::disarm();
        assert_eq!(fired, 1, "{backend:?}: the noisy column must not poll");
        assert!(is_non_finite(&a) && b.is_ok(), "{backend:?}");
        assert!(
            is_non_finite(&next_run),
            "{backend:?}: opportunity 1 is left for the next run"
        );
    }
}
