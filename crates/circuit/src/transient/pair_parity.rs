//! Bit-parity of the fused `K = 2` pair against two `K = 1` sweeps and
//! against a copy of the single-column sweep as it stood before the
//! source-row table and the column kernels: every free row received a
//! tabulated source term, and the state was one plain vector.
//!
//! Circuits are randomized RC ladders and star-coupled bundles, with and
//! without current injections, from the DC operating point and from the
//! all-zero state, on both backends. The pair's first column holds every
//! aggressor quiet, the second switches them.

use super::*;
use crate::rcline::{RcLineSpec, StarCoupledLines};

/// Deterministic xorshift PRNG in `[0, 1)`.
fn rng(mut seed: u64) -> impl FnMut() -> f64 {
    move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64
    }
}

const T_STOP: f64 = 3e-9;
const VDD: f64 = 1.2;

fn ramp(t0: f64, rise: f64, from: f64, to: f64) -> Waveform {
    Waveform::new(vec![t0, t0 + rise, T_STOP + 1e-9], vec![from, to, to]).unwrap()
}

/// A random rising or falling transition inside the window.
fn random_edge(next: &mut dyn FnMut() -> f64) -> Waveform {
    let (t0, rise) = (0.1e-9 + 1.5e-9 * next(), 20e-12 + 200e-12 * next());
    if next() < 0.5 {
        ramp(t0, rise, 0.0, VDD)
    } else {
        ramp(t0, rise, VDD, 0.0)
    }
}

/// Current injections into 0–2 random nodes of `nodes`; the same node may
/// be hit twice, which exercises the in-order summation of the table.
fn inject(ckt: &mut Circuit, nodes: &[NodeId], next: &mut dyn FnMut() -> f64) {
    for _ in 0..(next() * 3.0) as usize {
        let node = nodes[(next() * nodes.len() as f64) as usize % nodes.len()];
        let (t1, peak) = (0.2e-9 + 2e-9 * next(), 2e-5 * (next() - 0.5));
        let wave = Waveform::new(
            vec![0.0, t1, t1 + 0.3e-9, T_STOP],
            vec![1e-6, peak, 0.0, 0.0],
        );
        ckt.isource(node, wave.unwrap()).unwrap();
    }
}

/// A random RC ladder driven at one end, with `aggressors` driven lines
/// coupling into random rungs and random long-range cross caps.
fn ladder(next: &mut dyn FnMut() -> f64, aggressors: usize, injections: bool) -> Circuit {
    let mut ckt = Circuit::new();
    let placeholder = Waveform::constant(0.0, 0.0, T_STOP).unwrap();
    let v_in = ckt.node("v_in");
    ckt.thevenin_driver(v_in, placeholder.clone(), 50.0 + 300.0 * next())
        .unwrap();
    let mut prev = v_in;
    let mut rungs = Vec::new();
    for k in 0..3 + (next() * 20.0) as usize {
        let n = ckt.node(&format!("n{k}"));
        ckt.resistor(prev, n, 20.0 + 200.0 * next()).unwrap();
        ckt.capacitor(n, Circuit::GROUND, 2e-15 + 20e-15 * next())
            .unwrap();
        rungs.push(n);
        prev = n;
    }
    for _ in 0..aggressors {
        let a_in = ckt.anon_node();
        ckt.thevenin_driver(a_in, placeholder.clone(), 80.0 + 200.0 * next())
            .unwrap();
        ckt.capacitor(a_in, Circuit::GROUND, 1e-15 + 5e-15 * next())
            .unwrap();
        for _ in 0..1 + (next() * 3.0) as usize {
            let rung = rungs[(next() * rungs.len() as f64) as usize % rungs.len()];
            ckt.capacitor(a_in, rung, 5e-15 + 30e-15 * next()).unwrap();
        }
    }
    for _ in 0..rungs.len() / 4 {
        let a = rungs[(next() * rungs.len() as f64) as usize % rungs.len()];
        let b = rungs[(next() * rungs.len() as f64) as usize % rungs.len()];
        if a != b {
            ckt.capacitor(a, b, 1e-15 + 10e-15 * next()).unwrap();
        }
    }
    if injections {
        inject(&mut ckt, &rungs, next);
    }
    ckt
}

/// A random star-coupled victim/aggressor bundle: the shape the
/// crosstalk flow factors per victim.
fn star(next: &mut dyn FnMut() -> f64, aggressors: usize, injections: bool) -> Circuit {
    let mut ckt = Circuit::new();
    let placeholder = Waveform::constant(0.0, 0.0, T_STOP).unwrap();
    let v_in = ckt.node("v_in");
    ckt.thevenin_driver(v_in, placeholder.clone(), 100.0 + 300.0 * next())
        .unwrap();
    let mut agg_ins = Vec::new();
    for _ in 0..aggressors {
        let a_in = ckt.anon_node();
        ckt.thevenin_driver(a_in, placeholder.clone(), 100.0 + 300.0 * next())
            .unwrap();
        agg_ins.push(a_in);
    }
    let line = |next: &mut dyn FnMut() -> f64| {
        let segments = 1 + (next() * 12.0) as usize;
        RcLineSpec::new(10.0 + 60.0 * next(), 10e-15 + 40e-15 * next(), segments).unwrap()
    };
    let victim = line(next);
    let aggs = (0..aggressors)
        .map(|_| (line(next), 20e-15 + 80e-15 * next()))
        .collect();
    let bundle = StarCoupledLines::new(victim, aggs).unwrap();
    let (far, agg_fars) = bundle.build(&mut ckt, v_in, &agg_ins, "w").unwrap();
    ckt.capacitor(far, Circuit::GROUND, 1e-15 + 10e-15 * next())
        .unwrap();
    if injections {
        let mut targets = agg_fars;
        targets.push(far);
        inject(&mut ckt, &targets, next);
    }
    ckt
}

/// The `(G_UK, C_UK)` coupler blocks restamped straight from the circuit,
/// independently of the source-row table.
fn couplers(ckt: &Circuit, sys: &FactoredSystem) -> (DenseMatrix, DenseMatrix) {
    let mut g_uk = DenseMatrix::zeros(sys.nf, sys.nd.max(1));
    let mut c_uk = DenseMatrix::zeros(sys.nf, sys.nd.max(1));
    let stamp = |m: &mut DenseMatrix, a: usize, b: usize, v: f64| {
        for (row, other) in [(a, b), (b, a)] {
            let free = |i: usize| i != NodeId::GROUND_SENTINEL && !sys.is_driven[i];
            if free(row) && other != NodeId::GROUND_SENTINEL && sys.is_driven[other] {
                m.add(sys.position[row], sys.driven_slot[other], -v);
            }
        }
    };
    for r in &ckt.resistors {
        stamp(&mut g_uk, r.a, r.b, r.conductance);
    }
    for c in &ckt.capacitors {
        stamp(&mut c_uk, c.a, c.b, c.farads);
    }
    (g_uk, c_uk)
}

/// The single-column sweep as it stood before the source-row table and
/// the column kernels, recording every node time-major.
fn reference_run(ckt: &Circuit, sys: &FactoredSystem, sources: &[&Waveform]) -> Vec<f64> {
    let (g_uk, c_uk) = couplers(ckt, sys);
    let injections: Vec<(usize, &Waveform)> = ckt
        .isources
        .iter()
        .filter(|s| !sys.is_driven[s.node])
        .map(|s| (sys.position[s.node], s.waveform.as_ref()))
        .collect();
    let (nf, nd) = (sys.nf, sys.nd);
    let nt = sys.times.len();
    let h = sys.opts.dt;
    let mut vk = vec![0.0; nt * nd];
    let mut scratch = Vec::new();
    for (k, w) in sources.iter().enumerate() {
        w.sample_on_grid(&sys.times, &mut scratch);
        for (ti, &v) in scratch.iter().enumerate() {
            vk[ti * nd + k] = v;
        }
    }
    let mut inj = Vec::new();
    if !injections.is_empty() {
        inj.resize(nt * nf, 0.0);
        for (r, waveform) in &injections {
            waveform.sample_on_grid(&sys.times, &mut scratch);
            for (ti, &v) in scratch.iter().enumerate() {
                inj[ti * nf + r] += v;
            }
        }
    }
    let dc_rhs = || -> Vec<f64> {
        let mut rhs = if inj.is_empty() {
            vec![0.0; nf]
        } else {
            inj[..nf].to_vec()
        };
        for r in 0..nf {
            let gr = &g_uk.row(r)[..nd];
            for (k, g) in gr.iter().enumerate() {
                rhs[r] -= g * vk[k];
            }
        }
        rhs
    };
    let mut x = match &sys.factors {
        StepFactors::Dense {
            dc_lu: Some(dc), ..
        } => dc.solve(&dc_rhs()).unwrap(),
        StepFactors::Sparse {
            dc_lu: Some(dc), ..
        } => dc.solve(&dc_rhs()).unwrap(),
        _ => vec![0.0; nf],
    };
    let mut src = vec![0.0; nt * nf];
    for ti in 1..nt {
        let vk_prev = &vk[(ti - 1) * nd..ti * nd];
        let vk_now = &vk[ti * nd..(ti + 1) * nd];
        let row = &mut src[ti * nf..(ti + 1) * nf];
        for r in 0..nf {
            let gr = &g_uk.row(r)[..nd];
            let cr = &c_uk.row(r)[..nd];
            let mut acc = 0.0;
            for k in 0..nd {
                let dv = vk_now[k] - vk_prev[k];
                let vbar = 0.5 * (vk_now[k] + vk_prev[k]);
                acc -= cr[k] * dv + h * gr[k] * vbar;
            }
            row[r] = acc;
        }
        if !inj.is_empty() {
            let inj_prev = &inj[(ti - 1) * nf..ti * nf];
            let inj_now = &inj[ti * nf..(ti + 1) * nf];
            for r in 0..nf {
                row[r] += h * 0.5 * (inj_now[r] + inj_prev[r]);
            }
        }
    }
    let mut data = Vec::with_capacity(sys.n * nt);
    let mut record = |x: &[f64], vk_now: &[f64]| {
        for i in 0..sys.n {
            data.push(if sys.is_driven[i] {
                vk_now[sys.driven_slot[i]]
            } else {
                x[sys.position[i]]
            });
        }
    };
    record(&x, &vk[..nd]);
    let mut x_next = vec![0.0; nf];
    match &sys.factors {
        StepFactors::Dense {
            rhs_mat, lhs_lu, ..
        } => {
            let perm = lhs_lu.perm();
            for ti in 1..nt {
                let s_row = &src[ti * nf..(ti + 1) * nf];
                for (i, &r) in perm.iter().enumerate() {
                    x_next[i] = nsta_numeric::dot(rhs_mat.row(r), &x) + s_row[r];
                }
                lhs_lu.solve_prepermuted_in_place(&mut x_next).unwrap();
                std::mem::swap(&mut x, &mut x_next);
                record(&x, &vk[ti * nd..(ti + 1) * nd]);
            }
        }
        StepFactors::Sparse {
            rhs_mat, lhs_lu, ..
        } => {
            for ti in 1..nt {
                let s_row = &src[ti * nf..(ti + 1) * nf];
                rhs_mat.mul_vec_into(&x, &mut x_next).unwrap();
                for (xi, s) in x_next.iter_mut().zip(s_row) {
                    *xi += s;
                }
                lhs_lu.solve_in_place(&mut x_next).unwrap();
                std::mem::swap(&mut x, &mut x_next);
                record(&x, &vk[ti * nd..(ti + 1) * nd]);
            }
        }
    }
    data
}

/// Asserts, on both backends, that the fused pair, two single-column
/// runs and the reference sweep agree bit for bit on every node.
fn assert_pair_parity(
    ckt: &Circuit,
    opts: TransientOptions,
    first: &[Waveform],
    second: &[Waveform],
) {
    let first: Vec<&Waveform> = first.iter().collect();
    let second: Vec<&Waveform> = second.iter().collect();
    let nodes: Vec<NodeId> = (0..ckt.node_count()).map(NodeId).collect();
    for backend in [SolverBackend::Sparse, SolverBackend::Dense] {
        let sys = ckt.factor_transient(opts.with_backend(backend)).unwrap();
        let [pair_a, pair_b] = sys.run_node_pair(&first, &second, &nodes).unwrap();
        let columns = [(pair_a.unwrap(), &first), (pair_b.unwrap(), &second)];
        for (c, (pair, sources)) in columns.iter().enumerate() {
            let single = sys.run_nodes(sources, &nodes).unwrap();
            let reference = reference_run(ckt, &sys, sources);
            for (j, (p, s)) in pair.iter().zip(&single).enumerate() {
                for (ti, (pv, sv)) in p.values().iter().zip(s.values()).enumerate() {
                    let rv = reference[ti * nodes.len() + j];
                    assert_eq!(
                        pv.to_bits(),
                        sv.to_bits(),
                        "{backend:?} column {c} node {j} step {ti}: pair {pv:e} vs single {sv:e}"
                    );
                    assert_eq!(
                        pv.to_bits(),
                        rv.to_bits(),
                        "{backend:?} column {c} node {j} step {ti}: pair {pv:e} vs reference {rv:e}"
                    );
                }
            }
        }
    }
}

/// Runs `trials` random circuits from `build` through the parity check:
/// the victim switches in both columns, the aggressors are quiet in the
/// first and switching in the second.
fn check(seed: u64, trials: usize, build: fn(&mut dyn FnMut() -> f64, usize, bool) -> Circuit) {
    let mut next = rng(seed);
    for trial in 0..trials {
        let aggressors = 1 + trial % 3;
        let injections = trial % 2 == 1;
        let ckt = build(&mut next, aggressors, injections);
        let mut opts = TransientOptions::new(0.0, T_STOP, 2e-12).unwrap();
        if trial % 4 == 3 {
            opts = opts.with_zero_initial_state();
        }
        let victim = random_edge(&mut next);
        let quiet = Waveform::constant(if next() < 0.5 { 0.0 } else { VDD }, 0.0, T_STOP).unwrap();
        let mut first = vec![victim.clone()];
        let mut second = vec![victim];
        for _ in 0..aggressors {
            first.push(quiet.clone());
            second.push(random_edge(&mut next));
        }
        assert_pair_parity(&ckt, opts, &first, &second);
    }
}

#[test]
fn ladder_pairs_match_single_columns_and_reference_bit_for_bit() {
    check(0x1add_e401, 8, ladder);
}

#[test]
fn star_pairs_match_single_columns_and_reference_bit_for_bit() {
    check(0x57a4_b0d1, 8, star);
}

#[test]
fn source_rows_are_the_driver_and_injection_neighbours() {
    // A 6-rung ladder driven at one end, with one injection mid-way: only
    // the first rung (next to the driver's internal node) and the
    // injected rung carry source terms.
    let mut ckt = Circuit::new();
    let v_in = ckt.node("v_in");
    ckt.thevenin_driver(v_in, Waveform::constant(0.0, 0.0, T_STOP).unwrap(), 100.0)
        .unwrap();
    let mut prev = v_in;
    let mut rungs = Vec::new();
    for k in 0..6 {
        let n = ckt.node(&format!("n{k}"));
        ckt.resistor(prev, n, 50.0).unwrap();
        ckt.capacitor(n, Circuit::GROUND, 5e-15).unwrap();
        rungs.push(n);
        prev = n;
    }
    ckt.isource(rungs[3], Waveform::constant(1e-6, 0.0, T_STOP).unwrap())
        .unwrap();
    let sys = ckt
        .factor_transient(TransientOptions::new(0.0, T_STOP, 2e-12).unwrap())
        .unwrap();
    let expect = vec![sys.position[v_in.0], sys.position[rungs[3].0]];
    assert_eq!(sys.sources.rows, expect);
    assert_eq!(sys.sources.injections.len(), 1);
    assert_eq!(sys.sources.injections[0].0, 1);
    // One driver: the coupler entry of v_in is −1/100 S, the injected
    // rung has none.
    assert_eq!(sys.sources.g, vec![-0.01, 0.0]);
    assert_eq!(sys.sources.c, vec![0.0, 0.0]);
}
