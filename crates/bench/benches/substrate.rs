//! Micro-benchmarks of the simulation substrate: linear and nonlinear
//! transient engines, LU kernels and the Liberty parser.
//!
//! Run with `cargo bench -p nsta-bench --bench substrate`.

use nsta_bench::microbench::bench;
use nsta_circuit::{
    Circuit, CoupledLines, FactoredSystem, NodeId, RcLineSpec, StarCoupledLines, TransientOptions,
};
use nsta_numeric::{DenseMatrix, LuFactors};
use nsta_spice::{cells, Netlist, Process, SimOptions};
use nsta_waveform::Waveform;

fn bench_lu() {
    for n in [8usize, 32, 64] {
        let mut a = DenseMatrix::zeros(n, n);
        let mut seed = 0x12345678u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for r in 0..n {
            for cc in 0..n {
                a.set(r, cc, next());
            }
            a.add(r, r, n as f64);
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        bench(&format!("lu/factor_solve_{n}"), || {
            let lu = LuFactors::factor(&a).expect("well conditioned");
            lu.solve(&b).expect("solve")
        });
    }
}

fn bench_linear_transient() {
    bench("linear_coupled_lines_2ns", || {
        let mut ckt = Circuit::new();
        let a_in = ckt.node("a");
        let v_in = ckt.node("v");
        let edge =
            Waveform::new(vec![0.0, 0.5e-9, 0.7e-9, 2e-9], vec![0.0, 0.0, 1.2, 1.2]).expect("edge");
        ckt.thevenin_driver(a_in, edge, 200.0).expect("driver");
        ckt.thevenin_driver(
            v_in,
            Waveform::constant(0.0, 0.0, 2e-9).expect("flat"),
            200.0,
        )
        .expect("driver");
        let bundle = CoupledLines::new(RcLineSpec::figure1(), 2, 100e-15).expect("bundle");
        let far = bundle.build(&mut ckt, &[a_in, v_in], "w").expect("build");
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 2e-9, 2e-12).expect("opts"))
            .expect("run");
        res.voltage(far[1]).expect("trace")
    });
}

/// One crosstalk victim stage as the SI flow factors it: a Thevenin
/// driver into the victim wire, star-coupled at a third and two thirds
/// of its length to two driven aggressor wires (the bus workload's
/// extraction: 25.5 Ω / 28.8 fF wires, 50 fF per coupling), over a
/// 3 ns window at 4 ps — 751 time points.
fn victim_stage(segments: usize) -> (FactoredSystem, NodeId) {
    let mut ckt = Circuit::new();
    let placeholder = Waveform::constant(0.0, 0.0, 3e-9).expect("flat");
    let v_in = ckt.node("victim_in");
    ckt.thevenin_driver(v_in, placeholder.clone(), 200.0)
        .expect("driver");
    let mut agg_ins = Vec::new();
    for _ in 0..2 {
        let a_in = ckt.anon_node();
        ckt.thevenin_driver(a_in, placeholder.clone(), 200.0)
            .expect("driver");
        agg_ins.push(a_in);
    }
    let line = RcLineSpec::new(25.5, 28.8e-15, segments).expect("line");
    let bundle = StarCoupledLines::new(line, vec![(line, 50e-15), (line, 50e-15)]).expect("bundle");
    let (far, _) = bundle.build(&mut ckt, v_in, &agg_ins, "w").expect("build");
    ckt.capacitor(far, Circuit::GROUND, 10e-15).expect("load");
    let opts = TransientOptions::new(0.0, 3e-9, 4e-12).expect("opts");
    (ckt.factor_transient(opts).expect("factor"), far)
}

/// The per-victim noiseless/noisy transient pair — the largest layer of
/// the crosstalk solve — as one fused two-column sweep against two
/// single-column sweeps of the same factored system, at the bus64 victim
/// shape (3 segments) and the mesh32 one (32 segments).
fn bench_transient_pair() {
    let edge = |t0: f64, from: f64| {
        Waveform::new(
            vec![t0, t0 + 100e-12, 4e-9],
            vec![from, 1.2 - from, 1.2 - from],
        )
        .expect("edge")
    };
    let victim = edge(1e-9, 0.0);
    let quiet = Waveform::constant(0.0, 0.0, 3e-9).expect("flat");
    let (agg_a, agg_b) = (edge(0.9e-9, 0.0), edge(1.1e-9, 0.0));
    let noiseless = [&victim, &quiet, &quiet];
    let noisy = [&victim, &agg_a, &agg_b];
    for (shape, segments) in [("bus64", 3), ("mesh32", 32)] {
        let (system, far) = victim_stage(segments);
        println!(
            "transient pair at the {shape} victim shape: nnz {}, {} time points",
            system.nnz(),
            system.times().len()
        );
        bench(&format!("transient/pair_fused/{shape}"), || {
            system
                .run_node_pair(&noiseless, &noisy, &[far])
                .expect("pair")
        });
        bench(&format!("transient/pair_two_sweeps/{shape}"), || {
            (
                system.run_nodes(&noiseless, &[far]).expect("noiseless"),
                system.run_nodes(&noisy, &[far]).expect("noisy"),
            )
        });
    }
}

fn bench_spice_inverter() {
    bench("spice_inverter_2ns", || {
        let proc = Process::c013();
        let mut net = Netlist::new(proc.vdd);
        let inp = net.node("in");
        let out = net.node("out");
        cells::add_inverter(&mut net, &proc, 4.0, inp, out, "u1").expect("cell");
        cells::add_load_cap(&mut net, out, 20e-15).expect("load");
        let ramp = Waveform::new(vec![0.0, 0.5e-9, 0.65e-9, 2e-9], vec![0.0, 0.0, 1.2, 1.2])
            .expect("ramp");
        net.vsource(inp, ramp).expect("source");
        let res = net
            .run_transient(SimOptions::new(0.0, 2e-9, 2e-12).expect("opts"))
            .expect("run");
        res.voltage(out).expect("trace")
    });
}

fn bench_liberty_parse() {
    // A realistic library text produced by the serializer (constructed
    // once, outside the timed loop).
    use nsta_liberty::{Cell, Direction, Library, NldmTable, Pin, TimingArc, TimingSense};
    let table = NldmTable::new(
        vec![30e-12, 60e-12, 120e-12, 240e-12, 480e-12],
        vec![2e-15, 5e-15, 10e-15, 20e-15, 40e-15],
        (0..25).map(|i| 20e-12 + i as f64 * 3e-12).collect(),
    )
    .expect("table");
    let arc = TimingArc {
        related_pin: "A".into(),
        sense: TimingSense::NegativeUnate,
        cell_rise: table.clone(),
        rise_transition: table.clone(),
        cell_fall: table.clone(),
        fall_transition: table,
    };
    let mut lib = Library::new("bench", 1.2);
    for i in 0..20 {
        lib.push_cell(Cell {
            name: format!("INVX{i}"),
            area: 1.0,
            pins: vec![
                Pin {
                    name: "A".into(),
                    direction: Direction::Input,
                    capacitance: 5e-15,
                    function: None,
                    timing: vec![],
                },
                Pin {
                    name: "Y".into(),
                    direction: Direction::Output,
                    capacitance: 0.0,
                    function: Some("!A".into()),
                    timing: vec![arc.clone()],
                },
            ],
        });
    }
    let text = lib.to_liberty();
    bench("liberty_parse_20_cells", || {
        nsta_liberty::parse_library(&text).expect("parse")
    });
}

fn main() {
    bench_lu();
    nsta_bench::microbench::bench_solver_backends();
    bench_linear_transient();
    bench_transient_pair();
    bench_spice_inverter();
    bench_liberty_parse();
}
