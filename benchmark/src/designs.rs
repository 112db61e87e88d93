//! Benchmark inputs: the cell library recipe, the two gate-level designs
//! with their extractions, and the Table-1 case sets. All generation is
//! benchmark-side work, done outside every timed interval; the program
//! only ever sees the generated text and values.

use nsta_liberty::characterize::{inverter_family, Options};
use nsta_liberty::Library;
use nsta_obs::XorShift64;
use nsta_parasitics::SpefFile;
use nsta_spice::fig1::Fig1Config;
use nsta_spice::Process;
use std::fmt::Write as _;

/// Characterizes the two-cell inverter library every design uses — a real
/// transistor-level simulation, the dominant part of engine set-up.
///
/// # Errors
///
/// The characterization failure, as text.
pub fn characterize() -> Result<Library, String> {
    inverter_family(
        &Process::c013(),
        &[("INVX1", 1.0), ("INVX4", 4.0)],
        &Options::fast_test(),
    )
    .map_err(|e| format!("characterization: {e}"))
}

/// The `bus` design: `groups` independent victim/aggressor groups, one
/// input per driver (the `spefbus` workload's netlist).
pub fn bus_netlist(groups: usize) -> String {
    nsta_bench::busgen::netlist(groups)
}

/// The `bus` extraction at `segments` RC segments per wire.
pub fn bus_spef(groups: usize, segments: usize) -> SpefFile {
    nsta_bench::busgen::spef(groups, segments)
}

/// The `mesh` design: the bus's group structure, but every driver chain
/// hangs off one shared input `a`, so the whole design is a single weakly
/// connected component. Every declared port is used.
pub fn mesh_netlist(groups: usize) -> String {
    let mut src = String::from("module mesh (a");
    for g in 0..groups {
        let _ = write!(src, ", y{g}, z{g}, w{g}");
    }
    src.push_str(");\ninput a;\n");
    for g in 0..groups {
        let _ = writeln!(src, "output y{g}, z{g}, w{g};");
    }
    for g in 0..groups {
        let stages = 2 * g + 1;
        let _ = writeln!(src, "wire v{g}, gn{g}, gf{g};");
        let _ = writeln!(src, "INVX1 u{g}_1 (.A(a), .Y(v{g}));");
        let _ = writeln!(src, "INVX4 u{g}_2 (.A(v{g}), .Y(y{g}));");
        let _ = writeln!(src, "INVX1 u{g}_3 (.A(a), .Y(gn{g}));");
        let _ = writeln!(src, "INVX4 u{g}_4 (.A(gn{g}), .Y(z{g}));");
        let mut prev = String::from("a");
        for s in 1..stages {
            let _ = writeln!(src, "wire f{g}_{s};");
            let _ = writeln!(src, "INVX1 c{g}_{s} (.A({prev}), .Y(f{g}_{s}));");
            prev = format!("f{g}_{s}");
        }
        let _ = writeln!(src, "INVX1 c{g}_{stages} (.A({prev}), .Y(gf{g}));");
        let _ = writeln!(src, "INVX4 u{g}_5 (.A(gf{g}), .Y(w{g}));");
    }
    src.push_str("endmodule\n");
    src
}

/// A generator for one input stream of one workload seed. The seed is
/// mixed (splitmix64) first, so neighbouring seeds give unrelated streams.
pub fn rng(seed: u64, stream: u64) -> XorShift64 {
    let mut z = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    XorShift64::new(z ^ (z >> 31))
}

/// Uniform draw from `[lo, hi)`.
fn uniform(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The `mesh` extraction: the bus extraction at `segments` segments per
/// wire, with each group's wire resistance and ground capacitance scaled
/// by seeded factors in `[0.8, 1.2)`. The scatter gives every victim its
/// own electrical signature, so no two victims share a topology-cache
/// key; coupling caps are untouched.
pub fn mesh_spef(groups: usize, segments: usize, seed: u64) -> SpefFile {
    let mut spef = bus_spef(groups, segments);
    let mut rng = rng(seed, 1);
    for g in 0..groups {
        let r_scale = uniform(&mut rng, 0.8, 1.2);
        let c_scale = uniform(&mut rng, 0.8, 1.2);
        for name in [format!("v{g}"), format!("gn{g}"), format!("gf{g}")] {
            let Some(net) = spef.nets.iter_mut().find(|n| n.name == name) else {
                continue;
            };
            let mut total = 0.0;
            for cap in &mut net.caps {
                if cap.b.is_none() {
                    cap.value *= c_scale;
                }
                total += cap.value;
            }
            // Aggressor wires declare the one coupling cap that lives in
            // the victim's section.
            if name != format!("v{g}") {
                total += 50e-15;
            }
            net.total_cap = total;
            for res in &mut net.ress {
                res.value *= r_scale;
            }
        }
    }
    spef
}

/// One Table-1 noise-injection case.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// 0 for Configuration I, 1 for Configuration II.
    pub config: usize,
    /// Index of the case's point in its configuration's skew sweep.
    pub point: usize,
    /// Aggressor skews relative to the victim transition (s).
    pub skews: Vec<f64>,
}

/// The two Table-1 testbench configurations, indexed by [`Case::config`].
pub fn table1_configs() -> [Fig1Config; 2] {
    [Fig1Config::config_i(), Fig1Config::config_ii()]
}

/// Half-width of the paper's 1 ns alignment window (s).
pub const SKEW_HALF_RANGE: f64 = 0.5e-9;

/// Largest seeded offset of a case from its sweep point (s).
pub const SKEW_JITTER: f64 = 0.01e-12;

/// A seeded Table-1 case set: for each configuration, the paper's uniform
/// sweep of `per_config` alignments over the 1 ns window (all aggressors
/// switching together), each point offset by a seeded jitter of at most
/// [`SKEW_JITTER`]. The jitter makes every seed's set its own while the
/// error statistics stay those of the sweep: SGDP's error has narrow
/// spikes, and a coarser random draw would swing them with the seed.
/// Configurations alternate, so any prefix of the set mixes both.
pub fn table1_cases(seed: u64, per_config: usize) -> Vec<Case> {
    let mut rng = rng(seed, 2);
    let configs = table1_configs();
    let mut per: Vec<Vec<Case>> = configs
        .iter()
        .enumerate()
        .map(|(ci, cfg)| {
            (0..per_config)
                .map(|k| {
                    let s = -SKEW_HALF_RANGE
                        + 2.0 * SKEW_HALF_RANGE * (k as f64 + 0.5) / per_config as f64
                        + uniform(&mut rng, -SKEW_JITTER, SKEW_JITTER);
                    Case {
                        config: ci,
                        point: k,
                        skews: vec![s; cfg.aggressors],
                    }
                })
                .collect()
        })
        .collect();
    let mut cases = Vec::with_capacity(2 * per_config);
    let second = per.pop().unwrap_or_default();
    let first = per.pop().unwrap_or_default();
    for (a, b) in first.into_iter().zip(second) {
        cases.push(a);
        cases.push(b);
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_netlist_is_one_component_with_every_port_used() {
        let lib = characterize().unwrap();
        let design = nsta_sta::verilog::parse_design(&mesh_netlist(3)).unwrap();
        let sta = nsta_sta::Sta::new(design, lib).unwrap();
        assert_eq!(sta.graph().components().len(), 1);
    }

    #[test]
    fn mesh_scatter_is_seeded() {
        let a = mesh_spef(4, 8, 1);
        assert_eq!(a, mesh_spef(4, 8, 1));
        assert_ne!(a, mesh_spef(4, 8, 2));
    }

    #[test]
    fn table1_cases_are_seeded_sweep_points() {
        let a = table1_cases(5, 4);
        assert_eq!(a, table1_cases(5, 4));
        assert_ne!(a, table1_cases(6, 4));
        assert_eq!(a.len(), 8);
        let first: Vec<f64> = a
            .iter()
            .filter(|c| c.config == 0)
            .map(|c| c.skews[0])
            .collect();
        for (k, s) in first.iter().enumerate() {
            let point = -SKEW_HALF_RANGE + 0.25e-9 * (k as f64 + 0.5);
            assert!((s - point).abs() <= SKEW_JITTER);
        }
        assert!(a
            .iter()
            .filter(|c| c.config == 1)
            .all(|c| c.skews.len() == 2));
    }
}
