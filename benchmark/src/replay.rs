//! Per-victim replay: rebuilds each victim's coupled stage from outside the
//! engine and runs its stages — source-waveform synthesis, factorization,
//! the noiseless/noisy transient pair, the receiver table gate and the
//! reduction — through the public `waveform`, `circuit` and `sgdp`
//! functions, timing each one.
//!
//! The engine keeps these stages behind one private call, so the replay
//! mirrors its recipe: the filtered coupling spec, nominal victim and
//! aggressor points, the quantized simulation grid and the receiver
//! lookup. The stage times count only if every replayed `Γeff` reproduces
//! the engine's adjustment for that victim within [`TOLERANCE_S`];
//! otherwise the replay is reported invalid.

use crate::stats::median;
use crate::trace::{Group, Tracer};
use nsta_circuit::{Circuit, RcLineSpec, StarCoupledLines, TransientOptions};
use nsta_sta::{BoundaryConditions, Constraints, CouplingSpec, NetId, SiAnalysis, SiOptions, Sta};
use nsta_waveform::{Polarity, SaturatedRamp, Thresholds, Waveform};
use sgdp::gate::{GateModel, TableGate};
use sgdp::PropagationContext;
use std::collections::HashSet;

/// Largest accepted gap between a replayed and an engine `Γeff` arrival or
/// slew: 1e-6 ps.
pub const TOLERANCE_S: f64 = 1e-18;

/// The engine's timestep buckets and stop-time quantum (see `nsta-sta`'s
/// crosstalk module): victims land on one of these grids.
const DT_BUCKETS: [f64; 5] = [0.5e-12, 1e-12, 2e-12, 4e-12, 5e-12];
const T_STOP_QUANTUM: f64 = 0.5e-9;
const SETTLE_MARGIN: f64 = 1e-9;

/// Per-victim stage times of one or more replay rounds.
#[derive(Debug, Default)]
pub struct ReplayStats {
    /// Source-waveform synthesis, µs per victim transition.
    pub synth_us: Vec<f64>,
    /// Circuit assembly and LU factorization, µs per victim transition.
    pub factor_us: Vec<f64>,
    /// Noiseless + noisy transient runs, µs per victim transition.
    pub pair_us: Vec<f64>,
    /// Transient pair time per integration step, ns.
    pub ns_per_step: Vec<f64>,
    /// Receiver table-gate response, µs per victim transition.
    pub table_gate_us: Vec<f64>,
    /// Propagation context + reduction, µs per victim transition.
    pub reduce_us: Vec<f64>,
    /// Victim transitions replayed per round.
    pub victims: usize,
    /// Largest `Γeff` arrival/slew gap to the engine (s).
    pub max_gap_s: f64,
}

impl ReplayStats {
    /// Whether every replayed `Γeff` matched the engine.
    pub fn valid(&self) -> bool {
        self.victims > 0 && self.max_gap_s <= TOLERANCE_S
    }

    /// Median per-victim time of the stages a recomputed victim pays for
    /// on every reduction (all but the factorization), µs.
    pub fn per_victim_us(&self) -> f64 {
        median(&self.synth_us)
            + median(&self.pair_us)
            + median(&self.table_gate_us)
            + median(&self.reduce_us)
    }
}

fn quantize_dt(victim_slew: f64) -> f64 {
    let raw = (victim_slew / 50.0).clamp(0.5e-12, 5e-12);
    DT_BUCKETS
        .iter()
        .find(|&&b| b >= raw)
        .copied()
        .unwrap_or(raw)
}

fn quantize_t_stop(latest: f64) -> f64 {
    ((latest + SETTLE_MARGIN) / T_STOP_QUANTUM).ceil() * T_STOP_QUANTUM
}

/// `spec` without the aggressors the analysis pruned for its victim; the
/// pruned couplings load the victim as quiet capacitance.
fn filtered_spec(spec: &CouplingSpec, pruned: &HashSet<(NetId, NetId)>) -> CouplingSpec {
    let keep: Vec<usize> = (0..spec.aggressors.len())
        .filter(|&i| !pruned.contains(&(spec.victim, spec.aggressors[i])))
        .collect();
    if keep.len() == spec.aggressors.len() {
        return spec.clone();
    }
    let mut out = spec.clone();
    out.aggressors = keep.iter().map(|&i| spec.aggressors[i]).collect();
    out.cm_per_aggressor = keep.iter().map(|&i| spec.cm_of(i)).collect();
    out.aggressor_lines = keep.iter().map(|&i| spec.line_of(i)).collect();
    let kept: f64 = out.cm_per_aggressor.iter().sum();
    let all: f64 = (0..spec.aggressors.len()).map(|i| spec.cm_of(i)).sum();
    out.quiet_cm = spec.quiet_cm + (all - kept).max(0.0);
    out
}

/// Replays every adjusted victim transition of `analysis` `rounds` times.
///
/// # Errors
///
/// A stage that fails outright (the replay cannot be timed at all).
pub fn replay(
    sta: &Sta,
    c: Constraints,
    specs: &[CouplingSpec],
    analysis: &SiAnalysis,
    options: &SiOptions,
    rounds: u32,
    tr: &mut Tracer,
) -> Result<ReplayStats, String> {
    let err = |e: &dyn std::fmt::Display| format!("replay: {e}");
    let nominal = sta.analyze(c).map_err(|e| err(&e))?;
    let bc = BoundaryConditions::uniform(&c);
    let th = Thresholds::cmos(sta.library().voltage);
    let pruned: HashSet<(NetId, NetId)> = analysis
        .pruned
        .iter()
        .map(|p| (p.victim, p.aggressor))
        .collect();
    let point = |net: NetId, pol: Polarity| {
        nominal
            .net(net)
            .and_then(|t| if pol.is_rise() { t.rise } else { t.fall })
            .ok_or_else(|| format!("replay: no nominal point for net #{}", net.index()))
    };
    let mut stats = ReplayStats::default();
    for round in 0..rounds {
        tr.set_group(Group::Replay(round));
        for adj in &analysis.adjustments {
            let spec = specs
                .iter()
                .find(|s| s.victim == adj.net)
                .ok_or_else(|| format!("replay: no spec for victim #{}", adj.net.index()))?;
            let spec = filtered_spec(spec, &pruned);
            let vp = point(adj.net, adj.polarity)?;
            let agg_pol = if spec.aggressors_oppose {
                adj.polarity.inverted()
            } else {
                adj.polarity
            };

            // Source-waveform synthesis.
            let t = std::time::Instant::now();
            let synth = tr.span("waveform.synth", || -> Result<_, String> {
                let mut latest = vp.arrival + vp.slew;
                let mut agg_ramps = Vec::new();
                for &agg in &spec.aggressors {
                    let ap = point(agg, agg_pol)?;
                    let arr = ap.arrival + spec.aggressor_skew;
                    latest = latest.max(arr + ap.slew);
                    agg_ramps.push(
                        SaturatedRamp::with_slew(arr, ap.slew.max(1e-12), th, agg_pol.is_rise())
                            .map_err(|e| err(&e))?,
                    );
                }
                let t_stop = quantize_t_stop(latest);
                let dt = quantize_dt(vp.slew);
                let victim_wave = SaturatedRamp::with_slew(
                    vp.arrival,
                    vp.slew.max(1e-12),
                    th,
                    adj.polarity.is_rise(),
                )
                .and_then(|r| r.to_waveform(0.0, t_stop, dt))
                .map_err(|e| err(&e))?;
                let agg_waves = agg_ramps
                    .iter()
                    .map(|r| r.to_waveform(0.0, t_stop, dt))
                    .collect::<Result<Vec<Waveform>, _>>()
                    .map_err(|e| err(&e))?;
                Ok((t_stop, dt, victim_wave, agg_waves))
            })?;
            stats.synth_us.push(t.elapsed().as_secs_f64() * 1e6);
            let (t_stop, dt, victim_wave, agg_waves) = synth;

            // Circuit assembly and factorization.
            let t = std::time::Instant::now();
            let (system, far) = tr.span("circuit.factor", || -> Result<_, String> {
                let line = if spec.quiet_cm > 0.0 {
                    RcLineSpec::new(
                        spec.line.r_total,
                        spec.line.c_total + spec.quiet_cm,
                        spec.line.segments,
                    )
                    .map_err(|e| err(&e))?
                } else {
                    spec.line
                };
                let load = spec
                    .receiver_load
                    .unwrap_or_else(|| sta.graph().load(spec.victim))
                    .max(1e-16);
                let mut ckt = Circuit::new();
                let v_in = ckt.node("victim_in");
                let placeholder = Waveform::constant(0.0, 0.0, t_stop).map_err(|e| err(&e))?;
                ckt.thevenin_driver(v_in, placeholder.clone(), spec.driver_resistance)
                    .map_err(|e| err(&e))?;
                let mut agg_ins = Vec::new();
                for _ in &agg_waves {
                    let a_in = ckt.anon_node();
                    ckt.thevenin_driver(a_in, placeholder.clone(), spec.driver_resistance)
                        .map_err(|e| err(&e))?;
                    agg_ins.push(a_in);
                }
                let far = if agg_ins.is_empty() {
                    line.build(&mut ckt, v_in, "w").map_err(|e| err(&e))?
                } else {
                    let bundle = StarCoupledLines::new(
                        line,
                        (0..agg_ins.len())
                            .map(|i| (spec.line_of(i), spec.cm_of(i)))
                            .collect(),
                    )
                    .map_err(|e| err(&e))?;
                    bundle
                        .build(&mut ckt, v_in, &agg_ins, "w")
                        .map_err(|e| err(&e))?
                        .0
                };
                ckt.capacitor(far, Circuit::GROUND, load)
                    .map_err(|e| err(&e))?;
                let opts = TransientOptions::new(0.0, t_stop, dt)
                    .map_err(|e| err(&e))?
                    .with_backend(options.backend);
                let system = ckt.factor_transient(opts).map_err(|e| err(&e))?;
                Ok((system, far))
            })?;
            stats.factor_us.push(t.elapsed().as_secs_f64() * 1e6);

            // The noiseless/noisy transient pair.
            let t = std::time::Instant::now();
            let (noiseless, noisy) =
                tr.span("circuit.transient_pair", || -> Result<_, String> {
                    let quiet_level = if agg_pol.is_rise() { 0.0 } else { th.vdd() };
                    let quiet =
                        Waveform::constant(quiet_level, 0.0, t_stop).map_err(|e| err(&e))?;
                    let mut sources: Vec<&Waveform> = vec![&victim_wave];
                    sources.extend(agg_waves.iter().map(|_| &quiet));
                    let noiseless = system
                        .run_nodes(&sources, &[far])
                        .map_err(|e| err(&e))?
                        .pop()
                        .ok_or("replay: no noiseless trace")?;
                    let noisy = if agg_waves.is_empty() {
                        noiseless.clone()
                    } else {
                        let mut sources: Vec<&Waveform> = vec![&victim_wave];
                        sources.extend(agg_waves.iter());
                        system
                            .run_nodes(&sources, &[far])
                            .map_err(|e| err(&e))?
                            .pop()
                            .ok_or("replay: no noisy trace")?
                    };
                    Ok((noiseless, noisy))
                })?;
            let pair = t.elapsed().as_secs_f64();
            let runs = if agg_waves.is_empty() { 1.0 } else { 2.0 };
            stats.pair_us.push(pair * 1e6);
            stats
                .ns_per_step
                .push(pair * 1e9 / (runs * (t_stop / dt).round()));

            // Receiver response through the library tables.
            let t = std::time::Instant::now();
            let noiseless_output = tr.span("sgdp.table_gate", || -> Result<_, String> {
                let Some(&k) = sta.graph().fanout_edges(spec.victim).first() else {
                    return Ok(None);
                };
                let edge = &sta.graph().edges()[k];
                let inst = &sta.design().instances()[edge.instance];
                let cell = sta
                    .library()
                    .cell(&inst.cell)
                    .ok_or_else(|| format!("replay: no cell {}", inst.cell))?;
                let load = bc.output(edge.to).load.max(1e-15);
                let gate = TableGate::new(cell, load, th).map_err(|e| err(&e))?;
                gate.response(&noiseless).map(Some).map_err(|e| err(&e))
            })?;
            stats.table_gate_us.push(t.elapsed().as_secs_f64() * 1e6);

            // Reduction to Γeff.
            let t = std::time::Instant::now();
            let gamma = tr.span("sgdp.reduce", || -> Result<_, String> {
                let ctx = PropagationContext::new(noiseless, noisy, noiseless_output, th)
                    .map_err(|e| err(&e))?;
                options.method.equivalent(&ctx).map_err(|e| err(&e))
            })?;
            stats.reduce_us.push(t.elapsed().as_secs_f64() * 1e6);

            let gap = (gamma.arrival_mid() - adj.noisy_arrival)
                .abs()
                .max((gamma.slew(th) - adj.noisy_slew).abs());
            stats.max_gap_s = stats
                .max_gap_s
                .max(if gap.is_nan() { f64::INFINITY } else { gap });
        }
    }
    stats.victims = analysis.adjustments.len();
    Ok(stats)
}
