//! `bus64` and `mesh32`: the production crosstalk flow. One unit is SPEF
//! text → `parse_spef` → `bind_couplings` →
//! `analyze_with_crosstalk_windows` → rendered timing report.
//!
//! Correctness: every unit's report and adjustments must be bit-identical
//! to an in-run reference analysis computed once, before timing, with the
//! plainest configuration (topology cache off, no incremental fixed
//! point, one thread). A unit also fails if any stage errors, the fixed
//! point does not converge, or the analysis records degrade events.

use super::setup_engine;
use crate::designs;
use crate::json::Json;
use crate::replay::replay;
use crate::run::{Finish, Layers, RunConfig, UnitResult, Workload, WorkloadKind};
use crate::stats::median;
use crate::trace::{Group, Tracer};
use nsta_parasitics::{bind_couplings, parse_spef, write_spef, BindOptions};
use nsta_sta::{Constraints, SiAnalysis, SiOptions, Sta};
use std::time::{Duration, Instant};

/// Rounds of the nominal/min sweep and per-victim replays in a traced run.
const REPLAY_ROUNDS: u32 = 3;

/// Smallest topology-cache hit rate a full-size `bus64` traced run must
/// show; a full-size `mesh32` run must stay below it, hence below
/// `bus64`'s.
pub const BUS_MIN_HIT_RATE: f64 = 0.95;

/// `SiDiagnostics` readings of one traced unit.
#[derive(Debug, Clone, Copy)]
struct Diag {
    iterations: f64,
    recomputed: f64,
    cached: f64,
    pruned: f64,
    cones: f64,
    hits: f64,
    misses: f64,
    peak_bytes: f64,
}

impl Diag {
    fn of(a: &SiAnalysis) -> Self {
        let d = &a.diagnostics;
        Diag {
            iterations: d.iterations.len() as f64,
            recomputed: d
                .iterations
                .iter()
                .map(|i| i.victims_recomputed)
                .sum::<usize>() as f64,
            cached: d.iterations.iter().map(|i| i.victims_cached).sum::<usize>() as f64,
            pruned: a.pruned.len() as f64,
            cones: d.cones as f64,
            hits: d.cache_hits as f64,
            misses: d.cache_misses as f64,
            peak_bytes: d.cache_bytes as f64,
        }
    }
}

/// The crosstalk-flow workload.
pub struct StaFlow {
    kind: WorkloadKind,
    /// Full-size design (not a self-test's shrunk one).
    full_size: bool,
    groups: usize,
    segments: usize,
    netlist: String,
    spef_text: String,
    sta: Sta,
    c: Constraints,
    options: SiOptions,
    reference: SiAnalysis,
    diags: Vec<Diag>,
}

impl StaFlow {
    /// Generates the design, sets the engine up and computes the
    /// reference analysis.
    ///
    /// # Errors
    ///
    /// Set-up or reference-analysis failure.
    pub fn build(cfg: &RunConfig, tr: &mut Tracer) -> Result<Self, String> {
        let (groups, segments) = match (cfg.workload, cfg.small) {
            (WorkloadKind::Bus64, false) => (64, 3),
            (WorkloadKind::Bus64, true) => (8, 3),
            (_, false) => (32, 32),
            (_, true) => (4, 8),
        };
        let (netlist, spef) = if cfg.workload == WorkloadKind::Bus64 {
            (
                designs::bus_netlist(groups),
                designs::bus_spef(groups, segments),
            )
        } else {
            (
                designs::mesh_netlist(groups),
                designs::mesh_spef(groups, segments, cfg.seed),
            )
        };
        let spef_text = write_spef(&spef);
        let (sta, _) = setup_engine(&netlist, tr)?;
        let c = Constraints::default();
        let parsed = parse_spef(&spef_text).map_err(|e| format!("reference parse: {e}"))?;
        let bound = bind_couplings(&parsed, sta.design(), &BindOptions::default())
            .map_err(|e| format!("reference bind: {e}"))?;
        let plain = SiOptions {
            topo_cache: false,
            incremental: false,
            threads: 1,
            ..SiOptions::default()
        };
        let mut reference = sta
            .analyze_with_crosstalk_windows(c, &bound.specs, &plain)
            .map_err(|e| format!("reference analysis: {e}"))?;
        if !reference.converged() || !reference.degrade_events().is_empty() {
            return Err("reference analysis did not converge cleanly".into());
        }
        if cfg.corrupt_reference {
            if let Some(adj) = reference.adjustments.first_mut() {
                adj.noisy_arrival += 1e-12;
            }
        }
        Ok(StaFlow {
            kind: cfg.workload,
            full_size: !cfg.small,
            groups,
            segments,
            netlist,
            spef_text,
            sta,
            c,
            options: SiOptions::default(),
            reference,
            diags: Vec::new(),
        })
    }

    /// The unit's work: parse, bind, analyze, render.
    fn flow(&self, tr: &mut Tracer) -> Result<(SiAnalysis, String), String> {
        let parsed = tr
            .span("parasitics.parse", || parse_spef(&self.spef_text))
            .map_err(|e| format!("parse: {e}"))?;
        let bound = tr
            .span("parasitics.bind", || {
                bind_couplings(&parsed, self.sta.design(), &BindOptions::default())
            })
            .map_err(|e| format!("bind: {e}"))?;
        let analysis = tr
            .span("sta.si", || {
                self.sta
                    .analyze_with_crosstalk_windows(self.c, &bound.specs, &self.options)
            })
            .map_err(|e| format!("analysis: {e}"))?;
        let text = tr.span("sta.report", || analysis.report.to_string());
        Ok((analysis, text))
    }

    fn check(&self, analysis: &SiAnalysis, text: &str) -> Option<String> {
        if !analysis.converged() {
            Some("fixed point did not converge".into())
        } else if !analysis.degrade_events().is_empty() {
            Some(format!(
                "{} degrade event(s)",
                analysis.degrade_events().len()
            ))
        } else if analysis.report != self.reference.report {
            Some("report differs from the reference".into())
        } else if analysis.adjustments != self.reference.adjustments {
            Some("adjustments differ from the reference".into())
        } else if text.is_empty() {
            Some("empty rendered report".into())
        } else {
            None
        }
    }
}

impl StaFlow {
    /// Checks a full-size traced run against its workload's shape: `bus64`
    /// hits the topology cache at least [`BUS_MIN_HIT_RATE`] of the time
    /// with at least one cone per thread; `mesh32` stays below that rate.
    fn shape_problems(&self, out: &Layers) -> Vec<String> {
        let hit_rate = out["sta.topo_cache.hit_rate"];
        let cones = out["sta.cones"];
        let threads = self.options.threads as f64;
        let mut problems = Vec::new();
        if !self.full_size {
            return problems;
        }
        match self.kind {
            WorkloadKind::Bus64 => {
                if !(hit_rate >= BUS_MIN_HIT_RATE) {
                    problems.push(format!(
                        "shape: bus64 topo-cache hit rate {hit_rate} < {BUS_MIN_HIT_RATE}"
                    ));
                }
                if !(cones >= threads) {
                    problems.push(format!(
                        "shape: bus64 has {cones} cones < {threads} threads"
                    ));
                }
            }
            _ => {
                if !(hit_rate < BUS_MIN_HIT_RATE) {
                    problems.push(format!(
                        "shape: mesh32 topo-cache hit rate {hit_rate} is not below {BUS_MIN_HIT_RATE}"
                    ));
                }
            }
        }
        problems
    }
}

impl Workload for StaFlow {
    fn warmup_units(&self) -> usize {
        3
    }

    fn setup_sample(&mut self, tr: &mut Tracer) -> Result<Duration, String> {
        setup_engine(&self.netlist, tr).map(|(_, d)| d)
    }

    fn unit(&mut self, tr: &mut Tracer) -> UnitResult {
        let t = Instant::now();
        let outcome = self.flow(tr);
        let elapsed = t.elapsed();
        let failure = match &outcome {
            Ok((analysis, text)) => {
                if tr.is_enabled() {
                    self.diags.push(Diag::of(analysis));
                }
                self.check(analysis, text)
            }
            Err(e) => Some(e.clone()),
        };
        UnitResult {
            elapsed,
            input: None,
            failure,
        }
    }

    fn finish(&mut self, _tr: &mut Tracer) -> Finish {
        Finish {
            context: vec![
                ("groups".into(), Json::Num(self.groups as f64)),
                ("segments".into(), Json::Num(self.segments as f64)),
                ("threads".into(), Json::Num(self.options.threads as f64)),
                (
                    "worst_arrival_ps".into(),
                    Json::Num(self.reference.report.worst_arrival() * 1e12),
                ),
                (
                    "reference_victim_transitions".into(),
                    Json::Num(self.reference.adjustments.len() as f64),
                ),
                (
                    "reference_nnz".into(),
                    Json::Num(self.reference.solver_nnz() as f64),
                ),
            ],
            ..Finish::default()
        }
    }

    fn per_layer(&mut self, tr: &mut Tracer, out: &mut Layers) -> Result<Vec<String>, String> {
        for (metric, span) in [
            ("liberty.characterize_ms", "liberty.characterize"),
            ("sta.build_ms", "sta.build"),
            ("parasitics.parse_ms", "parasitics.parse"),
            ("parasitics.bind_ms", "parasitics.bind"),
            ("sta.si_ms", "sta.si"),
        ] {
            out.insert(metric, median(&tr.per_group_ms(span)));
        }
        out.insert("parasitics.spef_bytes", self.spef_text.len() as f64);
        let field = |f: fn(&Diag) -> f64| median(&self.diags.iter().map(f).collect::<Vec<_>>());
        out.insert("sta.iterations", field(|d| d.iterations));
        out.insert("sta.victims_recomputed", field(|d| d.recomputed));
        out.insert("sta.victims_cached", field(|d| d.cached));
        out.insert("sta.aggressors_pruned", field(|d| d.pruned));
        out.insert("sta.cones", field(|d| d.cones));
        out.insert("sta.topo_cache.hits", field(|d| d.hits));
        out.insert("sta.topo_cache.misses", field(|d| d.misses));
        out.insert("sta.topo_cache.peak_bytes", field(|d| d.peak_bytes));
        out.insert(
            "sta.topo_cache.hit_rate",
            field(|d| d.hits / (d.hits + d.misses).max(1.0)),
        );

        // Replays from outside the engine, in their own groups: the two
        // hoisted sweeps, then every victim's stages.
        tr.enable();
        for round in 0..REPLAY_ROUNDS {
            tr.set_group(Group::Replay(round));
            tr.span("sta.nominal_sweep", || self.sta.analyze(self.c))
                .map_err(|e| format!("nominal sweep: {e}"))?;
            tr.span("sta.min_sweep", || self.sta.analyze_earliest(self.c))
                .map_err(|e| format!("min sweep: {e}"))?;
        }
        out.insert(
            "sta.nominal_sweep_ms",
            median(&tr.per_group_ms("sta.nominal_sweep")),
        );
        out.insert(
            "sta.min_sweep_ms",
            median(&tr.per_group_ms("sta.min_sweep")),
        );
        let parsed = parse_spef(&self.spef_text).map_err(|e| format!("replay parse: {e}"))?;
        let bound = bind_couplings(&parsed, self.sta.design(), &BindOptions::default())
            .map_err(|e| format!("replay bind: {e}"))?;
        let stats = replay(
            &self.sta,
            self.c,
            &bound.specs,
            &self.reference,
            &self.options,
            REPLAY_ROUNDS,
            tr,
        )?;
        tr.disable();
        let valid = stats.valid();
        out.insert("replay.valid", if valid { 1.0 } else { 0.0 });
        if valid {
            out.insert("waveform.synth_us_per_victim", median(&stats.synth_us));
            out.insert("circuit.factor_us", median(&stats.factor_us));
            out.insert(
                "circuit.transient_pair_us_per_victim",
                median(&stats.pair_us),
            );
            out.insert("circuit.ns_per_step", median(&stats.ns_per_step));
            out.insert(
                "sgdp.table_gate_us_per_victim",
                median(&stats.table_gate_us),
            );
            out.insert("sgdp.reduce_us_per_victim", median(&stats.reduce_us));
            let explained_ms = (field(|d| d.recomputed) * stats.per_victim_us()
                + field(|d| d.misses) * median(&stats.factor_us))
                / 1e3;
            out.insert("replay.coverage", explained_ms / out["sta.si_ms"]);
        }
        Ok(self.shape_problems(out))
    }
}
