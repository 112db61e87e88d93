//! `table1`: the paper's Table-1 protocol on Configurations I and II. One
//! unit is one noise-injection case: the golden noisy SPICE run, then
//! `sgdp::eval::evaluate_case` — all six reductions and the receiver
//! re-simulation per method.
//!
//! Every run completes a fixed, seed-chosen case set (see
//! [`designs::table1_cases`]) once — the accuracy metrics come from that
//! pass — and then keeps cycling through it until the window closes; each
//! repeat must reproduce its case's first result bit for bit.
//!
//! Correctness: a case fails if the golden simulation or the evaluation
//! errors, if a repeat does not reproduce the case's first result, or if
//! SGDP declines it — except at the sweep points of
//! [`KNOWN_SGDP_DECLINES`], the recorded SGDP fidelity defect, where a
//! decline is tallied (`sgdp.method_failures.sgdp`, context line) and the
//! case is left out of the SGDP error statistics. A decline anywhere else
//! fails the unit, so declining can never improve the error metrics.
//! Cases whose golden output re-switches (functional noise) are excluded
//! from the accuracy statistics and counted, not failed. The five other
//! methods declining a case is the protocol's per-method failure tally.

use crate::designs::{self, Case};
use crate::json::Json;
use crate::run::{Finish, Layers, RunConfig, UnitResult, Workload};
use crate::stats::{mean, median};
use crate::trace::{Group, Tracer};
use nsta_spice::fig1::{self, Fig1Config, Fig1Waves};
use nsta_waveform::{Thresholds, Waveform};
use sgdp::delay::gate_delay;
use sgdp::eval::evaluate_case;
use sgdp::gate::{GateModel, SpiceReceiverGate};
use sgdp::{MethodKind, PropagationContext};
use std::time::{Duration, Instant};

/// Cases per configuration in the fixed set of a full-size run.
pub const CASES_PER_CONFIG: usize = 100;

/// `(configuration, sweep point)` of the full-size sweep where SGDP's
/// `Γeff` degenerates (its predicted output never crosses mid-rail) and
/// SGDP declines the case: the known SGDP fidelity defect. A decline at
/// any other point fails the unit.
pub const KNOWN_SGDP_DECLINES: &[(usize, usize)] = &[(1, 82)];

/// Replay rounds of the per-method stages in a traced run.
const REPLAY_ROUNDS: u32 = 3;

/// Cases of the set (the first ones not excluded) each replay round runs.
const REPLAY_CASES: usize = 4;

/// Span of each method's reduction, in [`MethodKind::all`] order.
const REDUCE_SPANS: [&str; 6] = [
    "sgdp.reduce.p1",
    "sgdp.reduce.p2",
    "sgdp.reduce.lsf3",
    "sgdp.reduce.e4",
    "sgdp.reduce.wls5",
    "sgdp.reduce.sgdp",
];

/// Per-method metric suffixes, in [`MethodKind::all`] order.
const METHOD_KEYS: [&str; 6] = ["p1", "p2", "lsf3", "e4", "wls5", "sgdp"];

/// Index of SGDP in [`MethodKind::all`].
const SGDP: usize = 5;

/// One case's result: excluded as functional noise, or each method's
/// arrival error against the golden output (`None`: the method declined).
#[derive(Debug, Clone, PartialEq)]
enum CaseResult {
    Excluded,
    Errors([Option<f64>; 6]),
}

/// A case's golden run, ready for evaluation: the propagation context and
/// the golden noisy output.
struct Golden {
    ctx: PropagationContext,
    out: Waveform,
}

/// The noiseless references and receiver gates of both configurations —
/// the workload's set-up.
struct Bench {
    configs: [Fig1Config; 2],
    quiet: Vec<Fig1Waves>,
    gates: Vec<SpiceReceiverGate>,
}

impl Bench {
    fn new(tr: &mut Tracer) -> Result<Self, String> {
        let configs = designs::table1_configs();
        let quiet = configs
            .iter()
            .map(|cfg| tr.span("spice.noiseless", || fig1::run_noiseless(cfg)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("noiseless reference: {e}"))?;
        let gates = configs
            .iter()
            .map(|cfg| SpiceReceiverGate::new(*cfg))
            .collect();
        Ok(Bench {
            configs,
            quiet,
            gates,
        })
    }

    fn thresholds(&self, case: &Case) -> Thresholds {
        Thresholds::cmos(self.configs[case.config].proc.vdd)
    }

    /// The golden noisy simulation of `case`; `None` when its output
    /// re-switches (functional noise, excluded from the protocol).
    fn golden(&self, case: &Case, tr: &mut Tracer) -> Result<Option<Golden>, String> {
        let th = self.thresholds(case);
        let noisy = tr
            .span("spice.golden_case", || {
                fig1::run_case(&self.configs[case.config], &case.skews)
            })
            .map_err(|e| format!("golden simulation: {e}"))?;
        if noisy.out_u.crossings(th.mid()).len() > 1 {
            return Ok(None);
        }
        let quiet = &self.quiet[case.config];
        let ctx = tr
            .span("sgdp.context", || {
                PropagationContext::new(
                    quiet.in_u.clone(),
                    noisy.in_u.clone(),
                    Some(quiet.out_u.clone()),
                    th,
                )
            })
            .map_err(|e| format!("propagation context: {e}"))?;
        Ok(Some(Golden {
            ctx,
            out: noisy.out_u,
        }))
    }

    /// Runs one case: the golden run, then `evaluate_case` over every
    /// method.
    fn run(&self, case: &Case, tr: &mut Tracer) -> Result<CaseResult, String> {
        let Some(golden) = self.golden(case, tr)? else {
            return Ok(CaseResult::Excluded);
        };
        let gate = &self.gates[case.config];
        let report = tr
            .span("sgdp.evaluate_case", || {
                evaluate_case(&golden.ctx, gate, &golden.out, &MethodKind::all())
            })
            .map_err(|e| format!("evaluation: {e}"))?;
        let mut errors = [None; 6];
        for (slot, (_, outcome)) in errors.iter_mut().zip(&report.outcomes) {
            *slot = outcome.as_ref().ok().map(|o| o.arrival_error);
        }
        Ok(CaseResult::Errors(errors))
    }

    /// Replays `evaluate_case`'s per-method stages on a golden run, each
    /// in its own span: the reduction (`method.equivalent`) and the
    /// receiver re-simulation with its delay measurement. Returns each
    /// method's arrival error, which must equal the unit's.
    fn replay_methods(&self, case: &Case, golden: &Golden, tr: &mut Tracer) -> [Option<f64>; 6] {
        let th = self.thresholds(case);
        let gate = &self.gates[case.config];
        let (ctx, noisy_in) = (&golden.ctx, golden.ctx.noisy_input());
        let Ok(golden_delay) = gate_delay(noisy_in, &golden.out, th) else {
            return [None; 6];
        };
        let mut errors = [None; 6];
        for (i, method) in MethodKind::all().into_iter().enumerate() {
            let Ok(gamma) = tr.span(REDUCE_SPANS[i], || method.equivalent(ctx)) else {
                continue;
            };
            errors[i] = tr.span("spice.receiver_resim", || {
                let dt = (gamma.slew(th) / 50.0).max(1e-13);
                let slack = 0.1 * gamma.slew(th);
                let t0 = noisy_in.t_start().min(gamma.t_rail_departure() - slack);
                let t1 = noisy_in.t_end().max(gamma.t_rail_arrival() + slack);
                let ramp = gamma.to_waveform(t0, t1, dt).ok()?;
                let out = gate.response(&ramp).ok()?;
                let predicted = gate_delay(&ramp, &out, th).ok()?;
                Some((predicted.t_out_mid - golden_delay.t_out_mid).abs())
            });
        }
        errors
    }
}

/// Whether SGDP declining `case` is the recorded fidelity defect.
fn known_sgdp_decline(case: &Case, per_config: usize) -> bool {
    per_config == CASES_PER_CONFIG && KNOWN_SGDP_DECLINES.contains(&(case.config, case.point))
}

/// `(avg, max)` SGDP arrival error in ps over the cases SGDP reduced.
fn sgdp_error_ps(results: &[CaseResult]) -> Option<(f64, f64)> {
    let errs: Vec<f64> = results
        .iter()
        .filter_map(|r| match r {
            CaseResult::Errors(e) => e[SGDP].map(|v| v * 1e12),
            CaseResult::Excluded => None,
        })
        .collect();
    (!errs.is_empty()).then(|| (mean(&errs), errs.iter().copied().fold(f64::MIN, f64::max)))
}

/// The SGDP error metrics for the workloads that do not run Table 1: the
/// same protocol on a small seeded case set, run after the timed window.
///
/// # Errors
///
/// A failed golden simulation or evaluation, or SGDP declining a case.
pub fn accuracy_probe(seed: u64, per_config: usize) -> Result<(f64, f64), String> {
    let mut tr = Tracer::new();
    let bench = Bench::new(&mut tr)?;
    let mut results = Vec::new();
    for case in designs::table1_cases(seed, per_config) {
        let result = bench.run(&case, &mut tr)?;
        if sgdp_declined(&result) {
            return Err(format!(
                "SGDP declined probe case (config {}, point {})",
                case.config, case.point
            ));
        }
        results.push(result);
    }
    sgdp_error_ps(&results).ok_or_else(|| "SGDP reduced no probe case".into())
}

fn sgdp_declined(result: &CaseResult) -> bool {
    matches!(result, CaseResult::Errors(e) if e[SGDP].is_none())
}

/// The Table-1 workload.
pub struct Table1 {
    bench: Bench,
    per_config: usize,
    cases: Vec<Case>,
    /// Units run so far; unit `k` runs case `k % cases.len()`.
    cursor: usize,
    /// First-pass result of every case.
    first: Vec<Option<CaseResult>>,
}

impl Table1 {
    /// Draws the case set and runs the set-up.
    ///
    /// # Errors
    ///
    /// Set-up failure.
    pub fn build(cfg: &RunConfig, tr: &mut Tracer) -> Result<Self, String> {
        let per_config = if cfg.small { 2 } else { CASES_PER_CONFIG };
        let cases = designs::table1_cases(cfg.seed, per_config);
        Ok(Table1 {
            bench: Bench::new(tr)?,
            per_config,
            first: vec![None; cases.len()],
            cases,
            cursor: 0,
        })
    }

    fn first_pass(&self) -> Vec<CaseResult> {
        self.first.iter().flatten().cloned().collect()
    }

    /// The cases SGDP declined in the first pass, as `[config, point]`.
    fn sgdp_declines(&self) -> Vec<Json> {
        self.cases
            .iter()
            .zip(&self.first)
            .filter(|(_, r)| r.as_ref().is_some_and(sgdp_declined))
            .map(|(c, _)| Json::Arr(vec![Json::Num(c.config as f64), Json::Num(c.point as f64)]))
            .collect()
    }
}

impl Workload for Table1 {
    /// One warm-up unit: the set's first case. It counts towards the
    /// accuracy pass; its latency is not sampled until the set repeats.
    fn warmup_units(&self) -> usize {
        1
    }

    fn setup_sample(&mut self, tr: &mut Tracer) -> Result<Duration, String> {
        let t = Instant::now();
        Bench::new(tr)?;
        Ok(t.elapsed())
    }

    fn unit(&mut self, tr: &mut Tracer) -> UnitResult {
        let index = self.cursor % self.cases.len();
        self.cursor += 1;
        let case = &self.cases[index];
        let t = Instant::now();
        let result = self.bench.run(case, tr);
        let elapsed = t.elapsed();
        let failure = match result {
            Err(e) => Some(e),
            Ok(r) => {
                let declined = sgdp_declined(&r) && !known_sgdp_decline(case, self.per_config);
                let differs = match &self.first[index] {
                    Some(first) => *first != r,
                    None => {
                        self.first[index] = Some(r);
                        false
                    }
                };
                if declined {
                    Some(format!(
                        "SGDP declined case {index} (config {}, point {})",
                        case.config, case.point
                    ))
                } else if differs {
                    Some(format!("case {index} differs from its first result"))
                } else {
                    None
                }
            }
        };
        UnitResult {
            elapsed,
            input: Some(index),
            failure,
        }
    }

    /// The whole set has been attempted once.
    fn min_work_done(&self) -> bool {
        self.cursor >= self.cases.len()
    }

    fn finish(&mut self, _tr: &mut Tracer) -> Finish {
        let results = self.first_pass();
        let mut finish = Finish {
            sgdp_err_ps: sgdp_error_ps(&results),
            ..Finish::default()
        };
        if finish.sgdp_err_ps.is_none() {
            finish.problems.push("SGDP reduced no case".into());
        }
        let excluded = results
            .iter()
            .filter(|r| **r == CaseResult::Excluded)
            .count();
        let mut table = Vec::new();
        for (i, key) in METHOD_KEYS.iter().enumerate() {
            let errs: Vec<f64> = results
                .iter()
                .filter_map(|r| match r {
                    CaseResult::Errors(e) => e[i].map(|v| v * 1e12),
                    CaseResult::Excluded => None,
                })
                .collect();
            table.push((
                (*key).to_string(),
                Json::Obj(vec![
                    ("avg_ps".into(), Json::Num(mean(&errs))),
                    (
                        "max_ps".into(),
                        Json::Num(errs.iter().copied().fold(f64::NAN, f64::max)),
                    ),
                    (
                        "failures".into(),
                        Json::Num((results.len() - excluded - errs.len()) as f64),
                    ),
                ]),
            ));
        }
        finish.context.extend([
            ("cases".into(), Json::Num(self.cases.len() as f64)),
            ("excluded_functional".into(), Json::Num(excluded as f64)),
            ("sgdp_declined".into(), Json::Arr(self.sgdp_declines())),
            ("methods".into(), Json::Obj(table)),
        ]);
        finish
    }

    fn per_layer(&mut self, tr: &mut Tracer, out: &mut Layers) -> Result<Vec<String>, String> {
        out.insert(
            "spice.golden_case_ms",
            median(&tr.per_group_ms("spice.golden_case")),
        );
        let results = self.first_pass();
        for (i, metric) in [
            "sgdp.method_failures.p1",
            "sgdp.method_failures.p2",
            "sgdp.method_failures.lsf3",
            "sgdp.method_failures.e4",
            "sgdp.method_failures.wls5",
            "sgdp.method_failures.sgdp",
        ]
        .into_iter()
        .enumerate()
        {
            let failures = results
                .iter()
                .filter(|r| matches!(r, CaseResult::Errors(e) if e[i].is_none()))
                .count();
            out.insert(metric, failures as f64);
        }

        // Replay the per-method stages of the first cases that are not
        // excluded, outside the units; each replayed error must equal the
        // unit's bit for bit.
        let mut replayed = Vec::new();
        let mut untraced = Tracer::new();
        for (case, first) in self.cases.iter().zip(&self.first) {
            if replayed.len() == REPLAY_CASES {
                break;
            }
            if let Some(CaseResult::Errors(errors)) = first {
                let golden = self
                    .bench
                    .golden(case, &mut untraced)?
                    .ok_or("replay case re-switched")?;
                replayed.push((case, golden, *errors));
            }
        }
        let mut valid = !replayed.is_empty();
        tr.enable();
        for round in 0..REPLAY_ROUNDS {
            tr.set_group(Group::Replay(round));
            for (case, golden, errors) in &replayed {
                let gate = &self.bench.gates[case.config];
                tr.span("sgdp.evaluate_case", || {
                    evaluate_case(&golden.ctx, gate, &golden.out, &MethodKind::all())
                })
                .map_err(|e| format!("replay evaluation: {e}"))?;
                valid &= self.bench.replay_methods(case, golden, tr) == *errors;
            }
        }
        tr.disable();
        out.insert("replay.valid", if valid { 1.0 } else { 0.0 });
        if valid {
            let per_call_us = |name: &str| {
                let calls: Vec<f64> = tr
                    .spans()
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.ms() * 1e3)
                    .collect();
                median(&calls)
            };
            for (span, metric) in REDUCE_SPANS.into_iter().zip([
                "sgdp.reduce_us.p1",
                "sgdp.reduce_us.p2",
                "sgdp.reduce_us.lsf3",
                "sgdp.reduce_us.e4",
                "sgdp.reduce_us.wls5",
                "sgdp.reduce_us.sgdp",
            ]) {
                out.insert(metric, per_call_us(span));
            }
            out.insert(
                "spice.receiver_resim_ms",
                per_call_us("spice.receiver_resim") / 1e3,
            );
            // Share of `evaluate_case`'s time, on the same cases and
            // rounds, that the replayed stages account for.
            let replay_ms = |names: &[&str]| -> f64 {
                tr.spans()
                    .iter()
                    .filter(|s| matches!(s.group, Group::Replay(_)) && names.contains(&s.name))
                    .map(|s| s.ms())
                    .sum()
            };
            let mut stages = REDUCE_SPANS.to_vec();
            stages.push("spice.receiver_resim");
            out.insert(
                "replay.coverage",
                replay_ms(&stages) / replay_ms(&["sgdp.evaluate_case"]),
            );
        }
        Ok(Vec::new())
    }
}
