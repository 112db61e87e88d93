//! The closed-loop runner shared by every workload.
//!
//! A run builds the workload (its first set-up, untimed), runs warm-up
//! units that no metric sees, then measures for `seconds`: one client
//! issues unit after unit, and [`SETUP_SAMPLES`] fresh set-ups are
//! interleaved at evenly spaced points of the window, so the reported
//! set-up median sees the same host conditions as the units. A traced
//! run splits the window: the first half untraced (the baseline of
//! `obs.trace_overhead_ratio`), the second half with the benchmark's spans
//! and the `nsta-obs` recorder on.

use crate::catalog;
use crate::host::{HostSpeed, REFERENCE_MS};
use crate::json::Json;
use crate::stats::{median, tail};
use crate::trace::{Group, Tracer};
use crate::{env, workloads};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up samples interleaved through the measuring window.
pub const SETUP_SAMPLES: u32 = 15;

/// Minimum number of traced units in a traced run.
const MIN_TRACED_UNITS: usize = 20;

/// Table-1 cases per configuration in the accuracy probe that gives the
/// SGDP error metrics on the workloads that do not run Table 1 itself.
pub const PROBE_CASES_PER_CONFIG: usize = 6;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// 64-group bus, production SPEF flow, 1 thread.
    Bus64,
    /// 32 groups × 32 segments in one component, 1 thread.
    Mesh32,
    /// Incremental ECO session over the 64-group bus.
    Eco64,
    /// The paper's Table-1 protocol, Configurations I and II.
    Table1,
}

impl WorkloadKind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::Bus64,
        WorkloadKind::Mesh32,
        WorkloadKind::Eco64,
        WorkloadKind::Table1,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Bus64 => "bus64",
            WorkloadKind::Mesh32 => "mesh32",
            WorkloadKind::Eco64 => "eco64",
            WorkloadKind::Table1 => "table1",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: WorkloadKind,
    /// Workload seed: drives every generated input.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Shrinks every workload's design and case set (self-tests).
    pub small: bool,
    /// Perturbs the in-run correctness reference, so every unit checked
    /// against it must fail (self-test of the failure accounting).
    pub corrupt_reference: bool,
    /// Where a traced run writes its span file; `None` writes nothing.
    pub trace_dir: Option<PathBuf>,
}

impl RunConfig {
    /// A configuration with the defaults of a command-line run.
    pub fn new(workload: WorkloadKind, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            small: false,
            corrupt_reference: false,
            trace_dir: None,
        }
    }
}

/// One unit's outcome, as timed by the workload itself (only the work,
/// never its correctness check).
#[derive(Debug)]
pub struct UnitResult {
    /// Time spent in the unit's work.
    pub elapsed: Duration,
    /// Which input the unit ran, when units run different inputs in a
    /// cycle (table1's case index); `None` when every unit is alike or
    /// the input stream is stationary.
    pub input: Option<usize>,
    /// Why the unit failed, if it did.
    pub failure: Option<String>,
}

/// Post-run results of a workload.
#[derive(Debug, Default)]
pub struct Finish {
    /// SGDP arrival error `(avg, max)` in ps, when the workload measures
    /// it itself (Table 1).
    pub sgdp_err_ps: Option<(f64, f64)>,
    /// Failed post-run checks.
    pub problems: Vec<String>,
    /// Extra facts for the context line.
    pub context: Vec<(String, Json)>,
}

/// Per-layer metric values, by catalogue name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A workload the runner can drive.
pub trait Workload {
    /// Units run before timing starts; no metric sees them.
    fn warmup_units(&self) -> usize;

    /// One set-up sample: rebuilds the engine from scratch (the rebuilt
    /// state is dropped, or replaces the state the units run on) and
    /// returns the time of the set-up work alone.
    ///
    /// # Errors
    ///
    /// Any set-up failure.
    fn setup_sample(&mut self, tr: &mut Tracer) -> Result<Duration, String>;

    /// Runs one unit of work.
    fn unit(&mut self, tr: &mut Tracer) -> UnitResult;

    /// Whether the workload's fixed minimum of work is done (the runner
    /// keeps issuing units past the window until it is).
    fn min_work_done(&self) -> bool {
        true
    }

    /// Post-run checks, outside every unit.
    fn finish(&mut self, tr: &mut Tracer) -> Finish;

    /// Fills the workload's per-layer metrics after a traced run; may run
    /// replays (spans grouped as [`Group::Replay`]). Returns the checks of
    /// the workload's shape that failed.
    ///
    /// # Errors
    ///
    /// A replay that could not run at all.
    fn per_layer(&mut self, tr: &mut Tracer, out: &mut Layers) -> Result<Vec<String>, String>;
}

/// The result of a run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output checked out.
    pub correct: bool,
    /// Timed units attempted.
    pub attempted: u64,
    /// Timed units that failed.
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
    /// Run facts printed before the result line.
    pub context: Vec<(String, Json)>,
    /// Every failure reason seen (warm-up, units, post-run checks).
    pub problems: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(*value)),
                        ("unit".into(), Json::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }

    /// The context line: run facts, host facts and workload facts.
    pub fn context_line(&self) -> String {
        Json::Obj(vec![("context".into(), Json::Obj(self.context.clone()))]).render()
    }
}

/// Counters the program records in `nsta-obs`, as `(metric, counter)`.
const OBS_COUNTERS: [(&str, &str); 5] = [
    ("circuit.factorizations", "circuit.transient.factorizations"),
    ("circuit.sweeps", "circuit.transient.sweeps"),
    ("circuit.steps", "circuit.transient.steps"),
    ("numeric.sparse_lu.factors", "numeric.sparse_lu.factors"),
    ("numeric.sparse_lu.refactors", "numeric.sparse_lu.refactors"),
];

/// Reads and clears the `nsta-obs` counters after one traced unit.
fn harvest(counters: &mut BTreeMap<&'static str, Vec<f64>>) {
    let rec = nsta_obs::recorder();
    let snapshot = rec.metrics();
    for (metric, counter) in OBS_COUNTERS {
        counters
            .entry(metric)
            .or_default()
            .push(snapshot.get(counter).unwrap_or(0.0));
    }
    rec.reset();
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one workload and collects its outcome.
///
/// # Errors
///
/// A workload that cannot be set up, or a traced run whose replay could
/// not run; failed units are counted, not errors.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let rec = nsta_obs::recorder();
    rec.disable();
    rec.reset();

    // Initial set-up: builds the engine the units run on. It is the cold
    // one (first allocation, first page faults), so it is not a sample.
    tr.set_group(Group::Setup(0));
    if cfg.trace {
        tr.enable();
    }
    let mut w = workloads::build(cfg, &mut tr)?;
    tr.disable();

    let mut problems: Vec<String> = Vec::new();
    for i in 0..w.warmup_units() {
        if let Some(f) = w.unit(&mut tr).failure {
            problems.push(format!("warm-up unit {i}: {f}"));
        }
    }

    let window = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let due = |k: u32| window.mul_f64((f64::from(k) + 0.5) / f64::from(SETUP_SAMPLES));
    // Timed samples are scaled to the host-speed reference (see
    // `host`); the raw ones are kept for the context line.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut raw_setup_s: Vec<f64> = Vec::new();
    let mut plain_ms: Vec<f64> = Vec::new();
    let mut raw_plain_ms: Vec<f64> = Vec::new();
    let mut traced_ms: Vec<f64> = Vec::new();
    // Untraced times per input, and traced-over-untraced ratios of the
    // same input: the trace overhead where units differ.
    let mut plain_by_input: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut overhead: Vec<f64> = Vec::new();
    let mut counters = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut next_setup = 0u32;
    let mut speed = HostSpeed::new();
    let start = Instant::now();
    loop {
        let now = start.elapsed();
        if next_setup < SETUP_SAMPLES && now >= due(next_setup) {
            next_setup += 1;
            tr.set_group(Group::Setup(next_setup));
            if cfg.trace {
                tr.enable();
            }
            let d = w.setup_sample(&mut tr)?;
            tr.disable();
            setup_s.push(d.as_secs_f64() * speed.factor());
            raw_setup_s.push(d.as_secs_f64());
            continue;
        }
        let traced = cfg.trace && now >= window / 2 && w.min_work_done();
        let done = now >= window
            && w.min_work_done()
            && (!cfg.trace || traced_ms.len() >= MIN_TRACED_UNITS);
        if done {
            break;
        }
        let index = attempted as u32;
        tr.set_group(Group::Unit(index));
        if traced {
            tr.enable();
            rec.enable();
        }
        let root = tr.begin("bench.unit");
        let result = w.unit(&mut tr);
        tr.end(root);
        let unit_ms = ms(result.elapsed) * speed.factor();
        if traced {
            rec.disable();
            tr.span("obs.harvest", || harvest(&mut counters));
            tr.disable();
            traced_ms.push(unit_ms);
            if let Some(plain) = result.input.and_then(|k| plain_by_input.get(&k)) {
                overhead.push(unit_ms / median(plain));
            }
        } else {
            plain_ms.push(unit_ms);
            raw_plain_ms.push(ms(result.elapsed));
            if let Some(k) = result.input {
                plain_by_input.entry(k).or_default().push(unit_ms);
            }
        }
        attempted += 1;
        if let Some(f) = result.failure {
            failed += 1;
            problems.push(format!("unit {index}: {f}"));
        }
    }
    let measured = start.elapsed();
    // Read before the post-run checks and the accuracy probe, so the peak
    // is the workload's own.
    let peak_rss_mb = env::peak_rss_mb().unwrap_or(f64::NAN);

    tr.set_group(Group::Post);
    if cfg.trace {
        tr.enable();
    }
    let finish = w.finish(&mut tr);
    tr.disable();
    problems.extend(finish.problems.iter().cloned());

    let mut context: Vec<(String, Json)> = vec![
        ("workload".into(), Json::Str(cfg.workload.name().into())),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        ("seconds".into(), Json::Num(cfg.seconds)),
        ("trace".into(), Json::Bool(cfg.trace)),
        ("measured_s".into(), Json::Num(measured.as_secs_f64())),
        ("warmup_units".into(), Json::Num(w.warmup_units() as f64)),
        ("units".into(), Json::Num(attempted as f64)),
        ("setup_samples".into(), Json::Num(setup_s.len() as f64)),
        ("nproc".into(), Json::Num(env::nproc() as f64)),
        ("cpu_model".into(), Json::Str(env::cpu_model())),
        ("rustc".into(), Json::Str(env::rustc_version().into())),
        ("commit".into(), Json::Str(env::commit().into())),
    ];
    context.extend(finish.context);

    let metrics = if cfg.trace {
        let mut layers: Layers = catalog::PER_LAYER.iter().map(|m| (m.0, 0.0)).collect();
        for (metric, values) in &counters {
            layers.insert(metric, median(values));
        }
        let overhead_ratio = if overhead.is_empty() {
            median(&traced_ms) / median(&plain_ms)
        } else {
            median(&overhead)
        };
        layers.insert("obs.trace_overhead_ratio", overhead_ratio);
        problems.extend(w.per_layer(&mut tr, &mut layers)?);
        for (layer, value) in self_times(&tr) {
            layers.insert(layer, value);
        }
        context.push(("traced_units".into(), Json::Num(traced_ms.len() as f64)));
        if let Some(dir) = &cfg.trace_dir {
            let path = dir.join(format!(
                "trace-{}-seed{}.json",
                cfg.workload.name(),
                cfg.seed
            ));
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, tr.chrome_trace()))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            context.push(("trace_file".into(), Json::Str(path.display().to_string())));
        }
        let mut out = Vec::new();
        for (name, unit, _) in catalog::PER_LAYER {
            let value = layers.get(name).copied().unwrap_or(f64::NAN);
            out.push((name.to_string(), value, unit.to_string()));
        }
        if layers.len() != catalog::PER_LAYER.len() {
            return Err("a workload set a per-layer metric missing from the catalogue".into());
        }
        out
    } else {
        // Where units cycle through distinct inputs, every input counts
        // once (the median of its repeats), so a run's statistics do not
        // depend on how far into its last cycle the window reached.
        let latencies: Vec<f64> = if plain_by_input.is_empty() {
            plain_ms.clone()
        } else {
            plain_by_input.values().map(|v| median(v)).collect()
        };
        let (tail_ms, percentile, beyond) = tail(&latencies);
        context.push(("tail_percentile".into(), Json::Num(percentile)));
        context.push(("tail_samples_beyond".into(), Json::Num(beyond as f64)));
        context.push((
            "tail_sample_count".into(),
            Json::Num(latencies.len() as f64),
        ));
        context.extend([
            ("host_kernel_ms".into(), Json::Num(speed.median_ms())),
            ("host_reference_ms".into(), Json::Num(REFERENCE_MS)),
            ("raw_setup_s".into(), Json::Num(median(&raw_setup_s))),
            ("raw_unit_ms_p50".into(), Json::Num(median(&raw_plain_ms))),
        ]);
        if finish.sgdp_err_ps.is_none() {
            context.push((
                "sgdp_err_source".into(),
                Json::Str(format!(
                    "probe of {} table1 cases",
                    2 * PROBE_CASES_PER_CONFIG
                )),
            ));
        }
        let accuracy = match finish.sgdp_err_ps {
            Some(err) => Ok(err),
            None => workloads::table1::accuracy_probe(cfg.seed, PROBE_CASES_PER_CONFIG),
        };
        let (err_avg, err_max) = accuracy.unwrap_or_else(|e| {
            problems.push(format!("accuracy probe: {e}"));
            (f64::NAN, f64::NAN)
        });
        let values = [
            median(&setup_s),
            median(&latencies),
            tail_ms,
            peak_rss_mb,
            err_avg,
            err_max,
        ];
        catalog::END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit, _, _), v)| (name.to_string(), v, unit.to_string()))
            .collect()
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        problems.push("a metric is not a finite number".into());
    }
    Ok(Outcome {
        correct: problems.is_empty() && failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        context,
        problems,
    })
}

/// `<layer>.self_ms`: a layer's self time per unit of work, as a median
/// over units. A layer no unit reaches is measured per set-up sample
/// (`liberty`, `lint`) or, failing that, per replay round (`circuit`,
/// `waveform` on the STA workloads).
fn self_times(tr: &Tracer) -> Vec<(&'static str, f64)> {
    let by_group = [
        tr.self_ms_by_layer(|g| matches!(g, Group::Unit(_))),
        tr.self_ms_by_layer(|g| matches!(g, Group::Setup(_))),
        tr.self_ms_by_layer(|g| matches!(g, Group::Replay(_))),
    ];
    catalog::PER_LAYER
        .iter()
        .filter_map(|(name, _, _)| {
            let layer = name.strip_suffix(".self_ms")?;
            let value = by_group
                .iter()
                .find_map(|m| m.get(layer))
                .map_or(0.0, |v| median(v));
            Some((*name, value))
        })
        .collect()
}
