//! `eco64`: a `TimingSession` over the 64-group bus, with default
//! `SessionOptions`. One unit is one transactional edit from a
//! seeded stream that cycles `SetLoad` / `SetDriveResistance` /
//! `ReannotateNet`.
//!
//! The stream is stationary: loads, resistances and re-annotation scales
//! are drawn from fixed ranges, and `ReannotateNet` always scales the
//! victim's *original* D_NET, so edit cost does not drift with the length
//! of the run.
//!
//! The session's journal keeps every committed edit, so its memory grows
//! with the number of edits, which a faster program makes more of in a
//! run of fixed length. So that `peak_rss_mb` barely depends on
//! throughput, each set-up sample opens the session the next units run
//! on: the previous one is checked, outside the timed set-up, and
//! replaced, and a session's journal holds only the edits between two
//! set-up samples.
//!
//! Correctness: an edit fails unless it commits. Outside the units and
//! the timed set-up, `audit_now()` must pass and a from-scratch batch
//! analysis must equal `session.report()`, for every replaced session and
//! for the final one.

use super::setup_engine;
use crate::designs;
use crate::json::Json;
use crate::run::{Finish, Layers, RunConfig, UnitResult, Workload};
use crate::stats::{mean, median};
use crate::trace::{Group, Tracer};
use nsta_lint::{run_lint, LintConfig, LintInput};
use nsta_obs::XorShift64;
use nsta_parasitics::{parse_spef, write_spef, BindOptions, DNet, SpefFile};
use nsta_session::{Edit, EditOutcome, SessionOptions, TimingSession};
use nsta_sta::{BoundaryConditions, Constraints};
use std::time::{Duration, Instant};

/// Lint replays in a traced run.
const LINT_ROUNDS: u32 = 3;

/// The ECO-session workload.
pub struct Eco {
    groups: usize,
    netlist: String,
    spef: SpefFile,
    /// Each victim's original D_NET, the base of every re-annotation.
    victims: Vec<DNet>,
    session: TimingSession,
    /// Sessions the units ran on, the current one included.
    sessions: usize,
    /// Failed checks of replaced sessions.
    problems: Vec<String>,
    rng: XorShift64,
    edits: usize,
    /// `(kind, ms)` of every traced edit.
    traced: Vec<(&'static str, f64)>,
    dirty_nets: Vec<f64>,
    released: Vec<f64>,
}

fn open(
    netlist: &str,
    spef: &SpefFile,
    tr: &mut Tracer,
) -> Result<(TimingSession, Duration), String> {
    let spef = spef.clone();
    let t = Instant::now();
    let (sta, _) = setup_engine(netlist, tr)?;
    let session = tr
        .span("session.open", || {
            TimingSession::open(
                sta,
                spef,
                BindOptions::default(),
                BoundaryConditions::uniform(&Constraints::default()),
                SessionOptions::default(),
            )
        })
        .map_err(|e| format!("session open: {e}"))?;
    Ok((session, t.elapsed()))
}

impl Eco {
    /// Generates the bus design and opens the session on it.
    ///
    /// # Errors
    ///
    /// Set-up failure.
    pub fn build(cfg: &RunConfig, tr: &mut Tracer) -> Result<Self, String> {
        let groups = if cfg.small { 8 } else { 64 };
        let netlist = designs::bus_netlist(groups);
        let spef = parse_spef(&write_spef(&designs::bus_spef(groups, 3)))
            .map_err(|e| format!("parse: {e}"))?;
        let victims = (0..groups)
            .map(|g| {
                spef.net(&format!("v{g}"))
                    .cloned()
                    .ok_or_else(|| format!("no D_NET for v{g}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let (session, _) = open(&netlist, &spef, tr)?;
        Ok(Eco {
            groups,
            netlist,
            spef,
            victims,
            session,
            sessions: 1,
            problems: Vec::new(),
            rng: designs::rng(cfg.seed, 3),
            edits: 0,
            traced: Vec::new(),
            dirty_nets: Vec::new(),
            released: Vec::new(),
        })
    }

    /// The post-run checks of a session: shadow audit, then a
    /// from-scratch batch that must equal the session's report. Returns
    /// the audit's largest divergence (s).
    fn check_session(session: &mut TimingSession, tr: &mut Tracer) -> Result<f64, String> {
        let report = tr
            .span("session.audit", || session.audit_now())
            .map_err(|f| format!("shadow audit failed: {f}"))?;
        let batch = session
            .sta()
            .analyze_with_crosstalk_windows(
                session.boundary().clone(),
                session.couplings(),
                &SessionOptions::default().si,
            )
            .map_err(|e| format!("batch analysis failed: {e}"))?;
        if &batch.report != session.report() {
            return Err("session report differs from a from-scratch batch".into());
        }
        Ok(report.max_divergence)
    }

    /// The next edit of the seeded stream.
    fn next_edit(&mut self) -> Edit {
        let g = self.rng.next_below(self.groups as u64) as usize;
        let kind = self.edits % 3;
        self.edits += 1;
        match kind {
            0 => Edit::SetLoad {
                port: format!("y{g}"),
                farads: (5 + self.rng.next_below(50)) as f64 * 1e-15,
            },
            1 => Edit::SetDriveResistance {
                net: format!("v{g}"),
                ohms: (120 + self.rng.next_below(240)) as f64,
            },
            _ => {
                let scale = 0.85 + 0.3 * (self.rng.next_below(1000) as f64 / 1000.0);
                let mut dnet = self.victims[g].clone();
                for cap in &mut dnet.caps {
                    cap.value *= scale;
                }
                Edit::ReannotateNet { dnet }
            }
        }
    }
}

impl Workload for Eco {
    fn warmup_units(&self) -> usize {
        30
    }

    /// Checks the current session (untimed, no span), then opens the one
    /// the next units run on; only the opening is timed.
    fn setup_sample(&mut self, tr: &mut Tracer) -> Result<Duration, String> {
        if let Err(e) = Self::check_session(&mut self.session, &mut Tracer::new()) {
            self.problems
                .push(format!("session {}: {e}", self.sessions));
        }
        let (session, elapsed) = open(&self.netlist, &self.spef, tr)?;
        self.session = session;
        self.sessions += 1;
        Ok(elapsed)
    }

    fn unit(&mut self, tr: &mut Tracer) -> UnitResult {
        let edit = self.next_edit();
        let kind = edit.kind();
        let t = Instant::now();
        let outcome = tr.span("session.edit", || self.session.apply(edit));
        let elapsed = t.elapsed();
        let failure = match outcome {
            EditOutcome::Committed(info) => {
                if tr.is_enabled() {
                    self.traced.push((kind, elapsed.as_secs_f64() * 1e3));
                    self.dirty_nets.push(info.dirty_nets as f64);
                    self.released.push(info.released_cache_entries as f64);
                }
                None
            }
            other => Some(format!("{kind} edit did not commit: {other:?}")),
        };
        UnitResult {
            elapsed,
            input: None,
            failure,
        }
    }

    fn finish(&mut self, tr: &mut Tracer) -> Finish {
        let mut finish = Finish {
            problems: std::mem::take(&mut self.problems),
            ..Finish::default()
        };
        match Self::check_session(&mut self.session, tr) {
            Ok(divergence) => finish.context.push((
                "audit_max_divergence_ps".into(),
                Json::Num(divergence * 1e12),
            )),
            Err(e) => finish.problems.push(format!("final session: {e}")),
        }
        let session = &self.session;
        finish.context.extend([
            ("groups".into(), Json::Num(self.groups as f64)),
            ("edits".into(), Json::Num(self.edits as f64)),
            ("sessions".into(), Json::Num(self.sessions as f64)),
            (
                "final_session_epoch".into(),
                Json::Num(session.epoch() as f64),
            ),
            (
                "final_session_released_cache_entries".into(),
                Json::Num(session.released_cache_entries() as f64),
            ),
        ]);
        finish
    }

    fn per_layer(&mut self, tr: &mut Tracer, out: &mut Layers) -> Result<Vec<String>, String> {
        for (metric, span) in [
            ("liberty.characterize_ms", "liberty.characterize"),
            ("sta.build_ms", "sta.build"),
            ("session.open_ms", "session.open"),
            ("session.audit_ms", "session.audit"),
        ] {
            out.insert(metric, median(&tr.per_group_ms(span)));
        }
        for (metric, kind) in [
            ("session.edit_ms.set_load", "set_load"),
            (
                "session.edit_ms.set_drive_resistance",
                "set_drive_resistance",
            ),
            ("session.edit_ms.reannotate_net", "reannotate_net"),
        ] {
            let times: Vec<f64> = self
                .traced
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, ms)| *ms)
                .collect();
            out.insert(metric, median(&times));
        }
        out.insert("session.dirty_nets_per_edit", mean(&self.dirty_nets));
        out.insert("session.released_cache_entries", mean(&self.released));

        // The session lints inside `open`; replay that lint from outside
        // to time it on its own.
        let session = &self.session;
        let boundary = BoundaryConditions::uniform(&Constraints::default());
        let input = LintInput {
            design: session.sta().design(),
            library: session.sta().library(),
            couplings: session.couplings(),
            boundary: &boundary,
            spef: Some(&self.spef),
            sdc: None,
        };
        tr.enable();
        for round in 0..LINT_ROUNDS {
            tr.set_group(Group::Setup(round + 1));
            let report = tr.span("lint.run", || run_lint(&input, &LintConfig::new()));
            if report.deny_count() > 0 {
                return Err("lint replay found deny diagnostics".into());
            }
        }
        tr.disable();
        out.insert("lint.run_ms", median(&tr.per_group_ms("lint.run")));
        Ok(Vec::new())
    }
}
