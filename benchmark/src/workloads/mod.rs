//! The four workloads and the set-up step they share.

pub mod eco;
pub mod sta_flow;
pub mod table1;

use crate::designs;
use crate::run::{RunConfig, Workload, WorkloadKind};
use crate::trace::Tracer;
use nsta_sta::{verilog, Sta};
use std::time::{Duration, Instant};

/// Builds the workload `cfg` names, including its first (untimed) set-up.
///
/// # Errors
///
/// Set-up failure.
pub fn build(cfg: &RunConfig, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload {
        WorkloadKind::Bus64 | WorkloadKind::Mesh32 => Box::new(sta_flow::StaFlow::build(cfg, tr)?),
        WorkloadKind::Eco64 => Box::new(eco::Eco::build(cfg, tr)?),
        WorkloadKind::Table1 => Box::new(table1::Table1::build(cfg, tr)?),
    })
}

/// The engine set-up shared by the STA workloads: library
/// characterization, netlist parse and `Sta::new`. Returns the engine and
/// the time of those three steps.
///
/// # Errors
///
/// Any of the three failing.
pub fn setup_engine(netlist: &str, tr: &mut Tracer) -> Result<(Sta, Duration), String> {
    let t = Instant::now();
    let lib = tr.span("liberty.characterize", designs::characterize)?;
    let sta = tr
        .span("sta.build", || {
            verilog::parse_design(netlist).and_then(|design| Sta::new(design, lib))
        })
        .map_err(|e| format!("engine build: {e}"))?;
    Ok((sta, t.elapsed()))
}
