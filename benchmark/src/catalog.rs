//! The metric catalogue: every metric the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root must list the
//! same names and units (the `contract` test checks it).

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, work counts, failures).
    Lower,
    /// Larger values are better (cache hits, pruning, coverage).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: `(name, unit, better, bound)`, where `bound` is
/// the share of the parent's median by which it may worsen.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[EndToEnd] = &[
    ("setup_s", "s", Lower, 0.25),
    ("unit_ms_p50", "ms", Lower, 0.24),
    ("unit_ms_tail", "ms", Lower, 0.24),
    ("peak_rss_mb", "MB", Lower, 0.08),
    ("sgdp_err_ps_avg", "ps", Lower, 0.05),
    ("sgdp_err_ps_max", "ps", Lower, 0.10),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A metric
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    // Set-up.
    ("liberty.characterize_ms", "ms", Lower),
    ("sta.build_ms", "ms", Lower),
    ("session.open_ms", "ms", Lower),
    ("lint.run_ms", "ms", Lower),
    // SPEF front end.
    ("parasitics.parse_ms", "ms", Lower),
    ("parasitics.bind_ms", "ms", Lower),
    ("parasitics.spef_bytes", "bytes", Lower),
    // Crosstalk analysis.
    ("sta.si_ms", "ms", Lower),
    ("sta.nominal_sweep_ms", "ms", Lower),
    ("sta.min_sweep_ms", "ms", Lower),
    ("sta.iterations", "count", Lower),
    ("sta.victims_recomputed", "count", Lower),
    ("sta.victims_cached", "count", Higher),
    ("sta.aggressors_pruned", "count", Higher),
    ("sta.cones", "count", Higher),
    ("sta.topo_cache.hits", "count", Higher),
    ("sta.topo_cache.misses", "count", Lower),
    ("sta.topo_cache.hit_rate", "ratio", Higher),
    ("sta.topo_cache.peak_bytes", "bytes", Lower),
    // Program counters from nsta-obs, per unit.
    ("circuit.factorizations", "count", Lower),
    ("circuit.sweeps", "count", Lower),
    ("circuit.steps", "count", Lower),
    ("numeric.sparse_lu.factors", "count", Lower),
    ("numeric.sparse_lu.refactors", "count", Lower),
    // Per-victim replay.
    ("circuit.transient_pair_us_per_victim", "us", Lower),
    ("circuit.ns_per_step", "ns", Lower),
    ("circuit.factor_us", "us", Lower),
    ("waveform.synth_us_per_victim", "us", Lower),
    ("sgdp.table_gate_us_per_victim", "us", Lower),
    ("sgdp.reduce_us_per_victim", "us", Lower),
    // Table-1 protocol.
    ("sgdp.reduce_us.p1", "us", Lower),
    ("sgdp.reduce_us.p2", "us", Lower),
    ("sgdp.reduce_us.lsf3", "us", Lower),
    ("sgdp.reduce_us.e4", "us", Lower),
    ("sgdp.reduce_us.wls5", "us", Lower),
    ("sgdp.reduce_us.sgdp", "us", Lower),
    ("spice.golden_case_ms", "ms", Lower),
    ("spice.receiver_resim_ms", "ms", Lower),
    ("sgdp.method_failures.p1", "count", Lower),
    ("sgdp.method_failures.p2", "count", Lower),
    ("sgdp.method_failures.lsf3", "count", Lower),
    ("sgdp.method_failures.e4", "count", Lower),
    ("sgdp.method_failures.wls5", "count", Lower),
    ("sgdp.method_failures.sgdp", "count", Lower),
    // Incremental sessions.
    ("session.edit_ms.set_load", "ms", Lower),
    ("session.edit_ms.set_drive_resistance", "ms", Lower),
    ("session.edit_ms.reannotate_net", "ms", Lower),
    ("session.dirty_nets_per_edit", "count", Lower),
    ("session.released_cache_entries", "count/edit", Lower),
    ("session.audit_ms", "ms", Lower),
    // Self time per layer.
    ("liberty.self_ms", "ms", Lower),
    ("parasitics.self_ms", "ms", Lower),
    ("sta.self_ms", "ms", Lower),
    ("circuit.self_ms", "ms", Lower),
    ("waveform.self_ms", "ms", Lower),
    ("sgdp.self_ms", "ms", Lower),
    ("spice.self_ms", "ms", Lower),
    ("session.self_ms", "ms", Lower),
    ("lint.self_ms", "ms", Lower),
    ("obs.self_ms", "ms", Lower),
    // Health of the traced run.
    ("obs.trace_overhead_ratio", "ratio", Lower),
    ("replay.coverage", "ratio", Higher),
    ("replay.valid", "bool", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
