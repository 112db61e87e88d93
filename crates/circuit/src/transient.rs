//! The trapezoidal transient kernel: factor once, sweep many source sets.
//!
//! [`Circuit::factor_transient`] stamps and factors a topology into a
//! [`FactoredSystem`]; every run after that is a *sweep* of the factored
//! system across the time grid for one set of source waveforms. Each step
//! is
//!
//! ```text
//! (C + hG/2)·x_{n+1} = (C − hG/2)·x_n + src_{n+1},
//! src_{n+1} = −C_UK·Δvk − h·G_UK·v̄k + h·(inj_n + inj_{n+1})/2,
//! ```
//!
//! one mat-vec and one LU substitution plus the source term `src`.
//!
//! # Source-row table
//!
//! Only the free rows next to a driver (a non-zero `G_UK`/`C_UK` coupler
//! entry) or carrying a current injection ever receive a source term; on
//! a coupled RC mesh they are a handful of its rows. `factor_transient`
//! records those rows with their coupler entries, and a sweep tabulates
//! `src` as a compact `steps × source-rows` table, adding it on those
//! rows only.
//!
//! # K-column sweep
//!
//! A crosstalk victim needs two runs of one system that differ only in
//! the aggressor sources (noiseless and noisy). The sweep is generic over
//! a column count `K`: it steps `K` source sets as interleaved columns
//! through one walk of the CSR mat-vec and LU index arrays
//! ([`CsrMatrix::mul_vec_cols`], [`SparseLu::solve_cols_in_place`]).
//! [`FactoredSystem::run_nodes`] and [`FactoredSystem::run_with_vsources`]
//! are the `K = 1` instance, [`FactoredSystem::run_node_pair`] the
//! `K = 2` one. The dense backend shares the set-up and steps its columns
//! one after another. Fault injection polls the NaN-solve site once per
//! column in column order. A poisoned column's traces are an error, and
//! the columns after it are not polled: the fault sequence is the one of
//! running each column as its own sweep and stopping at the first
//! failure, as the crosstalk flow did before the pair was fused.
//!
//! # Why the results are bit-identical
//!
//! * Each column runs exactly the single-column operation sequence: the
//!   column kernels accumulate every column in the single-column order,
//!   and the set-up evaluates the same expressions on the same samples.
//! * A row outside the source-row table has only zero coupler entries
//!   and no injection, so with finite source samples (waveforms hold
//!   finite values only) its source term is exactly `+0.0`: `0.0 − (±0)`
//!   is `+0.0`. The sparse step skips the row, which skips only
//!   `y + (+0.0)`; the dense step still adds it from a full-length row.
//! * That add never changes `y`: a CSR mat-vec row starts from `+0.0`,
//!   and a round-to-nearest sum starting from `+0.0` is never `−0.0`, so
//!   `y + (+0.0) == y` bit for bit (NaN stays NaN). The DC right-hand
//!   side leaves such a row at `+0.0`, the value it had before.

use crate::builder::{Circuit, NodeId};
use crate::CircuitError;
use nsta_numeric::{CsrMatrix, DenseMatrix, LuFactors, SparseLu, TripletMatrix};
use nsta_waveform::Waveform;
use std::sync::Arc;

/// Linear-solver backend of the transient kernel.
///
/// The stamped MNA systems of star-coupled RC stages are nearly
/// tridiagonal and diagonally dominant, so the default
/// [`SolverBackend::Sparse`] factors and steps them in ~O(nnz) with the
/// no-pivot [`SparseLu`] kernels. [`SolverBackend::Dense`] keeps the
/// partial-pivoting dense path as a parity baseline and as the escape
/// hatch for systems that are not no-pivot factorable; both backends
/// integrate the exact same trapezoidal system, so their waveforms agree
/// to solver round-off (≪ 1 nV on realistic meshes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SolverBackend {
    /// CSR storage + no-pivot sparse LU (default): O(nnz) factor/step on
    /// banded RC meshes.
    #[default]
    Sparse,
    /// Row-major dense storage + partial-pivoting LU: O(n³)/O(n²), kept
    /// for parity gating and non-dominant systems.
    Dense,
}

impl SolverBackend {
    /// Stable lowercase name, used by bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SolverBackend::Sparse => "sparse",
            SolverBackend::Dense => "dense",
        }
    }
}

/// Options for a transient run: `[t_start, t_stop]` with fixed step `dt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    t_start: f64,
    t_stop: f64,
    dt: f64,
    gmin: f64,
    zero_initial_state: bool,
    backend: SolverBackend,
}

impl TransientOptions {
    /// Creates options for a run over `[t_start, t_stop]` with step `dt`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidOptions`] unless
    /// `t_stop > t_start`, `dt > 0`, and `dt < (t_stop − t_start)`.
    pub fn new(t_start: f64, t_stop: f64, dt: f64) -> Result<Self, CircuitError> {
        if !(t_stop.is_finite() && t_start.is_finite() && dt.is_finite()) {
            return Err(CircuitError::InvalidOptions("times must be finite"));
        }
        if !(t_stop > t_start) {
            return Err(CircuitError::InvalidOptions("t_stop must exceed t_start"));
        }
        if !(dt > 0.0) || dt >= t_stop - t_start {
            return Err(CircuitError::InvalidOptions(
                "dt must be positive and smaller than span",
            ));
        }
        Ok(TransientOptions {
            t_start,
            t_stop,
            dt,
            gmin: 1e-12,
            zero_initial_state: false,
            backend: SolverBackend::default(),
        })
    }

    /// Selects the linear-solver backend (default [`SolverBackend::Sparse`]).
    #[must_use]
    pub fn with_backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Starts the run from all-zero node voltages instead of the DC
    /// operating point at `t_start`.
    ///
    /// Use this for charge-injection scenarios (pure current sources into
    /// capacitive meshes) where a resistive DC solution does not exist.
    #[must_use]
    pub fn with_zero_initial_state(mut self) -> Self {
        self.zero_initial_state = true;
        self
    }

    /// Overrides the leakage conductance added from every node to ground.
    ///
    /// The default of 1 pS regularizes meshes with capacitor-only nodes
    /// without measurably loading realistic RC interconnect.
    #[must_use]
    pub fn with_gmin(mut self, gmin: f64) -> Self {
        self.gmin = gmin;
        self
    }

    /// Start of the simulation window (seconds).
    pub fn t_start(&self) -> f64 {
        self.t_start
    }

    /// End of the simulation window (seconds).
    pub fn t_stop(&self) -> f64 {
        self.t_stop
    }

    /// Fixed timestep (seconds).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The selected linear-solver backend.
    pub fn backend(&self) -> SolverBackend {
        self.backend
    }
}

/// Voltages recorded by a transient run, queryable per node.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Shared with the [`FactoredSystem`] that produced the run — cache-hit
    /// victims reuse one grid allocation instead of cloning it per run.
    times: Arc<[f64]>,
    /// Time-major flat buffer: `data[ti * nodes + node]`. The step loop
    /// appends one contiguous row per timestep (instead of touching one
    /// cache line per node), and [`TransientResult::voltage`] pays the
    /// strided gather once per queried node.
    data: Vec<f64>,
    nodes: usize,
}

impl TransientResult {
    /// The simulation time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The voltage trace of `node` as a [`Waveform`].
    ///
    /// # Errors
    ///
    /// * [`CircuitError::NotRecorded`] for the ground node.
    /// * [`CircuitError::UnknownNode`] for foreign ids.
    pub fn voltage(&self, node: NodeId) -> Result<Waveform, CircuitError> {
        if node.is_ground() {
            return Err(CircuitError::NotRecorded(
                "ground voltage is identically zero",
            ));
        }
        if node.0 >= self.nodes {
            return Err(CircuitError::UnknownNode { index: node.0 });
        }
        let trace: Vec<f64> = self
            .data
            .chunks_exact(self.nodes)
            .map(|row| row[node.0])
            .collect();
        Ok(Waveform::new(self.times.to_vec(), trace)?)
    }
}

/// An assembled and factored trapezoidal integrator for one [`Circuit`]
/// topology at one fixed timestep — a self-contained **value**, owning
/// every matrix and index table the step loop needs.
///
/// [`Circuit::factor_transient`] splits the solver into two phases:
///
/// * **assemble/factor** (done once here): stamp `G`/`C`, eliminate driven
///   nodes, precompute the step matrix `C − (h/2)·G`, and LU-factor both
///   the trapezoidal left-hand side `C + (h/2)·G` and the DC operating
///   point system;
/// * **step** ([`FactoredSystem::run`], [`FactoredSystem::run_with_vsources`],
///   [`FactoredSystem::run_nodes`], [`FactoredSystem::run_node_pair`]):
///   sample the sources on the time grid and sweep the factored system
///   across it.
///
/// Because the factors depend only on topology, element values and `dt` —
/// never on source waveforms — a `FactoredSystem` is parameterized purely
/// by source vectors: it borrows nothing from the circuit it was factored
/// from, can be stored in caches, shared across threads, and reused for
/// **any structurally identical circuit** (same elements, same values, same
/// construction order — node ids then line up by construction). The
/// crosstalk flow exploits exactly that: one factorization serves a
/// victim's noisy/noiseless pair, every fixed-point iteration, and every
/// other victim whose reduced stage has the same topology signature.
#[derive(Debug)]
pub struct FactoredSystem {
    opts: TransientOptions,
    /// Shared time grid: handed to every [`TransientResult`] by refcount
    /// instead of by clone, so cache-hit runs stop allocating it per
    /// victim.
    times: Arc<[f64]>,
    /// Node count of the source topology (driven + free).
    n: usize,
    /// Free unknowns / driven (vsource) node counts.
    nf: usize,
    nd: usize,
    /// Node index -> free slot (`usize::MAX` for driven nodes).
    position: Vec<usize>,
    /// Node index -> vsource slot (`usize::MAX` for free nodes).
    driven_slot: Vec<usize>,
    is_driven: Vec<bool>,
    /// The free rows the sources reach (see the [module docs](self)).
    sources: SourceRows,
    /// The factored step matrices in the selected backend's storage.
    factors: StepFactors,
    /// The source circuit's own vsource waveforms (construction order,
    /// shared with the circuit by refcount), so [`FactoredSystem::run`]
    /// works without the circuit.
    default_sources: Vec<Arc<Waveform>>,
}

/// The source-row table of a factored system: the free rows with a
/// non-zero `G_UK`/`C_UK` coupler entry or a current injection, and what
/// reaches them. Every other free row's source term is exactly `+0.0`.
#[derive(Debug)]
struct SourceRows {
    /// Free rows, ascending.
    rows: Vec<usize>,
    /// Coupler entries of `rows`, `nd` per row: `g[j * nd + k]` couples
    /// `rows[j]` to voltage source `k`.
    g: Vec<f64>,
    c: Vec<f64>,
    /// Current injections captured at factor time, in construction order:
    /// `(index into rows, waveform)`. Injections into ideally driven nodes
    /// are absorbed and dropped.
    injections: Vec<(usize, Arc<Waveform>)>,
}

/// Where a recorded node's voltage lives in the step state.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Free unknown `i`.
    Free(usize),
    /// Driven node: voltage source `k`.
    Driven(usize),
}

/// Backend-specific storage of the step matrix `C − (h/2)·G`, the factored
/// trapezoidal LHS `C + (h/2)·G`, and the DC system `G` (absent when the
/// run starts from an all-zero state).
// One instance lives per factored system and both variants are dominated
// by their heap-side buffers, so boxing the larger variant would only add
// an indirection to the per-step hot loop.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum StepFactors {
    Dense {
        rhs_mat: DenseMatrix,
        lhs_lu: LuFactors,
        dc_lu: Option<LuFactors>,
    },
    Sparse {
        rhs_mat: CsrMatrix,
        lhs_lu: SparseLu,
        dc_lu: Option<SparseLu>,
    },
}

impl Circuit {
    /// Runs a trapezoidal-rule transient analysis.
    ///
    /// Driven (voltage-source) nodes are eliminated from the unknowns; the
    /// remaining system `C·x' + G·x = b(t)` is integrated with the
    /// trapezoidal rule, which is exact for the piecewise-linear sources
    /// used across this workspace within each linear segment. The initial
    /// state is the DC solution at `t_start` (capacitors open).
    ///
    /// Equivalent to `self.factor_transient(opts)?.run()`; call
    /// [`Circuit::factor_transient`] directly to reuse the factorization
    /// across several source vectors.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::Numeric`] if the mesh is singular even with gmin
    ///   regularization.
    /// * Propagated construction errors for malformed options.
    pub fn run_transient(&self, opts: TransientOptions) -> Result<TransientResult, CircuitError> {
        self.factor_transient(opts)?.run()
    }

    /// Assembles and factors the trapezoidal system once, returning an
    /// owned [`FactoredSystem`] that can be run repeatedly against
    /// different source waveforms — and, because it borrows nothing from
    /// `self`, cached and shared across structurally identical circuits.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::Numeric`] if the mesh is singular even with gmin
    ///   regularization.
    pub fn factor_transient(&self, opts: TransientOptions) -> Result<FactoredSystem, CircuitError> {
        let n = self.node_count();
        // Partition nodes: driven nodes take known voltages, the rest are
        // unknowns. `position[i]` maps node -> unknown slot.
        let mut is_driven = vec![false; n];
        for s in &self.vsources {
            is_driven[s.node] = true;
        }
        let mut position = vec![usize::MAX; n];
        let mut nf = 0usize;
        for i in 0..n {
            if !is_driven[i] {
                position[i] = nf;
                nf += 1;
            }
        }

        // Full-system stamps split into UU (free-free) and UK (free-driven).
        // The UU blocks are assembled as triplets — the sparse backend
        // consumes them directly, the dense backend densifies them (the
        // conversion sums duplicates in stamp order, so the dense values
        // are bit-identical to stamping a dense matrix element by element).
        let mut g_uu = TripletMatrix::new(nf, nf);
        let mut c_uu = TripletMatrix::new(nf, nf);
        // Dense free×driven couplers; the driven count is tiny.
        let nd = self.vsources.len();
        let mut driven_slot = vec![usize::MAX; n];
        for (k, s) in self.vsources.iter().enumerate() {
            driven_slot[s.node] = k;
        }
        let mut g_uk = DenseMatrix::zeros(nf, nd.max(1));
        let mut c_uk = DenseMatrix::zeros(nf, nd.max(1));

        let stamp2 =
            |m_uu: &mut TripletMatrix, m_uk: &mut DenseMatrix, a: usize, b: usize, v: f64| {
                let terminals = [(a, 1.0), (b, 1.0)];
                for (row_node, _) in terminals {
                    if row_node == NodeId::GROUND_SENTINEL || is_driven[row_node] {
                        continue;
                    }
                    let r = position[row_node];
                    // Diagonal (self) term.
                    m_uu.add(r, r, v);
                    // Off-diagonal to the other terminal.
                    let other = if row_node == a { b } else { a };
                    if other == NodeId::GROUND_SENTINEL {
                        continue;
                    }
                    if is_driven[other] {
                        m_uk.add(r, driven_slot[other], -v);
                    } else {
                        m_uu.add(r, position[other], -v);
                    }
                }
            };

        for r in &self.resistors {
            stamp2(&mut g_uu, &mut g_uk, r.a, r.b, r.conductance);
        }
        for c in &self.capacitors {
            stamp2(&mut c_uu, &mut c_uk, c.a, c.b, c.farads);
        }
        for r in 0..nf {
            g_uu.add(r, r, opts.gmin);
        }
        let g_csr = g_uu.to_csr();
        let c_csr = c_uu.to_csr();

        // Source-row table: the free rows with a non-zero coupler entry or
        // a current injection. Every other row's source term is +0.0.
        let injected: Vec<(usize, Arc<Waveform>)> = self
            .isources
            .iter()
            .filter(|s| !is_driven[s.node]) // current into an ideally driven node is absorbed
            .map(|s| (position[s.node], s.waveform.clone()))
            .collect();
        let rows: Vec<usize> = (0..nf)
            .filter(|&r| {
                let couplers = g_uk.row(r)[..nd].iter().chain(&c_uk.row(r)[..nd]);
                couplers.copied().any(|v| v != 0.0) || injected.iter().any(|(ir, _)| *ir == r)
            })
            .collect();
        let mut src_index = vec![usize::MAX; nf];
        for (j, &r) in rows.iter().enumerate() {
            src_index[r] = j;
        }
        let sources = SourceRows {
            g: rows
                .iter()
                .flat_map(|&r| g_uk.row(r)[..nd].iter().copied())
                .collect(),
            c: rows
                .iter()
                .flat_map(|&r| c_uk.row(r)[..nd].iter().copied())
                .collect(),
            injections: injected
                .into_iter()
                .map(|(r, w)| (src_index[r], w))
                .collect(),
            rows,
        };

        let h = opts.dt;
        let steps = ((opts.t_stop - opts.t_start) / h).round() as usize;
        let times: Arc<[f64]> = (0..=steps)
            .map(|k| opts.t_start + k as f64 * h)
            .collect::<Vec<_>>()
            .into();

        // Trapezoidal system, scaled by h: (C + hG/2) x_{n+1} =
        //   (C − hG/2) x_n − C_UK Δvk − h G_UK v̄k + h (inj_n + inj_{n+1})/2.
        // Both backends combine the exact same stamped values; they differ
        // only in storage and elimination order.
        let factors = match opts.backend {
            SolverBackend::Sparse => {
                let lhs = c_csr.add_scaled(&g_csr, h / 2.0)?;
                let lhs_lu = SparseLu::factor(&lhs)?;
                let rhs_mat = c_csr.add_scaled(&g_csr, -h / 2.0)?;
                let dc_lu = if opts.zero_initial_state {
                    None
                } else {
                    Some(SparseLu::factor(&g_csr)?)
                };
                StepFactors::Sparse {
                    rhs_mat,
                    lhs_lu,
                    dc_lu,
                }
            }
            SolverBackend::Dense => {
                let g_dense = g_csr.to_dense();
                let c_dense = c_csr.to_dense();
                let lhs = c_dense.add_scaled(&g_dense, h / 2.0)?;
                let lhs_lu = LuFactors::factor(&lhs)?;
                let rhs_mat = c_dense.add_scaled(&g_dense, -h / 2.0)?;
                let dc_lu = if opts.zero_initial_state {
                    None
                } else {
                    Some(LuFactors::factor(&g_dense)?)
                };
                StepFactors::Dense {
                    rhs_mat,
                    lhs_lu,
                    dc_lu,
                }
            }
        };

        let default_sources: Vec<Arc<Waveform>> =
            self.vsources.iter().map(|s| s.waveform.clone()).collect();

        let system = FactoredSystem {
            opts,
            times,
            n,
            nf,
            nd,
            position,
            driven_slot,
            is_driven,
            sources,
            factors,
            default_sources,
        };
        nsta_obs::count!("circuit.transient.factorizations");
        nsta_obs::recorder().gauge_max("circuit.transient.max_nnz", system.nnz() as f64);
        Ok(system)
    }
}

impl FactoredSystem {
    /// The simulation time points the system integrates over.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of voltage sources — `run_with_vsources`/`run_nodes` expect
    /// exactly this many replacement waveforms.
    pub fn source_count(&self) -> usize {
        self.nd
    }

    /// The linear-solver backend this system was factored with.
    pub fn backend(&self) -> SolverBackend {
        self.opts.backend
    }

    /// Stored entries of the factored trapezoidal left-hand side — the
    /// per-step solve cost. The dense backend reports the full `nf²`
    /// triangle pair it actually touches.
    pub fn nnz(&self) -> usize {
        match &self.factors {
            StepFactors::Sparse { lhs_lu, .. } => lhs_lu.factor_nnz(),
            StepFactors::Dense { .. } => self.nf * self.nf,
        }
    }

    /// Approximate resident size of this factored system in bytes, for
    /// cache budgeting. nnz-weighted: each stored factor entry is counted
    /// as a value plus an index (16 bytes), the RHS/DC factors as one more
    /// nnz each, plus the per-node bookkeeping vectors and the time grid.
    /// An estimate, not an allocator measurement — budgets compare it
    /// against other estimates from the same formula, which is all LRU
    /// eviction needs.
    pub fn approx_bytes(&self) -> usize {
        const ENTRY: usize = 16; // f64 value + column/row index
        let factor_entries = 3 * self.nnz(); // LHS factors + RHS matrix + DC factors
        let per_node = self.n * (3 * std::mem::size_of::<usize>());
        let grid = self.times.len() * std::mem::size_of::<f64>();
        factor_entries * ENTRY + per_node + grid + std::mem::size_of::<Self>()
    }

    /// Runs the integration with the waveforms of the circuit this system
    /// was factored from.
    ///
    /// # Errors
    ///
    /// Propagates numeric failures from the factored solves.
    pub fn run(&self) -> Result<TransientResult, CircuitError> {
        let waves: Vec<&Waveform> = self.default_sources.iter().map(|w| w.as_ref()).collect();
        self.run_with_vsources(&waves)
    }

    /// Runs the integration with replacement voltage-source waveforms,
    /// reusing the factorization. `sources[k]` drives the node pinned by
    /// the `k`-th [`Circuit::vsource`] call (Thevenin drivers register
    /// their source in construction order).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidOptions`] if `sources.len()` differs from
    ///   the circuit's voltage-source count.
    /// * Propagates numeric failures from the factored solves.
    pub fn run_with_vsources(
        &self,
        sources: &[&Waveform],
    ) -> Result<TransientResult, CircuitError> {
        let slots: Vec<Slot> = (0..self.n).map(|i| self.slot(i)).collect();
        let [data] = self.sweep([sources], &slots)?;
        Ok(TransientResult {
            times: self.times.clone(),
            data,
            nodes: self.n,
        })
    }

    /// Runs the integration recording **only** the requested nodes and
    /// returns their voltage traces in request order.
    ///
    /// The arithmetic is identical to [`FactoredSystem::run_with_vsources`]
    /// — only the recording differs — so the returned waveforms are
    /// bit-identical to a full run followed by
    /// [`TransientResult::voltage`]. Hot callers that probe one node (the
    /// crosstalk flow reads a victim's far end out of a ~20-node mesh)
    /// skip both the full per-step record and the strided gather.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidOptions`] on a source-count mismatch.
    /// * [`CircuitError::NotRecorded`] if `nodes` names ground.
    /// * [`CircuitError::UnknownNode`] for foreign node ids.
    /// * [`CircuitError::Numeric`] if a recorded trace is not finite.
    /// * Propagates numeric failures from the factored solves.
    pub fn run_nodes(
        &self,
        sources: &[&Waveform],
        nodes: &[NodeId],
    ) -> Result<Vec<Waveform>, CircuitError> {
        let slots = self.node_slots(nodes)?;
        let [data] = self.sweep([sources], &slots)?;
        self.traces(&data, slots.len())
    }

    /// Runs two source sets through one fused sweep and records the
    /// requested nodes of each, in request order — the noiseless/noisy
    /// pair of a crosstalk victim in one pass over the factors.
    ///
    /// Each column's traces are bit-identical to
    /// [`FactoredSystem::run_nodes`] with the same sources (every column
    /// steps the same operation sequence through the shared factors), and
    /// each column fails on its own: a column
    /// whose traces are not finite is an `Err` next to a sound one. The
    /// columns poll the NaN-solve fault site in order, `first` then
    /// `second`.
    ///
    /// # Errors
    ///
    /// * Per column: [`CircuitError::Numeric`] if a recorded trace is not
    ///   finite.
    /// * For the whole call: the input and solver errors of
    ///   [`FactoredSystem::run_nodes`].
    pub fn run_node_pair(
        &self,
        first: &[&Waveform],
        second: &[&Waveform],
        nodes: &[NodeId],
    ) -> Result<[Result<Vec<Waveform>, CircuitError>; 2], CircuitError> {
        let slots = self.node_slots(nodes)?;
        let columns = self.sweep([first, second], &slots)?;
        Ok(columns.map(|data| self.traces(&data, slots.len())))
    }

    /// Where node `i`'s voltage lives in the step state.
    fn slot(&self, i: usize) -> Slot {
        if self.is_driven[i] {
            Slot::Driven(self.driven_slot[i])
        } else {
            Slot::Free(self.position[i])
        }
    }

    /// Resolves requested nodes to their state slots, rejecting ground and
    /// foreign ids.
    fn node_slots(&self, nodes: &[NodeId]) -> Result<Vec<Slot>, CircuitError> {
        nodes
            .iter()
            .map(|&node| {
                if node.is_ground() {
                    return Err(CircuitError::NotRecorded(
                        "ground voltage is identically zero",
                    ));
                }
                if node.0 >= self.n {
                    return Err(CircuitError::UnknownNode { index: node.0 });
                }
                Ok(self.slot(node.0))
            })
            .collect()
    }

    /// Splits a time-major record `width` slots wide into one waveform per
    /// slot.
    fn traces(&self, data: &[f64], width: usize) -> Result<Vec<Waveform>, CircuitError> {
        (0..width)
            .map(|j| {
                let trace: Vec<f64> = data.chunks_exact(width).map(|row| row[j]).collect();
                // A solve that went NaN/inf is a *numeric* failure — the
                // class the STA fallback chain retries on another backend —
                // not a waveform validation error.
                if trace.iter().any(|v| !v.is_finite()) {
                    return Err(CircuitError::Numeric(
                        nsta_numeric::NumericError::NonFinite("transient node voltages"),
                    ));
                }
                Ok(Waveform::new(self.times.to_vec(), trace)?)
            })
            .collect()
    }

    /// The one step loop: samples `K` source sets, solves their DC initial
    /// conditions, then marches the factored trapezoidal system across the
    /// grid, recording `slots` at every time point (including `t_start`)
    /// into one time-major buffer per column.
    fn sweep<const K: usize>(
        &self,
        sources: [&[&Waveform]; K],
        slots: &[Slot],
    ) -> Result<[Vec<f64>; K], CircuitError> {
        if sources.iter().any(|s| s.len() != self.nd) {
            return Err(CircuitError::InvalidOptions(
                "one waveform required per voltage source",
            ));
        }
        let (nf, nd) = (self.nf, self.nd);
        let nt = self.times.len();
        let src = &self.sources;
        let ns = src.rows.len();
        // One bump per column, not per step — the disabled path stays a
        // single branch outside the integration loop.
        nsta_obs::count!("circuit.transient.sweeps", K);
        nsta_obs::count!("circuit.transient.steps", K * nt);
        let h = self.opts.dt;

        // Known node voltages of every column at every time point
        // (time-major: one row of `nd` values per time point).
        let mut scratch = Vec::new();
        let vk: [Vec<f64>; K] = std::array::from_fn(|c| {
            let mut vk = vec![0.0; nt * nd];
            for (k, w) in sources[c].iter().enumerate() {
                w.sample_on_grid(&self.times, &mut scratch);
                for (ti, &v) in scratch.iter().enumerate() {
                    vk[ti * nd + k] = v;
                }
            }
            vk
        });
        // Injected currents on the source rows at every time point
        // (time-major, `ns` wide), shared by all columns; left empty when
        // the system has no current injections, which skips both the
        // table fill and the per-step reads.
        let mut inj = Vec::new();
        if !src.injections.is_empty() {
            inj.resize(nt * ns, 0.0);
            for (j, waveform) in &src.injections {
                waveform.sample_on_grid(&self.times, &mut scratch);
                for (ti, &v) in scratch.iter().enumerate() {
                    inj[ti * ns + j] += v;
                }
            }
        }

        // DC initial condition: G_UU x = inj(t0) − G_UK·vK(t0).
        let dc_state = |vk: &[f64]| -> Result<Vec<f64>, CircuitError> {
            let mut rhs = vec![0.0; nf];
            if self.opts.zero_initial_state {
                return Ok(rhs);
            }
            for (j, &r) in src.rows.iter().enumerate() {
                let mut acc = if inj.is_empty() { 0.0 } else { inj[j] };
                for (g, v) in src.g[j * nd..(j + 1) * nd].iter().zip(vk) {
                    acc -= g * v;
                }
                rhs[r] = acc;
            }
            Ok(match &self.factors {
                StepFactors::Dense {
                    dc_lu: Some(dc), ..
                } => dc.solve(&rhs)?,
                StepFactors::Sparse {
                    dc_lu: Some(dc), ..
                } => dc.solve(&rhs)?,
                _ => rhs,
            })
        };
        let mut x0: [Vec<f64>; K] = std::array::from_fn(|_| Vec::new());
        for c in 0..K {
            x0[c] = dc_state(&vk[c][..nd])?;
        }
        // Fault-injection site, one poll per column in column order:
        // poison the initial-condition state with NaN, as a corrupted
        // solve would. The NaN propagates through the trapezoidal step
        // recurrence, so every recorded sample of that column turns
        // non-finite. Later columns are not polled once one fires (see
        // the module docs). Inert (one relaxed load per column) unless a
        // plan is armed.
        for x in &mut x0 {
            if nsta_obs::fault::should_fire(nsta_obs::fault::NAN_SOLVE) {
                x.fill(f64::NAN);
                break;
            }
        }

        // Source terms on the source rows, tabulated up front for every
        // column (interleaved) so the step loop reads one contiguous row:
        //   src[ti][j] = −C_UK Δvk − h G_UK v̄k + h (inj_n + inj_{n+1})/2.
        let mut table = vec![[0.0; K]; nt * ns];
        for ti in 1..nt {
            let row = &mut table[ti * ns..(ti + 1) * ns];
            for (j, cell) in row.iter_mut().enumerate() {
                let gr = &src.g[j * nd..(j + 1) * nd];
                let cr = &src.c[j * nd..(j + 1) * nd];
                for (c, vk) in vk.iter().enumerate() {
                    let vk_prev = &vk[(ti - 1) * nd..ti * nd];
                    let vk_now = &vk[ti * nd..(ti + 1) * nd];
                    let mut acc = 0.0;
                    for k in 0..nd {
                        let dv = vk_now[k] - vk_prev[k];
                        let vbar = 0.5 * (vk_now[k] + vk_prev[k]);
                        acc -= cr[k] * dv + h * gr[k] * vbar;
                    }
                    if !inj.is_empty() {
                        acc += h * 0.5 * (inj[ti * ns + j] + inj[(ti - 1) * ns + j]);
                    }
                    cell[c] = acc;
                }
            }
        }

        let mut out: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(slots.len() * nt));
        match &self.factors {
            // Dense: the right-hand side is assembled row by row anyway,
            // so write it directly in the LU's pivoted row order and skip
            // the permutation copy inside the solve. The O(nf²) step
            // dwarfs scattering the source rows into a full-length row,
            // which keeps the single-column expression as it was. The
            // escape hatch steps its columns one after another.
            StepFactors::Dense {
                rhs_mat, lhs_lu, ..
            } => {
                let perm = lhs_lu.perm();
                let mut s_row = vec![0.0; nf];
                for (c, (mut x, out)) in x0.into_iter().zip(&mut out).enumerate() {
                    let mut x_next = vec![0.0; nf];
                    record(out, slots, &vk[c][..nd], |i| x[i]);
                    for ti in 1..nt {
                        for (&r, s) in src.rows.iter().zip(&table[ti * ns..(ti + 1) * ns]) {
                            s_row[r] = s[c];
                        }
                        for (i, &r) in perm.iter().enumerate() {
                            // rhs = (C − hG/2)·x_n + src, off the precomputed matrices.
                            x_next[i] = nsta_numeric::dot(rhs_mat.row(r), &x) + s_row[r];
                        }
                        lhs_lu.solve_prepermuted_in_place(&mut x_next)?;
                        std::mem::swap(&mut x, &mut x_next);
                        record(out, slots, &vk[c][ti * nd..(ti + 1) * nd], |i| x[i]);
                    }
                }
            }
            // Sparse: CSR mat-vec touches only stored entries and the
            // no-pivot factors eliminate in natural order, so the step is
            // O(nnz) with no permutation copy, and all K columns share one
            // walk of the index arrays.
            StepFactors::Sparse {
                rhs_mat, lhs_lu, ..
            } => {
                let mut x: Vec<[f64; K]> =
                    (0..nf).map(|i| std::array::from_fn(|c| x0[c][i])).collect();
                let mut x_next = vec![[0.0; K]; nf];
                for (c, out) in out.iter_mut().enumerate() {
                    record(out, slots, &vk[c][..nd], |i| x[i][c]);
                }
                for ti in 1..nt {
                    rhs_mat.mul_vec_cols(&x, &mut x_next);
                    for (&r, s) in src.rows.iter().zip(&table[ti * ns..(ti + 1) * ns]) {
                        for c in 0..K {
                            x_next[r][c] += s[c];
                        }
                    }
                    lhs_lu.solve_cols_in_place(&mut x_next);
                    std::mem::swap(&mut x, &mut x_next);
                    for (c, out) in out.iter_mut().enumerate() {
                        record(out, slots, &vk[c][ti * nd..(ti + 1) * nd], |i| x[i][c]);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Appends one time point of `slots` to a column's record: free slots
/// read the state through `free`, driven slots the source row `vk_row`.
fn record(out: &mut Vec<f64>, slots: &[Slot], vk_row: &[f64], free: impl Fn(usize) -> f64) {
    out.extend(slots.iter().map(|slot| match *slot {
        Slot::Free(i) => free(i),
        Slot::Driven(k) => vk_row[k],
    }));
}

#[cfg(test)]
mod pair_parity;

#[cfg(test)]
mod tests {
    use super::*;

    fn step_at(t0: f64, rise: f64, v: f64, t_end: f64) -> Waveform {
        // Boundary values are held outside the record, so starting the
        // record at t0 still models "low until t0".
        Waveform::new(vec![t0, t0 + rise, t_end], vec![0.0, v, v]).unwrap()
    }

    #[test]
    fn options_validate() {
        assert!(TransientOptions::new(0.0, 1.0, 0.01).is_ok());
        assert!(TransientOptions::new(1.0, 1.0, 0.01).is_err());
        assert!(TransientOptions::new(0.0, 1.0, 0.0).is_err());
        assert!(TransientOptions::new(0.0, 1.0, 2.0).is_err());
        assert!(TransientOptions::new(0.0, f64::NAN, 0.1).is_err());
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let (r, c) = (1_000.0, 1e-12); // τ = 1 ns
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.resistor(inp, out, r).unwrap();
        ckt.capacitor(out, Circuit::GROUND, c).unwrap();
        ckt.vsource(inp, step_at(0.0, 1e-15, 1.0, 10e-9)).unwrap();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 8e-9, 2e-12).unwrap())
            .unwrap();
        let v = res.voltage(out).unwrap();
        let tau = r * c;
        for t in [0.5e-9, 1e-9, 2e-9, 5e-9] {
            let expect = 1.0 - (-t / tau).exp();
            assert!(
                (v.value_at(t) - expect).abs() < 2e-3,
                "t={t:e}: got {} want {expect}",
                v.value_at(t)
            );
        }
    }

    #[test]
    fn trapezoidal_is_second_order() {
        // Halving dt should cut the error by ~4× for smooth drives.
        let (r, c) = (1_000.0, 1e-12);
        let drive = Waveform::from_fn(0.0, 10e-9, 5e-12, |t| {
            0.5 * (1.0 - (std::f64::consts::PI * t / 5e-9).cos())
        })
        .unwrap();
        let run = |dt: f64| {
            let mut ckt = Circuit::new();
            let inp = ckt.node("in");
            let out = ckt.node("out");
            ckt.resistor(inp, out, r).unwrap();
            ckt.capacitor(out, Circuit::GROUND, c).unwrap();
            ckt.vsource(inp, drive.clone()).unwrap();
            let res = ckt
                .run_transient(TransientOptions::new(0.0, 5e-9, dt).unwrap())
                .unwrap();
            res.voltage(out).unwrap().value_at(2.5e-9)
        };
        let fine = run(2.5e-12);
        let coarse = run(40e-12);
        let mid = run(20e-12);
        let err_coarse = (coarse - fine).abs();
        let err_mid = (mid - fine).abs();
        assert!(
            err_mid < err_coarse / 2.5,
            "expected ~4x reduction: {err_coarse} vs {err_mid}"
        );
    }

    #[test]
    fn dc_init_starts_settled() {
        // Source already at 1 V before t=0: no spurious transient.
        let mut ckt = Circuit::new();
        let inp = ckt.node("in");
        let out = ckt.node("out");
        ckt.resistor(inp, out, 500.0).unwrap();
        ckt.capacitor(out, Circuit::GROUND, 2e-12).unwrap();
        ckt.vsource(inp, Waveform::constant(1.0, 0.0, 1e-9).unwrap())
            .unwrap();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 1e-9, 1e-12).unwrap())
            .unwrap();
        let v = res.voltage(out).unwrap();
        assert!((v.value_at(0.0) - 1.0).abs() < 1e-9);
        assert!((v.value_at(0.9e-9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn coupling_cap_injects_noise_into_quiet_line() {
        // Victim held by a resistive driver at 0; aggressor steps. The
        // coupling cap must kick the victim, which then decays back.
        let mut ckt = Circuit::new();
        let agg_src = ckt.node("agg_src");
        let agg = ckt.node("agg");
        let vic = ckt.node("vic");
        ckt.vsource(agg_src, step_at(1e-9, 50e-12, 1.0, 10e-9))
            .unwrap();
        ckt.resistor(agg_src, agg, 100.0).unwrap();
        ckt.capacitor(agg, Circuit::GROUND, 5e-15).unwrap();
        // Victim driver: Thevenin holding low.
        ckt.thevenin_driver(vic, Waveform::constant(0.0, 0.0, 10e-9).unwrap(), 200.0)
            .unwrap();
        ckt.capacitor(vic, Circuit::GROUND, 5e-15).unwrap();
        ckt.capacitor(agg, vic, 20e-15).unwrap();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 6e-9, 1e-12).unwrap())
            .unwrap();
        let v = res.voltage(vic).unwrap();
        let peak = v.v_max();
        assert!(peak > 0.05, "expected visible coupling noise, peak={peak}");
        assert!(peak < 1.0, "noise cannot exceed the aggressor swing");
        // Noise decays away by the end of the window.
        assert!(v.value_at(5.9e-9).abs() < 0.01);
        // Quiet before the aggressor moves.
        assert!(v.value_at(0.9e-9).abs() < 1e-6);
    }

    #[test]
    fn isource_charges_capacitor_linearly() {
        // 1 µA into 1 pF: dv/dt = 1 V/µs → 1 mV/ns.
        let mut ckt = Circuit::new();
        let n1 = ckt.node("n1");
        ckt.capacitor(n1, Circuit::GROUND, 1e-12).unwrap();
        ckt.isource(n1, Waveform::constant(1e-6, 0.0, 10e-9).unwrap())
            .unwrap();
        let res = ckt
            .run_transient(
                TransientOptions::new(0.0, 10e-9, 10e-12)
                    .unwrap()
                    .with_gmin(1e-15)
                    .with_zero_initial_state(),
            )
            .unwrap();
        let v = res.voltage(n1).unwrap();
        assert!((v.value_at(10e-9) - 0.01).abs() < 1e-4);
    }

    #[test]
    fn ladder_elmore_delay_is_sane() {
        // 5-stage RC ladder; Elmore ≈ Σ R_i C_downstream. 50% point of the
        // step response should land within ~[0.5, 1.4]× Elmore (log 2 ≈ 0.69
        // for 1 pole; distributed lines sit near 0.7–0.9).
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("in");
        ckt.vsource(prev, step_at(0.0, 1e-15, 1.0, 50e-9)).unwrap();
        let (r, c) = (200.0, 50e-15);
        let mut nodes = Vec::new();
        for i in 0..5 {
            let n = ckt.node(&format!("n{i}"));
            ckt.resistor(prev, n, r).unwrap();
            ckt.capacitor(n, Circuit::GROUND, c).unwrap();
            nodes.push(n);
            prev = n;
        }
        let elmore: f64 = (1..=5).map(|i| r * c * (5 - i + 1) as f64).sum();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 10e-9, 1e-12).unwrap())
            .unwrap();
        let far = res.voltage(*nodes.last().unwrap()).unwrap();
        let t50 = far.first_crossing(0.5).unwrap();
        assert!(
            t50 > 0.4 * elmore && t50 < 1.4 * elmore,
            "t50={t50:e}, elmore={elmore:e}"
        );
    }

    /// The noisy/noiseless victim stage of the SI flow: two Thevenin
    /// drivers into a coupled pair of caps.
    fn coupled_pair(agg_wave: Waveform) -> (Circuit, NodeId) {
        let mut ckt = Circuit::new();
        let agg = ckt.node("agg");
        let vic = ckt.node("vic");
        ckt.thevenin_driver(agg, agg_wave, 100.0).unwrap();
        ckt.thevenin_driver(vic, Waveform::constant(0.0, 0.0, 6e-9).unwrap(), 200.0)
            .unwrap();
        ckt.capacitor(agg, Circuit::GROUND, 5e-15).unwrap();
        ckt.capacitor(vic, Circuit::GROUND, 5e-15).unwrap();
        ckt.capacitor(agg, vic, 20e-15).unwrap();
        (ckt, vic)
    }

    #[test]
    fn factored_reuse_is_bit_identical_to_fresh_runs() {
        // Same topology, two source vectors: one factored system must
        // reproduce separately assembled runs exactly.
        let quiet = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
        let noisy_wave = step_at(1e-9, 50e-12, 1.0, 10e-9);
        let opts = TransientOptions::new(0.0, 6e-9, 2e-12).unwrap();

        let (ckt, vic) = coupled_pair(noisy_wave.clone());
        let system = ckt.factor_transient(opts).unwrap();
        let via_run = system.run().unwrap().voltage(vic).unwrap();
        let via_runtransient = ckt.run_transient(opts).unwrap().voltage(vic).unwrap();
        assert_eq!(via_run, via_runtransient);

        // Swap the aggressor quiet through the same factorization.
        let vic_hold = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
        let overridden = system
            .run_with_vsources(&[&quiet, &vic_hold])
            .unwrap()
            .voltage(vic)
            .unwrap();
        let (fresh, vic2) = coupled_pair(quiet.clone());
        let rebuilt = fresh.run_transient(opts).unwrap().voltage(vic2).unwrap();
        assert_eq!(overridden, rebuilt);

        // Source-count mismatch is rejected.
        assert!(matches!(
            system.run_with_vsources(&[&quiet]),
            Err(CircuitError::InvalidOptions(_))
        ));
        assert_eq!(system.source_count(), 2);
    }

    #[test]
    fn factored_system_shared_across_identical_circuits() {
        // Two *separately built* circuits with identical structure: the
        // system factored from the first must reproduce the second's run
        // bit for bit when fed the second's sources — the contract the
        // SI topology cache relies on.
        let opts = TransientOptions::new(0.0, 6e-9, 2e-12).unwrap();
        let wave_a = step_at(1e-9, 50e-12, 1.0, 10e-9);
        let wave_b = step_at(2e-9, 80e-12, 1.0, 10e-9); // different timing, same topology

        let (ckt_a, vic_a) = coupled_pair(wave_a);
        let (ckt_b, vic_b) = coupled_pair(wave_b.clone());
        assert_eq!(vic_a, vic_b, "construction order fixes node ids");

        let shared = ckt_a.factor_transient(opts).unwrap();
        let vic_hold = Waveform::constant(0.0, 0.0, 6e-9).unwrap();
        let via_shared = shared
            .run_with_vsources(&[&wave_b, &vic_hold])
            .unwrap()
            .voltage(vic_b)
            .unwrap();
        let via_own = ckt_b.run_transient(opts).unwrap().voltage(vic_b).unwrap();
        assert_eq!(via_shared, via_own);

        // The factored system outlives the circuit it came from: it is an
        // owned value, not a borrow.
        drop(ckt_a);
        let again = shared
            .run_with_vsources(&[&wave_b, &vic_hold])
            .unwrap()
            .voltage(vic_b)
            .unwrap();
        assert_eq!(again, via_own);
    }

    #[test]
    fn run_nodes_matches_full_record() {
        let noisy_wave = step_at(1e-9, 50e-12, 1.0, 10e-9);
        let opts = TransientOptions::new(0.0, 6e-9, 2e-12).unwrap();
        let (ckt, vic) = coupled_pair(noisy_wave);
        let agg = NodeId(0); // first created node
        let system = ckt.factor_transient(opts).unwrap();
        let full = system.run().unwrap();
        let subset = system
            .run_with_vsources(&[&system.default_sources[0], &system.default_sources[1]])
            .unwrap();
        assert_eq!(full.voltage(vic).unwrap(), subset.voltage(vic).unwrap());
        // Subset recording: victim + a driven node, in request order.
        let waves: Vec<&Waveform> = system.default_sources.iter().map(|w| w.as_ref()).collect();
        let recorded = system.run_nodes(&waves, &[vic, agg]).unwrap();
        assert_eq!(recorded.len(), 2);
        assert_eq!(recorded[0], full.voltage(vic).unwrap());
        assert_eq!(recorded[1], full.voltage(agg).unwrap());
        // Ground and foreign nodes are rejected.
        assert!(matches!(
            system.run_nodes(&waves, &[Circuit::GROUND]),
            Err(CircuitError::NotRecorded(_))
        ));
        assert!(matches!(
            system.run_nodes(&waves, &[NodeId(99)]),
            Err(CircuitError::UnknownNode { .. })
        ));
    }

    #[test]
    fn ground_voltage_not_recorded() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, step_at(0.0, 1e-12, 1.0, 1e-9)).unwrap();
        ckt.resistor(a, b, 100.0).unwrap();
        ckt.capacitor(b, Circuit::GROUND, 1e-15).unwrap();
        let res = ckt
            .run_transient(TransientOptions::new(0.0, 1e-9, 1e-12).unwrap())
            .unwrap();
        assert!(matches!(
            res.voltage(Circuit::GROUND),
            Err(CircuitError::NotRecorded(_))
        ));
        assert!(res.voltage(NodeId(42)).is_err());
        // Driven node is recorded and equals its source.
        let va = res.voltage(a).unwrap();
        assert!((va.value_at(0.5e-9) - 1.0).abs() < 1e-12);
    }
}
