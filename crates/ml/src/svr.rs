//! ε-support-vector regression trained with SMO.
//!
//! Implements the standard libsvm formulation: the ε-SVR dual is an
//! SVM-shaped problem over `2n` variables `(α, α*)` with labels
//! `y ∈ {+1, −1}`, solved by sequential minimal optimization with
//! second-order working-set selection (libsvm's WSS3; Fan, Chen & Lin,
//! JMLR 2005) over a bounded kernel-row cache. The solver's
//! per-iteration passes are vectorized and fused, yet return exactly
//! the bits of the plain sequential scan — see `Solver`.
//! The paper's hyper-parameters are `C = 1000`, `ε = 0.1` for both
//! models, a linear kernel for speedup and an RBF kernel with
//! `γ = 0.1` for normalized energy (§3.4).

use crate::dataset::Dataset;
use crate::kernel_fn::SvmKernel;
use serde::{Deserialize, Serialize};

#[cfg(test)]
mod reference;

const TAU: f64 = 1e-12;

/// Hyper-parameters of one ε-SVR training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvrParams {
    /// Box constraint `C`.
    pub c: f64,
    /// Tube width `ε`.
    pub epsilon: f64,
    /// Kernel function.
    pub kernel: SvmKernel,
    /// KKT violation tolerance for convergence.
    pub tol: f64,
    /// Hard iteration cap (0 = libsvm-style heuristic of
    /// `max(10^7, 100·n)`).
    pub max_iter: usize,
    /// Most kernel rows the solver keeps cached at once.
    pub cache_rows: usize,
}

impl SvrParams {
    /// The paper's speedup model: linear kernel, `C = 1000`.
    ///
    /// Two solver-level adaptations from the literal §3.4 values, both
    /// documented in DESIGN.md:
    /// * `ε = 0.01` rather than `0.1` — the tube is an *absolute* error
    ///   band, and our simulator's speedup targets reach down to ~0.1
    ///   (deep down-clocked configurations), where a 0.1 tube alone
    ///   permits 100% relative error. A 0.01 tube is the proportional
    ///   equivalent of the paper's setting on its own data scale.
    /// * `max_iter` is capped: with `C = 1000` full KKT convergence
    ///   needs tens of millions of SMO iterations for a negligible
    ///   objective improvement; libsvm guards its solver the same way.
    pub fn paper_speedup() -> SvrParams {
        SvrParams {
            c: 1000.0,
            epsilon: 0.01,
            kernel: SvmKernel::Linear,
            tol: 1e-3,
            max_iter: 800_000,
            cache_rows: 4240,
        }
    }

    /// The paper's normalized-energy model: RBF kernel with `γ = 0.1`,
    /// `C = 1000` (see [`SvrParams::paper_speedup`] on the `ε` and
    /// iteration-cap adaptations).
    pub fn paper_energy() -> SvrParams {
        SvrParams {
            c: 1000.0,
            epsilon: 0.01,
            kernel: SvmKernel::Rbf { gamma: 0.1 },
            tol: 1e-3,
            max_iter: 800_000,
            cache_rows: 4240,
        }
    }
}

/// A trained ε-SVR model: support vectors, their coefficients
/// `β = α − α*`, and the bias.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvrModel {
    kernel: SvmKernel,
    support_x: Vec<Vec<f64>>,
    beta: Vec<f64>,
    bias: f64,
    iterations: usize,
}

impl SvrModel {
    /// Assemble a model directly from its parts: support vectors,
    /// their coefficients `β = α − α*`, and the bias. This is the
    /// inverse of what [`train_svr`] extracts from the solver, for
    /// callers that build models without training — hand-written
    /// regressors in tests, property-based harnesses, external
    /// artifact importers. The iteration count is recorded as zero.
    ///
    /// # Panics
    /// If `support_x` and `beta` disagree in length, or the support
    /// vectors are jagged.
    pub fn from_parts(
        kernel: SvmKernel,
        support_x: Vec<Vec<f64>>,
        beta: Vec<f64>,
        bias: f64,
    ) -> SvrModel {
        assert_eq!(
            support_x.len(),
            beta.len(),
            "one coefficient per support vector"
        );
        if let Some(first) = support_x.first() {
            assert!(
                support_x.iter().all(|sv| sv.len() == first.len()),
                "support vectors must share one width"
            );
        }
        SvrModel {
            kernel,
            support_x,
            beta,
            bias,
            iterations: 0,
        }
    }

    /// Predict the target for one row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut acc = self.bias;
        for (sv, &b) in self.support_x.iter().zip(&self.beta) {
            acc += b * self.kernel.eval(sv, x);
        }
        acc
    }

    /// Predict a batch of rows.
    ///
    /// Accepts anything row-shaped — `&[Vec<f64>]`, `&[&[f64]]`,
    /// `&[[f64; N]]` — so callers holding borrowed rows don't rebuild
    /// an owned `Vec<Vec<f64>>` block just to satisfy the signature.
    pub fn predict_batch<R: AsRef<[f64]>>(&self, xs: &[R]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x.as_ref())).collect()
    }

    /// Build the precomputed scoring form of this model: the support
    /// vectors flattened into one row-major matrix with their norms
    /// cached. Build it once per model, score many candidate blocks —
    /// see [`ScoringPlan`] for the bit-identity contract.
    pub fn scoring_plan(&self) -> ScoringPlan {
        let dims = self.support_x.first().map_or(0, Vec::len);
        let mut sv = Vec::with_capacity(self.support_x.len() * dims);
        for row in &self.support_x {
            debug_assert_eq!(row.len(), dims, "support vectors share one width");
            sv.extend_from_slice(row);
        }
        let sv_norms = self
            .support_x
            .iter()
            .map(|row| row.iter().map(|v| v * v).sum())
            .collect();
        ScoringPlan {
            kernel: self.kernel,
            dims,
            sv,
            sv_norms,
            beta: self.beta.clone(),
            bias: self.bias,
        }
    }

    /// Number of support vectors retained.
    pub fn num_support_vectors(&self) -> usize {
        self.support_x.len()
    }

    /// SMO iterations used during training.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The kernel this model was trained with.
    pub fn kernel(&self) -> SvmKernel {
        self.kernel
    }
}

/// Train an ε-SVR on `data`.
///
/// # Panics
/// If the dataset is empty.
pub fn train_svr(data: &Dataset, params: &SvrParams) -> SvrModel {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let n = data.len();
    let mut solver = Solver::new(data, params);
    let iterations = solver.solve();
    let bias = solver.bias();
    // β_i = α_i − α*_i; keep only support vectors.
    let mut support_x = Vec::new();
    let mut beta = Vec::new();
    for i in 0..n {
        let b = solver.alpha[i] - solver.alpha[n + i];
        if b.abs() > 1e-12 {
            support_x.push(data.xs()[i].clone());
            beta.push(b);
        }
    }
    SvrModel {
        kernel: params.kernel,
        support_x,
        beta,
        bias,
        iterations,
    }
}

/// The precomputed scoring form of an [`SvrModel`]: support vectors
/// flattened into one row-major matrix, coefficients alongside, and
/// the support-vector norms `‖sv‖²` cached — built once per model
/// (via [`SvrModel::scoring_plan`]) and then scored against candidate
/// blocks without touching the `Vec<Vec<f64>>` representation again.
///
/// **Bit-identity contract.** [`score`](ScoringPlan::score) and
/// [`score_block_into`](ScoringPlan::score_block_into) return exactly
/// the bits [`SvrModel::predict`] returns: the accumulation order
/// (`acc = bias; acc += β_i · K(sv_i, x)` in support-vector order) and
/// the per-element kernel arithmetic are identical, only the storage
/// is flat. This is what lets the batched prediction pipeline replace
/// the scalar one underneath golden tests, determinism suites and
/// byte-replay contracts without re-blessing anything.
///
/// **Where the batched speed comes from.** Bit-identity pins each
/// candidate's *own* operation chain, but says nothing about
/// candidates relative to each other — they are independent
/// computations. [`score_block_into`](ScoringPlan::score_block_into)
/// therefore transposes the candidate block to column-major and sweeps
/// support vectors in the outer loop, accumulating every candidate's
/// dot product (or squared distance) in lock-step: the innermost loop
/// is a contiguous elementwise update across candidates with no
/// cross-lane reduction, which the compiler turns into SIMD. Each
/// lane still executes exactly the scalar chain (`0 + s₀·x₀ + s₁·x₁ +
/// …` in feature order, then `acc += β_i · K` in support-vector
/// order), so IEEE-754 determinism makes the lane-parallel sweep
/// return the scalar path's bits while running several candidates per
/// instruction.
///
/// **Why the RBF head is *not* evaluated via the norm expansion.**
/// The classic batched form `‖x−sv‖² = ‖x‖² + ‖sv‖² − 2⟨x, sv⟩`
/// (served by the cached norms) reassociates the floating-point sum —
/// its result differs from the direct `Σ (sv_j − x_j)²` sweep in the
/// last ulps, which would silently change every persisted prediction.
/// The expansion is therefore offered separately as
/// [`score_block_expanded_into`](ScoringPlan::score_block_expanded_into)
/// for callers that can tolerate approximate scores (and for the
/// kernels where it is exact), while the canonical entry points keep
/// the direct sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoringPlan {
    kernel: SvmKernel,
    dims: usize,
    /// Row-major `num_support_vectors × dims` support-vector matrix.
    sv: Vec<f64>,
    /// Cached `‖sv_i‖²`, in support-vector order.
    sv_norms: Vec<f64>,
    beta: Vec<f64>,
    bias: f64,
}

impl ScoringPlan {
    /// Feature width the plan scores (0 only for a model with no
    /// support vectors, which scores as its bias).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of support vectors in the plan.
    pub fn num_support_vectors(&self) -> usize {
        self.beta.len()
    }

    /// Score one row. Bit-identical to [`SvrModel::predict`].
    pub fn score(&self, x: &[f64]) -> f64 {
        let mut acc = self.bias;
        if self.dims == 0 {
            return acc;
        }
        debug_assert_eq!(x.len(), self.dims);
        for (sv, &b) in self.sv.chunks_exact(self.dims).zip(&self.beta) {
            acc += b * self.kernel.eval(sv, x);
        }
        acc
    }

    /// Score a row-major block of `block.len() / dims` candidate rows,
    /// appending one score per row to `out` (cleared first). Each row
    /// is bit-identical to [`SvrModel::predict`] on that row, but the
    /// block is evaluated lane-parallel: candidates ride SIMD lanes
    /// while every lane executes the scalar path's exact operation
    /// chain (see the type-level docs).
    ///
    /// # Panics
    /// If `block.len()` is not a multiple of [`dims`](ScoringPlan::dims).
    pub fn score_block_into(&self, block: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if self.dims == 0 {
            return;
        }
        assert_eq!(
            block.len() % self.dims,
            0,
            "candidate block must be row-major with the plan's width"
        );
        self.score_transposed_into(&TransposedBlock::new(block, self.dims), out);
    }

    /// [`score_block_into`](ScoringPlan::score_block_into) over a block
    /// that is already in the transposed layout — callers scoring the
    /// same candidates against several same-width plans (a device
    /// head's speedup and energy models, say) transpose once and score
    /// many times.
    ///
    /// # Panics
    /// If the block's width differs from [`dims`](ScoringPlan::dims).
    pub fn score_transposed_into(&self, block: &TransposedBlock, out: &mut Vec<f64>) {
        out.clear();
        if self.dims == 0 {
            return;
        }
        assert_eq!(
            block.dims, self.dims,
            "transposed block width must match the plan"
        );
        let (n, np) = (block.n, block.np);
        out.resize(n, self.bias);
        if n == 0 {
            return;
        }
        // Tiny blocks lose more to lane padding than they gain from
        // the sweep: score their rows directly (same canonical
        // arithmetic, so the choice of path can never change a bit).
        if n < SCALAR_CUTOFF {
            let mut row = vec![0.0; self.dims];
            for (c, acc) in out.iter_mut().enumerate() {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = block.xt[j * np + c];
                }
                *acc = self.score(&row);
            }
            return;
        }
        // Per-candidate partial (dot product or squared distance) for
        // the support vector currently being swept.
        let mut lane = vec![0.0; np];
        // The sweep is compiled once per SIMD tier; per-lane IEEE-754
        // mul/add/sub round identically at every width (and Rust never
        // contracts to FMA), so wider registers change throughput, not
        // bits.
        // Miri interprets MIR and does not implement vendor SIMD
        // intrinsics; under it the scalar body below is the whole
        // story, which is exactly the path worth checking for UB.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: reached only when the CPU reports AVX-512F.
                return unsafe { self.sweep_avx512(&block.xt, np, &mut lane, out) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: reached only when the CPU reports AVX2.
                return unsafe { self.sweep_avx2(&block.xt, np, &mut lane, out) };
            }
        }
        self.sweep(&block.xt, np, &mut lane, out);
    }

    /// The lane-parallel sweep body over a transposed, padded block
    /// (`np` lanes, a multiple of [`LANE_BLOCK`]; `out.len()` real
    /// candidates). Marked `inline(always)` so the `target_feature`
    /// wrappers re-vectorize it at their ISA width.
    #[inline(always)]
    fn sweep(&self, xt: &[f64], np: usize, lane: &mut [f64], out: &mut [f64]) {
        match self.kernel {
            SvmKernel::Linear => {
                for (sv, &b) in self.sv.chunks_exact(self.dims).zip(&self.beta) {
                    dot_lanes(sv, xt, np, lane);
                    for (acc, &dot) in out.iter_mut().zip(&*lane) {
                        *acc += b * dot;
                    }
                }
            }
            SvmKernel::Rbf { gamma } => {
                for (sv, &b) in self.sv.chunks_exact(self.dims).zip(&self.beta) {
                    dist2_lanes(sv, xt, np, lane);
                    for (acc, &d2) in out.iter_mut().zip(&*lane) {
                        *acc += b * (-gamma * d2).exp();
                    }
                }
            }
            SvmKernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => {
                for (sv, &b) in self.sv.chunks_exact(self.dims).zip(&self.beta) {
                    dot_lanes(sv, xt, np, lane);
                    for (acc, &dot) in out.iter_mut().zip(&*lane) {
                        *acc += b * (gamma * dot + coef0).powi(degree as i32);
                    }
                }
            }
        }
    }

    /// [`sweep`](Self::sweep) compiled for AVX2 (4 f64 lanes).
    ///
    /// The body is safe code; `unsafe` is forced by `target_feature`
    /// alone.
    // SAFETY: callers must have verified AVX2 support (the dispatch in
    // `score_transposed_into` checks `is_x86_feature_detected!`), or
    // executing the AVX2-encoded body is UB on older CPUs.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_avx2(&self, xt: &[f64], np: usize, lane: &mut [f64], out: &mut [f64]) {
        self.sweep(xt, np, lane, out);
    }

    /// [`sweep`](Self::sweep) compiled for AVX-512F (8 f64 lanes).
    ///
    /// The body is safe code; `unsafe` is forced by `target_feature`
    /// alone.
    // SAFETY: callers must have verified AVX-512F support (the dispatch
    // in `score_transposed_into` checks `is_x86_feature_detected!`), or
    // executing the AVX-512-encoded body is UB on older CPUs.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx512f")]
    unsafe fn sweep_avx512(&self, xt: &[f64], np: usize, lane: &mut [f64], out: &mut [f64]) {
        self.sweep(xt, np, lane, out);
    }
}

/// A candidate block in the column-major, block-padded layout the
/// lane-parallel sweep consumes: feature `j` of candidate `c` at
/// `xt[j*np + c]`, with the lane count `np` rounded up to whole
/// register blocks. Padding lanes hold zeros, cost a few spare flops,
/// and are never copied out — the scored output stays `n` long, so
/// padding cannot change a single result bit.
///
/// Build one per candidate block and score it against every same-width
/// [`ScoringPlan`] via
/// [`score_transposed_into`](ScoringPlan::score_transposed_into),
/// instead of paying the transpose once per plan.
#[derive(Debug, Clone)]
pub struct TransposedBlock {
    dims: usize,
    /// Real candidate count.
    n: usize,
    /// Lane count: `n` rounded up to a multiple of [`LANE_BLOCK`].
    np: usize,
    xt: Vec<f64>,
}

impl TransposedBlock {
    /// Transpose a row-major block of `block.len() / dims` candidate
    /// rows.
    ///
    /// # Panics
    /// If `dims` is zero or `block.len()` is not a multiple of it.
    pub fn new(block: &[f64], dims: usize) -> TransposedBlock {
        let mut this = TransposedBlock {
            dims,
            n: 0,
            np: 0,
            xt: Vec::new(),
        };
        this.fill_from(block);
        this
    }

    /// Reload from a new row-major block, reusing the buffer.
    ///
    /// # Panics
    /// If `block.len()` is not a multiple of the block's width.
    pub fn fill_from(&mut self, block: &[f64]) {
        assert!(self.dims > 0, "a transposed block needs a nonzero width");
        assert_eq!(
            block.len() % self.dims,
            0,
            "candidate block must be row-major with the declared width"
        );
        let n = block.len() / self.dims;
        let np = n.div_ceil(LANE_BLOCK) * LANE_BLOCK;
        self.n = n;
        self.np = np;
        self.xt.clear();
        self.xt.resize(self.dims * np, 0.0);
        for (c, row) in block.chunks_exact(self.dims).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                self.xt[j * np + c] = v;
            }
        }
    }

    /// Number of candidate rows loaded.
    pub fn num_candidates(&self) -> usize {
        self.n
    }
}

/// Below this many candidates a block is scored row by row: the lane
/// sweep always pays for a whole [`LANE_BLOCK`]-wide pass, which a
/// near-empty block cannot amortize (measured crossover on the CI
/// hardware is around a third of the block width).
const SCALAR_CUTOFF: usize = 12;

/// Candidates per register block. The per-candidate accumulation is a
/// serial dependency chain (each `acc += term` must wait on the last),
/// so throughput comes from flying many *independent* candidate chains
/// at once: 32 lanes is four 512-bit (or eight 256-bit) accumulators,
/// enough chains to cover FP-add latency on the x86 tiers dispatched
/// to while keeping the pad-to-block waste small for head-sized
/// candidate counts (≈50–70). Measured on the CI hardware, 32 beats
/// both 16 (chain-starved) and 64 (pads a 71-candidate head to 128).
/// Blocks live entirely in registers across the feature loop instead
/// of round-tripping partials through memory once per feature.
const LANE_BLOCK: usize = 32;

/// `lane[c] = ⟨sv, x_c⟩` for every candidate column of `xt` (`np`
/// lanes, a multiple of [`LANE_BLOCK`]), each dot accumulated in
/// feature order exactly like the scalar kernel ([`SvmKernel::eval`]
/// folds `Σ sv_j·x_j` from zero in `j` order).
#[inline(always)]
fn dot_lanes(sv: &[f64], xt: &[f64], np: usize, lane: &mut [f64]) {
    for c in (0..np).step_by(LANE_BLOCK) {
        let mut acc = [0.0; LANE_BLOCK];
        for (j, &s) in sv.iter().enumerate() {
            let col: &[f64; LANE_BLOCK] = xt[j * np + c..j * np + c + LANE_BLOCK]
                .try_into()
                .expect("padded block");
            for k in 0..LANE_BLOCK {
                acc[k] += s * col[k];
            }
        }
        lane[c..c + LANE_BLOCK].copy_from_slice(&acc);
    }
}

/// `lane[c] = ‖sv − x_c‖²` over the same padded layout as
/// [`dot_lanes`], accumulated in feature order exactly like the scalar
/// kernel (`Σ (sv_j − x_j)²` folded from zero in `j` order).
#[inline(always)]
fn dist2_lanes(sv: &[f64], xt: &[f64], np: usize, lane: &mut [f64]) {
    for c in (0..np).step_by(LANE_BLOCK) {
        let mut acc = [0.0; LANE_BLOCK];
        for (j, &s) in sv.iter().enumerate() {
            let col: &[f64; LANE_BLOCK] = xt[j * np + c..j * np + c + LANE_BLOCK]
                .try_into()
                .expect("padded block");
            for k in 0..LANE_BLOCK {
                let d = s - col[k];
                acc[k] += d * d;
            }
        }
        lane[c..c + LANE_BLOCK].copy_from_slice(&acc);
    }
}

impl ScoringPlan {
    /// Score a row-major block via the `‖x‖² + ‖sv‖² − 2⟨x, sv⟩`
    /// expansion of the RBF distance, using the cached support-vector
    /// norms. For the linear and polynomial kernels this is the same
    /// dot-product sweep as [`score_block_into`](Self::score_block_into)
    /// and bit-identical to it; for the RBF kernel the reassociated
    /// sum agrees only to ~1 ulp per term and is **not** bit-identical
    /// to [`SvrModel::predict`] — use it only where approximate scores
    /// are acceptable (see the type-level docs for why the canonical
    /// path rejects it).
    pub fn score_block_expanded_into(&self, block: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if self.dims == 0 {
            return;
        }
        assert_eq!(
            block.len() % self.dims,
            0,
            "candidate block must be row-major with the plan's width"
        );
        out.reserve(block.len() / self.dims);
        match self.kernel {
            SvmKernel::Rbf { gamma } => {
                for x in block.chunks_exact(self.dims) {
                    let x_norm: f64 = x.iter().map(|v| v * v).sum();
                    let mut acc = self.bias;
                    for ((sv, &b), &sv_norm) in self
                        .sv
                        .chunks_exact(self.dims)
                        .zip(&self.beta)
                        .zip(&self.sv_norms)
                    {
                        let dot: f64 = sv.iter().zip(x).map(|(s, v)| s * v).sum();
                        let d2 = (x_norm + sv_norm - 2.0 * dot).max(0.0);
                        acc += b * (-gamma * d2).exp();
                    }
                    out.push(acc);
                }
            }
            SvmKernel::Linear | SvmKernel::Polynomial { .. } => {
                for x in block.chunks_exact(self.dims) {
                    out.push(self.score(x));
                }
            }
        }
    }
}

/// SMO solver state over the extended `2n`-variable problem.
///
/// **Layout.** The extended variables split into two blocks of `n`:
/// the α block (`s < n`, label `y_s = +1`) and the α* block
/// (`s = n + t`, `y_s = −1`), both reading base-kernel row entry `t`.
/// Every per-variable pass walks the blocks side by side — step `t`
/// handles variable `t` of each with that block's own arithmetic — so
/// no element branches on its label or takes a modulo. A label only
/// ever multiplies by `±1` or enters `2·y_i·y_s`, both exact, so
/// specializing the arithmetic per block changes no value's bits.
///
/// **Fused selection.** libsvm's WSS3 picks `i` by a first-order argmax
/// over `I_up`, then `j` by a second-order argmin over `I_low`. Only the
/// `j` pass needs `i`; the `i` pass needs only `α` and the gradient,
/// which are final once the gradient update has run. So the update
/// loop ([`scan_up`]) offers each freshly written gradient entry to the
/// next iteration's `i` selection, and an iteration makes two passes
/// over the variables where WSS3 as written makes three. If an
/// iteration leaves `α` and the gradient numerically unchanged, the
/// previous `i` stands.
///
/// **Bit-identity contract.** Training returns exactly the model a
/// plain sequential scan of WSS3 returns — support vectors, `β`, bias
/// and iteration count, bit for bit — which property tests check
/// against such a solver, kept as test-only reference code in
/// `svr/reference.rs`. Every gradient entry, quadratic coefficient and
/// objective decrease is the same IEEE-754 operation chain on the same
/// operands. The selections are argmax scans that keep the last index
/// on ties (`>=`); they run in [`SCAN_LANES`] interleaved lanes, each
/// of which still sees its indices in increasing order, and
/// [`ArgMaxLanes::finish`] keeps the largest value and, on a tie, the
/// latest index — where the sequential scan would have ended. Which
/// rows the [`RowCache`] holds never changes a number.
///
/// **Where the speed comes from.** Candidates outside `I_up`/`I_low`
/// are offered as `NaN`, which an argmax never takes, so the selection
/// and update loops are branch-free lane selects that the compiler
/// vectorizes (runtime-dispatched to AVX-512F or AVX2 like
/// [`ScoringPlan`]'s sweep). The second-order pass divides a whole
/// chunk of candidates in one vector instruction, and skips chunks
/// holding none. A cached row costs an index into a slot table, not a
/// hash lookup.
struct Solver<'a> {
    data: &'a Dataset,
    params: &'a SvrParams,
    n: usize,
    /// Extended variables: the α block `alpha[..n]`, then the α* block.
    alpha: Vec<f64>,
    /// Gradient of the dual objective, in the same two blocks.
    grad: Vec<f64>,
    /// Diagonal of the base kernel matrix.
    qd: Vec<f64>,
    cache: RowCache,
}

impl<'a> Solver<'a> {
    fn new(data: &'a Dataset, params: &'a SvrParams) -> Solver<'a> {
        let n = data.len();
        // p_s = ε − y_s for the α block, ε + y_s for the α* block;
        // gradient starts at p because α = 0.
        let mut grad = vec![0.0; 2 * n];
        for i in 0..n {
            grad[i] = params.epsilon - data.ys()[i];
            grad[n + i] = params.epsilon + data.ys()[i];
        }
        let qd = (0..n)
            .map(|i| {
                params
                    .kernel
                    .eval(data.xs()[i].as_slice(), data.xs()[i].as_slice())
            })
            .collect();
        Solver {
            data,
            params,
            n,
            alpha: vec![0.0; 2 * n],
            grad,
            qd,
            cache: RowCache::new(n, params.cache_rows),
        }
    }

    /// Extended label `y_s`: `+1` in the α block, `−1` in the α* block.
    fn y(&self, s: usize) -> f64 {
        if s < self.n {
            1.0
        } else {
            -1.0
        }
    }

    /// Run SMO to convergence; returns the iteration count.
    fn solve(&mut self) -> usize {
        // Per-lane IEEE-754 compare/select/divide round identically at
        // every register width (and Rust never contracts to FMA), so the
        // SIMD tier changes throughput, not bits. Miri does not
        // implement vendor SIMD intrinsics; under it the generic body is
        // the whole story.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: reached only when the CPU reports AVX-512F.
                return unsafe { self.solve_avx512() };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: reached only when the CPU reports AVX2.
                return unsafe { self.solve_avx2() };
            }
        }
        self.solve_body()
    }

    /// [`solve_body`](Self::solve_body) compiled for AVX2.
    ///
    /// The body is safe code; `unsafe` is forced by `target_feature`
    /// alone.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    // SAFETY: callers must have verified AVX2 support (the dispatch in
    // `solve` checks `is_x86_feature_detected!`), or executing the
    // AVX2-encoded body is UB on older CPUs.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx2")]
    unsafe fn solve_avx2(&mut self) -> usize {
        self.solve_body()
    }

    /// [`solve_body`](Self::solve_body) compiled for AVX-512F.
    ///
    /// The body is safe code; `unsafe` is forced by `target_feature`
    /// alone.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    // SAFETY: callers must have verified AVX-512F support (the dispatch
    // in `solve` checks `is_x86_feature_detected!`), or executing the
    // AVX-512-encoded body is UB on older CPUs.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx512f")]
    unsafe fn solve_avx512(&mut self) -> usize {
        self.solve_body()
    }

    /// The SMO loop. Marked `inline(always)` so the `target_feature`
    /// wrappers re-vectorize its lane loops at their ISA width.
    #[inline(always)]
    fn solve_body(&mut self) -> usize {
        let max_iter = if self.params.max_iter == 0 {
            // libsvm heuristic: at least 10M, or 100 iterations per
            // variable for very large problems.
            (100 * 2 * self.n).max(10_000_000)
        } else {
            self.params.max_iter
        };
        let n = self.n;
        let c = self.params.c;
        let kernel = self.params.kernel;
        let xs = self.data.xs();
        let mut up = scan_up::<false>(&mut self.grad, &self.alpha, c, &self.qd, &self.qd, 0.0, 0.0);
        let mut it = 0;
        while it < max_iter {
            let Some((g_max, i)) = up else {
                break;
            };
            let i_base = i % n;
            let slot_i = self.cache.fetch(i_base, usize::MAX, xs, kernel);
            let Some(j) = self.select_j(g_max, i, self.cache.row(slot_i)) else {
                break;
            };
            it += 1;
            let j_base = j % n;
            let slot_j = self.cache.fetch(j_base, i_base, xs, kernel);
            let k_ij = self.cache.row(slot_i)[j_base];
            let (old_ai, old_aj) = (self.alpha[i], self.alpha[j]);
            if self.y(i) != self.y(j) {
                let quad = (self.qd[i_base] + self.qd[j_base] + 2.0 * k_ij).max(TAU);
                let delta = (-self.grad[i] - self.grad[j]) / quad;
                let diff = self.alpha[i] - self.alpha[j];
                self.alpha[i] += delta;
                self.alpha[j] += delta;
                if diff > 0.0 {
                    if self.alpha[j] < 0.0 {
                        self.alpha[j] = 0.0;
                        self.alpha[i] = diff;
                    }
                } else if self.alpha[i] < 0.0 {
                    self.alpha[i] = 0.0;
                    self.alpha[j] = -diff;
                }
                if diff > 0.0 {
                    if self.alpha[i] > c {
                        self.alpha[i] = c;
                        self.alpha[j] = c - diff;
                    }
                } else if self.alpha[j] > c {
                    self.alpha[j] = c;
                    self.alpha[i] = c + diff;
                }
            } else {
                let quad = (self.qd[i_base] + self.qd[j_base] - 2.0 * k_ij).max(TAU);
                let delta = (self.grad[i] - self.grad[j]) / quad;
                let sum = self.alpha[i] + self.alpha[j];
                self.alpha[i] -= delta;
                self.alpha[j] += delta;
                if sum > c {
                    if self.alpha[i] > c {
                        self.alpha[i] = c;
                        self.alpha[j] = sum - c;
                    }
                } else if self.alpha[j] < 0.0 {
                    self.alpha[j] = 0.0;
                    self.alpha[i] = sum;
                }
                if sum > c {
                    if self.alpha[j] > c {
                        self.alpha[j] = c;
                        self.alpha[i] = sum - c;
                    }
                } else if self.alpha[i] < 0.0 {
                    self.alpha[i] = 0.0;
                    self.alpha[j] = sum;
                }
            }
            // Gradient maintenance: G_t += Q_it Δα_i + Q_jt Δα_j, with
            // Q_st = y_s y_t K(s, t), fused with the next iteration's
            // first-order `i` selection. If neither α moved (up to the
            // sign of a zero, which no predicate sees), the gradient is
            // unchanged and so is that selection.
            let d_i = self.alpha[i] - old_ai;
            let d_j = self.alpha[j] - old_aj;
            if d_i != 0.0 || d_j != 0.0 {
                let ci = self.y(i) * d_i;
                let cj = self.y(j) * d_j;
                let (row_i, row_j) = (self.cache.row(slot_i), self.cache.row(slot_j));
                up = scan_up::<true>(&mut self.grad, &self.alpha, c, row_i, row_j, ci, cj);
            }
        }
        it
    }

    /// The second-order half of WSS3: over `I_low`, the `j` maximizing
    /// the objective decrease `(G_max + y_s G_s)² / quad` (libsvm's
    /// minimum of its negation), last index on ties. Returns `None`
    /// when the KKT gap `G_max + max_{I_low} y_s G_s` is below
    /// tolerance or no candidate decreases the objective.
    #[inline(always)]
    fn select_j(&self, g_max: f64, i: usize, row_i: &[f64]) -> Option<usize> {
        let n = self.n;
        let c = self.params.c;
        let y_i = self.y(i);
        let qd_i = self.qd[i % n];
        // 2·y_i·y_s per block: the coefficient of K(i, s) in the
        // two-variable subproblem's quadratic term. With y_s = ±1 the
        // products are exact, as the sequential scan computed them.
        let (coef, coef_star) = (2.0 * y_i, -(2.0 * y_i));
        let (a, a_star) = self.alpha.split_at(n);
        let (g, g_star) = self.grad.split_at(n);
        let (qd, row_i) = (&self.qd[..n], &row_i[..n]);
        // `(objective decrease numerator, quad, y_s G_s)` of one
        // variable, the numerator and `y_s G_s` NaN outside their
        // candidate sets so that neither the argmax nor the max takes
        // them.
        let variable = |in_low: bool, yg: f64, qd_t: f64, k_it: f64, coef: f64| {
            let grad_diff = g_max + yg;
            let quad = qd_i + qd_t - coef * k_it;
            let quad = if quad > 0.0 { quad } else { TAU };
            let num = if in_low & (grad_diff > 0.0) {
                grad_diff * grad_diff
            } else {
                f64::NAN
            };
            (num, quad, if in_low { yg } else { f64::NAN })
        };
        // `f64::max` would also skip the NaNs, but its signed-zero
        // handling does not vectorize; which of two equal zeros is kept
        // is invisible to the tolerance test `g_max2` feeds.
        let fold_max = |m: f64, v: f64| if v > m { v } else { m };
        let mut best = ArgMaxLanes::EMPTY;
        let mut best_star = ArgMaxLanes::EMPTY;
        let mut g_max2 = [f64::NEG_INFINITY; SCAN_LANES];
        // Divide a chunk only if some lane is a candidate: a NaN
        // numerator's quotient would never be taken, and at the served
        // shapes most α-block chunks (and, at n = 720, most α*-block
        // chunks) hold no candidate. The division is unconditional
        // within a chunk, which keeps it in vector registers.
        let offer =
            |best: &mut ArgMaxLanes, num: &[f64; SCAN_LANES], quad: &[f64; SCAN_LANES], s| {
                if num.iter().any(|v| !v.is_nan()) {
                    let mut gain = [0.0; SCAN_LANES];
                    for k in 0..SCAN_LANES {
                        gain[k] = num[k] / quad[k];
                    }
                    best.offer_chunk(&gain, s);
                }
            };
        let chunks = (a
            .chunks_exact(SCAN_LANES)
            .zip(a_star.chunks_exact(SCAN_LANES)))
        .zip(
            g.chunks_exact(SCAN_LANES)
                .zip(g_star.chunks_exact(SCAN_LANES)),
        )
        .zip(
            qd.chunks_exact(SCAN_LANES)
                .zip(row_i.chunks_exact(SCAN_LANES)),
        );
        for (t, (((a, a_star), (g, g_star)), (qd, k_i))) in (0..).step_by(SCAN_LANES).zip(chunks) {
            let (a, a_star, g, g_star) = (lanes(a), lanes(a_star), lanes(g), lanes(g_star));
            let (qd, k_i) = (lanes(qd), lanes(k_i));
            let (mut num, mut quad) = ([0.0; SCAN_LANES], [0.0; SCAN_LANES]);
            let (mut num_star, mut quad_star) = ([0.0; SCAN_LANES], [0.0; SCAN_LANES]);
            for k in 0..SCAN_LANES {
                let (yg, yg_star);
                (num[k], quad[k], yg) = variable(a[k] > 0.0, g[k], qd[k], k_i[k], coef);
                (num_star[k], quad_star[k], yg_star) =
                    variable(a_star[k] < c, -g_star[k], qd[k], k_i[k], coef_star);
                g_max2[k] = fold_max(fold_max(g_max2[k], yg), yg_star);
            }
            offer(&mut best, &num, &quad, t);
            offer(&mut best_star, &num_star, &quad_star, n + t);
        }
        let full = n - n % SCAN_LANES;
        for t in full..n {
            let (num, quad, yg) = variable(a[t] > 0.0, g[t], qd[t], row_i[t], coef);
            let (num_star, quad_star, yg_star) =
                variable(a_star[t] < c, -g_star[t], qd[t], row_i[t], coef_star);
            g_max2[t - full] = fold_max(fold_max(g_max2[t - full], yg), yg_star);
            best.offer(t - full, num / quad, t);
            best_star.offer(t - full, num_star / quad_star, n + t);
        }
        let g_max2 = g_max2.into_iter().fold(f64::NEG_INFINITY, fold_max);
        // Every α* index follows every α index.
        let (_, j) = later_max(best.finish(), best_star.finish())?;
        if g_max + g_max2 < self.params.tol {
            return None;
        }
        Some(j)
    }

    /// Bias from the KKT conditions (libsvm `calculate_rho`, negated).
    fn bias(&self) -> f64 {
        let c = self.params.c;
        let mut ub = f64::INFINITY;
        let mut lb = f64::NEG_INFINITY;
        let mut sum_free = 0.0;
        let mut nr_free = 0usize;
        for s in 0..2 * self.n {
            let y_s = self.y(s);
            let yg = y_s * self.grad[s];
            if self.alpha[s] >= c {
                if y_s < 0.0 {
                    ub = ub.min(yg);
                } else {
                    lb = lb.max(yg);
                }
            } else if self.alpha[s] <= 0.0 {
                if y_s > 0.0 {
                    ub = ub.min(yg);
                } else {
                    lb = lb.max(yg);
                }
            } else {
                nr_free += 1;
                sum_free += yg;
            }
        }
        let rho = if nr_free > 0 {
            sum_free / nr_free as f64
        } else {
            (ub + lb) / 2.0
        };
        -rho
    }
}

/// Interleaved lanes per selection pass: one AVX-512 register of `f64`
/// (two AVX2 registers). Lane `k` scans the indices `≡ k` modulo the
/// lane count within each block, in increasing order.
const SCAN_LANES: usize = 8;

/// A last-index-wins argmax (`if v >= best { best = v; at = s }`) run
/// as [`SCAN_LANES`] independent lanes. An offered `NaN` never wins, so
/// a variable outside the candidate set is offered as `NaN` instead of
/// branching around it — exactly as a sequential scan never takes a
/// `NaN`.
#[derive(Clone, Copy)]
struct ArgMaxLanes {
    val: [f64; SCAN_LANES],
    /// `usize::MAX` until the lane takes a value.
    at: [usize; SCAN_LANES],
}

impl ArgMaxLanes {
    const EMPTY: ArgMaxLanes = ArgMaxLanes {
        val: [f64::NEG_INFINITY; SCAN_LANES],
        at: [usize::MAX; SCAN_LANES],
    };

    #[inline(always)]
    fn offer(&mut self, lane: usize, v: f64, s: usize) {
        let take = v >= self.val[lane];
        self.val[lane] = if take { v } else { self.val[lane] };
        self.at[lane] = if take { s } else { self.at[lane] };
    }

    /// Offer `v[k]` at index `s + k` to lane `k`, for every lane.
    #[inline(always)]
    fn offer_chunk(&mut self, v: &[f64; SCAN_LANES], s: usize) {
        // Register copies again: selects into `self` through `&mut`
        // become conditional stores.
        let (mut val, mut at) = (self.val, self.at);
        for k in 0..SCAN_LANES {
            let take = v[k] >= val[k];
            val[k] = if take { v[k] } else { val[k] };
            at[k] = if take { s + k } else { at[k] };
        }
        (self.val, self.at) = (val, at);
    }

    /// The `(value, index)` a sequential scan over every offered index
    /// in increasing order would have ended on.
    fn finish(&self) -> Option<(f64, usize)> {
        (0..SCAN_LANES)
            .filter(|&k| self.at[k] != usize::MAX)
            .map(|k| (self.val[k], self.at[k]))
            .fold(None, |best, lane| later_max(best, Some(lane)))
    }
}

/// The winner of two argmax candidates as a sequential `>=` scan would
/// pick it: the larger value, or on equal values (`0.0 == -0.0`) the
/// later index.
fn later_max(a: Option<(f64, usize)>, b: Option<(f64, usize)>) -> Option<(f64, usize)> {
    match (a, b) {
        (Some((va, sa)), Some((vb, sb))) => {
            if vb > va || (vb == va && sb > sa) {
                b
            } else {
                a
            }
        }
        (None, x) | (x, None) => x,
    }
}

/// A whole [`SCAN_LANES`]-wide chunk as an array.
#[inline(always)]
fn lanes(chunk: &[f64]) -> &[f64; SCAN_LANES] {
    chunk.try_into().expect("whole chunk")
}

/// The first-order `i` selection over `I_up`: the last index
/// maximizing `−y_s G_s` among α-block variables below `C` and α*-block
/// variables above zero. With `UPDATE`, each gradient pair is first
/// advanced by `Δ = K_it·ci + K_jt·cj` (`+Δ` in the α block, `−Δ` in
/// the α* block) and the selection sees the new values; without it,
/// the rows and coefficients are never read.
#[inline(always)]
fn scan_up<const UPDATE: bool>(
    grad: &mut [f64],
    alpha: &[f64],
    c: f64,
    row_i: &[f64],
    row_j: &[f64],
    ci: f64,
    cj: f64,
) -> Option<(f64, usize)> {
    let n = grad.len() / 2;
    let (g, g_star) = grad.split_at_mut(n);
    let (a, a_star) = alpha.split_at(n);
    let (row_i, row_j) = (&row_i[..n], &row_j[..n]);
    // Variable `t` of the α block and of the α* block: the (updated)
    // gradients and the two values offered to the argmax.
    let pair = |g: f64, g_star: f64, a: f64, a_star: f64, k_it: f64, k_jt: f64| {
        let (g, g_star) = if UPDATE {
            let delta = k_it * ci + k_jt * cj;
            (g + delta, g_star - delta)
        } else {
            (g, g_star)
        };
        let up = if a < c { -g } else { f64::NAN };
        let up_star = if a_star > 0.0 { g_star } else { f64::NAN };
        (g, g_star, up, up_star)
    };
    let mut best = ArgMaxLanes::EMPTY;
    let mut best_star = ArgMaxLanes::EMPTY;
    let chunks = (g.chunks_exact_mut(SCAN_LANES)).zip(g_star.chunks_exact_mut(SCAN_LANES));
    let chunks = chunks
        .zip(
            a.chunks_exact(SCAN_LANES)
                .zip(a_star.chunks_exact(SCAN_LANES)),
        )
        .zip(
            row_i
                .chunks_exact(SCAN_LANES)
                .zip(row_j.chunks_exact(SCAN_LANES)),
        );
    for (t, (((g, g_star), (a, a_star)), (k_i, k_j))) in (0..).step_by(SCAN_LANES).zip(chunks) {
        let g: &mut [f64; SCAN_LANES] = g.try_into().expect("whole chunk");
        let g_star: &mut [f64; SCAN_LANES] = g_star.try_into().expect("whole chunk");
        let (a, a_star, k_i, k_j) = (lanes(a), lanes(a_star), lanes(k_i), lanes(k_j));
        // Register copies: updated through the `&mut` chunks, the
        // compiler cannot rule out aliasing and will not vectorize.
        let (mut g_new, mut g_star_new) = (*g, *g_star);
        let mut up = [0.0; SCAN_LANES];
        let mut up_star = [0.0; SCAN_LANES];
        for k in 0..SCAN_LANES {
            (g_new[k], g_star_new[k], up[k], up_star[k]) =
                pair(g_new[k], g_star_new[k], a[k], a_star[k], k_i[k], k_j[k]);
        }
        if UPDATE {
            (*g, *g_star) = (g_new, g_star_new);
        }
        best.offer_chunk(&up, t);
        best_star.offer_chunk(&up_star, n + t);
    }
    let full = n - n % SCAN_LANES;
    for t in full..n {
        let (up, up_star);
        (g[t], g_star[t], up, up_star) = pair(g[t], g_star[t], a[t], a_star[t], row_i[t], row_j[t]);
        best.offer(t - full, up, t);
        best_star.offer(t - full, up_star, n + t);
    }
    // Every α* index follows every α index.
    later_max(best.finish(), best_star.finish())
}

/// Base-kernel rows in direct-indexed slots: `slot_of[i]` locates row
/// `i`, so a hit is an index, not a hash. At most `capacity` rows are
/// held; once full, a ring cursor over the slots picks the victim
/// (skipping the row the caller still needs) in O(1). Since a
/// recomputed row is the same kernel evaluations, the policy decides
/// only what is recomputed, never a number.
struct RowCache {
    capacity: usize,
    /// Row index → slot, or `usize::MAX` when not resident.
    slot_of: Vec<usize>,
    /// Each slot's row index and row.
    slots: Vec<(usize, Vec<f64>)>,
    /// Next eviction candidate once every slot is taken.
    cursor: usize,
}

impl RowCache {
    fn new(n: usize, cache_rows: usize) -> RowCache {
        RowCache {
            capacity: cache_rows.max(2),
            slot_of: vec![usize::MAX; n],
            slots: Vec::new(),
            cursor: 0,
        }
    }

    /// The slot holding row `i` (`K(x_i, x_t)` for every `t`), computed
    /// on a miss; the eviction this may take never picks row `keep`.
    fn fetch(&mut self, i: usize, keep: usize, xs: &[Vec<f64>], kernel: SvmKernel) -> usize {
        if self.slot_of[i] != usize::MAX {
            return self.slot_of[i];
        }
        let row = xs.iter().map(|x| kernel.eval(&xs[i], x));
        let slot = if self.slots.len() < self.capacity {
            self.slots.push((i, row.collect()));
            self.slots.len() - 1
        } else {
            if self.slots[self.cursor].0 == keep {
                self.cursor = (self.cursor + 1) % self.capacity;
            }
            let slot = self.cursor;
            self.cursor = (slot + 1) % self.capacity;
            let (owner, held) = &mut self.slots[slot];
            self.slot_of[*owner] = usize::MAX;
            *owner = i;
            held.clear();
            held.extend(row);
            slot
        };
        self.slot_of[i] = slot;
        slot
    }

    fn row(&self, slot: usize) -> &[f64] {
        &self.slots[slot].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn linear_data(n: usize, noise: f64, seed: u64) -> Dataset {
        // y = 2 x0 - 3 x1 + 0.5 + noise
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let x0: f64 = rng.gen_range(0.0..1.0);
            let x1: f64 = rng.gen_range(0.0..1.0);
            let e: f64 = rng.gen_range(-noise..=noise);
            d.push(vec![x0, x1], 2.0 * x0 - 3.0 * x1 + 0.5 + e);
        }
        d
    }

    #[test]
    fn linear_svr_recovers_linear_function() {
        let data = linear_data(120, 0.0, 1);
        let params = SvrParams {
            epsilon: 0.01,
            ..SvrParams::paper_speedup()
        };
        let model = train_svr(&data, &params);
        // Predictions within the ε-tube (plus solver tolerance).
        for (x, y) in data.xs().iter().zip(data.ys()) {
            let p = model.predict(x);
            assert!((p - y).abs() < 0.05, "pred {p} vs {y}");
        }
    }

    #[test]
    fn rbf_svr_fits_nonlinear_function() {
        // y = sin(4 x) — linear models cannot fit this.
        let mut data = Dataset::new();
        for i in 0..100 {
            let x = i as f64 / 99.0;
            data.push(vec![x], (4.0 * x).sin());
        }
        let params = SvrParams {
            epsilon: 0.01,
            kernel: SvmKernel::Rbf { gamma: 10.0 },
            ..SvrParams::paper_energy()
        };
        let model = train_svr(&data, &params);
        for i in 0..100 {
            let x = i as f64 / 99.0;
            let p = model.predict(&[x]);
            assert!((p - (4.0 * x).sin()).abs() < 0.08, "at {x}: {p}");
        }
    }

    #[test]
    fn epsilon_tube_limits_support_vectors() {
        // With a wide tube, most points are inside it and few SVs remain.
        let data = linear_data(200, 0.01, 3);
        let narrow = train_svr(
            &data,
            &SvrParams {
                epsilon: 0.001,
                ..SvrParams::paper_speedup()
            },
        );
        let wide = train_svr(
            &data,
            &SvrParams {
                epsilon: 0.5,
                ..SvrParams::paper_speedup()
            },
        );
        assert!(wide.num_support_vectors() < narrow.num_support_vectors());
    }

    #[test]
    fn noisy_data_stays_within_epsilon_plus_noise() {
        let data = linear_data(150, 0.05, 7);
        let model = train_svr(
            &data,
            &SvrParams {
                epsilon: 0.1,
                ..SvrParams::paper_speedup()
            },
        );
        let preds = model.predict_batch(data.xs());
        let rmse = crate::metrics::rmse(data.ys(), &preds);
        assert!(rmse < 0.12, "rmse {rmse}");
    }

    #[test]
    fn constant_target_learns_bias() {
        let mut data = Dataset::new();
        for i in 0..20 {
            data.push(vec![i as f64 / 20.0], 3.5);
        }
        let model = train_svr(&data, &SvrParams::paper_speedup());
        assert!((model.predict(&[0.3]) - 3.5).abs() < 0.11); // within ε
    }

    #[test]
    fn single_sample_trains() {
        let mut data = Dataset::new();
        data.push(vec![1.0], 2.0);
        let model = train_svr(&data, &SvrParams::paper_speedup());
        assert!((model.predict(&[1.0]) - 2.0).abs() < 0.2);
    }

    #[test]
    fn deterministic_training() {
        let data = linear_data(80, 0.02, 11);
        let a = train_svr(&data, &SvrParams::paper_speedup());
        let b = train_svr(&data, &SvrParams::paper_speedup());
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_cache_still_converges() {
        let data = linear_data(60, 0.0, 13);
        let params = SvrParams {
            cache_rows: 2,
            epsilon: 0.01,
            ..SvrParams::paper_speedup()
        };
        let model = train_svr(&data, &params);
        for (x, y) in data.xs().iter().zip(data.ys()) {
            assert!((model.predict(x) - y).abs() < 0.05);
        }
        // The cache policy decides only which rows are recomputed,
        // never a number.
        let unbounded = train_svr(
            &data,
            &SvrParams {
                cache_rows: usize::MAX,
                ..params
            },
        );
        assert_eq!(
            reference::model_bits(&model),
            reference::model_bits(&unbounded)
        );
    }

    #[test]
    fn every_simd_tier_solves_to_the_same_bits() {
        // The dispatched path is compared with the reference solver;
        // this pins the tiers this CPU does not dispatch to.
        let data = linear_data(70, 0.05, 19);
        for kernel in [SvmKernel::Linear, SvmKernel::Rbf { gamma: 0.5 }] {
            let params = SvrParams {
                kernel,
                max_iter: 3_000,
                ..SvrParams::paper_speedup()
            };
            let run = |solve: &dyn Fn(&mut Solver) -> usize| {
                let mut solver = Solver::new(&data, &params);
                let iterations = solve(&mut solver);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                (iterations, bits(&solver.alpha), bits(&solver.grad))
            };
            let dispatched = run(&|s| s.solve());
            assert_eq!(run(&|s| s.solve_body()), dispatched);
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: reached only when the CPU reports AVX2.
                assert_eq!(run(&|s| unsafe { s.solve_avx2() }), dispatched);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        train_svr(&Dataset::new(), &SvrParams::paper_speedup());
    }

    /// A trained model of each kernel family, for plan pinning.
    fn trained_models() -> Vec<SvrModel> {
        let data = linear_data(60, 0.02, 17);
        vec![
            train_svr(&data, &SvrParams::paper_speedup()),
            train_svr(&data, &SvrParams::paper_energy()),
            train_svr(
                &data,
                &SvrParams {
                    kernel: SvmKernel::Polynomial {
                        gamma: 0.5,
                        coef0: 1.0,
                        degree: 2,
                    },
                    ..SvrParams::paper_speedup()
                },
            ),
        ]
    }

    #[test]
    fn scoring_plan_is_bit_identical_to_predict() {
        let mut rng = SmallRng::seed_from_u64(23);
        for model in trained_models() {
            let plan = model.scoring_plan();
            assert_eq!(plan.num_support_vectors(), model.num_support_vectors());
            for _ in 0..50 {
                let x: Vec<f64> = (0..plan.dims()).map(|_| rng.gen_range(-2.0..2.0)).collect();
                assert_eq!(
                    plan.score(&x).to_bits(),
                    model.predict(&x).to_bits(),
                    "plan must reproduce predict exactly"
                );
            }
        }
    }

    #[test]
    fn score_block_matches_scalar_sweep() {
        let mut rng = SmallRng::seed_from_u64(29);
        for model in trained_models() {
            let plan = model.scoring_plan();
            let rows: Vec<Vec<f64>> = (0..13)
                .map(|_| (0..plan.dims()).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let block: Vec<f64> = rows.iter().flatten().copied().collect();
            let mut out = Vec::new();
            plan.score_block_into(&block, &mut out);
            let scalar = model.predict_batch(&rows);
            assert_eq!(out.len(), rows.len());
            for (b, s) in out.iter().zip(&scalar) {
                assert_eq!(b.to_bits(), s.to_bits());
            }
        }
    }

    #[test]
    fn expanded_block_is_close_but_only_linear_is_exact() {
        let mut rng = SmallRng::seed_from_u64(31);
        for model in trained_models() {
            let plan = model.scoring_plan();
            let rows: Vec<Vec<f64>> = (0..9)
                .map(|_| (0..plan.dims()).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .collect();
            let block: Vec<f64> = rows.iter().flatten().copied().collect();
            let (mut direct, mut expanded) = (Vec::new(), Vec::new());
            plan.score_block_into(&block, &mut direct);
            plan.score_block_expanded_into(&block, &mut expanded);
            for (d, e) in direct.iter().zip(&expanded) {
                // Same values to ~1e-9 relative everywhere…
                assert!((d - e).abs() <= 1e-9 * d.abs().max(1.0), "{d} vs {e}");
            }
            if !matches!(model.kernel(), SvmKernel::Rbf { .. }) {
                // …and bit-exact for the non-RBF kernels, which share
                // the canonical sweep.
                for (d, e) in direct.iter().zip(&expanded) {
                    assert_eq!(d.to_bits(), e.to_bits());
                }
            }
        }
    }

    #[test]
    fn empty_model_plan_scores_bias() {
        let model = SvrModel::from_parts(SvmKernel::Linear, Vec::new(), Vec::new(), 1.25);
        let plan = model.scoring_plan();
        assert_eq!(plan.dims(), 0);
        assert_eq!(plan.score(&[]).to_bits(), 1.25f64.to_bits());
    }

    #[test]
    fn predict_batch_accepts_slices_and_owned_rows() {
        let data = linear_data(40, 0.0, 37);
        let model = train_svr(&data, &SvrParams::paper_speedup());
        let owned: Vec<Vec<f64>> = data.xs().to_vec();
        let borrowed: Vec<&[f64]> = owned.iter().map(Vec::as_slice).collect();
        assert_eq!(model.predict_batch(&owned), model.predict_batch(&borrowed));
    }
}
