//! WSS3 SMO written as plain sequential scans — two branchy passes over
//! all `2n` variables per working-set selection, and a `HashMap` row
//! cache evicting by a linear least-recently-used scan. It is the
//! reference the bit-identity properties compare [`super::Solver`]
//! against, and exists only in tests.

use super::{SvrModel, SvrParams, TAU};
use crate::dataset::Dataset;
use std::collections::HashMap;

/// [`super::train_svr`] driven by the reference solver.
pub(super) fn train_svr_reference(data: &Dataset, params: &SvrParams) -> SvrModel {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let n = data.len();
    let mut solver = Solver::new(data, params);
    let iterations = solver.solve();
    let bias = solver.bias();
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

/// SMO solver state over the extended `2n`-variable problem.
struct Solver<'a> {
    data: &'a Dataset,
    params: &'a SvrParams,
    n: usize,
    /// Extended labels: `+1` for the α block, `−1` for the α* block.
    y: Vec<f64>,
    /// Extended variables `(α, α*)`.
    alpha: Vec<f64>,
    /// Gradient of the dual objective.
    grad: Vec<f64>,
    /// Diagonal of the base kernel matrix.
    qd: Vec<f64>,
    cache: RowCache,
}

impl<'a> Solver<'a> {
    fn new(data: &'a Dataset, params: &'a SvrParams) -> Solver<'a> {
        let n = data.len();
        let mut y = vec![1.0; 2 * n];
        y[n..].fill(-1.0);
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
            y,
            alpha: vec![0.0; 2 * n],
            grad,
            qd,
            cache: RowCache::new(params.cache_rows),
        }
    }

    /// Base-kernel row for extended index `s` (row of `K(x_{s mod n}, ·)`).
    fn row(&mut self, s: usize) -> std::rc::Rc<Vec<f64>> {
        let i = s % self.n;
        let kernel = self.params.kernel;
        let xs = self.data.xs();
        self.cache.get(i, || {
            (0..xs.len()).map(|j| kernel.eval(&xs[i], &xs[j])).collect()
        })
    }

    fn in_up(&self, s: usize) -> bool {
        (self.y[s] > 0.0 && self.alpha[s] < self.params.c)
            || (self.y[s] < 0.0 && self.alpha[s] > 0.0)
    }

    fn in_low(&self, s: usize) -> bool {
        (self.y[s] > 0.0 && self.alpha[s] > 0.0)
            || (self.y[s] < 0.0 && self.alpha[s] < self.params.c)
    }

    /// Second-order working-set selection (libsvm WSS3). Returns
    /// `None` when the KKT gap is below tolerance.
    fn select_working_set(&mut self) -> Option<(usize, usize)> {
        let two_n = 2 * self.n;
        let mut g_max = f64::NEG_INFINITY;
        let mut i = usize::MAX;
        for s in 0..two_n {
            if self.in_up(s) {
                let v = -self.y[s] * self.grad[s];
                if v >= g_max {
                    g_max = v;
                    i = s;
                }
            }
        }
        if i == usize::MAX {
            return None;
        }
        let row_i = self.row(i);
        let i_base = i % self.n;
        let y_i = self.y[i];
        let qd_i = self.qd[i_base];
        let mut g_max2 = f64::NEG_INFINITY;
        let mut j = usize::MAX;
        let mut obj_min = f64::INFINITY;
        // Split the extended space into the α block (y_s = +1, s < n)
        // and the α* block (y_s = −1) so the inner loop needs no modulo.
        for s in 0..two_n {
            let (s_base, y_s) = if s < self.n {
                (s, 1.0)
            } else {
                (s - self.n, -1.0)
            };
            let in_low = if y_s > 0.0 {
                self.alpha[s] > 0.0
            } else {
                self.alpha[s] < self.params.c
            };
            debug_assert_eq!(in_low, self.in_low(s));
            if !in_low {
                continue;
            }
            let yg = y_s * self.grad[s];
            g_max2 = g_max2.max(yg);
            let grad_diff = g_max + yg;
            if grad_diff > 0.0 {
                // Q_i[s] = y_i y_s K(i, s); quad coefficient of the
                // two-variable subproblem.
                let quad = qd_i + self.qd[s_base] - 2.0 * y_i * y_s * row_i[s_base];
                let quad = if quad > 0.0 { quad } else { TAU };
                let obj = -(grad_diff * grad_diff) / quad;
                if obj <= obj_min {
                    obj_min = obj;
                    j = s;
                }
            }
        }
        if g_max + g_max2 < self.params.tol || j == usize::MAX {
            return None;
        }
        Some((i, j))
    }

    /// Run SMO to convergence; returns the iteration count.
    fn solve(&mut self) -> usize {
        let max_iter = if self.params.max_iter == 0 {
            // libsvm heuristic: at least 10M, or 100 iterations per
            // variable for very large problems.
            (100 * 2 * self.n).max(10_000_000)
        } else {
            self.params.max_iter
        };
        let c = self.params.c;
        let mut it = 0;
        while it < max_iter {
            let Some((i, j)) = self.select_working_set() else {
                break;
            };
            it += 1;
            let i_base = i % self.n;
            let j_base = j % self.n;
            let row_i = self.row(i);
            let row_j = self.row(j);
            let k_ij = row_i[j_base];
            let (old_ai, old_aj) = (self.alpha[i], self.alpha[j]);
            if self.y[i] != self.y[j] {
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
            // Q_st = y_s y_t K(s, t). The extended space splits into the
            // α block (y_t = +1) and the α* block (y_t = −1); writing
            // the two halves as separate tight loops avoids the
            // per-element modulo and lets the compiler vectorize.
            let d_i = self.alpha[i] - old_ai;
            let d_j = self.alpha[j] - old_aj;
            if d_i != 0.0 || d_j != 0.0 {
                let ci = self.y[i] * d_i;
                let cj = self.y[j] * d_j;
                let (lo, hi) = self.grad.split_at_mut(self.n);
                for t in 0..self.n {
                    let delta = row_i[t] * ci + row_j[t] * cj;
                    lo[t] += delta;
                    hi[t] -= delta;
                }
            }
        }
        it
    }

    /// Bias from the KKT conditions (libsvm `calculate_rho`, negated).
    fn bias(&self) -> f64 {
        let c = self.params.c;
        let mut ub = f64::INFINITY;
        let mut lb = f64::NEG_INFINITY;
        let mut sum_free = 0.0;
        let mut nr_free = 0usize;
        for s in 0..2 * self.n {
            let yg = self.y[s] * self.grad[s];
            if self.alpha[s] >= c {
                if self.y[s] < 0.0 {
                    ub = ub.min(yg);
                } else {
                    lb = lb.max(yg);
                }
            } else if self.alpha[s] <= 0.0 {
                if self.y[s] > 0.0 {
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

/// LRU cache of base-kernel rows.
struct RowCache {
    capacity: usize,
    stamp: u64,
    rows: HashMap<usize, (std::rc::Rc<Vec<f64>>, u64)>,
}

impl RowCache {
    fn new(capacity: usize) -> RowCache {
        RowCache {
            capacity: capacity.max(2),
            stamp: 0,
            rows: HashMap::new(),
        }
    }

    fn get<F: FnOnce() -> Vec<f64>>(&mut self, i: usize, compute: F) -> std::rc::Rc<Vec<f64>> {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some((row, s)) = self.rows.get_mut(&i) {
            *s = stamp;
            return row.clone();
        }
        if self.rows.len() >= self.capacity {
            if let Some((&oldest, _)) = self.rows.iter().min_by_key(|(_, (_, s))| *s) {
                self.rows.remove(&oldest);
            }
        }
        let row = std::rc::Rc::new(compute());
        self.rows.insert(i, (row.clone(), stamp));
        row
    }
}

/// Everything [`train_svr`](super::train_svr) decides, as raw bits:
/// iteration count, bias, `β` and each support vector. `PartialEq` on
/// `f64` would equate `0.0` and `-0.0`.
pub(super) fn model_bits(model: &SvrModel) -> (usize, u64, Vec<u64>, Vec<Vec<u64>>) {
    (
        model.iterations,
        model.bias.to_bits(),
        model.beta.iter().map(|b| b.to_bits()).collect(),
        model
            .support_x
            .iter()
            .map(|sv| sv.iter().map(|v| v.to_bits()).collect())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_fn::SvmKernel;
    use crate::svr::train_svr;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A random regression set. On a coarse grid, rows and targets
    /// repeat, so kernel rows, gradients and objective gains tie —
    /// exactly where a lane-parallel argmax could pick a different
    /// index than the sequential scan.
    fn random_data(rng: &mut SmallRng, n: usize, dims: usize, grid: bool) -> Dataset {
        let draw = |rng: &mut SmallRng, lo: f64, hi: f64| {
            let v = rng.gen_range(lo..hi);
            if grid {
                (v * 4.0).round() / 4.0
            } else {
                v
            }
        };
        let mut data = Dataset::new();
        for _ in 0..n {
            let x: Vec<f64> = (0..dims).map(|_| draw(rng, 0.0, 1.0)).collect();
            let y = x.iter().sum::<f64>() + draw(rng, -1.0, 1.0);
            data.push(x, y);
        }
        data
    }

    fn random_kernel(rng: &mut SmallRng, kind: u8) -> SvmKernel {
        match kind {
            0 => SvmKernel::Linear,
            1 => SvmKernel::Rbf {
                gamma: rng.gen_range(0.05..5.0),
            },
            _ => SvmKernel::Polynomial {
                gamma: rng.gen_range(0.1..2.0),
                coef0: rng.gen_range(0.0..1.5),
                degree: rng.gen_range(1..=3),
            },
        }
    }

    fn same_bits(fast: &SvrModel, reference: &SvrModel) -> Result<(), TestCaseError> {
        prop_assert_eq!(model_bits(fast), model_bits(reference));
        prop_assert_eq!(fast.kernel, reference.kernel);
        Ok(())
    }

    /// Regimes the property has exercised, checked after it ran.
    static CONVERGED: AtomicUsize = AtomicUsize::new(0);
    static CAPPED: AtomicUsize = AtomicUsize::new(0);
    static CACHE_BELOW_N: AtomicUsize = AtomicUsize::new(0);
    static CACHE_AT_LEAST_N: AtomicUsize = AtomicUsize::new(0);

    proptest! {
        // Miri interprets every iteration of both solvers; a handful of
        // cases there still checks the lane code for undefined behavior.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(miri) { 4 } else { proptest::case_count() }
        ))]
        fn solver_matches_reference(
            seed in 0u64..u64::MAX,
            shape in (1usize..72, 1usize..5, 0u8..2),
            kind in 0u8..3,
            log_c in -1.0f64..3.0,
            epsilon in 0.001f64..0.3,
            cut in 0.0f64..1.0,
            cache in 0u8..3,
        ) {
            let (n, dims, grid) = shape;
            let mut rng = SmallRng::seed_from_u64(seed);
            let data = random_data(&mut rng, n, dims, grid == 1);
            let cache_rows = match cache {
                0 => 2,
                1 => n / 2,
                _ => n + rng.gen_range(0usize..8),
            };
            let counter = if cache_rows < n { &CACHE_BELOW_N } else { &CACHE_AT_LEAST_N };
            // ordering: Relaxed — a coverage tally, read only after the run.
            counter.fetch_add(1, Ordering::Relaxed);
            let params = SvrParams {
                c: 10f64.powf(log_c),
                epsilon,
                kernel: random_kernel(&mut rng, kind),
                tol: 1e-3,
                max_iter: 20_000,
                cache_rows,
            };
            let reference = train_svr_reference(&data, &params);
            same_bits(&train_svr(&data, &params), &reference)?;
            let iterations = reference.iterations();
            if iterations < params.max_iter {
                // ordering: Relaxed — a coverage tally, read only after the run.
                CONVERGED.fetch_add(1, Ordering::Relaxed);
            }
            // Cut the same run short, so the cap is what stops it.
            if iterations > 1 {
                let capped = SvrParams {
                    max_iter: 1 + (cut * (iterations - 1) as f64) as usize,
                    ..params
                };
                let reference = train_svr_reference(&data, &capped);
                prop_assert_eq!(reference.iterations(), capped.max_iter);
                same_bits(&train_svr(&data, &capped), &reference)?;
                // ordering: Relaxed — a coverage tally, read only after the run.
                CAPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn solver_is_bit_identical_to_the_reference() {
        solver_matches_reference();
        if cfg!(miri) {
            return; // Too few cases to promise every regime.
        }
        for (regime, count) in [
            ("converged", &CONVERGED),
            ("capped", &CAPPED),
            ("cache below n", &CACHE_BELOW_N),
            ("cache at or above n", &CACHE_AT_LEAST_N),
        ] {
            // ordering: Relaxed — the cases ran on this thread, before this read.
            let cases = count.load(Ordering::Relaxed);
            assert!(cases > 0, "no case exercised the {regime} regime");
        }
    }

    #[test]
    fn served_shape_is_bit_identical_to_the_reference() {
        // The `--fast` heads' size and parameters (n = 180, C = 100),
        // at a cap short enough for the reference to run quickly.
        let mut rng = SmallRng::seed_from_u64(41);
        let data = random_data(&mut rng, 180, 9, false);
        for kernel in [SvmKernel::Linear, SvmKernel::Rbf { gamma: 0.1 }] {
            let params = SvrParams {
                c: 100.0,
                epsilon: 0.01,
                kernel,
                tol: 1e-3,
                max_iter: 2_000,
                cache_rows: 4240,
            };
            let fast = train_svr(&data, &params);
            let reference = train_svr_reference(&data, &params);
            assert_eq!(model_bits(&fast), model_bits(&reference));
        }
    }
}
