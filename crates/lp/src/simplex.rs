//! Bounded-variable primal revised simplex on a sparse LU basis, with a
//! dual-simplex phase 1 and dual warm re-solves.
//!
//! The basis is held as a sparse LU factorization with product-form (eta)
//! updates ([`crate::basis`], Gilbert–Peierls symbolic column solves): each
//! iteration performs one FTRAN (transformed entering column), one or two
//! BTRANs (the pivot row, plus `B⁻ᵀw` for the steepest-edge update), and an
//! `O(nnz)` eta append, with a **fill-aware refactorization** (the eta file is
//! folded back in when its accumulated non-zeros exceed a multiple of the
//! frozen factor size, not after a fixed pivot count).
//!
//! Pricing is **projected steepest edge** (Forrest & Goldfarb): reference
//! weights `γ_j ≈ 1 + ‖B⁻¹a_j‖²` start at 1 when a phase begins and are then
//! maintained *exactly* through every basis change, so the entering column
//! maximizes `d_j²/γ_j` — the best rate of objective change per unit of
//! *edge* length rather than per unit of the entering variable. Reduced costs
//! are maintained incrementally and recomputed at every refresh; optimality
//! is only ever declared after a scan over freshly recomputed reduced costs,
//! so correctness does not rest on the incremental updates. On numerical
//! trouble (a non-finite weight or step) the weights devex-reset to 1 and the
//! reduced costs are recomputed. [`PricingRule::Devex`] keeps the classic
//! devex update as a cross-check mode (the fuzz suite runs both and demands
//! agreement).
//!
//! The primal ratio test is **EXPAND-style** (Gill, Murray, Saunders &
//! Wright): a working feasibility tolerance grows by a tiny increment each
//! iteration, a Harris-style two-pass test picks the numerically largest
//! pivot among the rows blocking within the expanded tolerance, and every
//! pivot takes a strictly positive minimum step. Degenerate vertices therefore
//! cannot cycle and plateau traversal is fast; the accumulated bound drift is
//! bounded by the working tolerance and wiped at every periodic
//! refactorization (bound shifting with periodic reset). The minimum step is
//! the termination guarantee, so there is no Bland fallback any more — on the
//! big ALLTOALL LPs Bland's first-eligible pricing was the stall (1.45M of
//! 1.5M iterations before it was removed).
//!
//! Cold solves run a **dual-simplex phase 1 with cost shifting**: every row's
//! slack starts basic at the row residual (`B = I`, trivially factorizable,
//! artificials pinned at zero), `dual::make_dual_feasible` flips or
//! cost-shifts the wrong-signed reduced costs, and the dual simplex walks the
//! out-of-bounds slacks back inside their bounds — reaching a primal-feasible,
//! shifted-dual-optimal vertex that the true-cost phase 2 then certifies.
//! Compared to the artificial-variable primal phase 1 this starts from the
//! feasibility problem's *own* geometry instead of an artificial objective and
//! typically lands next to the optimum. The artificial primal phase 1 is kept
//! as a fallback for numerical failures, and dual unboundedness (a
//! cost-independent Farkas certificate) reports primal infeasibility directly.
//! Warm starts ([`solve_standard_form`] with a basis) rebuild the caller's
//! basis and re-optimize with the same dual machinery — the hot path for
//! branch-and-bound children.

use crate::basis::{LuFactors, SimplexBasis, VarStatus};
use crate::dual::{self, DualOutcome};
use crate::error::LpError;
use crate::solution::{Solution, SolveStats, SolveStatus};
use crate::sparse::SparseVec;
use crate::standard::StandardForm;
use teccl_util::budget::{BudgetExceeded, ChargeBatcher, SolveBudget};

/// Outcome of a single simplex phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PhaseOutcome {
    Optimal,
    Unbounded,
}

/// Reduced-cost tolerance.
pub(crate) const DTOL: f64 = 1e-9;
/// Ratio-test pivot tolerance.
pub(crate) const PIV_TOL: f64 = 1e-9;
/// Bound-feasibility tolerance.
pub(crate) const FEAS_TOL: f64 = 1e-9;
/// Iterations between basic-value / objective refreshes.
pub(crate) const REFRESH_INTERVAL: usize = 256;

/// Entering-column pricing rule for the primal phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricingRule {
    /// Projected steepest edge (Forrest–Goldfarb): reference weights start at
    /// 1 per phase and are maintained exactly through basis changes. The
    /// default; measurably fewer pivots on the degenerate ALLTOALL LPs.
    #[default]
    SteepestEdge,
    /// Classic devex reference weights (the pre-steepest-edge rule), kept as
    /// an independent cross-check for the fuzz agreement suite.
    Devex,
}

/// Tuning knobs for [`solve_standard_form`]. [`Default`] is what every
/// production caller uses; tests and benches override individual fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplexOptions {
    /// Entering-column pricing rule.
    pub pricing: PricingRule,
    /// Minimum row count before the anti-degeneracy perturbed phase-2
    /// pre-pass engages on cold solves. Small LPs never stall on degeneracy,
    /// so perturbing them would only add a second (pointless) pass;
    /// `usize::MAX` disables the pre-pass entirely.
    pub perturb_min_rows: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            pricing: PricingRule::SteepestEdge,
            perturb_min_rows: 64,
        }
    }
}
/// EXPAND: per-iteration growth of the working feasibility tolerance, and the
/// scale of the guaranteed minimum step. The tolerance is reset at every
/// refresh, so the accumulated drift stays below
/// `FEAS_TOL + REFRESH_INTERVAL * EXPAND_DELTA` (≈ 2.7e-8), well inside the
/// 1e-6/1e-7 tolerances the rest of the solver uses.
const EXPAND_DELTA: f64 = 1e-10;

/// Internal simplex working state over a standard form plus `m` artificials.
///
/// Columns `0..n` are the standard form's structural + slack columns (accessed
/// by reference — the matrix is never copied per solve); columns `n..n+m` are
/// the artificials, represented implicitly as `art_sign[row] * e_row`.
pub(crate) struct SimplexState<'a> {
    pub(crate) sf: &'a StandardForm,
    pub(crate) n: usize,
    pub(crate) m: usize,
    pub(crate) art_sign: Vec<f64>,
    pub(crate) b: Vec<f64>,
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    pub(crate) x: Vec<f64>,
    pub(crate) status: Vec<VarStatus>,
    pub(crate) basis: Vec<usize>,
    pub(crate) lu: LuFactors,
    pub(crate) iterations: usize,
    pub(crate) dual_iterations: usize,
    pub(crate) factorizations: usize,
    /// Pricing reference weights, one per column (steepest-edge `γ_j` or
    /// devex weights depending on the active [`PricingRule`]).
    weights: Vec<f64>,
    /// Row-major copy of `sf.a` — for each row, the `(column, value)` pairs
    /// over the structural + slack columns (artificials stay implicit). Built
    /// lazily at the first primal pivot: the per-pivot reduced-cost/weight
    /// update accumulates the pivot row `α = ρᵀA` over the non-zeros of `ρ`
    /// in O(touched entries) instead of dotting `ρ` against every column —
    /// the difference between O(nnz(pivot rows)) and O(ncols · nnz/col) per
    /// iteration, which dominates wall clock on the big ALLTOALL forms.
    /// Pivot-free solves (warm re-certifications) never pay the build.
    rows_a: Option<Vec<Vec<(u32, f64)>>>,
}

/// Solves a [`StandardForm`] and reports the first `num_model_vars`
/// structural values back — the one simplex entry point.
///
/// * `overrides` — `(column, lb, ub)` triples replacing the form's bounds
///   (columns are standard-form indices; branch-and-bound uses structural
///   columns only). The matrix and objective are shared, so branch-and-bound
///   never rebuilds the form.
/// * `warm` — a basis returned in [`Solution::basis`] by an earlier solve of
///   the *same* form. The solve then skips phase 1: the basis is
///   refactorized and the **dual simplex** re-optimizes it under the new
///   bounds (boxed columns with wrong-signed reduced costs are flipped, the
///   rest cost-shifted, then dual pivots restore primal feasibility), and a
///   true-cost primal pass certifies. If the basis is stale (wrong shape) or
///   numerically unusable, the solver falls back to a cold start — the
///   result is always correct. `None` starts cold.
/// * `budget` — a cooperative [`SolveBudget`] checked once per pivot. When
///   it trips mid-phase-2 the solver extracts the current primal-feasible
///   vertex as a `Feasible` solution with [`SolveStats::budget_stop`] set; a
///   budget stop before primal feasibility exists (phase 1, warm dual
///   re-solve) returns [`LpError::Budget`].
/// * `opts` — tuning knobs; production callers pass the default.
pub fn solve_standard_form(
    sf: &StandardForm,
    num_model_vars: usize,
    overrides: &[(usize, f64, f64)],
    warm: Option<&SimplexBasis>,
    budget: Option<&SolveBudget>,
    opts: &SimplexOptions,
) -> Result<Solution, LpError> {
    let m = sf.num_rows();
    let n = sf.num_cols();

    let mut lb = sf.lb.clone();
    let mut ub = sf.ub.clone();
    for &(j, lo, hi) in overrides {
        lb[j] = lo;
        ub[j] = hi;
        if lo > hi + FEAS_TOL {
            return Ok(infeasible(num_model_vars, 0));
        }
    }

    // Trivial case: no constraints. Each variable independently moves to the
    // bound that minimizes its cost.
    if m == 0 {
        return Ok(solve_unconstrained(sf, &lb, &ub, num_model_vars));
    }

    let mut wasted = WarmFallback::default();
    if let Some(wb) = warm {
        if wb.basic.len() == m && wb.status.len() == n {
            match try_warm_solve(sf, &lb, &ub, wb, num_model_vars, budget, opts) {
                Ok(sol) => return Ok(sol),
                // A budget stop inside the warm attempt must not silently
                // escalate into a (more expensive) cold start.
                Err(fb) => {
                    if let Some(e) = fb.hard {
                        return Err(e);
                    }
                    // Fall through to a cold start, but keep the work the
                    // failed warm attempt burned so the counters stay honest.
                    wasted = fb;
                }
            }
        }
    }
    let mut sol = cold_solve(sf, &lb, &ub, num_model_vars, budget, opts)?;
    sol.stats.simplex_iterations += wasted.iterations;
    sol.stats.dual_iterations += wasted.dual_iterations;
    sol.stats.factorizations += wasted.factorizations;
    Ok(sol)
}

/// Work performed by a warm-start attempt that had to be abandoned
/// (stale/singular basis or a numerical failure mid-re-solve). A `hard`
/// error (budget exhaustion) aborts the solve instead of going cold.
#[derive(Debug, Default)]
struct WarmFallback {
    iterations: usize,
    dual_iterations: usize,
    factorizations: usize,
    hard: Option<LpError>,
}

fn infeasible(num_model_vars: usize, iterations: usize) -> Solution {
    Solution {
        status: SolveStatus::Infeasible,
        objective: f64::NAN,
        values: vec![0.0; num_model_vars],
        duals: Vec::new(),
        stats: SolveStats {
            simplex_iterations: iterations,
            ..Default::default()
        },
        basis: None,
    }
}

// ---------------------------------------------------------------------------
// Cold path
// ---------------------------------------------------------------------------

fn cold_solve(
    sf: &StandardForm,
    lb: &[f64],
    ub: &[f64],
    num_model_vars: usize,
    budget: Option<&SolveBudget>,
    opts: &SimplexOptions,
) -> Result<Solution, LpError> {
    let m = sf.num_rows();
    let n = sf.num_cols();
    let max_iters = 200 * (m + n) + 20_000;

    // ---- Dual phase 1 from the forced slack basis. ----
    //
    // Every row's slack starts basic at the row residual, so B = I (always
    // factorizable) and the only infeasibilities are slacks outside their
    // bounds. `make_dual_feasible` absorbs wrong-signed reduced costs by
    // flipping boxed columns / shifting the rest, and the dual simplex then
    // repairs primal feasibility against the *true* (shifted) objective — so
    // it exits next to the real optimum instead of wherever the artificial
    // phase-1 objective happened to land. Dual unboundedness is a
    // cost-independent Farkas certificate of primal infeasibility. Any other
    // failure falls back to the artificial primal phase 1 below, carrying the
    // burned work so the counters stay honest.
    let mut burned = WarmFallback::default();
    match dual_phase1(sf, lb, ub, num_model_vars, budget, opts, max_iters) {
        Ok(Some(sol)) => return Ok(sol),
        Ok(None) => {}
        Err(fb) => {
            if let Some(e) = fb.hard {
                return Err(e);
            }
            burned = fb;
        }
    }

    // ---- Fallback: artificial primal phase 1, then phase 2. ----
    let mut state = build_initial_state(sf, lb, ub, false)?;
    state.iterations += burned.iterations;
    state.dual_iterations += burned.dual_iterations;
    state.factorizations += burned.factorizations;

    // A budget stop here propagates as an error: no primal-feasible point
    // exists yet, so there is no incumbent to hand back.
    let mut phase1_cost = vec![0.0; n + m];
    phase1_cost[n..].fill(1.0);
    let outcome = run_phase(&mut state, &phase1_cost, max_iters, budget, opts.pricing)?;
    // Phase 1 objective is bounded below by zero, so "unbounded" here is a
    // numerical failure.
    if outcome == PhaseOutcome::Unbounded {
        return Err(LpError::Numerical("phase 1 reported unbounded".into()));
    }
    let infeas: f64 = (n..n + m).map(|j| state.x[j].abs()).sum();
    if infeas > 1e-6 {
        let mut sol = infeasible(num_model_vars, state.iterations);
        sol.stats.factorizations = state.factorizations;
        sol.stats.cold_starts = 1;
        return Ok(sol);
    }
    // Fix artificials at zero so they cannot re-enter with a non-zero value.
    for j in n..n + m {
        state.lb[j] = 0.0;
        state.ub[j] = 0.0;
        if state.status[j] != VarStatus::Basic {
            state.x[j] = 0.0;
            state.status[j] = VarStatus::AtLower;
        }
    }

    let mut sol = finish_phase2(&mut state, max_iters, num_model_vars, true, budget, opts)?;
    sol.stats.cold_starts = 1;
    Ok(sol)
}

/// The dual-simplex cold phase 1. `Ok(Some(sol))` is a finished solve
/// (optimal, budget-stopped feasible, or proven infeasible), `Ok(None)` /
/// `Err` without a hard error sends the caller to the artificial primal
/// phase 1 (`Err` carries the work burned here), and a hard error (budget
/// exhaustion mid-dual) aborts the solve.
fn dual_phase1(
    sf: &StandardForm,
    lb: &[f64],
    ub: &[f64],
    num_model_vars: usize,
    budget: Option<&SolveBudget>,
    opts: &SimplexOptions,
    max_iters: usize,
) -> Result<Option<Solution>, WarmFallback> {
    let n = sf.num_cols();
    let m = sf.num_rows();
    let mut state = match build_initial_state(sf, lb, ub, true) {
        Ok(s) => s,
        Err(_) => return Err(WarmFallback::default()),
    };
    let fallback = |state: &SimplexState| WarmFallback {
        iterations: state.iterations,
        dual_iterations: state.dual_iterations,
        factorizations: state.factorizations,
        hard: None,
    };
    let mut cost = vec![0.0; n + m];
    cost[..n].copy_from_slice(&sf.c);
    let d = match dual::make_dual_feasible(&mut state, &mut cost) {
        Ok(d) => d,
        Err(_) => return Err(fallback(&state)),
    };
    // The dual simplex excels at *repairing* primal feasibility — few rows
    // out of bounds, each fixed in a handful of pivots. When the flips above
    // push a large fraction of the rows out of bounds at once (the shape of
    // every big ALLTOALL LP form: masses of boxed columns whose costs all
    // pull the same way), the dual walk is so degenerate it can stall for
    // hundreds of thousands of iterations while the primal fallback finishes
    // in thousands. Gate on the infeasibility count, and cap the pivots the
    // dual may burn before conceding, so the detour stays O(m) either way.
    let infeasible_rows = (0..m)
        .filter(|&r| {
            let bvar = state.basis[r];
            state.x[bvar] < state.lb[bvar] - dual::PRIMAL_FEAS_TOL
                || state.x[bvar] > state.ub[bvar] + dual::PRIMAL_FEAS_TOL
        })
        .count();
    if infeasible_rows * 4 > m {
        return Err(fallback(&state));
    }
    let dual_cap = (4 * m + 1_000).min(max_iters);
    let dual_res = dual::dual_simplex(&mut state, &cost, d, dual_cap, budget);
    if std::env::var_os("TECCL_LP_TRACE").is_some() {
        eprintln!(
            "[lp-trace] dual phase1: infeas_rows={infeasible_rows}/{m} iters={} dual={} err={}",
            state.iterations,
            state.dual_iterations,
            dual_res.is_err()
        );
    }
    match dual_res {
        Ok(DualOutcome::Optimal) => {}
        Ok(DualOutcome::Infeasible) => {
            let mut sol = infeasible(num_model_vars, state.iterations);
            sol.stats.dual_iterations = state.dual_iterations;
            sol.stats.factorizations = state.factorizations;
            sol.stats.cold_starts = 1;
            return Ok(Some(sol));
        }
        // A budget stop mid-dual has no primal-feasible point to hand back,
        // and restarting with artificials would only burn more of an
        // exhausted budget — abort the solve.
        Err(e @ LpError::Budget(_)) => {
            let mut fb = fallback(&state);
            fb.hard = Some(e);
            return Err(fb);
        }
        Err(_) => return Err(fallback(&state)),
    }
    match finish_phase2(&mut state, max_iters, num_model_vars, true, budget, opts) {
        Ok(mut sol) => {
            sol.stats.cold_starts = 1;
            Ok(Some(sol))
        }
        Err(LpError::Budget(e)) => {
            let mut fb = fallback(&state);
            fb.hard = Some(LpError::Budget(e));
            Err(fb)
        }
        Err(_) => Err(fallback(&state)),
    }
}

/// Builds the initial cold-start state: non-basic structural columns at a
/// finite bound (or 0 if free) and a **crash slack basis** — each row whose
/// residual fits inside its slack's bounds starts with the slack basic (no
/// phase-1 work at all for that row); only rows the slack cannot absorb get a
/// basic artificial. Freed rows (presolve relaxes their slack to
/// `(-inf, +inf)`) therefore never contribute phase-1 infeasibility.
///
/// With `force_slack` set, *every* row's slack starts basic at the residual —
/// even outside its own bounds — and every artificial is pinned at zero. The
/// basis is then exactly the identity (always factorizable) and the
/// out-of-bounds slacks are the primal infeasibilities the dual phase 1
/// repairs.
fn build_initial_state<'a>(
    sf: &'a StandardForm,
    lb_in: &[f64],
    ub_in: &[f64],
    force_slack: bool,
) -> Result<SimplexState<'a>, LpError> {
    let m = sf.num_rows();
    let n = sf.num_cols();

    let mut lb = lb_in.to_vec();
    let mut ub = ub_in.to_vec();
    let mut x = vec![0.0; n + m];
    let mut status = vec![VarStatus::AtLower; n + m];

    for j in 0..n {
        if lb[j].is_finite() {
            x[j] = lb[j];
            status[j] = VarStatus::AtLower;
        } else if ub[j].is_finite() {
            x[j] = ub[j];
            status[j] = VarStatus::AtUpper;
        } else {
            x[j] = 0.0;
            status[j] = VarStatus::Free;
        }
    }

    // Residual each row's basic column must absorb. Slack columns sit at 0 in
    // `x` here; a slack chosen as the crash basic column is moved off its
    // bound to the residual below, which keeps `A x = b` exact.
    let ax = sf.a.mul_dense(&x[..n]);
    let mut art_sign = vec![1.0; m];
    let mut basis = Vec::with_capacity(m);
    for i in 0..m {
        let r = sf.b[i] - ax[i];
        let slack = sf.num_structural + i;
        let j = n + i;
        // The slack column is exactly `e_i`, so putting it basic with value
        // `x[slack] + r` keeps the start point consistent; admissible when
        // that value respects the slack's bounds. (The slack of a `<=` row
        // absorbs any r >= 0, a freed row's slack absorbs anything.)
        let crash = x[slack] + r;
        if force_slack || (crash >= lb[slack] - FEAS_TOL && crash <= ub[slack] + FEAS_TOL) {
            x[slack] = crash;
            status[slack] = VarStatus::Basic;
            basis.push(slack);
            // The artificial is never needed: pin it at zero, non-basic.
            lb.push(0.0);
            ub.push(0.0);
            x[j] = 0.0;
            status[j] = VarStatus::AtLower;
        } else {
            art_sign[i] = if r >= 0.0 { 1.0 } else { -1.0 };
            lb.push(0.0);
            ub.push(f64::INFINITY);
            x[j] = r.abs();
            status[j] = VarStatus::Basic;
            basis.push(j);
        }
    }

    let mut state = SimplexState {
        sf,
        n,
        m,
        art_sign,
        b: sf.b.clone(),
        lb,
        ub,
        x,
        status,
        basis,
        lu: LuFactors::factorize(0, &[])?,
        iterations: 0,
        dual_iterations: 0,
        factorizations: 0,
        weights: vec![1.0; n + m],
        rows_a: None,
    };
    state.refactorize()?;
    Ok(state)
}

// ---------------------------------------------------------------------------
// Warm path
// ---------------------------------------------------------------------------

fn try_warm_solve(
    sf: &StandardForm,
    lb_in: &[f64],
    ub_in: &[f64],
    warm: &SimplexBasis,
    num_model_vars: usize,
    budget: Option<&SolveBudget>,
    opts: &SimplexOptions,
) -> Result<Solution, WarmFallback> {
    let m = sf.num_rows();
    let n = sf.num_cols();
    let max_iters = 200 * (m + n) + 20_000;

    // Validate the warm basis: m distinct columns in range.
    let mut seen = vec![false; n + m];
    for &j in &warm.basic {
        if j >= n + m || seen[j] {
            return Err(WarmFallback::default()); // stale basis, no work done
        }
        seen[j] = true;
    }

    let mut lb = lb_in.to_vec();
    let mut ub = ub_in.to_vec();
    // Artificial columns: reconstructed with sign +1 and pinned to zero (they
    // only linger in degenerate bases; pinning keeps them out of pricing).
    lb.extend(std::iter::repeat_n(0.0, m));
    ub.extend(std::iter::repeat_n(0.0, m));

    let mut x = vec![0.0; n + m];
    let mut status = vec![VarStatus::AtLower; n + m];
    for (st, &ws) in status.iter_mut().zip(warm.status.iter()) {
        *st = match ws {
            VarStatus::Basic => VarStatus::AtLower, // fixed up from `basic` below
            s => s,
        };
    }
    for &j in &warm.basic {
        status[j] = VarStatus::Basic;
    }
    // Place non-basic columns on a bound consistent with the (possibly
    // changed) bounds.
    for j in 0..n + m {
        if status[j] == VarStatus::Basic {
            continue;
        }
        let (lo, hi) = (lb[j], ub[j]);
        let s = match status[j] {
            VarStatus::AtLower if lo.is_finite() => VarStatus::AtLower,
            VarStatus::AtUpper if hi.is_finite() => VarStatus::AtUpper,
            _ if lo.is_finite() => VarStatus::AtLower,
            _ if hi.is_finite() => VarStatus::AtUpper,
            _ => VarStatus::Free,
        };
        status[j] = s;
        x[j] = match s {
            VarStatus::AtLower => lo,
            VarStatus::AtUpper => hi,
            _ => 0.0,
        };
    }

    let empty_lu = LuFactors::factorize(0, &[]).map_err(|_| WarmFallback::default())?;
    let mut state = SimplexState {
        sf,
        n,
        m,
        art_sign: vec![1.0; m],
        b: sf.b.clone(),
        lb,
        ub,
        x,
        status,
        basis: warm.basic.clone(),
        lu: empty_lu,
        iterations: 0,
        dual_iterations: 0,
        factorizations: 0,
        weights: vec![1.0; n + m],
        rows_a: None,
    };
    let fallback = |state: &SimplexState| WarmFallback {
        iterations: state.iterations,
        dual_iterations: state.dual_iterations,
        factorizations: state.factorizations,
        hard: None,
    };
    if state.refactorize().is_err() {
        // Singular warm basis -> caller goes cold.
        return Err(fallback(&state));
    }
    state.recompute_basic_values();

    // ---- Dual re-optimization (replaces phase 1 / primal repair). ----
    //
    // A parent-optimal basis stays *dual* feasible when only bounds changed,
    // so the dual simplex drives the (few) out-of-bound basic variables back
    // inside their bounds while keeping reduced costs correctly signed. Costs
    // that did change (cross-round warm starts) are absorbed by bound-flipping
    // boxed columns and temporarily shifting the rest; the final primal pass
    // below re-certifies against the true objective either way.
    // Fast path: if no basic variable violates its (new) bounds beyond the
    // tolerance the dual itself enforces, the basis is already primal
    // feasible — the true-cost primal pass below re-certifies (or finishes)
    // directly, with no dual pricing scan at all. This is the common B&B
    // case of tightening a bound the optimum was not sitting on.
    let primal_feasible = state.basis.iter().all(|&j| {
        state.x[j] >= state.lb[j] - dual::PRIMAL_FEAS_TOL
            && state.x[j] <= state.ub[j] + dual::PRIMAL_FEAS_TOL
    });
    if !primal_feasible {
        let mut cost = vec![0.0; n + m];
        cost[..n].copy_from_slice(&sf.c);
        let d = match dual::make_dual_feasible(&mut state, &mut cost) {
            Ok(d) => d,
            Err(_) => return Err(fallback(&state)),
        };
        match dual::dual_simplex(&mut state, &cost, d, max_iters, budget) {
            Ok(DualOutcome::Optimal) => {}
            Ok(DualOutcome::Infeasible) => {
                let mut sol = infeasible(num_model_vars, state.iterations);
                sol.stats.factorizations = state.factorizations;
                sol.stats.dual_iterations = state.dual_iterations;
                sol.stats.warm_starts = 1;
                return Ok(sol);
            }
            // A budget stop mid-dual has no primal-feasible point to hand
            // back, and a cold restart would only burn more of an exhausted
            // budget — abort the solve instead of falling back.
            Err(e @ LpError::Budget(_)) => {
                let mut fb = fallback(&state);
                fb.hard = Some(e);
                return Err(fb);
            }
            Err(_) => return Err(fallback(&state)),
        }
    }

    // Certify with the true costs (the dual may have run against shifted
    // costs; the basis it leaves behind is primal feasible, so phase 2 needs
    // no perturbation pre-pass and typically terminates in one pricing scan).
    match finish_phase2(&mut state, max_iters, num_model_vars, false, budget, opts) {
        Ok(mut sol) => {
            sol.stats.warm_starts = 1;
            Ok(sol)
        }
        Err(_) => Err(fallback(&state)),
    }
}

// ---------------------------------------------------------------------------
// Shared machinery
// ---------------------------------------------------------------------------

/// Runs phase 2 on a primal-feasible state and extracts the solution.
///
/// `perturb` enables the anti-degeneracy perturbed pre-pass on large LPs;
/// warm re-solves arriving from the dual simplex pass `false` (they are
/// already at or next to the optimum, so tie-breaking would only cost time).
fn finish_phase2(
    state: &mut SimplexState,
    max_iters: usize,
    num_model_vars: usize,
    perturb: bool,
    budget: Option<&SolveBudget>,
    opts: &SimplexOptions,
) -> Result<Solution, LpError> {
    let sf = state.sf;
    let n = state.n;
    let m = state.m;
    let mut iteration_limit_hit = false;
    let mut budget_stop: Option<BudgetExceeded> = None;
    let mut phase2_cost = vec![0.0; n + m];
    phase2_cost[..n].copy_from_slice(&sf.c);
    // Large TE-CCL objectives are near-degenerate (masses of alternate
    // optima), which stalls pricing for thousands of iterations. A first pass
    // against deterministically perturbed costs breaks those ties; the pass
    // with the true costs then certifies optimality, so correctness never
    // rests on the perturbation. (Phase 1 is left unperturbed: its artificial
    // objective is what drives feasibility.)
    if perturb && m > opts.perturb_min_rows {
        let mut pcost = phase2_cost.clone();
        for (j, c) in pcost.iter_mut().enumerate().take(n) {
            let h = (j as u64).wrapping_mul(0x9e3779b97f4a7c15);
            let r = 1.0 + (h >> 40) as f64 / (1u64 << 24) as f64;
            *c += 1e-7 * r * (1.0 + c.abs());
        }
        // The pre-pass is purely an accelerator: a perturbed "unbounded" ray
        // may not be profitable under the real costs, and even an iteration
        // limit here just means the true-cost pass starts from wherever the
        // perturbed walk got to (still primal feasible). An exhausted budget
        // is still recorded so callers can flag the row as uncertified.
        match run_phase(state, &pcost, max_iters, budget, opts.pricing) {
            Ok(_) => {}
            Err(LpError::IterationLimit(_)) => iteration_limit_hit = true,
            Err(LpError::Budget(cause)) => budget_stop = Some(cause),
            Err(e) => return Err(e),
        }
    }
    // Phase 2 preserves primal feasibility, so a budget stop anywhere past
    // this point still has a feasible vertex to hand back: skip (or abandon)
    // the true-cost pass and extract the incumbent as `Feasible`. The
    // skipped certify pass still charges the budget for the extraction work
    // below (refactorize + recompute), so an exhausted-budget walk cannot
    // exit the solver without its cleanup being accounted for.
    let outcome = if budget_stop.is_some() {
        if let Some(b) = budget {
            let _ = b.charge(1);
        }
        PhaseOutcome::Optimal
    } else {
        match run_phase(state, &phase2_cost, max_iters, budget, opts.pricing) {
            Ok(o) => o,
            Err(LpError::Budget(cause)) => {
                budget_stop = Some(cause);
                PhaseOutcome::Optimal
            }
            Err(e) => return Err(e),
        }
    };
    // Restore an exactly consistent vertex: the EXPAND ratio test lets basic
    // values drift within the working tolerance; recomputing them from the
    // (exactly on-bound) non-basic values wipes that drift before extraction.
    // A non-empty eta file is the witness that pivots happened since the last
    // refactorization — pivot-free solves (warm re-certifications) skip the
    // extra factorization entirely.
    if state.lu.eta_count() > 0 {
        state.refactorize()?;
        state.recompute_basic_values();
    }
    let stats = SolveStats {
        simplex_iterations: state.iterations,
        dual_iterations: state.dual_iterations,
        factorizations: state.factorizations,
        iteration_limit_hit,
        budget_stop,
        ..Default::default()
    };
    if outcome == PhaseOutcome::Unbounded {
        return Ok(Solution {
            status: SolveStatus::Unbounded,
            objective: f64::NAN,
            values: vec![0.0; num_model_vars],
            duals: Vec::new(),
            stats,
            basis: None,
        });
    }

    // Extract the solution.
    let min_obj: f64 = (0..n).map(|j| sf.c[j] * state.x[j]).sum();
    let objective = sf.original_objective(min_obj);
    let values: Vec<f64> = (0..num_model_vars)
        .map(|j| clamp_bound_noise(state.x[j], state.lb[j], state.ub[j]))
        .collect();

    // Dual values: y = c_B * B^{-1}, reported in the original sense.
    let mut y: Vec<f64> = state.basis.iter().map(|&j| phase2_cost[j]).collect();
    state.lu.btran(&mut y);
    let duals: Vec<f64> = y.iter().map(|v| sf.obj_sign * v).collect();

    let basis = SimplexBasis {
        basic: state.basis.clone(),
        status: state.status[..n].to_vec(),
    };

    // A budget-stopped extraction is a feasible vertex, not a certified
    // optimum: report `Feasible` and claim no dual bound.
    let (status, best_bound) = if budget_stop.is_some() {
        (SolveStatus::Feasible, f64::NAN)
    } else {
        (SolveStatus::Optimal, objective)
    };
    Ok(Solution {
        status,
        objective,
        values,
        duals,
        stats: SolveStats {
            best_bound,
            ..stats
        },
        basis: Some(basis),
    })
}

/// Rounds values that drifted a hair outside their bounds back onto the bound.
fn clamp_bound_noise(x: f64, lb: f64, ub: f64) -> f64 {
    if x < lb {
        lb
    } else if x > ub {
        ub
    } else if (x - lb).abs() < 1e-11 {
        lb
    } else if ub.is_finite() && (x - ub).abs() < 1e-11 {
        ub
    } else {
        x
    }
}

/// Solves the degenerate "no constraints" case.
fn solve_unconstrained(
    sf: &StandardForm,
    lb: &[f64],
    ub: &[f64],
    num_model_vars: usize,
) -> Solution {
    let n = sf.num_cols();
    let mut values = vec![0.0; n];
    for j in 0..n {
        let c = sf.c[j];
        if c > 0.0 {
            if lb[j].is_finite() {
                values[j] = lb[j];
            } else {
                return unbounded_solution(num_model_vars);
            }
        } else if c < 0.0 {
            if ub[j].is_finite() {
                values[j] = ub[j];
            } else {
                return unbounded_solution(num_model_vars);
            }
        } else {
            values[j] = if lb[j].is_finite() {
                lb[j]
            } else if ub[j].is_finite() {
                ub[j]
            } else {
                0.0
            };
        }
    }
    let min_obj: f64 = (0..n).map(|j| sf.c[j] * values[j]).sum();
    Solution {
        status: SolveStatus::Optimal,
        objective: sf.original_objective(min_obj),
        values: values[..num_model_vars].to_vec(),
        duals: Vec::new(),
        stats: Default::default(),
        basis: None,
    }
}

fn unbounded_solution(num_model_vars: usize) -> Solution {
    Solution {
        status: SolveStatus::Unbounded,
        objective: f64::NAN,
        values: vec![0.0; num_model_vars],
        duals: Vec::new(),
        stats: Default::default(),
        basis: None,
    }
}

impl<'a> SimplexState<'a> {
    /// Reduced-cost helper: `cost[j] - y · A_j` without materializing columns.
    pub(crate) fn price_col(&self, j: usize, cost_j: f64, y: &[f64]) -> f64 {
        if j < self.n {
            cost_j - self.sf.a.col(j).dot_dense(y)
        } else {
            cost_j - y[j - self.n] * self.art_sign[j - self.n]
        }
    }

    /// `w = B⁻¹ A_j` for any column (structural, slack, or artificial),
    /// written into the caller's reusable buffer.
    pub(crate) fn ftran_col_into(&mut self, j: usize, w: &mut Vec<f64>) {
        w.clear();
        w.resize(self.m, 0.0);
        if j < self.n {
            for (i, v) in self.sf.a.col(j).iter() {
                w[i] += v;
            }
        } else {
            w[j - self.n] += self.art_sign[j - self.n];
        }
        self.lu.ftran(w);
    }

    /// Builds the row-major copy of the constraint matrix on first use (see
    /// the field docs on [`SimplexState::rows_a`]).
    pub(crate) fn ensure_row_major(&mut self) {
        if self.rows_a.is_some() {
            return;
        }
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); self.m];
        for (j, col) in self.sf.a.cols.iter().enumerate() {
            for (i, v) in col.iter() {
                rows[i].push((j as u32, v));
            }
        }
        self.rows_a = Some(rows);
    }

    /// `rho · A_j` — one entry of a tableau row, given `rho = B⁻ᵀ e_r`.
    pub(crate) fn row_dot_col(&self, j: usize, rho: &[f64]) -> f64 {
        if j < self.n {
            self.sf.a.col(j).dot_dense(rho)
        } else {
            rho[j - self.n] * self.art_sign[j - self.n]
        }
    }

    /// `(rho · A_j, tau · A_j)` in one traversal of the column's entries —
    /// the steepest-edge pivot update needs both, and loading each index
    /// pair once instead of twice matters on the big dense-ρ pivots.
    pub(crate) fn row_dot_col2(&self, j: usize, rho: &[f64], tau: &[f64]) -> (f64, f64) {
        if j < self.n {
            let mut a = 0.0;
            let mut g = 0.0;
            for (i, v) in self.sf.a.cols[j].iter() {
                a += rho[i] * v;
                g += tau[i] * v;
            }
            (a, g)
        } else {
            let i = j - self.n;
            (rho[i] * self.art_sign[i], tau[i] * self.art_sign[i])
        }
    }

    /// A materialized basis column (used only when refactorizing).
    fn basis_col(&self, j: usize) -> SparseVec {
        if j < self.n {
            self.sf.a.col(j).clone()
        } else {
            SparseVec::from_pairs(&[(j - self.n, self.art_sign[j - self.n])])
        }
    }

    pub(crate) fn refactorize(&mut self) -> Result<(), LpError> {
        let cols: Vec<SparseVec> = self.basis.iter().map(|&j| self.basis_col(j)).collect();
        self.lu = LuFactors::factorize(self.m, &cols)?;
        self.factorizations += 1;
        Ok(())
    }

    /// Recomputes the values of the basic variables as `B⁻¹ (b - A_N x_N)`.
    pub(crate) fn recompute_basic_values(&mut self) {
        let mut rhs = self.b.clone();
        for j in 0..self.n + self.m {
            if self.status[j] == VarStatus::Basic {
                continue;
            }
            let xj = self.x[j];
            if xj == 0.0 {
                continue;
            }
            if j < self.n {
                for (i, v) in self.sf.a.col(j).iter() {
                    rhs[i] -= v * xj;
                }
            } else {
                rhs[j - self.n] -= self.art_sign[j - self.n] * xj;
            }
        }
        self.lu.ftran(&mut rhs);
        for (r, &v) in rhs.iter().enumerate() {
            self.x[self.basis[r]] = v;
        }
    }

    /// Eligibility of a non-basic column under reduced cost `d`: the movement
    /// direction if profitable, `None` otherwise.
    fn eligible_dir(&self, j: usize, d: f64) -> Option<f64> {
        if self.ub[j] - self.lb[j] < DTOL {
            return None; // fixed columns can never usefully enter
        }
        match self.status[j] {
            VarStatus::Basic => None,
            VarStatus::AtLower => (d < -DTOL).then_some(1.0),
            VarStatus::AtUpper => (d > DTOL).then_some(-1.0),
            VarStatus::Free => {
                if d < -DTOL {
                    Some(1.0)
                } else if d > DTOL {
                    Some(-1.0)
                } else {
                    None
                }
            }
        }
    }
}

/// Runs simplex iterations for one phase with the given cost vector.
fn run_phase(
    state: &mut SimplexState,
    cost: &[f64],
    max_iters: usize,
    budget: Option<&SolveBudget>,
    pricing: PricingRule,
) -> Result<PhaseOutcome, LpError> {
    let m = state.m;
    let ncols = state.n + state.m;

    // No Bland fallback and no stall heuristics: the EXPAND minimum step
    // makes every pivot strictly improving, which is the anti-cycling
    // guarantee Bland used to provide — without its glacial first-eligible
    // pricing (measured on internal1(2) ALLTOALL 16 MB: the Bland fallback
    // burned 1.45M of 1.5M iterations before this change).
    let mut local_iters = 0usize;
    // EXPAND working tolerance: grows every iteration, reset at each refresh
    // (the refresh recomputes the basic values, wiping accumulated drift).
    let mut tol_work = FEAS_TOL;

    // Fresh pricing reference framework per phase: γ_j = 1 says "the current
    // basis is the reference" — the steepest-edge updates below then keep
    // each γ_j exactly equal to 1 + ‖B⁻¹a_j‖² measured in that reference.
    for g in state.weights.iter_mut() {
        *g = 1.0;
    }

    // Reduced costs over all columns, maintained incrementally across pivots
    // and recomputed from scratch (`d_fresh`) at every refresh and before
    // optimality can be declared.
    let mut d = vec![0.0; ncols];
    let mut y: Vec<f64> = Vec::with_capacity(m);
    let recompute_d = |state: &mut SimplexState, d: &mut [f64], y: &mut Vec<f64>| {
        y.clear();
        y.extend(state.basis.iter().map(|&j| cost[j]));
        state.lu.btran(y);
        for j in 0..ncols {
            d[j] = if state.status[j] == VarStatus::Basic {
                0.0
            } else {
                state.price_col(j, cost[j], y)
            };
        }
    };
    recompute_d(state, &mut d, &mut y);
    let mut d_fresh = true;

    // Hot-loop buffers, allocated once per phase and reused every iteration.
    let mut w: Vec<f64> = Vec::with_capacity(m);
    let mut rho: Vec<f64> = Vec::with_capacity(m);
    let mut tau: Vec<f64> = Vec::with_capacity(m);
    // Sparse pivot-row scratch: dense accumulators indexed by column plus the
    // list of columns actually touched this pivot (cleared after each use, so
    // the per-pivot cost is proportional to the touched set, not ncols).
    let mut alpha: Vec<f64> = vec![0.0; ncols];
    let mut amark: Vec<bool> = vec![false; ncols];
    let mut touched: Vec<u32> = Vec::with_capacity(256);
    // Pricing candidates: every non-basic column that can move (see the scan
    // below for the maintenance protocol).
    let mut active: Vec<u32> = (0..ncols)
        .filter(|&j| state.status[j] != VarStatus::Basic && state.ub[j] - state.lb[j] >= DTOL)
        .map(|j| j as u32)
        .collect();

    let trace = std::env::var_os("TECCL_LP_TRACE").is_some();
    let mut rescans = 0usize;
    let mut flip_iters = 0usize;
    let mut degen_iters = 0usize;
    // Per-component wall clock (trace only): where an iteration's time goes.
    let clk = |on: bool| on.then(std::time::Instant::now);
    let lap = |acc: &mut f64, t0: Option<std::time::Instant>| {
        if let Some(t0) = t0 {
            *acc += t0.elapsed().as_secs_f64();
        }
    };
    let (mut t_refresh, mut t_scan, mut t_ftran, mut t_ratio, mut t_btran, mut t_upd, mut t_eta) =
        (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);

    // Batched budget accounting: the shared counter's `fetch_add` would
    // serialize every parallel worker's pivot loop on one cache line, so
    // pivots are tallied locally and flushed every 64 (early when the
    // iteration cap is near). The batcher still loads the cancel flag on
    // every pivot — cancellation latency is unchanged; only deadline trips
    // coarsen to the flush granularity.
    let mut charge_batch = ChargeBatcher::new(budget);

    loop {
        if local_iters > max_iters {
            if trace {
                eprintln!(
                    "[lp-trace] ITERLIMIT: iters={local_iters} rescans={rescans} \
flips={flip_iters} degen={degen_iters} m={m} ncols={ncols}"
                );
                eprintln!(
                    "[lp-trace] timers: refresh={t_refresh:.2}s scan={t_scan:.2}s \
ftran={t_ftran:.2}s ratio={t_ratio:.2}s btran={t_btran:.2}s upd={t_upd:.2}s eta={t_eta:.2}s"
                );
            }
            let _ = charge_batch.flush();
            return Err(LpError::IterationLimit(max_iters));
        }
        // Cooperative cancellation: one check per pivot, so a cancel or an
        // expired deadline interrupts the solve within a single iteration.
        if let Err(cause) = charge_batch.charge() {
            return Err(LpError::Budget(cause));
        }
        local_iters += 1;
        state.iterations += 1;
        tol_work += EXPAND_DELTA;

        // Periodic refresh: refactorize (folding the eta file back in) and
        // recompute the basic values from the fresh factors — bounding
        // floating-point drift and resetting the EXPAND tolerance expansion.
        // The reduced costs are recomputed too, wiping incremental drift.
        if local_iters.is_multiple_of(REFRESH_INTERVAL) || state.lu.needs_refactor() {
            let t0 = clk(trace);
            state.refactorize()?;
            state.recompute_basic_values();
            recompute_d(state, &mut d, &mut y);
            d_fresh = true;
            tol_work = FEAS_TOL;
            // Leaving columns append at the tail, so over thousands of pivots
            // the pricing list drifts out of ascending order and the scan's
            // `d`/`weights` loads lose their sequential prefetch. Restoring
            // sorted order here costs ~O(n log n) once per refresh.
            active.sort_unstable();
            lap(&mut t_refresh, t0);
        }

        // ---- Pricing: full scan over the maintained reduced costs, best
        // d²/γ wins. Optimality is only ever declared on *fresh* reduced
        // costs, so correctness never rests on the incremental updates.
        //
        // The scan walks the maintained `active` list — every non-basic
        // column whose range clears DTOL — instead of all of `ncols`, so
        // basic and presolve-pinned columns never cost a bounds load.
        // Columns that entered the basis since the last scan are compacted
        // out in place; leaving columns are pushed back at pivot time.
        // Bounds are immutable within a phase, so list membership only ever
        // changes through basis status. ----
        let scan =
            |state: &SimplexState, d: &[f64], active: &mut Vec<u32>| -> Option<(usize, f64, f64)> {
                let mut best: Option<(usize, f64, f64, f64)> = None; // (j, d, dir, score)
                let mut keep = 0usize;
                for idx in 0..active.len() {
                    let j = active[idx] as usize;
                    if state.status[j] == VarStatus::Basic {
                        continue; // entered the basis since the last scan
                    }
                    active[keep] = active[idx];
                    keep += 1;
                    let dj = d[j];
                    if let Some(dir) = state.eligible_dir(j, dj) {
                        let score = dj * dj / state.weights[j];
                        // Ties break toward the lowest column index — the list is
                        // not kept sorted (leaving columns append at the tail),
                        // and without the explicit tie-break the pivot sequence
                        // would depend on list order.
                        if best.is_none_or(|(bj, _, _, bs)| score > bs || (score == bs && j < bj)) {
                            best = Some((j, dj, dir, score));
                        }
                    }
                }
                active.truncate(keep);
                best.map(|(j, dj, dir, _)| (j, dj, dir))
            };
        let t0 = clk(trace);
        let mut entering = scan(state, &d, &mut active);
        if entering.is_none() && !d_fresh {
            rescans += 1;
            recompute_d(state, &mut d, &mut y);
            d_fresh = true;
            entering = scan(state, &d, &mut active);
        }
        lap(&mut t_scan, t0);

        let (enter, d_enter, dir) = match entering {
            None => {
                if trace {
                    eprintln!(
                        "[lp-trace] phase done: iters={local_iters} rescans={rescans} \
flips={flip_iters} degen={degen_iters} m={m} ncols={ncols}"
                    );
                    eprintln!(
                        "[lp-trace] timers: refresh={t_refresh:.2}s scan={t_scan:.2}s \
ftran={t_ftran:.2}s ratio={t_ratio:.2}s btran={t_btran:.2}s upd={t_upd:.2}s eta={t_eta:.2}s"
                    );
                }
                let _ = charge_batch.flush();
                return Ok(PhaseOutcome::Optimal);
            }
            Some(e) => e,
        };

        // Transformed column w = B⁻¹ A_enter.
        let t0 = clk(trace);
        state.ftran_col_into(enter, &mut w);
        lap(&mut t_ftran, t0);

        // EXPAND / Harris two-pass ratio test. The entering variable moves by
        // `t >= 0` in direction `dir`; the basic variable in row r changes at
        // rate `-dir * w[r]`.
        //
        // Pass 1 computes the largest step `t_exp` at which every blocking
        // basic variable stays within `tol_work` of its bound. Pass 2 picks,
        // among the rows whose *true* ratio fits under `t_exp`, the one with
        // the numerically largest pivot.
        // The chosen step is bounded below by `EXPAND_DELTA / |pivot|`, so
        // every iteration strictly improves the objective — degenerate
        // vertices cannot cycle — at the price of bound drift that stays
        // under `tol_work` and is wiped at the next refresh.
        let t0 = clk(trace);
        let own_range = state.ub[enter] - state.lb[enter]; // may be inf
                                                           // Room a blocking row has before its bound in the movement direction,
                                                           // `None` when the row does not block (shared by both passes so the
                                                           // expanded and true ratio tests can never desynchronize).
        let blocking_room = |r: usize, w: &[f64]| -> Option<(f64, f64)> {
            let rate = -dir * w[r];
            let bvar = state.basis[r];
            if rate < -PIV_TOL {
                state.lb[bvar]
                    .is_finite()
                    .then(|| (state.x[bvar] - state.lb[bvar], rate))
            } else if rate > PIV_TOL {
                state.ub[bvar]
                    .is_finite()
                    .then(|| (state.ub[bvar] - state.x[bvar], rate))
            } else {
                None
            }
        };
        let mut t_exp = if own_range.is_finite() {
            own_range + tol_work
        } else {
            f64::INFINITY
        };
        for r in 0..m {
            if let Some((room, rate)) = blocking_room(r, &w) {
                let t = (room + tol_work).max(0.0) / rate.abs();
                if t < t_exp {
                    t_exp = t;
                }
            }
        }

        let mut leave_row: Option<(usize, f64)> = None; // (row, true ratio)
        if t_exp.is_finite() {
            for r in 0..m {
                if let Some((room, rate)) = blocking_room(r, &w) {
                    let t = room.max(0.0) / rate.abs();
                    if t <= t_exp && leave_row.is_none_or(|(cur, _)| w[r].abs() > w[cur].abs()) {
                        leave_row = Some((r, t));
                    }
                }
            }
        }

        // Decide between a basis pivot and a bound flip of the entering
        // column; an unbounded ray is the remaining case.
        let (t, pivot_row) = match leave_row {
            Some((r, t_true)) => {
                // Strictly positive minimum step (the EXPAND anti-cycling
                // guarantee), capped at `t_exp`: past that cap, rows outside
                // the pass-2 set would overshoot their bounds by more than
                // the working tolerance (a near-PIV_TOL pivot would otherwise
                // inflate the minimum step arbitrarily and break the drift
                // bound the module documents).
                let t = t_true
                    .max(EXPAND_DELTA / w[r].abs().max(PIV_TOL))
                    .min(t_exp);
                if own_range <= t {
                    (own_range, None) // the entering column flips first
                } else {
                    (t, Some(r))
                }
            }
            None => {
                if !own_range.is_finite() {
                    let _ = charge_batch.flush();
                    return Ok(PhaseOutcome::Unbounded);
                }
                (own_range, None)
            }
        };

        // Apply the step to all basic variables and the entering variable.
        for (r, &wr) in w.iter().enumerate().take(m) {
            let bvar = state.basis[r];
            state.x[bvar] += -dir * wr * t;
        }
        state.x[enter] += dir * t;
        lap(&mut t_ratio, t0);
        if t < 1e-9 {
            degen_iters += 1;
        }

        match pivot_row {
            None => {
                flip_iters += 1;
                // Bound flip: the entering variable traversed its whole range.
                state.status[enter] = if dir > 0.0 {
                    VarStatus::AtUpper
                } else {
                    VarStatus::AtLower
                };
                state.x[enter] = if dir > 0.0 {
                    state.ub[enter]
                } else {
                    state.lb[enter]
                };
            }
            Some(r) => {
                let leaving = state.basis[r];
                debug_assert_ne!(leaving, enter);
                let rate = -dir * w[r];
                // Snap the leaving variable onto the bound it reached (any
                // overshoot from the minimum step lands on the other basic
                // variables, bounded by `tol_work`).
                if rate < 0.0 {
                    state.x[leaving] = state.lb[leaving];
                    state.status[leaving] = VarStatus::AtLower;
                } else {
                    state.x[leaving] = state.ub[leaving];
                    state.status[leaving] = VarStatus::AtUpper;
                }
                state.basis[r] = enter;
                state.status[enter] = VarStatus::Basic;
                // The leaving column is non-basic again: put it back in the
                // pricing list (the entering one is compacted out lazily at
                // the next scan). A zero-range column can never re-enter.
                if state.ub[leaving] - state.lb[leaving] >= DTOL {
                    active.push(leaving as u32);
                }

                // ---- Weight + reduced-cost updates (one pass over the
                // non-basic columns, all against the *pre-pivot* factors).
                //
                // ρ = B⁻ᵀe_r gives the pivot row α_j = ρ·a_j, which drives
                // both the incremental reduced costs (d_j ← d_j − θ_d α_j
                // with θ_d = d_q/α_q) and the weight updates. For steepest
                // edge, τ = B⁻ᵀw additionally gives g_j = a_j·τ =
                // (B⁻¹a_j)·(B⁻¹a_q), and the exact Forrest–Goldfarb update
                // with η = α_j/α_q is
                //     γ_j ← γ_j − 2·η·g_j + η²·(‖w‖² + 1),
                // clamped below by 1 + η² (the exact value when the old
                // B⁻¹a_j had no component besides the pivot row). The
                // leaving column's exact new weight (‖w‖² + 1)/α_q² is set
                // directly — its stale nonbasic γ would poison the formula.
                let mut need_reset = false;
                let alpha_q = w[r];
                let theta_d = d_enter / alpha_q;
                let wnorm2: f64 = w.iter().map(|v| v * v).sum();
                if alpha_q.abs() > PIV_TOL && theta_d.is_finite() && wnorm2.is_finite() {
                    let gamma_q = state.weights[enter].max(1.0);
                    let t0 = clk(trace);
                    rho.clear();
                    rho.resize(m, 0.0);
                    rho[r] = 1.0;
                    let se = pricing == PricingRule::SteepestEdge;
                    if se {
                        tau.clear();
                        tau.extend_from_slice(&w);
                        // One lockstep pass over the factors for both solves.
                        state.lu.btran2(&mut rho, &mut tau);
                    } else {
                        state.lu.btran(&mut rho);
                    }
                    lap(&mut t_btran, t0);
                    let t0 = clk(trace);
                    // The pivot row α = ρᵀA (and for SE, g_j = a_j·τ) has two
                    // evaluation strategies keyed on the density of ρ = B⁻ᵀe_r:
                    //
                    // * ρ sparse (common in phase 1 and right after a refresh):
                    //   gather α over the non-zeros of ρ via the row-major copy
                    //   of A — cost ∝ entries of the rows ρ touches, and g_j is
                    //   computed per *touched* column only (η = 0 leaves γ_j
                    //   unchanged, so untouched columns need nothing).
                    // * ρ dense (deep degenerate phase-2 walks fill it in):
                    //   the direct per-column loop, skipping basic and
                    //   presolve-pinned columns before any arithmetic and
                    //   computing α_j and g_j in a single traversal of each
                    //   column. A gather would pay list bookkeeping on every
                    //   one of nnz(A) entries for no skip.
                    let rho_nnz = rho.iter().filter(|v| **v != 0.0).count();
                    if rho_nnz * 8 <= m {
                        state.ensure_row_major();
                        {
                            let rows = state.rows_a.as_ref().expect("just built");
                            let nstruct = state.n;
                            for (i, &ri) in rho.iter().enumerate() {
                                if ri == 0.0 {
                                    continue;
                                }
                                for &(j, v) in &rows[i] {
                                    let j = j as usize;
                                    if !amark[j] {
                                        amark[j] = true;
                                        touched.push(j as u32);
                                    }
                                    alpha[j] += ri * v;
                                }
                                // Row i's implicit artificial column sits at
                                // nstruct + i with the single entry art_sign[i].
                                let ja = nstruct + i;
                                if !amark[ja] {
                                    amark[ja] = true;
                                    touched.push(ja as u32);
                                }
                                alpha[ja] += ri * state.art_sign[i];
                            }
                        }
                        // Scatter: apply the reduced-cost and weight updates
                        // to the touched non-basic columns, clearing the
                        // scratch accumulators as we go.
                        for &ju in &touched {
                            let j = ju as usize;
                            let alpha_j = alpha[j];
                            alpha[j] = 0.0;
                            amark[j] = false;
                            if state.status[j] == VarStatus::Basic
                                || state.ub[j] - state.lb[j] < DTOL
                                || alpha_j == 0.0
                            {
                                continue;
                            }
                            d[j] -= theta_d * alpha_j;
                            let eta = alpha_j / alpha_q;
                            if se {
                                let g_j = state.row_dot_col(j, &tau);
                                let cand =
                                    state.weights[j] - 2.0 * eta * g_j + eta * eta * (wnorm2 + 1.0);
                                state.weights[j] = cand.max(1.0 + eta * eta);
                            } else {
                                let cand = eta * eta * gamma_q;
                                if cand > state.weights[j] {
                                    state.weights[j] = cand;
                                }
                            }
                        }
                        touched.clear();
                    } else {
                        // The pricing list is exactly the set of columns this
                        // pass can affect (stale Basic entries fall to the
                        // status check), so iterate it instead of 0..ncols.
                        for &ju in &active {
                            let j = ju as usize;
                            if state.status[j] == VarStatus::Basic
                                || state.ub[j] - state.lb[j] < DTOL
                            {
                                continue;
                            }
                            if se {
                                let (alpha_j, g_j) = state.row_dot_col2(j, &rho, &tau);
                                if alpha_j == 0.0 {
                                    continue;
                                }
                                d[j] -= theta_d * alpha_j;
                                let eta = alpha_j / alpha_q;
                                let cand =
                                    state.weights[j] - 2.0 * eta * g_j + eta * eta * (wnorm2 + 1.0);
                                state.weights[j] = cand.max(1.0 + eta * eta);
                            } else {
                                let alpha_j = state.row_dot_col(j, &rho);
                                if alpha_j == 0.0 {
                                    continue;
                                }
                                d[j] -= theta_d * alpha_j;
                                let eta = alpha_j / alpha_q;
                                let cand = eta * eta * gamma_q;
                                if cand > state.weights[j] {
                                    state.weights[j] = cand;
                                }
                            }
                        }
                    }
                    lap(&mut t_upd, t0);
                    d[enter] = 0.0;
                    // The leaving column has α = 1 exactly (B⁻¹a_leav = e_r
                    // under the old basis), so the pass above already set
                    // d[leaving] = −θ_d; only its weight needs the exact
                    // override.
                    state.weights[leaving] = if se {
                        ((wnorm2 + 1.0) / (alpha_q * alpha_q)).max(1.0 + 1.0 / (alpha_q * alpha_q))
                    } else {
                        (gamma_q / (alpha_q * alpha_q)).max(1.0)
                    };
                    d_fresh = false;
                    // Devex-style reset on numerical trouble: a non-finite
                    // weight means the exact recurrence broke down — restart
                    // the reference framework at the current basis.
                    if !state.weights[leaving].is_finite() {
                        need_reset = true;
                    }
                } else {
                    // Un-updatable pivot (tiny α_q slipped through the ratio
                    // test, or a non-finite step): the maintained weights and
                    // reduced costs are no longer trustworthy — reset both.
                    need_reset = true;
                }

                // Fold the pivot into the eta file; on numerical trouble
                // rebuild the factorization from scratch.
                let t0 = clk(trace);
                if state.lu.update(&w, r).is_err() {
                    state.refactorize()?;
                    state.recompute_basic_values();
                    need_reset = true;
                }
                lap(&mut t_eta, t0);
                // Resets run *after* the factors reflect the pivot, so the
                // recomputed reduced costs match the new basis.
                if need_reset {
                    for g in state.weights.iter_mut() {
                        *g = 1.0;
                    }
                    recompute_d(state, &mut d, &mut y);
                    d_fresh = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    /// Cold solve of `model`'s LP relaxation, straight through the simplex
    /// (no presolve).
    fn solve_lp(model: &Model) -> Result<Solution, LpError> {
        let sf = StandardForm::from_model(model);
        solve(&sf, model.num_vars(), &[], None)
    }

    /// [`solve_standard_form`] with no budget and the default options.
    fn solve(
        sf: &StandardForm,
        nv: usize,
        overrides: &[(usize, f64, f64)],
        warm: Option<&SimplexBasis>,
    ) -> Result<Solution, LpError> {
        solve_standard_form(sf, nv, overrides, warm, None, &SimplexOptions::default())
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → obj 36 at (2, 6).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg_var("x", 3.0);
        let y = m.add_nonneg_var("y", 5.0);
        m.add_cons("c1", &[(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_cons("c2", &[(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_cons("c3", &[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 36.0, 1e-6);
        assert_close(sol.value(x), 2.0, 1e-6);
        assert_close(sol.value(y), 6.0, 1e-6);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 → x=7,y=3 → 23.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg_var("x", 2.0);
        let y = m.add_nonneg_var("y", 3.0);
        m.add_cons("c1", &[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0);
        m.add_cons("c2", &[(x, 1.0)], ConstraintOp::Ge, 2.0);
        m.add_cons("c3", &[(y, 1.0)], ConstraintOp::Ge, 3.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 23.0, 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 → x = 2, y = 1 → 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_nonneg_var("x", 1.0);
        let y = m.add_nonneg_var("y", 1.0);
        m.add_cons("e1", &[(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 4.0);
        m.add_cons("e2", &[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.value(x), 2.0, 1e-6);
        assert_close(sol.value(y), 1.0, 1e-6);
        assert_close(sol.objective, 3.0, 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0)], ConstraintOp::Ge, 2.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg_var("x", 1.0);
        let y = m.add_nonneg_var("y", 0.0);
        m.add_cons("c", &[(y, 1.0)], ConstraintOp::Le, 5.0);
        let _ = x;
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    #[test]
    fn bounded_variables_and_bound_flips() {
        // max x + y with 0 <= x <= 2, 0 <= y <= 3, x + y <= 4 → 4.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 2.0, 1.0, false);
        let y = m.add_var("y", 0.0, 3.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        let sol = solve_lp(&m).unwrap();
        assert_close(sol.objective, 4.0, 1e-6);
        assert!(sol.value(x) <= 2.0 + 1e-9);
        assert!(sol.value(y) <= 3.0 + 1e-9);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -5 (bound), x + y = 0, y <= 3 → x = -3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", -5.0, f64::INFINITY, 1.0, false);
        let y = m.add_var("y", 0.0, 3.0, 0.0, false);
        m.add_cons("e", &[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 0.0);
        let sol = solve_lp(&m).unwrap();
        assert_close(sol.value(x), -3.0, 1e-6);
        assert_close(sol.objective, -3.0, 1e-6);
    }

    #[test]
    fn free_variable_support() {
        // min x + 2y, x free, y >= 0, x + y >= 3, x >= -10 via constraint.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0, false);
        let y = m.add_nonneg_var("y", 2.0);
        m.add_cons("c1", &[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        m.add_cons("c2", &[(x, 1.0)], ConstraintOp::Ge, -10.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        // Optimum: y = 0, x = 3 → 3 (driving x to -10 costs 26 in y).
        assert_close(sol.objective, 3.0, 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Highly degenerate: many redundant constraints through the optimum.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg_var("x", 1.0);
        let y = m.add_nonneg_var("y", 1.0);
        for i in 0..20 {
            let w = 1.0 + (i as f64) * 1e-9;
            m.add_cons(format!("c{i}"), &[(x, w), (y, 1.0)], ConstraintOp::Le, 10.0);
        }
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 10.0, 1e-5);
    }

    #[test]
    fn transportation_problem() {
        // Classic 2x3 transportation problem with known optimum.
        // Supplies: 20, 30. Demands: 10, 25, 15.
        // Costs: [[2, 3, 1], [5, 4, 8]] → optimal cost 150.
        let mut m = Model::new(Sense::Minimize);
        let costs = [[2.0, 3.0, 1.0], [5.0, 4.0, 8.0]];
        let mut xs = [[crate::model::VarId(0); 3]; 2];
        for s in 0..2 {
            for d in 0..3 {
                xs[s][d] = m.add_nonneg_var(format!("x{s}{d}"), costs[s][d]);
            }
        }
        let supplies = [20.0, 30.0];
        let demands = [10.0, 25.0, 15.0];
        for s in 0..2 {
            let terms: Vec<_> = (0..3).map(|d| (xs[s][d], 1.0)).collect();
            m.add_cons(format!("s{s}"), &terms, ConstraintOp::Le, supplies[s]);
        }
        for d in 0..3 {
            let terms: Vec<_> = (0..2).map(|s| (xs[s][d], 1.0)).collect();
            m.add_cons(format!("d{d}"), &terms, ConstraintOp::Ge, demands[d]);
        }
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 150.0, 1e-5);
    }

    #[test]
    fn duals_satisfy_strong_duality_on_simple_lp() {
        // max 3x + 5y (same as textbook test): primal obj == b'y at optimum.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg_var("x", 3.0);
        let y = m.add_nonneg_var("y", 5.0);
        m.add_cons("c1", &[(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_cons("c2", &[(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_cons("c3", &[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let sol = solve_lp(&m).unwrap();
        let b = [4.0, 12.0, 18.0];
        let dual_obj: f64 = sol.duals.iter().zip(b.iter()).map(|(d, b)| d * b).sum();
        assert_close(dual_obj, sol.objective, 1e-5);
    }

    #[test]
    fn fixed_variables_are_respected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 2.0, 2.0, 1.0, false);
        let y = m.add_var("y", 0.0, 10.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0);
        let sol = solve_lp(&m).unwrap();
        assert_close(sol.value(x), 2.0, 1e-9);
        assert_close(sol.value(y), 3.0, 1e-6);
    }

    #[test]
    fn no_constraints_goes_to_best_bounds() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 7.0, 2.0, false);
        let y = m.add_var("y", -3.0, 4.0, -1.0, false);
        let sol = solve_lp(&m).unwrap();
        assert_close(sol.value(x), 7.0, 1e-9);
        assert_close(sol.value(y), -3.0, 1e-9);
        assert_close(sol.objective, 17.0, 1e-9);
    }

    #[test]
    fn no_constraints_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        m.add_var("x", 0.0, f64::INFINITY, 1.0, false);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, SolveStatus::Unbounded);
    }

    // ---- Warm-start path ---------------------------------------------------

    #[test]
    fn warm_start_reproduces_cold_optimum() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg_var("x", 3.0);
        let y = m.add_nonneg_var("y", 5.0);
        m.add_cons("c1", &[(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_cons("c2", &[(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_cons("c3", &[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let sf = StandardForm::from_model(&m);
        let cold = solve(&sf, 2, &[], None).unwrap();
        let basis = cold.basis.clone().unwrap();
        // Unchanged bounds: the warm re-solve must find the same optimum
        // nearly instantly.
        let warm = solve(&sf, 2, &[], Some(&basis)).unwrap();
        assert_eq!(warm.status, SolveStatus::Optimal);
        assert_close(warm.objective, cold.objective, 1e-9);
        assert_eq!(warm.stats.warm_starts, 1);
        assert_eq!(warm.stats.cold_starts, 0);
        assert!(
            warm.stats.simplex_iterations <= 2,
            "{}",
            warm.stats.simplex_iterations
        );
    }

    #[test]
    fn warm_start_after_bound_tightening_matches_cold() {
        // min -x - 2y s.t. x + y <= 10, x <= 6, y <= 7 (as bounds).
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 6.0, -1.0, false);
        let y = m.add_var("y", 0.0, 7.0, -2.0, false);
        m.add_cons("cap", &[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        let sf = StandardForm::from_model(&m);
        let cold = solve(&sf, 2, &[], None).unwrap();
        let basis = cold.basis.clone().unwrap();
        // Tighten x's upper bound below its optimal value (3) → re-solve.
        let overrides = [(0usize, 0.0, 1.5)];
        let warm = solve(&sf, 2, &overrides, Some(&basis)).unwrap();
        let cold2 = solve(&sf, 2, &overrides, None).unwrap();
        assert_eq!(warm.status, SolveStatus::Optimal);
        assert_close(warm.objective, cold2.objective, 1e-8);
        assert!(warm.values[0] <= 1.5 + 1e-9);
    }

    #[test]
    fn warm_start_detects_infeasible_bound_change() {
        // x + y >= 8 with x <= 6, y <= 7 is feasible; tightening y <= 1 and
        // x <= 1 makes it infeasible.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 6.0, 1.0, false);
        let y = m.add_var("y", 0.0, 7.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 8.0);
        let sf = StandardForm::from_model(&m);
        let cold = solve(&sf, 2, &[], None).unwrap();
        let basis = cold.basis.clone().unwrap();
        let overrides = [(0usize, 0.0, 1.0), (1usize, 0.0, 1.0)];
        let warm = solve(&sf, 2, &overrides, Some(&basis)).unwrap();
        assert_eq!(warm.status, SolveStatus::Infeasible);
        let cold2 = solve(&sf, 2, &overrides, None).unwrap();
        assert_eq!(cold2.status, SolveStatus::Infeasible);
    }

    /// An `n`×`n` transportation-style LP (2n rows, n² columns) whose cold
    /// solve needs real primal phase-2 work even after the dual phase 1.
    fn transportation_lp(n: usize) -> StandardForm {
        let mut m = Model::new(Sense::Minimize);
        let mut xs = Vec::new();
        for s in 0..n {
            for d in 0..n {
                let cost = ((s * 7 + d * 13) % 17 + 1) as f64;
                xs.push(m.add_var(format!("x{s}_{d}"), 0.0, 50.0, cost, false));
            }
        }
        for s in 0..n {
            let terms: Vec<_> = (0..n).map(|d| (xs[s * n + d], 1.0)).collect();
            m.add_cons(format!("s{s}"), &terms, ConstraintOp::Le, 30.0);
        }
        for d in 0..n {
            let terms: Vec<_> = (0..n).map(|s| (xs[s * n + d], 1.0)).collect();
            m.add_cons(format!("d{d}"), &terms, ConstraintOp::Ge, 20.0);
        }
        StandardForm::from_model(&m)
    }

    #[test]
    fn warm_resolve_is_much_cheaper_than_cold() {
        // A 20x20 transportation-style LP: the cold solve needs dozens of
        // iterations even with the dual phase 1; after tightening one
        // non-binding bound the warm re-solve must take < 10% of the cold
        // iteration count.
        let n = 20;
        let sf = transportation_lp(n);
        let cold = solve(&sf, n * n, &[], None).unwrap();
        assert_eq!(cold.status, SolveStatus::Optimal);
        let cold_iters = cold.stats.simplex_iterations;
        assert!(
            cold_iters >= 20,
            "cold solve unexpectedly cheap: {cold_iters}"
        );
        // Tighten the bound of a variable that is at 0 in the optimum.
        let idle = (0..n * n).find(|&j| cold.values[j] < 1e-9).unwrap();
        let overrides = [(idle, 0.0, 10.0)];
        let warm = solve(&sf, n * n, &overrides, cold.basis.as_ref()).unwrap();
        assert_eq!(warm.status, SolveStatus::Optimal);
        assert_close(warm.objective, cold.objective, 1e-6);
        assert!(
            warm.stats.simplex_iterations * 10 < cold_iters,
            "warm {} vs cold {cold_iters}",
            warm.stats.simplex_iterations
        );
    }

    #[test]
    fn exhausted_perturbed_walk_still_charges_the_certify_pass() {
        // Force the perturbed phase-2 pre-pass on (the transportation LP has
        // m = 40 rows, above the lowered threshold) and sweep iteration caps
        // upward. Caps that trip before primal feasibility are hard budget
        // errors; the first cap that comes back `Ok` with `budget_stop` set
        // tripped inside the perturbed walk, which skips the true-cost
        // certify pass — and that skip must still charge the budget for the
        // extraction work (the PR-5 bug class: silent uncharged exits).
        let n = 20;
        let sf = transportation_lp(n);
        let opts = SimplexOptions {
            perturb_min_rows: 16,
            ..Default::default()
        };
        let mut verified = false;
        for cap in 1..5000u64 {
            let budget = SolveBudget::with_iteration_cap(cap);
            match solve_standard_form(&sf, n * n, &[], None, Some(&budget), &opts) {
                Err(LpError::Budget(_)) => continue, // tripped before feasibility
                Err(e) => panic!("unexpected error at cap {cap}: {e:?}"),
                Ok(sol) => {
                    let Some(_) = sol.stats.budget_stop else {
                        // The budget was big enough to finish: nothing larger
                        // will trip either.
                        break;
                    };
                    assert_eq!(sol.status, SolveStatus::Feasible);
                    // The tripping pivot lands on `cap + 1`; anything beyond
                    // proves the skipped certify pass charged its cleanup.
                    assert!(
                        budget.iterations_used() >= cap + 2,
                        "certify pass exited uncharged: cap {cap}, used {}",
                        budget.iterations_used()
                    );
                    verified = true;
                    break;
                }
            }
        }
        assert!(verified, "no cap tripped inside the perturbed pre-pass");
    }

    #[test]
    fn stale_warm_basis_falls_back_to_cold() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 4.0, 1.0, false);
        m.add_cons("c", &[(x, 1.0)], ConstraintOp::Le, 3.0);
        let sf = StandardForm::from_model(&m);
        // A basis with the wrong shape is rejected and the cold path runs.
        let stale = SimplexBasis {
            basic: vec![0, 1, 2],
            status: vec![VarStatus::AtLower],
        };
        let sol = solve(&sf, 1, &[], Some(&stale)).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        assert_close(sol.objective, 3.0, 1e-9);
        assert_eq!(sol.stats.cold_starts, 1);
    }
}
