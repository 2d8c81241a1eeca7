//! Fuzz over block-angular (decomposable, MCF-shaped) LPs.
//!
//! The corpus mirrors the LP `lp_form` builds for ALLTOALL: private per-source
//! block rows coupled by shared capacity rows, with feasible-by-construction
//! instances mixed with coupling-infeasible ones (lower-bound-forced
//! variables against a too-tight cap) in both senses. The monolithic simplex
//! must keep its budget-stop contract on that shape.

use teccl_lp::model::{ConstraintOp, Model, Sense};
use teccl_lp::{MilpConfig, SolveStatus};

/// Small deterministic LCG so the corpus is stable across runs and platforms.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform in [0, 1).
    fn f(&mut self) -> f64 {
        (self.next_u64() & ((1 << 53) - 1)) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f() * (hi - lo)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A random block-angular LP.
///
/// Construction keeps every *block* feasible on its own rows (each block's
/// rows are anchored on a sampled interior point), so any infeasibility is a
/// coupling-level one, which phase 1 must detect across the blocks.
fn random_block_lp(rng: &mut Lcg) -> Model {
    let nblocks = 2 + rng.below(3);
    let sense = if rng.f() < 0.5 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut m = Model::new(sense);
    let mut block_vars: Vec<Vec<teccl_lp::VarId>> = vec![Vec::new(); nblocks];
    let mut anchor: Vec<Vec<f64>> = vec![Vec::new(); nblocks];
    for b in 0..nblocks {
        let nvars = 2 + rng.below(3);
        for j in 0..nvars {
            // ~1 in 6 variables is forced away from zero: combined with a
            // tight coupling cap this is how infeasible instances arise.
            let lb = if rng.f() < 0.17 {
                rng.range(0.5, 2.0)
            } else {
                0.0
            };
            let ub = lb + rng.range(1.0, 6.0);
            let v = m.add_var(format!("x{b}_{j}"), lb, ub, rng.range(-5.0, 5.0), false);
            block_vars[b].push(v);
            anchor[b].push(lb + rng.f() * (ub - lb));
        }
        // Private rows, anchored on the sampled interior point so the block
        // polytope is never empty.
        let nrows = 1 + rng.below(2);
        for i in 0..nrows {
            let mut terms = Vec::new();
            let mut activity = 0.0;
            for (j, &v) in block_vars[b].iter().enumerate() {
                if rng.f() < 0.8 {
                    let a = rng.range(-3.0, 3.0);
                    terms.push((v, a));
                    activity += a * anchor[b][j];
                }
            }
            if terms.is_empty() {
                terms.push((block_vars[b][0], 1.0));
                activity = anchor[b][0];
            }
            let (op, rhs) = match rng.below(3) {
                0 => (ConstraintOp::Eq, activity),
                1 => (ConstraintOp::Le, activity + rng.range(0.0, 2.0)),
                _ => (ConstraintOp::Ge, activity - rng.range(0.0, 2.0)),
            };
            m.add_cons(format!("blk{b}_{i}"), &terms, op, rhs);
        }
    }
    // Coupling rows: nonnegative "capacity" footprints over several blocks,
    // like `cap[link,k]` sums per-source flows. Feasible rows get slack
    // above the *anchor* activity (the anchor satisfies every block row, so
    // the whole LP stays feasible); the infeasible slice caps the row below
    // `Σ a·lb`, which positive coefficients can never undershoot.
    let anchor_flat: Vec<f64> = anchor.iter().flatten().copied().collect();
    let ncoup = 1 + rng.below(3);
    for i in 0..ncoup {
        let mut terms = Vec::new();
        let mut lb_activity = 0.0;
        let mut anchor_activity = 0.0;
        for &v in block_vars.iter().flatten() {
            if rng.f() < 0.6 {
                let a = rng.range(0.1, 2.0);
                terms.push((v, a));
                lb_activity += a * m.vars[v.index()].lb;
                anchor_activity += a * anchor_flat[v.index()];
            }
        }
        if terms.len() < 2 {
            continue;
        }
        let rhs = if rng.f() < 0.12 {
            lb_activity - rng.range(0.1, 1.0)
        } else {
            anchor_activity + rng.range(0.0, 6.0)
        };
        m.add_cons(format!("coup{i}"), &terms, ConstraintOp::Le, rhs);
    }
    m
}

/// Budget-stop contract on a decomposable instance: a capped re-run either
/// fails with `LpError::Budget` (no incumbent yet) or hands back a
/// primal-feasible point flagged `budget_stop` — never a silent wrong answer.
#[test]
fn capped_budget_yields_feasible_incumbent_or_budget_error() {
    let mut rng = Lcg(0xb0d9e7);
    let mut stopped = 0usize;
    let mut tried = 0usize;
    for _ in 0..40 {
        let m = random_block_lp(&mut rng);
        let full = match m.solve(&MilpConfig::default(), None) {
            Ok(s) if s.status == SolveStatus::Optimal && s.stats.simplex_iterations >= 4 => s,
            _ => continue, // infeasible or presolved away: no pivots to cap
        };
        let total = full.stats.simplex_iterations;
        for cap in [total / 4, total / 2] {
            tried += 1;
            let config = MilpConfig {
                budget: Some(teccl_lp::SolveBudget::with_iteration_cap(cap.max(1) as u64)),
                ..Default::default()
            };
            match m.solve(&config, None) {
                Ok(sol) => {
                    if sol.stats.budget_stop.is_some() {
                        stopped += 1;
                        assert_eq!(sol.status, SolveStatus::Feasible);
                        assert!(
                            m.is_feasible(&sol.values, 1e-5),
                            "budget-stop incumbent must be primal feasible"
                        );
                    } else {
                        // Finished inside the cap; must be the optimum.
                        assert_eq!(sol.status, SolveStatus::Optimal);
                        let scale = full.objective.abs().max(1.0);
                        assert!((sol.objective - full.objective).abs() <= 1e-6 * scale);
                    }
                }
                Err(teccl_lp::LpError::Budget(_)) => stopped += 1,
                Err(other) => panic!("unexpected error under cap: {other:?}"),
            }
        }
    }
    assert!(tried >= 20, "corpus produced only {tried} capped runs");
    assert!(stopped > 0, "no capped run ever actually stopped");
}
