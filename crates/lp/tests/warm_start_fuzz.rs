//! Randomized (seeded, deterministic) cross-check of the warm-started simplex
//! against cold solves: on a corpus of small bounded LPs, a warm re-solve
//! after a bound change must agree with a from-scratch solve to 1e-6.

use teccl_lp::model::{ConstraintOp, Model, Sense};
use teccl_lp::simplex::solve_standard_form;
use teccl_lp::standard::StandardForm;
use teccl_lp::{MilpConfig, PricingRule, SimplexBasis, SimplexOptions, Solution, SolveStatus};

/// [`solve_standard_form`] with no budget and the default options.
fn solve(
    sf: &StandardForm,
    nv: usize,
    overrides: &[(usize, f64, f64)],
    warm: Option<&SimplexBasis>,
) -> Result<Solution, teccl_lp::LpError> {
    solve_standard_form(sf, nv, overrides, warm, None, &SimplexOptions::default())
}

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

/// A random LP with finite variable bounds (guaranteeing a bounded objective)
/// and a mix of constraint senses. Feasibility is not guaranteed — both
/// solvers must agree on that too.
fn random_lp(rng: &mut Lcg) -> Model {
    let nvars = 2 + rng.below(8);
    let ncons = 1 + rng.below(6);
    let sense = if rng.f() < 0.5 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut m = Model::new(sense);
    let mut vars = Vec::new();
    for j in 0..nvars {
        let lb = rng.range(-10.0, 5.0);
        let ub = lb + rng.range(0.0, 15.0);
        let obj = rng.range(-5.0, 5.0);
        vars.push(m.add_var(format!("x{j}"), lb, ub, obj, false));
    }
    for i in 0..ncons {
        let mut terms = Vec::new();
        for &v in &vars {
            if rng.f() < 0.7 {
                terms.push((v, rng.range(-4.0, 4.0)));
            }
        }
        if terms.is_empty() {
            terms.push((vars[0], 1.0));
        }
        let op = match rng.below(4) {
            0 => ConstraintOp::Ge,
            1 => ConstraintOp::Eq,
            _ => ConstraintOp::Le, // bias towards feasible instances
        };
        let rhs = rng.range(-10.0, 25.0);
        m.add_cons(format!("c{i}"), &terms, op, rhs);
    }
    m
}

#[test]
fn warm_and_cold_solves_agree_on_random_corpus() {
    let mut rng = Lcg(0x5eed_c0ffee);
    let mut solved = 0usize;
    let mut warmed = 0usize;
    for case in 0..200 {
        let m = random_lp(&mut rng);
        let sf = StandardForm::from_model(&m);
        let nv = m.num_vars();
        let cold = solve(&sf, nv, &[], None).unwrap_or_else(|e| panic!("case {case}: {e}"));
        if cold.status != SolveStatus::Optimal {
            // Infeasible instances are fine; just confirm determinism.
            let again = solve(&sf, nv, &[], None).unwrap();
            assert_eq!(again.status, cold.status, "case {case}");
            continue;
        }
        solved += 1;
        let basis = cold.basis.clone().expect("optimal LP must return a basis");

        // Re-solve the *same* problem warm: identical objective required.
        let resolve = solve(&sf, nv, &[], Some(&basis)).unwrap();
        assert_eq!(resolve.status, SolveStatus::Optimal, "case {case}");
        assert!(
            (resolve.objective - cold.objective).abs() < 1e-6,
            "case {case}: warm resolve {} vs cold {}",
            resolve.objective,
            cold.objective
        );

        // Perturb one variable bound (tighten towards the optimal value so
        // the instance usually stays feasible) and compare warm vs cold.
        let j = rng.below(nv);
        let (lo, hi) = (m.vars[j].lb, m.vars[j].ub);
        let xj = cold.values[j];
        let overrides = if rng.f() < 0.5 {
            [(j, lo, (xj + rng.range(0.0, 2.0)).min(hi).max(lo))]
        } else {
            [(j, (xj - rng.range(0.0, 2.0)).max(lo).min(hi), hi)]
        };
        let warm = solve(&sf, nv, &overrides, Some(&basis)).unwrap();
        let cold2 = solve(&sf, nv, &overrides, None).unwrap();
        assert_eq!(
            warm.status, cold2.status,
            "case {case}: warm {:?} vs cold {:?} after override {overrides:?}",
            warm.status, cold2.status
        );
        if warm.status == SolveStatus::Optimal {
            assert!(
                (warm.objective - cold2.objective).abs() < 1e-6,
                "case {case}: warm {} vs cold {} after override {overrides:?}",
                warm.objective,
                cold2.objective
            );
            warmed += 1;
        }
    }
    // The corpus must actually exercise both paths.
    assert!(solved >= 80, "only {solved} optimal instances");
    assert!(warmed >= 60, "only {warmed} warm re-solves");
}

/// Pricing-rule cross-check: projected steepest-edge (the default) and the
/// devex fallback mode must agree on status and objective (to 1e-6) on every
/// instance of the random corpus. The pricing rule only chooses *which*
/// entering column to try first — any disagreement means a weight-update or
/// reduced-cost-maintenance bug, not a legitimate tie.
#[test]
fn steepest_edge_and_devex_agree_on_random_corpus() {
    let se = SimplexOptions {
        pricing: PricingRule::SteepestEdge,
        ..Default::default()
    };
    let devex = SimplexOptions {
        pricing: PricingRule::Devex,
        ..Default::default()
    };
    let mut rng = Lcg(0x5eed_c0ffee);
    let mut solved = 0usize;
    for case in 0..200 {
        let m = random_lp(&mut rng);
        let sf = StandardForm::from_model(&m);
        let nv = m.num_vars();
        let a = solve_standard_form(&sf, nv, &[], None, None, &se)
            .unwrap_or_else(|e| panic!("case {case} (steepest edge): {e}"));
        let b = solve_standard_form(&sf, nv, &[], None, None, &devex)
            .unwrap_or_else(|e| panic!("case {case} (devex): {e}"));
        assert_eq!(
            a.status, b.status,
            "case {case}: steepest-edge {:?} vs devex {:?}",
            a.status, b.status
        );
        if a.status == SolveStatus::Optimal {
            solved += 1;
            assert!(
                (a.objective - b.objective).abs() < 1e-6,
                "case {case}: steepest-edge {} vs devex {}",
                a.objective,
                b.objective
            );
        }
    }
    assert!(solved >= 80, "only {solved} optimal instances");
}

/// B&B-shaped sequences: starting from a cold optimal basis, apply a chain of
/// cumulative bound tightenings, re-solving warm (dual simplex) from the
/// previous step's basis at every step, and cross-check each step against a
/// from-scratch cold solve of the same cumulative overrides.
#[test]
fn dual_resolves_agree_with_cold_over_bound_tightening_sequences() {
    let mut rng = Lcg(0x0b0b_b1e5);
    let mut chains = 0usize;
    let mut warm_steps = 0usize;
    let mut dual_pivot_steps = 0usize;
    let mut fallbacks = 0usize;
    for case in 0..200 {
        let m = random_lp(&mut rng);
        let sf = StandardForm::from_model(&m);
        let nv = m.num_vars();
        let cold = solve(&sf, nv, &[], None).unwrap_or_else(|e| panic!("case {case}: {e}"));
        if cold.status != SolveStatus::Optimal {
            continue;
        }
        chains += 1;
        let mut basis = cold.basis.clone().expect("optimal LP returns a basis");
        let mut reference = cold;
        let mut overrides: Vec<(usize, f64, f64)> = Vec::new();
        let depth = 2 + rng.below(4); // 2..=5 tightenings, like a B&B path
        for step in 0..depth {
            // Tighten a bound towards (sometimes past) the current optimum,
            // the way branching does; cumulative like a B&B node's path.
            let j = rng.below(nv);
            let (mut lo, mut hi) = (m.vars[j].lb, m.vars[j].ub);
            for &(k, l, h) in &overrides {
                if k == j {
                    lo = l;
                    hi = h;
                }
            }
            let xj = reference.values[j].clamp(lo, hi);
            if rng.f() < 0.5 {
                hi = (xj - rng.range(0.0, 1.0)).max(lo);
            } else {
                lo = (xj + rng.range(0.0, 1.0)).min(hi);
            }
            overrides.retain(|&(k, _, _)| k != j);
            overrides.push((j, lo, hi));

            let warm = solve(&sf, nv, &overrides, Some(&basis))
                .unwrap_or_else(|e| panic!("case {case} step {step}: {e}"));
            let cold2 = solve(&sf, nv, &overrides, None)
                .unwrap_or_else(|e| panic!("case {case} step {step}: {e}"));
            assert_eq!(
                warm.status, cold2.status,
                "case {case} step {step}: warm {:?} vs cold {:?} ({overrides:?})",
                warm.status, cold2.status
            );
            if warm.stats.warm_starts == 1 {
                warm_steps += 1;
                if warm.stats.dual_iterations > 0 {
                    dual_pivot_steps += 1;
                }
            } else {
                fallbacks += 1;
            }
            if warm.status != SolveStatus::Optimal {
                break; // the branch went infeasible — chain over
            }
            assert!(
                (warm.objective - cold2.objective).abs() < 1e-6,
                "case {case} step {step}: warm {} vs cold {} ({overrides:?})",
                warm.objective,
                cold2.objective
            );
            basis = warm
                .basis
                .clone()
                .expect("optimal warm solve returns a basis");
            reference = warm;
        }
    }
    assert!(chains >= 50, "only {chains} chains exercised");
    assert!(warm_steps >= 100, "only {warm_steps} warm dual re-solves");
    assert!(
        dual_pivot_steps * 4 >= warm_steps,
        "dual simplex barely pivots: {dual_pivot_steps}/{warm_steps}"
    );
    // The dual path may abandon a numerically hopeless basis, but falling
    // back to cold must be the exception, not the rule.
    assert!(
        fallbacks * 10 <= warm_steps.max(10),
        "{fallbacks} cold fallbacks vs {warm_steps} warm steps"
    );
}

/// A fixed small ALLTOALL-shaped LP (time-expanded per-source flows on a
/// ring, shared link capacities, early-read rewards — the §4.1 structure that
/// makes the real instances massively degenerate). Regression: it must solve
/// to optimality well under the historic plateau counts.
#[test]
#[allow(clippy::needless_range_loop)] // index-parallel var tables
fn degenerate_alltoall_shaped_lp_solves_under_iteration_budget() {
    let n = 6usize; // ring nodes
    let k_max = 8usize; // epochs
    let mut m = Model::new(Sense::Maximize);
    // Links: i -> (i+1) % n and i -> (i-1) % n.
    let links: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| [(i, (i + 1) % n), (i, (i + n - 1) % n)])
        .collect();
    // F[s][l][k], B[s][node][k] (k in 0..=k_max), r[s][d][k].
    let mut f = vec![vec![[None; 8]; links.len()]; n];
    let mut b = vec![vec![[None; 9]; n]; n];
    let mut r = vec![vec![[None; 8]; n]; n];
    for s in 0..n {
        for (l, &(u, v)) in links.iter().enumerate() {
            for k in 0..k_max {
                f[s][l][k] = Some(m.add_var(
                    format!("F[{s},{u}->{v},{k}]"),
                    0.0,
                    f64::INFINITY,
                    0.0,
                    false,
                ));
            }
        }
        for node in 0..n {
            for k in 0..=k_max {
                b[s][node][k] =
                    Some(m.add_var(format!("B[{s},{node},{k}]"), 0.0, f64::INFINITY, 0.0, false));
            }
        }
        for d in 0..n {
            if d == s {
                continue;
            }
            for k in 0..k_max {
                let w = 1.0 / (k as f64 + 1.0);
                r[s][d][k] =
                    Some(m.add_var(format!("r[{s},{d},{k}]"), 0.0, f64::INFINITY, w, false));
            }
        }
    }
    for s in 0..n {
        // Epoch 0: everything sits at the source.
        let mut init = vec![(b[s][s][0].unwrap(), 1.0)];
        for (l, &(u, _)) in links.iter().enumerate() {
            if u == s {
                init.push((f[s][l][0].unwrap(), 1.0));
            } else {
                m.add_cons(
                    format!("zf[{s},{l}]"),
                    &[(f[s][l][0].unwrap(), 1.0)],
                    ConstraintOp::Eq,
                    0.0,
                );
            }
        }
        m.add_cons(
            format!("init[{s}]"),
            &init,
            ConstraintOp::Eq,
            (n - 1) as f64,
        );
        for node in 0..n {
            if node != s {
                m.add_cons(
                    format!("zb[{s},{node}]"),
                    &[(b[s][node][0].unwrap(), 1.0)],
                    ConstraintOp::Eq,
                    0.0,
                );
            }
            // Flow conservation per epoch (α = 0: arrivals land same epoch).
            for k in 0..k_max {
                let mut terms: Vec<(teccl_lp::VarId, f64)> = Vec::new();
                for (l, &(_, v)) in links.iter().enumerate() {
                    if v == node {
                        terms.push((f[s][l][k].unwrap(), 1.0));
                    }
                }
                terms.push((b[s][node][k].unwrap(), 1.0));
                terms.push((b[s][node][k + 1].unwrap(), -1.0));
                if node != s {
                    if let Some(rv) = r[s][node][k] {
                        terms.push((rv, -1.0));
                    }
                }
                if k + 1 < k_max {
                    for (l, &(u, _)) in links.iter().enumerate() {
                        if u == node {
                            terms.push((f[s][l][k + 1].unwrap(), -1.0));
                        }
                    }
                }
                m.add_cons(
                    format!("flow[{s},{node},{k}]"),
                    &terms,
                    ConstraintOp::Eq,
                    0.0,
                );
            }
        }
        // Destination totals: each non-source destination reads exactly 1.
        for d in 0..n {
            if d == s {
                continue;
            }
            let terms: Vec<_> = (0..k_max).map(|k| (r[s][d][k].unwrap(), 1.0)).collect();
            m.add_cons(format!("dst[{s},{d}]"), &terms, ConstraintOp::Eq, 1.0);
        }
    }
    // Shared link capacity: 1 chunk per epoch across all sources — the
    // coupling that creates the massive tie structure.
    for (l, &(u, v)) in links.iter().enumerate() {
        for k in 0..k_max {
            let terms: Vec<_> = (0..n).map(|s| (f[s][l][k].unwrap(), 1.0)).collect();
            m.add_cons(format!("cap[{u}->{v},{k}]"), &terms, ConstraintOp::Le, 1.0);
        }
    }

    let sol = m
        .solve(&MilpConfig::default(), None)
        .expect("alltoall-shaped LP solves");
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert!(
        !sol.stats.iteration_limit_hit,
        "degenerate LP tripped the iteration limit"
    );
    // Pre-EXPAND this structure stalled for O(100k) iterations at scale; the
    // small instance must stay comfortably in the thousands.
    assert!(
        sol.stats.simplex_iterations < 10_000,
        "degeneracy regression: {} iterations",
        sol.stats.simplex_iterations
    );
    // Every destination got every chunk (total reads = n * (n-1)).
    let total_read: f64 = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .filter(|&(s, d)| s != d)
        .flat_map(|(s, d)| (0..k_max).map(move |k| (s, d, k)))
        .filter_map(|(s, d, k)| r[s][d][k].map(|v| sol.value(v)))
        .sum();
    assert!((total_read - (n * (n - 1)) as f64).abs() < 1e-5);
}

/// Presolve-on-vs-off agreement over the random-LP corpus: the
/// layout-preserving presolve must not change the answer — `Model::solve_lp_
/// relaxation` (presolve on) and a raw standard-form solve (no presolve) must
/// agree on status and objective to 1e-6 on every instance. On top of that,
/// the *basis* of either solve must warm-start the other: presolve only
/// tightens bounds and relaxes freed-row slacks, so the column space is one
/// and the same.
#[test]
fn presolve_on_and_off_agree_and_share_one_column_space() {
    let mut rng = Lcg(0x1a70_0071);
    let mut solved = 0usize;
    let mut crossed = 0usize;
    for case in 0..200 {
        let m = random_lp(&mut rng);
        let nv = m.num_vars();
        let sf_raw = StandardForm::from_model(&m);
        let raw = solve(&sf_raw, nv, &[], None).unwrap_or_else(|e| panic!("case {case}: {e}"));
        let pre = m
            .solve(&MilpConfig::default(), None)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(
            pre.status, raw.status,
            "case {case}: presolve-on {:?} vs presolve-off {:?}",
            pre.status, raw.status
        );
        if !pre.status.has_solution() {
            continue;
        }
        solved += 1;
        assert!(
            (pre.objective - raw.objective).abs() < 1e-6,
            "case {case}: presolve-on {} vs presolve-off {}",
            pre.objective,
            raw.objective
        );

        // One column space: the presolved solve's basis warm-starts the raw
        // form, and the raw solve's basis warm-starts a presolved re-solve.
        let (pre_basis, raw_basis) = (pre.basis.as_ref(), raw.basis.as_ref());
        if let Some(b) = pre_basis {
            let w = solve(&sf_raw, nv, &[], Some(b)).unwrap();
            assert_eq!(w.status, SolveStatus::Optimal, "case {case}");
            assert_eq!(
                w.stats.warm_starts, 1,
                "case {case}: presolved basis rejected"
            );
            assert!((w.objective - raw.objective).abs() < 1e-6, "case {case}");
            crossed += 1;
        }
        if let Some(b) = raw_basis {
            let w = m.solve(&MilpConfig::default(), Some(b)).unwrap();
            assert_eq!(w.status, SolveStatus::Optimal, "case {case}");
            assert_eq!(w.stats.warm_starts, 1, "case {case}: raw basis rejected");
            assert!((w.objective - raw.objective).abs() < 1e-6, "case {case}");
        }
    }
    assert!(solved >= 80, "only {solved} optimal instances");
    assert!(crossed >= 60, "only {crossed} cross-presolve warm starts");
}

/// Per-node presolve on-vs-off agreement over the random-MILP corpus, with
/// B&B chains deep enough to exercise the propagation: statuses and
/// objectives must match to 1e-6, and the tightening machinery must actually
/// fire somewhere in the corpus.
#[test]
fn node_presolve_on_and_off_agree_on_random_milps() {
    let mut rng = Lcg(0x9e0d_e135);
    let mut solved = 0usize;
    let mut tightenings = 0usize;
    let mut nodes_with_tightening = 0usize;
    for case in 0..40 {
        // Knapsacks with a cardinality side constraint and mixed weights:
        // branching one binary shrinks the residual capacity, which is what
        // the row-activity propagation converts into fixings of the others.
        let nvars = 4 + rng.below(8);
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..nvars)
            .map(|j| m.add_binary_var(format!("x{j}"), rng.range(1.0, 10.0)))
            .collect();
        let terms: Vec<_> = xs.iter().map(|&x| (x, rng.range(1.0, 6.0))).collect();
        m.add_cons("cap", &terms, ConstraintOp::Le, rng.range(4.0, 14.0));
        let t2: Vec<_> = xs.iter().map(|&x| (x, 1.0)).collect();
        m.add_cons(
            "card",
            &t2,
            ConstraintOp::Le,
            (2 + rng.below(nvars / 2)) as f64,
        );
        let on = m
            .solve(
                &MilpConfig {
                    rounding_heuristic: false,
                    ..Default::default()
                },
                None,
            )
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let off = m
            .solve(
                &MilpConfig {
                    rounding_heuristic: false,
                    node_presolve: false,
                    ..Default::default()
                },
                None,
            )
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(on.status, off.status, "case {case}");
        if on.status.has_solution() {
            assert!(
                (on.objective - off.objective).abs() < 1e-6,
                "case {case}: node-presolve on {} vs off {}",
                on.objective,
                off.objective
            );
            solved += 1;
        }
        tightenings += on.stats.node_tightenings;
        if on.stats.node_tightenings > 0 {
            nodes_with_tightening += 1;
        }
        assert_eq!(
            off.stats.node_tightenings, 0,
            "case {case}: off must not tighten"
        );
    }
    assert!(solved >= 30, "only {solved} solved MILPs");
    assert!(
        tightenings > 0 && nodes_with_tightening >= 5,
        "per-node presolve never fired: {tightenings} tightenings in {nodes_with_tightening} runs"
    );
}

#[test]
fn milp_warm_and_cold_nodes_agree_on_random_corpus() {
    let mut rng = Lcg(0xdead_beef);
    let mut solved = 0usize;
    for case in 0..40 {
        // Random small knapsack-ish MILPs.
        let nvars = 3 + rng.below(6);
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = (0..nvars)
            .map(|j| m.add_binary_var(format!("x{j}"), rng.range(1.0, 10.0)))
            .collect();
        let terms: Vec<_> = xs.iter().map(|&x| (x, rng.range(1.0, 6.0))).collect();
        let cap = rng.range(4.0, 14.0);
        m.add_cons("cap", &terms, ConstraintOp::Le, cap);
        if nvars > 4 {
            let t2: Vec<_> = xs.iter().map(|&x| (x, 1.0)).collect();
            m.add_cons("card", &t2, ConstraintOp::Le, (nvars / 2) as f64);
        }
        let warm_cfg = MilpConfig::default();
        let cold_cfg = MilpConfig {
            warm_start: false,
            ..Default::default()
        };
        let warm = m
            .solve(&warm_cfg, None)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let cold = m
            .solve(&cold_cfg, None)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(warm.status, cold.status, "case {case}");
        if warm.status.has_solution() {
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "case {case}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            solved += 1;
        }
    }
    assert!(solved >= 30, "only {solved} solved MILPs");
}
