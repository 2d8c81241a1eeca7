//! Thread-count invariance: the number of threads solving at once is a
//! load condition, never a result.
//!
//! The solver is single-threaded and keeps no shared state, so the service
//! may run one solve per worker thread side by side. Over a seeded
//! random-MILP corpus, solving the cases spread over 2/4/8 concurrent threads
//! must report exactly the status, objective and point of the sequential
//! solve.

use std::thread;

use teccl_lp::model::{ConstraintOp, Model, Sense};
use teccl_lp::{Solution, SolveStatus};

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

/// A random bounded MILP mixing binary, general-integer and continuous
/// columns. Feasibility is not guaranteed — every thread count must agree on
/// infeasibility too.
fn random_milp(rng: &mut Lcg) -> Model {
    let nvars = 3 + rng.below(7);
    let ncons = 1 + rng.below(5);
    let sense = if rng.f() < 0.5 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut m = Model::new(sense);
    let mut vars = Vec::new();
    for j in 0..nvars {
        let obj = rng.range(-5.0, 5.0);
        let v = match rng.below(3) {
            0 => m.add_binary_var(format!("x{j}"), obj),
            1 => {
                let lb = rng.below(4) as f64 - 2.0;
                let ub = lb + rng.below(6) as f64;
                m.add_var(format!("x{j}"), lb, ub, obj, true)
            }
            _ => {
                let lb = rng.range(-8.0, 4.0);
                let ub = lb + rng.range(0.0, 12.0);
                m.add_var(format!("x{j}"), lb, ub, obj, false)
            }
        };
        vars.push(v);
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

/// Solves `models[i]` for every `i` in `which`, returning `(i, solution)`.
fn solve_all(models: &[Model], which: impl Iterator<Item = usize>) -> Vec<(usize, Solution)> {
    which
        .map(|i| {
            let sol = models[i]
                .solve()
                .unwrap_or_else(|e| panic!("case {i}: {e}"));
            (i, sol)
        })
        .collect()
}

#[test]
fn milp_statuses_and_objectives_are_thread_count_invariant() {
    let mut rng = Lcg(0x7452_ead5);
    let models: Vec<Model> = (0..200).map(|_| random_milp(&mut rng)).collect();
    let base: Vec<Solution> = solve_all(&models, 0..models.len())
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    for threads in [2usize, 4, 8] {
        // Case i runs on thread i % threads, concurrently with the others.
        let results: Vec<(usize, Solution)> = thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let models = &models;
                    s.spawn(move || solve_all(models, (t..models.len()).step_by(threads)))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("solver thread panicked"))
                .collect()
        });
        assert_eq!(results.len(), models.len());
        for (case, par) in results {
            let seq = &base[case];
            assert_eq!(
                par.status, seq.status,
                "case {case}: {threads} threads {:?} vs sequential {:?}",
                par.status, seq.status
            );
            if seq.status.has_solution() {
                assert_eq!(
                    par.objective.to_bits(),
                    seq.objective.to_bits(),
                    "case {case}: {threads} threads {} vs sequential {}",
                    par.objective,
                    seq.objective
                );
                assert_eq!(par.values, seq.values, "case {case} at {threads} threads");
            }
        }
    }
    let solved = base.iter().filter(|s| s.status.has_solution()).count();
    let infeasible = base
        .iter()
        .filter(|s| s.status == SolveStatus::Infeasible)
        .count();
    // The corpus must exercise both agreement modes.
    assert!(solved >= 60, "only {solved} solved MILPs");
    assert!(infeasible >= 10, "only {infeasible} infeasible MILPs");
}
