//! Oversubscription smoke test: more solving threads than cores is a *load*
//! condition, never a *correctness* condition.
//!
//! A service configured with more workers than the host has cores runs that
//! many branch-and-bound solves at once. Every one of them, time-sliced
//! against the others, must report exactly what the lone sequential solve
//! does. The thread count is pinned *above* the detected parallelism, so the
//! oversubscribed regime is exercised regardless of the host.

use std::thread;

use teccl_lp::model::{ConstraintOp, Model, Sense};

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

/// A random bounded MILP (the `thread_invariance` recipe, smaller corpus —
/// this file is about the oversubscribed regime, not coverage breadth).
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
            _ => ConstraintOp::Le,
        };
        let rhs = rng.range(-10.0, 25.0);
        m.add_cons(format!("c{i}"), &terms, op, rhs);
    }
    m
}

/// A thread count guaranteed to oversubscribe this host: at least 4, and
/// strictly above whatever parallelism the machine actually has.
fn oversubscribed_threads() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    (cores + 1).max(4)
}

#[test]
fn oversubscribed_bnb_matches_sequential() {
    let threads = oversubscribed_threads();
    let mut rng = Lcg(0x5_0b5c41be);
    let models: Vec<Model> = (0..40).map(|_| random_milp(&mut rng)).collect();
    let solve = |case: usize| {
        models[case]
            .solve()
            .unwrap_or_else(|e| panic!("case {case}: {e}"))
    };
    let base: Vec<_> = (0..models.len()).map(solve).collect();
    // Every thread solves the whole corpus, all of them at once.
    let runs: Vec<Vec<_>> = thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| (0..models.len()).map(solve).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("solver thread panicked"))
            .collect()
    });
    let mut solved = 0usize;
    for (case, seq) in base.iter().enumerate() {
        for run in &runs {
            let over = &run[case];
            assert_eq!(
                over.status,
                seq.status,
                "case {case}: {threads} threads on {} core(s) changed the status",
                threads - 1
            );
            if seq.status.has_solution() {
                assert_eq!(
                    over.objective.to_bits(),
                    seq.objective.to_bits(),
                    "case {case}: oversubscribed objective {} vs sequential {}",
                    over.objective,
                    seq.objective
                );
            }
        }
        if seq.status.has_solution() {
            solved += 1;
        }
    }
    assert!(
        solved >= 10,
        "only {solved} solved MILPs in the smoke corpus"
    );
}
