//! The top-level TE-CCL solver: formulation selection, epoch estimation,
//! schedule extraction and post-processing.

use std::time::{Duration, Instant};

use teccl_collective::{DemandMatrix, TenantDemand};
use teccl_lp::{SimplexBasis, Solution, SolveStats, SolveStatus};
use teccl_schedule::Schedule;
use teccl_topology::Topology;

use teccl_util::SolveBudget;

use crate::astar::solve_astar_budgeted;
use crate::config::{SolverConfig, SwitchModel};
use crate::epochs::{delta_epochs, epoch_duration, estimate_num_epochs, kappa_epochs};
use crate::error::TeCclError;
use crate::extract::{prune_sends, schedule_from_sends};
use crate::lp_form::LpFormulation;
use crate::milp_form::{MilpBuildOptions, MilpFormulation};
use crate::switch::hyperedge_transform;

/// Which formulation produced a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormulationKind {
    /// The general MILP (§3.1) — supports copy, optimal.
    GeneralMilp,
    /// The LP for copy-free demands (§4.1) — optimal, scalable.
    Lp,
    /// The A* time-partitioned solver (§4.2) — copy, scalable, sub-optimal.
    AStar,
}

/// Which formulation a solve asks for: the one decision [`TeCcl::solve`]
/// makes per demand. The names are the schedule service's wire and cache-key
/// names, so they must never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Automatic dispatch: LP for copy-free demands, otherwise the MILP on
    /// small topologies and A* on larger ones.
    #[default]
    Auto,
    /// The general MILP (§3.1).
    Milp,
    /// The copy-free LP (§4.1).
    Lp,
    /// The A* time-partitioned solver (§4.2).
    AStar,
}

impl Method {
    /// Stable wire / hash name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Auto => "auto",
            Method::Milp => "milp",
            Method::Lp => "lp",
            Method::AStar => "astar",
        }
    }

    /// Parses the wire name.
    pub fn from_name(s: &str) -> Option<Method> {
        Some(match s {
            "auto" => Method::Auto,
            "milp" => Method::Milp,
            "lp" => Method::Lp,
            "astar" => Method::AStar,
            _ => return None,
        })
    }
}

/// The result of a TE-CCL solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The schedule (already pruned of useless flows).
    pub schedule: Schedule,
    /// The topology the schedule refers to — identical to the input topology
    /// unless the hyper-edge switch model transformed it.
    pub topology_used: Topology,
    /// Which formulation was used.
    pub formulation: FormulationKind,
    /// The underlying solver status (Optimal / Feasible for early stop).
    pub status: SolveStatus,
    /// Wall-clock solver time.
    pub solver_time: Duration,
    /// Number of epochs given to the formulation.
    pub num_epochs: usize,
    /// Epoch duration τ in seconds.
    pub epoch_duration: f64,
    /// Relative MIP gap at termination (0 for LPs / proven optima).
    pub mip_gap: f64,
    /// Underlying solver statistics (simplex iterations, B&B nodes, LU
    /// factorizations, warm/cold starts) aggregated over the whole solve —
    /// across rounds for A*.
    pub stats: SolveStats,
    /// The final warm-start basis the solve published (the root relaxation's
    /// basis for MILPs, the final LP basis for LPs, the last round's root
    /// basis for A*), if any: the schedule service feeds it into
    /// [`TeCcl::solve`] so a cache-adjacent request (same topology and
    /// collective, neighbouring buffer-size bucket) re-optimizes from it
    /// instead of starting cold.
    pub basis: Option<SimplexBasis>,
}

/// The TE-CCL collective communication optimizer.
///
/// Construct it once per topology and call [`TeCcl::solve`] per demand; the
/// solver picks the right formulation (LP for copy-free demands, MILP for
/// copy-friendly demands on small topologies, A* on larger ones), following
/// the paper's usage of its three algorithms.
#[derive(Debug, Clone)]
pub struct TeCcl {
    topology: Topology,
    config: SolverConfig,
    /// Cooperative budget threaded into every solve this instance runs. Kept
    /// out of [`SolverConfig`] on purpose: a deadline is a property of one
    /// request, not of the problem, and must not perturb the content-
    /// addressed cache keys the service derives from the config.
    budget: Option<SolveBudget>,
}

/// GPU count above which the automatic dispatcher prefers A* over the
/// monolithic MILP for copy-friendly demands (the paper switches to A* on
/// multi-chassis topologies for the same reason, §4.2/§6.2).
const ASTAR_GPU_THRESHOLD: usize = 12;

impl TeCcl {
    /// Creates a solver for a topology.
    pub fn new(topology: Topology, config: SolverConfig) -> Self {
        Self {
            topology,
            config,
            budget: None,
        }
    }

    /// Attaches a cooperative [`SolveBudget`] (deadline / cancel flag /
    /// iteration cap) checked inside every pivot, branch-and-bound node and
    /// A* round of every solve run through this instance. When it trips:
    /// MILP/LP solves return their best incumbent with `stats.budget_stop`
    /// set, or [`TeCclError::Budget`] when no feasible point exists yet; A*
    /// always returns [`TeCclError::Budget`] (a prefix of rounds is not a
    /// schedule).
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Prepares the (possibly hyper-edge transformed) topology, the epoch
    /// duration and the epoch count for a demand.
    fn prepare(
        &self,
        demand: &DemandMatrix,
        chunk_bytes: f64,
    ) -> (Topology, Vec<crate::switch::HyperEdgeGroup>, f64, usize) {
        let (topo, groups) = match self.config.switch_model {
            SwitchModel::HyperEdge => hyperedge_transform(&self.topology),
            _ => (self.topology.clone(), Vec::new()),
        };
        let tau = epoch_duration(&topo, chunk_bytes, &self.config);
        let k = self
            .config
            .max_epochs
            .unwrap_or_else(|| estimate_num_epochs(&topo, demand, chunk_bytes, tau));
        (topo, groups, tau, k)
    }

    /// Solves a demand with `method` — the one solve entry point. With
    /// [`Method::Auto`] the solver picks the formulation: copy-free demands
    /// use the LP; copy-friendly demands use the MILP on small topologies
    /// and A* on larger ones. The MILP and LP retry with a doubled epoch
    /// budget (up to three attempts) while the formulation is infeasible.
    ///
    /// `basis` is an externally supplied warm start — the schedule service
    /// passes the basis a cache-adjacent solve published. It seeds the root
    /// relaxation of every epoch attempt (of the first round, for A*); a
    /// basis of the wrong shape (from a different size bucket whose epoch count
    /// differs, say) silently falls back to a cold start inside the LP
    /// layer, so a stale hint can cost a failed warm attempt but never
    /// correctness.
    pub fn solve(
        &self,
        demand: &DemandMatrix,
        chunk_bytes: f64,
        method: Method,
        basis: Option<&SimplexBasis>,
    ) -> Result<SolveOutcome, TeCclError> {
        let method = match method {
            Method::Auto if !demand.benefits_from_copy() => Method::Lp,
            Method::Auto if self.topology.num_gpus() > ASTAR_GPU_THRESHOLD => Method::AStar,
            Method::Auto => Method::Milp,
            m => m,
        };
        let start = Instant::now();
        let (topo, groups, tau, k0) = self.prepare(demand, chunk_bytes);
        let budget = self.budget.as_ref();
        if method == Method::AStar {
            let out =
                solve_astar_budgeted(&topo, demand, chunk_bytes, &self.config, tau, basis, budget)?;
            let delta_of = |a, b| {
                topo.link_between(a, b)
                    .map(|l| delta_epochs(l, tau) + kappa_epochs(l, chunk_bytes, tau) - 1)
                    .unwrap_or(0)
            };
            let pruned = prune_sends(&out.sends, demand, &out.initial_holders, delta_of);
            let schedule = schedule_from_sends(
                "te-ccl-astar",
                chunk_bytes,
                tau,
                pruned,
                start.elapsed().as_secs_f64(),
            );
            return Ok(SolveOutcome {
                schedule,
                topology_used: topo,
                formulation: FormulationKind::AStar,
                status: SolveStatus::Feasible,
                solver_time: start.elapsed(),
                num_epochs: out.rounds * out.epochs_per_round,
                epoch_duration: tau,
                mip_gap: f64::NAN,
                stats: out.stats.clone(),
                basis: out.final_basis,
            });
        }

        let options = MilpBuildOptions {
            hyperedge_groups: groups,
            ..Default::default()
        };
        // One attempt at `k` epochs: build, solve, extract. The MILP prunes
        // its sends and keeps at least `k` epochs; the LP's schedule ends at
        // its completion epoch.
        let attempt = |k: usize| -> Result<(Schedule, Solution), TeCclError> {
            if method == Method::Lp {
                let form = LpFormulation::build(&topo, demand, chunk_bytes, &self.config, k, tau)?;
                let sol = form.solve_budgeted(&self.config, basis, budget)?;
                let sends = form.extract_sends(&sol, demand);
                let elapsed = start.elapsed().as_secs_f64();
                let mut schedule =
                    schedule_from_sends("te-ccl-lp", chunk_bytes, tau, sends, elapsed);
                schedule.num_epochs = schedule.num_epochs.max(form.completion_epoch(&sol) + 1);
                return Ok((schedule, sol));
            }
            let form =
                MilpFormulation::build(&topo, demand, chunk_bytes, &self.config, k, tau, &options)?;
            let sol = form.solve_budgeted(&self.config, basis, budget)?;
            let pruned = prune_sends(&form.sends(&sol), demand, form.initial_holders(), |a, b| {
                form.delta_of(a, b)
            });
            let elapsed = start.elapsed().as_secs_f64();
            let mut schedule =
                schedule_from_sends("te-ccl-milp", chunk_bytes, tau, pruned, elapsed);
            schedule.num_epochs = schedule.num_epochs.max(k);
            Ok((schedule, sol))
        };

        let mut k = k0.max(2);
        let mut last_err = TeCclError::NoSolution;
        for _attempt in 0..3 {
            match attempt(k) {
                Ok((schedule, sol)) => {
                    return Ok(SolveOutcome {
                        schedule,
                        topology_used: topo,
                        formulation: match method {
                            Method::Lp => FormulationKind::Lp,
                            _ => FormulationKind::GeneralMilp,
                        },
                        status: sol.status,
                        solver_time: start.elapsed(),
                        num_epochs: k,
                        epoch_duration: tau,
                        mip_gap: match method {
                            Method::Lp => 0.0,
                            _ => sol.stats.mip_gap,
                        },
                        stats: sol.stats.clone(),
                        basis: sol.basis,
                    });
                }
                Err(TeCclError::InfeasibleWithEpochs(_)) => {
                    last_err = TeCclError::InfeasibleWithEpochs(k);
                    k *= 2;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// Solves a multi-tenant problem (§5): the per-tenant demands are summed
    /// into one demand matrix (disjoint chunk-id ranges) and the tenants'
    /// priorities weight the objective terms of their chunks.
    pub fn solve_multi_tenant(
        &self,
        tenants: &[TenantDemand],
        chunk_bytes: f64,
    ) -> Result<SolveOutcome, TeCclError> {
        if tenants.is_empty() {
            return Err(TeCclError::EmptyDemand);
        }
        let demands: Vec<DemandMatrix> = tenants.iter().map(|t| t.demand.clone()).collect();
        let (combined, ranges) = DemandMatrix::combine(&demands);
        let mut priorities = vec![1.0; combined.num_chunks];
        for (tenant, range) in tenants.iter().zip(ranges.iter()) {
            for c in range.clone() {
                priorities[c] = tenant.priority;
            }
        }
        let mut solver = self.clone();
        solver.config.chunk_priorities = Some(priorities);
        solver.solve(&combined, chunk_bytes, Method::Auto, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teccl_collective::CollectiveKind;
    use teccl_schedule::{simulate, validate};
    use teccl_topology::{internal2, line_topology, ring_topology, NodeId};

    fn check_outcome(outcome: &SolveOutcome, demand: &DemandMatrix) {
        let report = validate(&outcome.topology_used, demand, &outcome.schedule, false);
        assert!(report.is_valid(), "schedule invalid: {:?}", report.errors);
        let sim = simulate(&outcome.topology_used, demand, &outcome.schedule).unwrap();
        assert!(sim.transfer_time > 0.0);
    }

    #[test]
    fn auto_dispatch_allgather_uses_milp_small() {
        let topo = ring_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_gather(3, &gpus, 1);
        let solver = TeCcl::new(topo, SolverConfig::default());
        let out = solver.solve(&demand, 1e6, Method::Auto, None).unwrap();
        assert_eq!(out.formulation, FormulationKind::GeneralMilp);
        check_outcome(&out, &demand);
    }

    #[test]
    fn auto_dispatch_alltoall_uses_lp() {
        let topo = ring_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_to_all(4, &gpus, 1);
        let solver = TeCcl::new(topo, SolverConfig::default());
        let out = solver.solve(&demand, 1e6, Method::Auto, None).unwrap();
        assert_eq!(out.formulation, FormulationKind::Lp);
        check_outcome(&out, &demand);
    }

    #[test]
    fn broadcast_line_schedule_is_relay() {
        let topo = line_topology(3, 1e9, 1e-6);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::broadcast(3, &gpus, NodeId(0), 1);
        let solver = TeCcl::new(topo, SolverConfig::default());
        let out = solver.solve(&demand, 1e6, Method::Auto, None).unwrap();
        check_outcome(&out, &demand);
        // Pruned schedule should be exactly the 2-hop relay.
        assert_eq!(out.schedule.num_sends(), 2);
    }

    #[test]
    fn explicit_astar_solves_allgather() {
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::all_gather(4, &gpus, 1);
        let config = SolverConfig {
            astar_epochs_per_round: Some(3),
            ..Default::default()
        };
        let solver = TeCcl::new(topo, config);
        let out = solver.solve(&demand, 1e6, Method::AStar, None).unwrap();
        assert_eq!(out.formulation, FormulationKind::AStar);
        check_outcome(&out, &demand);
    }

    #[test]
    fn hyperedge_switch_model_produces_runnable_schedule() {
        // Internal2 x2 has a switch; with the hyper-edge model the schedule
        // runs over the transformed topology.
        let topo = internal2(2);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::broadcast(topo.num_nodes(), &gpus, gpus[0], 1);
        let solver = TeCcl::new(topo, SolverConfig::taccl_comparable().with_max_epochs(6));
        let out = solver.solve(&demand, 1e6, Method::Milp, None).unwrap();
        // The switch is bypassed: direct cross-chassis hyper-edges exist and
        // no link touches the switch node anymore.
        let sw = solver.topology().switches().next().unwrap();
        assert_eq!(out.topology_used.out_links(sw).count(), 0);
        assert!(out.topology_used.link_between(gpus[0], gpus[2]).is_some());
        check_outcome(&out, &demand);
    }

    #[test]
    fn multi_tenant_combines_and_prioritizes() {
        let topo = ring_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let t1 = TenantDemand::new("hi", DemandMatrix::all_gather(3, &gpus, 1)).with_priority(4.0);
        let t2 = TenantDemand::new("lo", DemandMatrix::all_gather(3, &gpus, 1));
        let solver = TeCcl::new(topo, SolverConfig::default().with_max_epochs(8));
        let out = solver.solve_multi_tenant(&[t1, t2], 1e6).unwrap();
        // Both tenants' demands are in the combined matrix and must be valid.
        let demands: Vec<DemandMatrix> = vec![
            DemandMatrix::all_gather(3, &gpus, 1),
            DemandMatrix::all_gather(3, &gpus, 1),
        ];
        let (combined, _) = DemandMatrix::combine(&demands);
        check_outcome(&out, &combined);
    }

    #[test]
    fn infeasible_epoch_budget_retries_and_succeeds() {
        // max_epochs = 1 (raised to the two-epoch floor) is not enough for a
        // 3-hop broadcast (MILP route) or a line ALLTOALL (LP route); the
        // retry with a doubled budget must succeed on both routes.
        let topo = line_topology(4, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let cases = [
            (
                DemandMatrix::broadcast(4, &gpus, NodeId(0), 1),
                FormulationKind::GeneralMilp,
            ),
            (DemandMatrix::all_to_all(4, &gpus, 1), FormulationKind::Lp),
        ];
        for (demand, route) in cases {
            let solver = TeCcl::new(topo.clone(), SolverConfig::default().with_max_epochs(1));
            let out = solver.solve(&demand, 1e6, Method::Auto, None).unwrap();
            assert_eq!(out.formulation, route);
            assert!(out.num_epochs > 2, "{route:?} did not retry");
            check_outcome(&out, &demand);
        }
    }

    #[test]
    fn gather_collective_via_kind_builder() {
        let topo = line_topology(3, 1e9, 0.0);
        let gpus: Vec<NodeId> = topo.gpus().collect();
        let demand = DemandMatrix::for_collective(CollectiveKind::Gather, 3, &gpus, 1);
        let solver = TeCcl::new(topo, SolverConfig::default());
        let out = solver.solve(&demand, 1e6, Method::Auto, None).unwrap();
        assert_eq!(out.formulation, FormulationKind::Lp);
        check_outcome(&out, &demand);
    }

    #[test]
    fn empty_tenant_list_rejected() {
        let topo = line_topology(2, 1e9, 0.0);
        let solver = TeCcl::new(topo, SolverConfig::default());
        assert!(matches!(
            solver.solve_multi_tenant(&[], 1e6),
            Err(TeCclError::EmptyDemand)
        ));
    }
}
