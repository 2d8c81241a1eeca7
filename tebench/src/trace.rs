//! The traced run: the same request stream replayed in-process through each
//! layer's public functions, with spans recorded here, around the calls.
//! Nothing inside the program is instrumented.
//!
//! Requests whose deadline is meant to be met are replayed without it
//! (`Item::traced_line`), so the exact work counters cannot depend on how
//! fast the machine is.
//!
//! Per request: `protocol::parse_request` → `SolveRequest::key` →
//! `ScheduleService::request` → `protocol::solve_response` + `to_json`.
//! After the replay, every exact miss goes once more through the public
//! solver pipeline (epochs → formulation build or A* → `solve_budgeted` →
//! extraction → `validate` + `simulate`), which must reproduce the served
//! schedule send for send and pivot for pivot; otherwise the per-layer
//! numbers would describe a different program than the one that served.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use teccl_baselines::{ring_all_gather, shortest_path_schedule};
use teccl_collective::CollectiveKind;
use teccl_core::astar::solve_astar_budgeted;
use teccl_core::epochs::{delta_epochs, epoch_duration, estimate_num_epochs, kappa_epochs};
use teccl_core::extract::{prune_sends, schedule_from_sends};
use teccl_core::lp_form::LpFormulation;
use teccl_core::milp_form::{MilpBuildOptions, MilpFormulation};
use teccl_core::TeCclError;
use teccl_lp::{SimplexBasis, SolveStats};
use teccl_schedule::{simulate, validate, Schedule};
use teccl_service::protocol::{parse_request, solve_response, Request};
use teccl_service::{
    CacheStatus, DiskStore, Quality, RequestMethod, ScheduleService, ServedSchedule, ServiceStats,
    SolveRequest,
};
use teccl_topology::NodeId;
use teccl_util::hash::fnv1a64;
use teccl_util::json::Value;

use crate::check::Distinct;
use crate::drive::ScratchDir;
use crate::report::{median, ratio, Metric, Outcome};
use crate::workload::{Plan, WARMUP};

/// GPU count above which `auto` dispatches copy-friendly demands to A*
/// instead of the monolithic MILP (the solver keeps this threshold private;
/// a change there shows up here as a replica-fidelity failure).
const AUTO_ASTAR_ABOVE_GPUS: usize = 12;

/// Workloads whose work counters must repeat exactly for a seed.
const EXACT_COUNTER_WORKLOADS: [&str; 2] = ["solve_cold", "solve_warm"];

struct Span {
    id: u32,
    req: u32,
    parent: Option<u32>,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// One thread's spans, kept in memory until the run ends.
struct Tracer<'a> {
    ids: &'a AtomicU32,
    spans: Vec<Span>,
}

impl<'a> Tracer<'a> {
    fn new(ids: &'a AtomicU32) -> Self {
        Tracer {
            ids,
            spans: Vec::new(),
        }
    }

    /// Opens a span; returns its index in this tracer.
    fn open(&mut self, name: &'static str, req: u32, parent: Option<u32>) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            id: self.ids.fetch_add(1, Ordering::Relaxed),
            req,
            parent,
            name,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, i: usize) {
        self.spans[i].end = Instant::now();
    }

    fn id(&self, i: usize) -> u32 {
        self.spans[i].id
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &'static str, req: u32, parent: u32, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, req, Some(parent));
        let out = f();
        self.close(s);
        out
    }
}

/// Sample lists and sums gathered at the layer boundaries.
#[derive(Default)]
struct Acc {
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, f64>,
}

impl Acc {
    fn push(&mut self, k: &'static str, v: f64) {
        self.samples.entry(k).or_default().push(v);
    }

    fn add(&mut self, k: &'static str, v: f64) {
        *self.sums.entry(k).or_default() += v;
    }

    fn sum(&self, k: &str) -> f64 {
        self.sums.get(k).copied().unwrap_or(0.0)
    }

    fn med(&self, k: &str) -> (f64, usize) {
        self.samples
            .get(k)
            .map_or((0.0, 0), |v| (median(v), v.len()))
    }
}

/// One replayed request.
struct Rec {
    /// Position in replay order: warm-up and pre-solves first, then the stream.
    seq: usize,
    item: usize,
    /// Request id shared by all of its spans.
    req: u32,
    /// Id of the request's root span.
    root: u32,
    served: Result<ServedSchedule, String>,
    /// Root span duration (parse through reply).
    dur_s: f64,
    /// `ScheduleService::request` duration.
    service_s: f64,
}

fn solve_of(line: &str) -> Result<SolveRequest, String> {
    match parse_request(line) {
        Ok(Request::Solve(req)) => Ok(*req),
        Ok(_) => Err("not a solve request".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// One request through the protocol, key and service layers, spans on.
fn traced_request(
    tr: &mut Tracer,
    acc: &mut Acc,
    service: &ScheduleService,
    seq: usize,
    item: usize,
    line: &str,
) -> Rec {
    let req_id = seq as u32;
    let root = tr.open("request", req_id, None);
    let root_id = tr.id(root);
    let parsed = tr.span("service.protocol.parse", req_id, root_id, || solve_of(line));
    let mut service_s = 0.0;
    let served = parsed.and_then(|req| {
        tr.span("service.key.derive", req_id, root_id, || {
            black_box(req.key())
        });
        let s = tr.open("service.request", req_id, Some(root_id));
        let served = service.request(req).map_err(|e| e.to_string());
        tr.close(s);
        service_s = (tr.spans[s].end - tr.spans[s].start).as_secs_f64();
        let served = served?;
        let bytes = tr.span("service.protocol.reply", req_id, root_id, || {
            solve_response(&served).to_json().len()
        });
        acc.push("reply_bytes", bytes as f64);
        Ok(served)
    });
    tr.close(root);
    let dur_s = (tr.spans[root].end - tr.spans[root].start).as_secs_f64();
    Rec {
        seq,
        item,
        req: req_id,
        root: root_id,
        served,
        dur_s,
        service_s,
    }
}

/// The same path with spans off: the baseline for the tracing overhead.
fn plain_request(service: &ScheduleService, line: &str) -> (Result<ServedSchedule, String>, f64) {
    let t = Instant::now();
    let served = solve_of(line).and_then(|req| {
        black_box(req.key());
        let served = service.request(req).map_err(|e| e.to_string())?;
        black_box(solve_response(&served).to_json());
        Ok(served)
    });
    (served, t.elapsed().as_secs_f64())
}

fn start_service(plan: &Plan, disk: &Option<ScratchDir>) -> Result<ScheduleService, String> {
    let mut config = plan.config.clone();
    config.disk_dir = disk.as_ref().map(|d| d.0.clone());
    ScheduleService::start(config).map_err(|e| format!("start service: {e}"))
}

fn setup_order(plan: &Plan) -> Vec<usize> {
    std::iter::once(WARMUP)
        .chain(plan.presolve.iter().copied())
        .collect()
}

/// What the traced replay hands back: its records in replay order, the
/// tracers holding its spans, the samples taken at the layer boundaries,
/// and the service counters before and after the stream.
struct TracedPass<'a> {
    recs: Vec<Rec>,
    tracers: Vec<Tracer<'a>>,
    acc: Acc,
    before: ServiceStats,
    after: ServiceStats,
}

/// Replays warm-up, pre-solves and the first `plan.traced_requests` stream
/// entries with spans on.
fn traced_pass<'a>(plan: &Plan, ids: &'a AtomicU32) -> Result<TracedPass<'a>, String> {
    let disk = plan
        .disk
        .then(|| ScratchDir::new(&format!("{}-traced", plan.name)));
    let service = start_service(plan, &disk)?;
    let mut acc = Acc::default();
    let mut tr = Tracer::new(ids);
    let setup = setup_order(plan);
    let mut recs: Vec<Rec> = setup
        .iter()
        .enumerate()
        .map(|(seq, &i)| {
            traced_request(
                &mut tr,
                &mut acc,
                &service,
                seq,
                i,
                plan.items[i].traced_line(),
            )
        })
        .collect();
    let before = service.stats();
    let n = plan.traced_requests.min(plan.stream.len());
    let first = setup.len();
    let next = AtomicUsize::new(0);
    let mut tracers = vec![tr];
    let per_thread: Vec<(Vec<Rec>, Tracer, Acc)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.clients)
            .map(|_| {
                let (next, service) = (&next, &service);
                s.spawn(move || {
                    let mut tr = Tracer::new(ids);
                    let mut acc = Acc::default();
                    let mut recs = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = plan.stream[i] as usize;
                        let line = plan.items[item].traced_line();
                        recs.push(traced_request(
                            &mut tr,
                            &mut acc,
                            service,
                            first + i,
                            item,
                            line,
                        ));
                    }
                    (recs, tr, acc)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    for (r, t, a) in per_thread {
        recs.extend(r);
        tracers.push(t);
        for (k, v) in a.samples {
            acc.samples.entry(k).or_default().extend(v);
        }
    }
    let after = service.stats();
    service.shutdown();
    recs.sort_by_key(|r| r.seq);
    Ok(TracedPass {
        recs,
        tracers,
        acc,
        before,
        after,
    })
}

/// The same replay with spans off; returns the summed stream-request time
/// and the service counters over the stream.
fn plain_pass(plan: &Plan) -> Result<(f64, ServiceStats, ServiceStats), String> {
    let disk = plan
        .disk
        .then(|| ScratchDir::new(&format!("{}-plain", plan.name)));
    let service = start_service(plan, &disk)?;
    for i in setup_order(plan) {
        plain_request(&service, plan.items[i].traced_line()).0?;
    }
    let before = service.stats();
    let n = plan.traced_requests.min(plan.stream.len());
    let next = AtomicUsize::new(0);
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.clients)
            .map(|_| {
                let (next, service) = (&next, &service);
                s.spawn(move || {
                    let mut sum = 0.0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break sum;
                        }
                        let item = plan.stream[i] as usize;
                        sum += plain_request(service, plan.items[item].traced_line()).1;
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .sum()
    });
    let after = service.stats();
    service.shutdown();
    Ok((total, before, after))
}

/// What the replica of one solve produced.
struct Replica {
    schedule: Schedule,
    stats: SolveStats,
    basis: Option<SimplexBasis>,
}

#[derive(Clone, Copy, PartialEq)]
enum Route {
    Lp,
    Milp,
    AStar,
}

/// Re-runs one solve through the public solver pipeline, with spans.
fn replica(
    tr: &mut Tracer,
    acc: &mut Acc,
    req_id: u32,
    parent: u32,
    req: &SolveRequest,
    hint: Option<&SimplexBasis>,
) -> Result<Replica, String> {
    let topo = &req.topology;
    let demand = req.demand();
    let chunk = req.chunk_bytes();
    let config = &req.config;
    let (tau, k0) = tr.span("core.epochs", req_id, parent, || {
        let tau = epoch_duration(topo, chunk, config);
        let k = config
            .max_epochs
            .unwrap_or_else(|| estimate_num_epochs(topo, &demand, chunk, tau));
        (tau, k)
    });
    let route = match req.method {
        RequestMethod::Lp => Route::Lp,
        RequestMethod::Milp => Route::Milp,
        RequestMethod::AStar => Route::AStar,
        RequestMethod::Auto if !demand.benefits_from_copy() => Route::Lp,
        RequestMethod::Auto if topo.num_gpus() > AUTO_ASTAR_ABOVE_GPUS => Route::AStar,
        RequestMethod::Auto => Route::Milp,
    };
    let (schedule, stats, basis) = if route == Route::AStar {
        let out = tr
            .span("core.astar", req_id, parent, || {
                solve_astar_budgeted(topo, &demand, chunk, config, tau, hint, None)
            })
            .map_err(|e| e.to_string())?;
        acc.add("astar_rounds", out.rounds as f64);
        let schedule = tr.span("core.extract", req_id, parent, || {
            let delta_of = |a, b| {
                topo.link_between(a, b)
                    .map(|l| delta_epochs(l, tau) + kappa_epochs(l, chunk, tau) - 1)
                    .unwrap_or(0)
            };
            let pruned = prune_sends(&out.sends, &demand, &out.initial_holders, delta_of);
            schedule_from_sends("te-ccl-astar", chunk, tau, pruned, 0.0)
        });
        (schedule, out.stats, out.final_basis)
    } else {
        let mut k = k0.max(2);
        let mut found = None;
        for _attempt in 0..3 {
            let t_attempt = Instant::now();
            let built = if route == Route::Lp {
                tr.span("core.lp_form", req_id, parent, || {
                    LpFormulation::build(topo, &demand, chunk, config, k, tau).map(Form::Lp)
                })
            } else {
                tr.span("core.milp_form", req_id, parent, || {
                    let options = MilpBuildOptions::default();
                    MilpFormulation::build(topo, &demand, chunk, config, k, tau, &options)
                        .map(Form::Milp)
                })
            }
            .map_err(|e| e.to_string())?;
            let model = built.model();
            acc.push("build_rows", model.num_cons() as f64);
            acc.push("build_cols", model.num_vars() as f64);
            acc.push("epochs_k", k as f64);
            let sol = tr.span("lp.solve", req_id, parent, || match &built {
                Form::Lp(f) => f.solve_budgeted(config, hint, None),
                Form::Milp(f) => f.solve_budgeted(config, hint, None),
            });
            match sol {
                Ok(sol) => {
                    let schedule = tr.span("core.extract", req_id, parent, || match &built {
                        Form::Lp(f) => {
                            let sends = f.extract_sends(&sol, &demand);
                            let mut s = schedule_from_sends("te-ccl-lp", chunk, tau, sends, 0.0);
                            s.num_epochs = s.num_epochs.max(f.completion_epoch(&sol) + 1);
                            s
                        }
                        Form::Milp(f) => {
                            let sends = f.sends(&sol);
                            let pruned =
                                prune_sends(&sends, &demand, f.initial_holders(), |a, b| {
                                    f.delta_of(a, b)
                                });
                            let mut s = schedule_from_sends("te-ccl-milp", chunk, tau, pruned, 0.0);
                            s.num_epochs = s.num_epochs.max(k);
                            s
                        }
                    });
                    found = Some((schedule, sol.stats.clone(), sol.basis));
                    break;
                }
                Err(TeCclError::InfeasibleWithEpochs(_)) => {
                    acc.add("epochs_retries", 1.0);
                    acc.add("epochs_retry_ms", t_attempt.elapsed().as_secs_f64() * 1e3);
                    k *= 2;
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        found.ok_or("no feasible epoch horizon within three attempts")?
    };
    if route == Route::Lp && hint.is_some() {
        acc.add("hinted_lp_solves", 1.0);
        acc.add("warm_lp_solves", (stats.warm_starts > 0) as u8 as f64);
    }
    let report = tr.span("schedule.validate", req_id, parent, || {
        validate(topo, &demand, &schedule, false)
    });
    if !report.is_valid() {
        return Err(format!("replica schedule is invalid: {:?}", report.errors));
    }
    tr.span("schedule.simulate", req_id, parent, || {
        simulate(topo, &demand, &schedule)
    })
    .map_err(|e| format!("replica schedule failed simulation: {e}"))?;
    for (k, v) in [
        ("lp_iters", stats.simplex_iterations),
        ("lp_dual_iters", stats.dual_iterations),
        ("lp_factorizations", stats.factorizations),
        ("lp_bb_nodes", stats.nodes_explored),
        ("lp_cols_fixed", stats.cols_fixed),
        ("lp_rows_freed", stats.rows_freed),
        ("sends", schedule.num_sends()),
    ] {
        acc.add(k, v as f64);
    }
    Ok(Replica {
        schedule,
        stats,
        basis,
    })
}

enum Form {
    Lp(LpFormulation),
    Milp(MilpFormulation),
}

impl Form {
    fn model(&self) -> &teccl_lp::Model {
        match self {
            Form::Lp(f) => &f.model,
            Form::Milp(f) => &f.model,
        }
    }
}

/// The ladder's instant baseline, rebuilt the way the service builds it.
fn baseline_replica(req: &SolveRequest) -> Result<Schedule, String> {
    let demand = req.demand();
    let chunk = req.chunk_bytes();
    let topo = &req.topology;
    let schedule = match req.collective {
        CollectiveKind::AllGather => {
            let gpus: Vec<NodeId> = topo.gpus().collect();
            ring_all_gather(topo, &gpus, req.chunks, chunk)
                .unwrap_or_else(|| shortest_path_schedule(topo, &demand, chunk))
        }
        _ => shortest_path_schedule(topo, &demand, chunk),
    };
    if !validate(topo, &demand, &schedule, false).is_valid() {
        return Err("baseline replica is invalid".into());
    }
    simulate(topo, &demand, &schedule).map_err(|e| e.to_string())?;
    Ok(schedule)
}

/// Mirror of the service's warm-start book: the hint a miss received is
/// the first published basis at its own bucket, then ±1, ±2. Positions a
/// deadline-stopped solve published to are tainted: what the service holds
/// there depends on when the deadline fired, so no replica can know it.
#[derive(Default)]
struct HintBook {
    bases: HashMap<(u64, i64), SimplexBasis>,
    tainted: HashSet<(u64, i64)>,
}

enum Hint<'a> {
    Known(Option<&'a SimplexBasis>),
    Unknown,
}

impl HintBook {
    fn hint(&self, family: u64, bucket: i64) -> Hint<'_> {
        for d in [0i64, -1, 1, -2, 2] {
            let at = (family, bucket + d);
            if self.tainted.contains(&at) {
                return Hint::Unknown;
            }
            if let Some(b) = self.bases.get(&at) {
                return Hint::Known(Some(b));
            }
        }
        Hint::Known(None)
    }
}

/// Runs the traced measurement and returns the per-layer metrics.
pub fn run(plan: &Plan, seed: u64) -> Result<Outcome, String> {
    let ids = AtomicU32::new(0);
    let TracedPass {
        recs,
        mut tracers,
        mut acc,
        before,
        after,
    } = traced_pass(plan, &ids)?;
    let mut problems = Vec::new();

    // Output checks on every distinct served schedule.
    let mut distinct = Distinct::default();
    for r in &recs {
        match &r.served {
            Ok(s) => distinct.record(s.entry.key.hash, s.quality, r.item, &s.entry.output),
            Err(e) => problems.push(format!("request {} failed: {e}", r.seq)),
        }
    }
    problems.extend(distinct.check(&plan.items));

    // Replicas, in replay order, on a tracer of their own.
    let mut rt = Tracer::new(&ids);
    let mut book = HintBook::default();
    let side = plan
        .disk
        .then(|| ScratchDir::new(&format!("{}-side", plan.name)));
    let side_store = match &side {
        Some(d) => Some(DiskStore::open(&d.0).map_err(|e| format!("side store: {e}"))?),
        None => None,
    };
    let (mut checked, mut skipped, mut missing_loads) = (0usize, 0usize, 0usize);
    for r in &recs {
        let Ok(served) = &r.served else { continue };
        let entry = &served.entry;
        let req = &plan.items[r.item].req;
        let at = (entry.key.family, entry.key.size_bucket);
        // A stale answer's solver time belongs to another request's solve.
        if served.cache == CacheStatus::Miss && served.quality != Quality::Stale {
            acc.push(
                "miss_overhead_ms",
                (r.service_s - entry.output.metrics.solver_time) * 1e3,
            );
        }
        match (served.cache, served.quality) {
            (CacheStatus::Miss, Quality::Exact) => {
                let hint = match book.hint(at.0, at.1) {
                    Hint::Known(h) => h.cloned(),
                    Hint::Unknown => {
                        skipped += 1;
                        continue;
                    }
                };
                let root = rt.open("replica", r.req, Some(r.root));
                let root_id = rt.id(root);
                let rep = replica(&mut rt, &mut acc, r.req, root_id, req, hint.as_ref());
                rt.close(root);
                let rep = match rep {
                    Ok(rep) => rep,
                    Err(e) => {
                        problems.push(format!("replica of request {}: {e}", r.seq));
                        continue;
                    }
                };
                checked += 1;
                if rep.schedule.sorted_sends() != entry.output.schedule.sorted_sends() {
                    problems.push(format!(
                        "replica of request {} extracted {} sends, the service served {} different ones",
                        r.seq,
                        rep.schedule.num_sends(),
                        entry.output.schedule.num_sends()
                    ));
                }
                if rep.stats.simplex_iterations != entry.stats.simplex_iterations {
                    problems.push(format!(
                        "replica of request {} took {} simplex iterations, the service reported {}",
                        r.seq, rep.stats.simplex_iterations, entry.stats.simplex_iterations
                    ));
                }
                if let Some(store) = &side_store {
                    rt.span("service.cache.disk_save", r.req, r.root, || {
                        store.save(entry, rep.basis.as_ref())
                    })
                    .map_err(|e| format!("side store save: {e}"))?;
                }
                if let Some(b) = rep.basis {
                    book.bases.insert(at, b);
                }
            }
            (CacheStatus::Miss, Quality::Baseline) => {
                let s = rt.open("baselines.build", r.req, Some(r.root));
                let schedule = baseline_replica(req);
                rt.close(s);
                match schedule {
                    Ok(s) if s.sorted_sends() == entry.output.schedule.sorted_sends() => {}
                    Ok(_) => problems.push(format!(
                        "baseline replica of request {} differs from the served baseline",
                        r.seq
                    )),
                    Err(e) => problems.push(format!("baseline replica of request {}: {e}", r.seq)),
                }
            }
            (_, Quality::Incumbent) => {
                book.tainted.insert(at);
            }
            (CacheStatus::DiskHit, _) => {
                if let Some(store) = &side_store {
                    let loaded = rt.span("service.cache.disk_load", r.req, r.root, || {
                        store.load(entry.key, req)
                    });
                    missing_loads += loaded.is_none() as usize;
                }
            }
            _ => {}
        }
    }
    if missing_loads > 0 {
        eprintln!("note: {missing_loads} disk hits had no side-store copy to time");
    }
    tracers.push(rt);
    drop(side_store);
    drop(side);

    // Spans: write them out, then derive layer timings and self times.
    let spans: Vec<Span> = tracers.into_iter().flat_map(|t| t.spans).collect();
    let t0 = spans
        .iter()
        .map(|s| s.start)
        .min()
        .unwrap_or_else(Instant::now);
    if let Err(e) = write_spans(&spans, t0, plan.name, seed) {
        eprintln!("warning: could not write spans: {e}");
    }
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in &spans {
        durations
            .entry(s.name)
            .or_default()
            .push((s.end - s.start).as_secs_f64());
    }
    let self_times = self_times(&spans);

    // Tracing overhead: the stream part of the same replay with spans off.
    let stream_recs: Vec<&Rec> = recs
        .iter()
        .filter(|r| r.seq > plan.presolve.len())
        .collect();
    let traced_s: f64 = stream_recs.iter().map(|r| r.dur_s).sum();
    let (plain_s, plain_before, plain_after) = plain_pass(plan)?;
    let overhead = ratio(traced_s, plain_s);

    for r in &stream_recs {
        if let Ok(s) = &r.served {
            if s.cache == CacheStatus::Hit {
                acc.push("hit_us", r.service_s * 1e6);
            }
        }
    }
    let delta = |f: fn(&ServiceStats) -> u64| (f(&after) - f(&before)) as f64;
    let plain_delta = |f: fn(&ServiceStats) -> u64| (f(&plain_after) - f(&plain_before)) as f64;
    let requests = delta(|s| s.requests);
    let hinted_ratio = ratio(delta(|s| s.hinted_solves), delta(|s| s.misses));
    let hinted_lp = acc.sum("hinted_lp_solves");
    let warm_ratio = ratio(acc.sum("warm_lp_solves"), hinted_lp);

    // Exact work counters: the two replays of this run must agree, and so
    // must every earlier run of the same seed in this checkout.
    let counters: Vec<(&str, f64)> = vec![
        ("lp.iters", acc.sum("lp_iters")),
        ("lp.bb_nodes", acc.sum("lp_bb_nodes")),
        ("lp.factorizations", acc.sum("lp_factorizations")),
        ("lp.warm_ratio", warm_ratio),
        ("core.sends", acc.sum("sends")),
        ("service.hinted_ratio", hinted_ratio),
    ];
    if EXACT_COUNTER_WORKLOADS.contains(&plan.name) {
        for (name, f) in [
            ("misses", (|s| s.misses) as fn(&ServiceStats) -> u64),
            ("hits", |s| s.hits),
            ("hinted_solves", |s| s.hinted_solves),
        ] {
            if delta(f) != plain_delta(f) {
                problems.push(format!(
                    "service counter {name} differs between the traced ({}) and untraced ({}) replay",
                    delta(f),
                    plain_delta(f)
                ));
            }
        }
        problems.extend(compare_counters(plan, seed, &counters));
    }

    let ms = |v: &[f64]| median(v) * 1e3;
    let us = |v: &[f64]| median(v) * 1e6;
    let dur = |name: &str, scale: fn(&[f64]) -> f64| -> (f64, usize) {
        durations
            .get(name)
            .map_or((0.0, 0), |v| (scale(v), v.len()))
    };
    let build: Vec<f64> = ["core.lp_form", "core.milp_form"]
        .iter()
        .filter_map(|n| durations.get(n))
        .flatten()
        .copied()
        .collect();
    let timed = |name: &str, (v, n): (f64, usize), unit: &'static str| {
        Metric::new(name, v, unit).note(format!("median, n={n}"))
    };
    let mut metrics = vec![
        timed("lp.solve_ms", dur("lp.solve", ms), "ms"),
        Metric::new("lp.iters", acc.sum("lp_iters"), "count"),
        Metric::new("lp.dual_iters", acc.sum("lp_dual_iters"), "count"),
        Metric::new("lp.factorizations", acc.sum("lp_factorizations"), "count"),
        Metric::new("lp.bb_nodes", acc.sum("lp_bb_nodes"), "count"),
        Metric::new("lp.cols_fixed", acc.sum("lp_cols_fixed"), "count"),
        Metric::new("lp.rows_freed", acc.sum("lp_rows_freed"), "count"),
        Metric::new("lp.warm_ratio", warm_ratio, "ratio")
            .note(format!("of {hinted_lp} hinted LP solves")),
        timed("core.epochs.k", acc.med("epochs_k"), "count"),
        Metric::new("core.epochs.retries", acc.sum("epochs_retries"), "count"),
        Metric::new("core.epochs.retry_ms", acc.sum("epochs_retry_ms"), "ms"),
        timed(
            "core.build_ms",
            (if build.is_empty() { 0.0 } else { ms(&build) }, build.len()),
            "ms",
        ),
        timed("core.build_rows", acc.med("build_rows"), "count"),
        timed("core.build_cols", acc.med("build_cols"), "count"),
        timed("core.astar.ms", dur("core.astar", ms), "ms"),
        Metric::new("core.astar.rounds", acc.sum("astar_rounds"), "count"),
        timed("core.extract_ms", dur("core.extract", ms), "ms"),
        Metric::new("core.sends", acc.sum("sends"), "count"),
        timed("schedule.validate_ms", dur("schedule.validate", ms), "ms"),
        timed("schedule.simulate_ms", dur("schedule.simulate", ms), "ms"),
        timed("baselines.build_ms", dur("baselines.build", ms), "ms"),
        timed(
            "service.protocol.parse_us",
            dur("service.protocol.parse", us),
            "us",
        ),
        timed(
            "service.protocol.reply_us",
            dur("service.protocol.reply", us),
            "us",
        ),
        timed(
            "service.protocol.reply_bytes",
            acc.med("reply_bytes"),
            "bytes",
        ),
        timed("service.key.derive_us", dur("service.key.derive", us), "us"),
        timed("service.cache.hit_us", acc.med("hit_us"), "us"),
        Metric::new(
            "service.cache.hit_ratio",
            ratio(delta(|s| s.hits), requests),
            "ratio",
        ),
        Metric::new(
            "service.cache.disk_hit_ratio",
            ratio(delta(|s| s.disk_hits), requests),
            "ratio",
        ),
        timed(
            "service.cache.disk_load_ms",
            dur("service.cache.disk_load", ms),
            "ms",
        ),
        timed(
            "service.cache.disk_save_ms",
            dur("service.cache.disk_save", ms),
            "ms",
        ),
        timed(
            "service.miss_overhead_ms",
            acc.med("miss_overhead_ms"),
            "ms",
        ),
        Metric::new(
            "service.coalesced_ratio",
            ratio(delta(|s| s.coalesced), requests),
            "ratio",
        ),
        Metric::new("service.hinted_ratio", hinted_ratio, "ratio").note(format!(
            "{} hinted of {} misses",
            delta(|s| s.hinted_solves),
            delta(|s| s.misses)
        )),
        Metric::new(
            "service.degraded_ratio",
            ratio(delta(|s| s.degraded), requests),
            "ratio",
        ),
        Metric::new(
            "service.upgrades",
            delta(|s| s.background_upgrades),
            "count",
        ),
        Metric::new("trace.overhead_ratio", overhead, "ratio").note(format!(
            "{:.1} ms traced vs {:.1} ms untraced over {} requests",
            traced_s * 1e3,
            plain_s * 1e3,
            stream_recs.len()
        )),
        Metric::new("replica.checked", checked as f64, "count").note(format!(
            "{skipped} skipped: hint set by a deadline-stopped solve"
        )),
    ];
    for name in SPAN_NAMES {
        let total = self_times.get(name).copied().unwrap_or(0.0);
        metrics.push(
            Metric::new(format!("self.{name}_ms"), total * 1e3, "ms").note("total self time"),
        );
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: recs.len() as u64,
        // Failed requests are among the problems, one each.
        failed: problems.len() as u64,
        metrics,
        extra: Vec::new(),
        problems,
    })
}

/// Every span name, in pipeline order.
const SPAN_NAMES: [&str; 17] = [
    "request",
    "service.protocol.parse",
    "service.key.derive",
    "service.request",
    "service.protocol.reply",
    "replica",
    "core.epochs",
    "core.lp_form",
    "core.milp_form",
    "core.astar",
    "lp.solve",
    "core.extract",
    "schedule.validate",
    "schedule.simulate",
    "baselines.build",
    "service.cache.disk_load",
    "service.cache.disk_save",
];

/// Total self time per span name: each span's duration minus the part of
/// its interval that its children cover.
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u32, Vec<(Instant, Instant)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut covered = Duration::ZERO;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort();
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *out.entry(s.name).or_insert(0.0) +=
            ((s.end - s.start).saturating_sub(covered)).as_secs_f64();
    }
    out
}

/// Writes the spans as JSON lines under `.bench_out/trace/`.
fn write_spans(spans: &[Span], t0: Instant, workload: &str, seed: u64) -> std::io::Result<()> {
    use std::io::Write;
    let dir = std::path::Path::new(".bench_out/trace");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let v = Value::obj(vec![
            ("id", Value::from(s.id as u64)),
            ("req", Value::from(s.req as u64)),
            (
                "parent",
                s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
            ),
            ("name", Value::from(s.name)),
            ("start_us", Value::from((s.start - t0).as_secs_f64() * 1e6)),
            ("end_us", Value::from((s.end - t0).as_secs_f64() * 1e6)),
        ]);
        writeln!(out, "{}", v.to_json())?;
    }
    out.flush()
}

/// Compares this run's exact work counters with the first run of the same
/// binary, workload, seed and replay length in this checkout (stored under
/// `.bench_out/counters/`); returns one message per mismatch. The binary's
/// hash is part of the file name, so a rebuilt program starts afresh.
fn compare_counters(plan: &Plan, seed: u64, counters: &[(&str, f64)]) -> Vec<String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_or(0, |bytes| fnv1a64(&bytes));
    let dir = std::path::Path::new(".bench_out/counters");
    let path = dir.join(format!(
        "{}-seed{seed}-n{}-{exe:016x}.json",
        plan.name, plan.traced_requests
    ));
    let current = Value::obj(counters.iter().map(|&(k, v)| (k, Value::from(v))).collect());
    match std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Value::parse(&t).ok())
    {
        Some(prev) => counters
            .iter()
            .filter_map(|&(k, v)| {
                let was = prev.get(k).and_then(Value::as_f64);
                (was != Some(v)).then(|| {
                    format!(
                        "work counter {k} = {v} differs from an earlier run of this seed ({was:?})"
                    )
                })
            })
            .collect(),
        None => {
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, current.to_json()))
            {
                eprintln!("warning: could not store work counters: {e}");
            }
            Vec::new()
        }
    }
}
