//! Request-stream generation. The seed drives every choice; the service only
//! ever sees the generated request lines.
//!
//! Every workload draws from the same four α–β topologies the paper evaluates
//! (Internal 1, Internal 2, DGX-1, NDv2). Jittered variants scale every α and
//! every link capacity by a seeded factor, which changes the topology
//! fingerprint and so starts a new key family that no published warm-start
//! basis can serve.

use std::time::Duration;

use teccl_collective::CollectiveKind;
use teccl_service::protocol::solve_request_line;
use teccl_service::{builtin_topology, RequestMethod, ServiceConfig, SolveRequest};
use teccl_topology::Topology;
use teccl_util::json::Value;
use teccl_util::rng::Rng64;

/// The four workloads. `BENCHMARK.json` lists all but `replay_hot`, whose
/// figures follow the host's speed too closely to gate on (see README.md).
pub const WORKLOADS: [&str; 4] = ["solve_cold", "solve_warm", "replay_hot", "replay_mixed"];

/// One distinct request: the parsed form (for checks and the in-process
/// replay) and the wire line the client sends.
pub struct Item {
    pub req: SolveRequest,
    pub line: String,
    /// For a request whose deadline is set so that its solve meets it: the
    /// same request without the deadline. The traced run sends this line,
    /// so a solve that overruns on a slow or loaded machine cannot change
    /// the exact work counters.
    pub untimed: Option<String>,
}

impl Item {
    /// The line the traced run replays.
    pub fn traced_line(&self) -> &str {
        self.untimed.as_deref().unwrap_or(&self.line)
    }
}

/// `items[WARMUP]` is a request on a family nothing else uses, sent once
/// before the pre-solves so first-solve costs (allocator growth, page
/// faults) stay out of the measured phase.
pub const WARMUP: usize = 0;

/// A generated workload.
pub struct Plan {
    pub name: &'static str,
    /// Service settings; `disk_dir` is filled in per run.
    pub config: ServiceConfig,
    /// Whether the workload runs with an on-disk store.
    pub disk: bool,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Every distinct request line.
    pub items: Vec<Item>,
    /// Requests solved during setup, before the measured phase.
    pub presolve: Vec<usize>,
    /// The measured request stream (indices into `items`).
    pub stream: Vec<u32>,
    /// The latency percentile reported as `lat_tail_ms`: the highest one
    /// with at least ten samples beyond it in one window.
    pub tail_pct: f64,
    /// Requests per window the measured phase is cut into, in completion
    /// order. The timing metrics are medians over windows: on a shared host
    /// the speed drifts for seconds at a time, and a median over windows
    /// follows the state the run spent most of its time in rather than the
    /// mix of states. Where the stream walks in cycles (`solve_warm`), a
    /// window holds whole cycles, so every window asks for the same mix. A
    /// run shorter than two windows, and every run at `usize::MAX`, is one
    /// window.
    pub window_requests: usize,
    /// Stream requests the traced run replays (fixed, so its work counters
    /// repeat exactly for a seed).
    pub traced_requests: usize,
}

/// A request shape before sizing and jitter.
#[derive(Clone, Copy)]
struct Shape {
    topo: &'static str,
    coll: CollectiveKind,
    method: RequestMethod,
}

const fn shape(topo: &'static str, coll: CollectiveKind, method: RequestMethod) -> Shape {
    Shape { topo, coll, method }
}

use CollectiveKind::{AllGather as AG, AllToAll as A2A};
use RequestMethod::{AStar, Auto, Milp};

const KB: f64 = 1024.0;
const MB: f64 = 1024.0 * 1024.0;

// The traffic mix. No `teccld` request trace exists yet to derive these
// from, so each value below is an assumption, chosen for the reason beside
// it; README.md lists them with what is and is not sourced. Replace them
// with measured values once such a trace is available.

/// Buffer sizes of `solve_cold` and `replay_mixed`, drawn log-uniformly.
/// Assumed: spans the 1 MB and 16 MB points of the repository's own
/// experiments and two octaves either side of 64 MB.
const SIZE_RANGE: (f64, f64) = (1.0 * MB, 256.0 * MB);
/// Range of the seeded α and capacity factors of a jittered topology.
/// Assumed: wide enough that every jittered topology gets a fingerprint of
/// its own (the fingerprint resolves β to about 2.5%), narrow enough that
/// a shape's solve cost stays recognisable.
const JITTER: (f64, f64) = (0.8, 1.25);
/// Zipf exponent of key popularity in the replays. Assumed: 1.0, the
/// textbook cache-popularity default; no published popularity distribution
/// of collective requests is known to this benchmark.
const ZIPF_EXPONENT: f64 = 1.0;
/// Deadline of the ≥6-GPU `auto` ALLGATHER probes in `solve_cold`: above
/// A*'s 10–60 ms on these shapes and far below the MILP's seconds.
const PROBE_DEADLINE_MS: u64 = 150;
/// Deadline carried by requests meant to meet it (`solve_cold` LP shapes,
/// every fourth `solve_warm` bucket). Assumed: several times the slowest
/// of those solves, so `deadline_met_ratio` has a met population.
const GENEROUS_DEADLINE_MS: u64 = 1000;
/// Deadline of hurried requests in the replays. Assumed: below the cold
/// solve of every shape marked slow in `replay_mixed`, above a hit.
const HURRIED_DEADLINE_MS: u64 = 20;
/// Share of `replay_hot` requests that carry the hurried deadline. Assumed.
const HOT_HURRIED_SHARE: f64 = 0.2;
/// `replay_mixed`: hot keys solved during set-up, and the memory cache
/// size, smaller than the hot set so evicted keys come back from disk.
/// Assumed sizes; the only requirement is that the cache be smaller.
const MIXED_HOT_KEYS: usize = 32;
const MIXED_CACHE: usize = 12;
/// `replay_mixed`: share of requests that are a new job on a fresh key.
/// Assumed: enough misses per run to time coalescing and the ladder while
/// hits stay the bulk of the traffic.
const MIXED_NEW_JOB_SHARE: f64 = 0.05;
/// `replay_mixed`: share of hot requests on slow shapes that carry the
/// hurried deadline. Assumed.
const MIXED_HOT_HURRIED_SHARE: f64 = 0.1;

fn log_uniform(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
    (rng.gen_range_f64(lo.ln(), hi.ln())).exp()
}

/// Scales every α and every capacity of a builtin topology by seeded factors
/// in `JITTER`.
fn jittered(name: &str, rng: &mut Rng64) -> Topology {
    let alpha = rng.gen_range_f64(JITTER.0, JITTER.1);
    let beta = rng.gen_range_f64(JITTER.0, JITTER.1);
    jittered_by(name, alpha, beta)
}

fn jittered_by(name: &str, alpha: f64, beta: f64) -> Topology {
    let mut t = builtin_topology(name).expect("workload topologies are builtin names");
    for l in &mut t.links {
        l.alpha *= alpha;
        l.capacity *= beta;
    }
    t.name = format!("{name}~{alpha:.4}/{beta:.4}");
    t
}

/// A request on a jittered topology, sent as a full topology document.
fn jittered_item(s: Shape, size: f64, deadline_ms: Option<u64>, rng: &mut Rng64) -> Item {
    let req = SolveRequest::new(jittered(s.topo, rng), s.coll, 1, size).with_method(s.method);
    finish(req, deadline_ms, None)
}

/// A seeded Kronecker sequence on the unit cube (the R₃ sequence): each
/// step adds 1/φ₃, 1/φ₃², 1/φ₃³ modulo 1, where φ₃ is the positive root of
/// x⁴ = x + 1. Any run of consecutive points covers the cube evenly, so a
/// stream cut off after any number of requests still spans the size and
/// jitter ranges evenly. The seed picks the starting point.
struct Kronecker {
    x: [f64; 3],
}

impl Kronecker {
    const STEP: [f64; 3] = [
        0.819_172_513_396_164_4,
        0.671_043_606_703_789_2,
        0.549_700_477_901_970_1,
    ];

    fn new(rng: &mut Rng64) -> Kronecker {
        Kronecker {
            x: [rng.gen_f64(), rng.gen_f64(), rng.gen_f64()],
        }
    }

    fn next(&mut self) -> [f64; 3] {
        for (x, step) in self.x.iter_mut().zip(Self::STEP) {
            *x = (*x + step).fract();
        }
        self.x
    }
}

/// A request on a jittered topology whose size (log-uniform over
/// `SIZE_RANGE`) and α and capacity factors (over `JITTER`) come from the
/// next point of `seq`.
fn spread_req(s: Shape, seq: &mut Kronecker) -> SolveRequest {
    let [u_size, u_alpha, u_beta] = seq.next();
    let size = SIZE_RANGE.0 * (SIZE_RANGE.1 / SIZE_RANGE.0).powf(u_size);
    let scale = |u: f64| JITTER.0 + u * (JITTER.1 - JITTER.0);
    let topo = jittered_by(s.topo, scale(u_alpha), scale(u_beta));
    SolveRequest::new(topo, s.coll, 1, size).with_method(s.method)
}

/// A request on an unmodified builtin topology, sent by name (the server
/// builds the topology instead of parsing a document).
fn builtin_item(s: Shape, size: f64) -> Item {
    let topo = builtin_topology(s.topo).expect("workload topologies are builtin names");
    let req = SolveRequest::new(topo, s.coll, 1, size).with_method(s.method);
    finish(req, None, Some(s.topo))
}

fn finish(mut req: SolveRequest, deadline_ms: Option<u64>, builtin: Option<&str>) -> Item {
    if let Some(ms) = deadline_ms {
        req = req.with_deadline(Duration::from_millis(ms));
    }
    let line = match builtin {
        None => solve_request_line(&req),
        Some(name) => {
            let mut v = Value::parse(&solve_request_line(&req)).expect("request lines are JSON");
            if let Value::Obj(pairs) = &mut v {
                for (k, val) in pairs.iter_mut() {
                    if k == "topology" {
                        *val = Value::from(name);
                    }
                }
            }
            v.to_json()
        }
    };
    Item {
        req,
        line,
        untimed: None,
    }
}

/// A request on a full topology document with the generous deadline, which
/// its solve is meant to meet.
fn generous(req: SolveRequest) -> Item {
    let untimed = solve_request_line(&req);
    Item {
        untimed: Some(untimed),
        ..finish(req, Some(GENEROUS_DEADLINE_MS), None)
    }
}

fn base_config() -> ServiceConfig {
    ServiceConfig {
        // Explicitly inert: an ambient TECCL_FAULT_PLAN must not leak in.
        fault_plan: Some(String::new()),
        ..ServiceConfig::default()
    }
}

/// Builds the plan for `name` from `seed`, sized for a run of `seconds`.
pub fn plan(name: &str, seed: u64, seconds: u64) -> Option<Plan> {
    let salt = name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64));
    let mut rng = Rng64::seed_from_u64(seed ^ salt.rotate_left(17));
    let seconds = seconds.max(1) as usize;
    Some(match name {
        "solve_cold" => solve_cold(&mut rng, seconds),
        "solve_warm" => solve_warm(&mut rng, seconds),
        "replay_hot" => replay_hot(&mut rng, seconds),
        "replay_mixed" => replay_mixed(&mut rng, seconds),
        _ => return None,
    })
}

/// A warm-up request on a family of its own: a DGX-1 ALLTOALL with α and
/// capacities scaled by fixed factors no seed draws, a cold LP solve of
/// some tens of milliseconds. It is the same for every seed, so it adds the
/// same work to every set-up.
fn warmup_item() -> Item {
    let mut t = builtin_topology("dgx1").expect("dgx1 is builtin");
    for l in &mut t.links {
        l.alpha *= 1.3;
        l.capacity *= 0.75;
    }
    t.name = "dgx1-warmup".into();
    finish(SolveRequest::new(t, A2A, 1, 16.0 * MB), None, None)
}

/// `solve_cold`: every request is a new key family, so every request is a
/// cold solve. One cycle holds each shape once, in seeded order.
///
/// The last shape is the defect probe: a ≥6-GPU ALLGATHER through `auto`
/// with a 150 ms deadline. `auto` sends it to the monolithic MILP (seconds
/// on DGX-1 and NDv2, a minute or more on Internal 1 ×2 and Internal 2 ×3),
/// so the deadline fires and the ladder serves a baseline or an incumbent;
/// A* would answer in 10–60 ms. Three LP shapes carry the generous 1 s
/// deadline, which they meet. The 4-GPU Internal 2 ×2 ALLGATHER is sent
/// through `method: milp` and finishes exactly in some tens of
/// milliseconds, so the MILP formulation is measured too. DGX-1 ALLTOALL
/// and Internal 1 ×2 ALLTOALL each appear twice per cycle, so the median and
/// the p90 fall inside one shape's spread rather than on the edge between
/// two shapes. Each cycle position draws its sizes and jitter from a
/// sequence of its own, so however many cycles a run gets through, every
/// shape has seen sizes and jitter spread evenly over their ranges and the
/// seed moves the latency distribution little.
fn solve_cold(rng: &mut Rng64, seconds: usize) -> Plan {
    // (shape, carries the generous deadline)
    const CYCLE: [(Shape, bool); 10] = [
        (shape("internal1x2", A2A, Auto), false),
        (shape("internal1x2", A2A, Auto), false),
        (shape("internal2x3", A2A, Auto), true),
        (shape("dgx1", A2A, Auto), false),
        (shape("dgx1", A2A, Auto), true),
        (shape("ndv2", A2A, Auto), true),
        (shape("internal2x2", A2A, Auto), false),
        (shape("internal1", A2A, Auto), false),
        (shape("internal2x2", AG, Milp), false),
        (shape("dgx1", AG, AStar), false),
    ];
    const AG6: [&str; 4] = ["internal1x2", "internal2x3", "dgx1", "ndv2"];
    let mut items = vec![warmup_item()];
    // One sequence per cycle position; the last is the probe's.
    let mut seqs: Vec<Kronecker> = (0..=CYCLE.len()).map(|_| Kronecker::new(rng)).collect();
    let cycles = 4 * seconds + 4;
    for c in 0..cycles {
        // (position, shape, deadline kind); `None` marks the probe.
        let mut cycle: Vec<(usize, Shape, Option<bool>)> = CYCLE
            .iter()
            .enumerate()
            .map(|(i, &(s, generous))| (i, s, Some(generous)))
            .collect();
        cycle.push((CYCLE.len(), shape(AG6[c % AG6.len()], AG, Auto), None));
        shuffle(&mut cycle, rng);
        for (i, s, kind) in cycle {
            let req = spread_req(s, &mut seqs[i]);
            items.push(match kind {
                None => finish(req, Some(PROBE_DEADLINE_MS), None),
                Some(true) => generous(req),
                Some(false) => finish(req, None, None),
            });
        }
    }
    let stream = (1..items.len() as u32).collect();
    Plan {
        name: "solve_cold",
        config: ServiceConfig {
            background_upgrade: false,
            ..base_config()
        },
        disk: false,
        clients: 1,
        items,
        presolve: Vec::new(),
        stream,
        tail_pct: 90.0,
        window_requests: usize::MAX,
        traced_requests: 5 * seconds,
    }
}

/// Half-octave sizes from 64 KB to 1 GB: the 29 buckets of one family.
const WARM_BUCKETS: usize = 29;

fn bucket_size(i: usize) -> f64 {
    64.0 * KB * 2f64.powf(i as f64 / 2.0)
}

/// `solve_warm`: walks each family's size buckets from 64 KB to 1 GB in
/// order. One of the first three buckets of every family is solved during
/// setup; every other bucket is a miss whose published neighbour basis
/// warm-starts it. At the small sizes α changes the epoch count, which is
/// where a warm hint can fail. The memory cache holds every bucket of the
/// run, so the pre-solved buckets are still resident when the walk reaches
/// them. Every fourth request carries the generous deadline, which even a
/// failed hint meets.
fn solve_warm(rng: &mut Rng64, seconds: usize) -> Plan {
    // Internal 1 ×2 is left out: its cold solves at the small sizes, where
    // hints fail, cost ~0.3 s each and would dominate the walk.
    const FAMILIES: [Shape; 6] = [
        shape("internal2x3", A2A, Auto),
        shape("dgx1", A2A, Auto),
        shape("ndv2", A2A, Auto),
        shape("internal2x2", A2A, Auto),
        shape("internal1", A2A, Auto),
        shape("internal2x2", AG, AStar),
    ];
    let mut items = vec![warmup_item()];
    let mut presolve = Vec::new();
    let mut stream = Vec::new();
    // About 150 requests per second here; the stream holds about 1.4 times
    // what a run of `seconds` walks.
    let families = FAMILIES.len() * (seconds + 2);
    let offset = rng.gen_range_usize(1000);
    for f in 0..families {
        let s = FAMILIES[f % FAMILIES.len()];
        // Each family scales α by its own 1 + k·10⁻⁵ (k distinct per family):
        // a step of a few picoseconds, which the topology fingerprint
        // resolves, so every family is new. It is too small to move where
        // hints fail, so families of one shape cost about the same and the
        // seed barely changes the mix. Capacities stay nominal.
        let mut topo = builtin_topology(s.topo).expect("workload topologies are builtin names");
        let alpha = 1.0 + (offset + f) as f64 * 1e-5;
        for l in &mut topo.links {
            l.alpha *= alpha;
        }
        topo.name = format!("{}~{alpha:.5}", s.topo);
        let pre = rng.gen_range_usize(3);
        for b in 0..WARM_BUCKETS {
            // Stay well inside the bucket: ±4% of its centre.
            let size = bucket_size(b) * rng.gen_range_f64(0.96, 1.04);
            let req = SolveRequest::new(topo.clone(), s.coll, 1, size).with_method(s.method);
            let idx = items.len();
            items.push(if b % 4 == 3 {
                generous(req)
            } else {
                finish(req, None, None)
            });
            if b == pre {
                presolve.push(idx);
            }
            stream.push(idx as u32);
        }
    }
    Plan {
        name: "solve_warm",
        config: ServiceConfig {
            cache_capacity: 4096,
            ..base_config()
        },
        disk: false,
        clients: 1,
        items,
        presolve,
        stream,
        tail_pct: 90.0,
        window_requests: FAMILIES.len() * WARM_BUCKETS,
        traced_requests: 30 * seconds,
    }
}

/// Samples ranks `0..n` with probability ∝ 1 / (rank + 1)^s.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng64) -> usize {
        let u = rng.gen_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// `replay_hot`: Zipf replay over keys solved during setup, so every
/// measured request is a memory hit. Rank `r` always has shape `r mod 6`
/// and a fixed size bucket, which keeps the mix of reply sizes nearly the
/// same for every seed. Half the shapes are sent by builtin name, half as
/// full topology documents. A share of `HOT_HURRIED_SHARE` carries the
/// hurried deadline (a hit meets it).
fn replay_hot(rng: &mut Rng64, seconds: usize) -> Plan {
    const SHAPES: [(Shape, bool); 6] = [
        // (shape, sent by builtin name)
        (shape("internal1x2", A2A, Auto), true),
        (shape("internal2x2", A2A, Auto), true),
        (shape("dgx1", AG, AStar), false),
        (shape("internal1", A2A, Auto), false),
        (shape("internal2x3", A2A, Auto), false),
        (shape("ndv2", AG, AStar), true),
    ];
    /// Rank r has size SIZES[r / 6], within ±4% (inside one bucket).
    const SIZES: [f64; 4] = [16.0 * MB, 1.0 * MB, 64.0 * MB, 4.0 * MB];
    const KEYS: usize = SHAPES.len() * SIZES.len();
    let mut items = vec![warmup_item()];
    let mut presolve = Vec::new();
    for r in 0..KEYS {
        let (s, by_name) = SHAPES[r % SHAPES.len()];
        let size = SIZES[r / SHAPES.len()] * rng.gen_range_f64(0.96, 1.04);
        let item = if by_name {
            builtin_item(s, size)
        } else {
            jittered_item(s, size, None, rng)
        };
        let hurried = finish(
            item.req.clone(),
            Some(HURRIED_DEADLINE_MS),
            by_name.then_some(s.topo),
        );
        presolve.push(items.len());
        items.push(item);
        items.push(hurried);
    }
    let zipf = Zipf::new(KEYS, ZIPF_EXPONENT);
    let len = 40_000 * seconds;
    // Key r: item 1 + 2r is the patient variant, 2 + 2r the deadline one.
    let stream = (0..len)
        .map(|_| (1 + 2 * zipf.sample(rng) + rng.gen_bool(HOT_HURRIED_SHARE) as usize) as u32)
        .collect();
    Plan {
        name: "replay_hot",
        config: base_config(),
        disk: false,
        clients: 1,
        items,
        presolve,
        stream,
        tail_pct: 90.0,
        window_requests: 2_000,
        traced_requests: 2_000 * seconds,
    }
}

/// `replay_mixed`: hits, misses and deadlines together, from two clients.
///
/// * A hot set of `MIXED_HOT_KEYS` keys, all solved during setup, replayed
///   with Zipf popularity through a `MIXED_CACHE`-entry memory cache backed
///   by the disk store, so evicted keys come back as disk hits.
/// * New jobs, a share of `MIXED_NEW_JOB_SHARE`: a fresh key. Every other
///   new job asks twice back to back, the second time with the hurried
///   deadline — the two
///   clients usually send both at once, so the second coalesces onto the
///   first one's solve. Coalesced requests wait for the full solve whatever
///   their deadline: the defect this workload is expected to show in
///   `deadline_met_ratio`. The other new jobs ask once, with the deadline,
///   and go down the degradation ladder while a background upgrade solves
///   the key exactly.
/// * A share of `MIXED_HOT_HURRIED_SHARE` of hot requests carries the
///   hurried deadline when its shape is marked `slow`, that is, when its
///   cold solve takes well over that deadline.
fn replay_mixed(rng: &mut Rng64, seconds: usize) -> Plan {
    const SHAPES: [(Shape, bool); 8] = [
        // (shape, cold solve well above 20 ms)
        (shape("internal2x3", A2A, Auto), true),
        (shape("internal2x2", A2A, Auto), false),
        (shape("dgx1", A2A, Auto), true),
        (shape("internal1", A2A, Auto), false),
        (shape("ndv2", A2A, Auto), true),
        (shape("dgx1", AG, AStar), false),
        (shape("internal1x2", A2A, Auto), true),
        (shape("internal2x2", AG, AStar), false),
    ];
    let mut items = vec![warmup_item()];
    let mut presolve = Vec::new();
    // Hot key r: item 1 + 2r is the patient variant, 2 + 2r the deadline one.
    for r in 0..MIXED_HOT_KEYS {
        let (s, slow) = SHAPES[r % SHAPES.len()];
        let size = log_uniform(rng, SIZE_RANGE.0, SIZE_RANGE.1);
        let patient = jittered_item(s, size, None, rng);
        let second = finish(
            patient.req.clone(),
            slow.then_some(HURRIED_DEADLINE_MS),
            None,
        );
        presolve.push(items.len());
        items.push(patient);
        items.push(second);
    }
    let zipf = Zipf::new(MIXED_HOT_KEYS, ZIPF_EXPONENT);
    let mut stream = Vec::new();
    let len = 1500 * seconds;
    let mut fresh = 0usize;
    while stream.len() < len {
        if rng.gen_bool(MIXED_NEW_JOB_SHARE) {
            let (s, _) = SHAPES[fresh % SHAPES.len()];
            fresh += 1;
            let size = log_uniform(rng, SIZE_RANGE.0, SIZE_RANGE.1);
            let patient = jittered_item(s, size, None, rng);
            let hurried = finish(patient.req.clone(), Some(HURRIED_DEADLINE_MS), None);
            if fresh.is_multiple_of(2) {
                stream.push(items.len() as u32);
                items.push(patient);
            }
            stream.push(items.len() as u32);
            items.push(hurried);
        } else {
            let r = zipf.sample(rng);
            let hurried = rng.gen_bool(MIXED_HOT_HURRIED_SHARE);
            stream.push((1 + 2 * r + hurried as usize) as u32);
        }
    }
    Plan {
        name: "replay_mixed",
        config: ServiceConfig {
            cache_capacity: MIXED_CACHE,
            ..base_config()
        },
        disk: true,
        clients: 2,
        items,
        presolve,
        stream,
        tail_pct: 99.0,
        window_requests: 1_500,
        traced_requests: 60 * seconds,
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng64) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range_usize(i + 1);
        v.swap(i, j);
    }
}
