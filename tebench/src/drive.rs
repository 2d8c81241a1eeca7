//! The end-to-end run: a `teccld` server (`teccl_service::serve`) on
//! loopback, driven by closed-loop clients from this process, tracing off.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use teccl_service::protocol::parse_solve_reply;
use teccl_service::{serve, CacheStatus, Quality, ScheduleService, ServerHandle};

use crate::check::Distinct;
use crate::report::{median, percentile, process_cpu_s, ratio, Metric, Outcome};
use crate::workload::{Plan, WARMUP};

/// Full set-ups per run: at least `MIN_SETUPS`, and more, up to
/// `MAX_SETUPS`, while all of them together take under `SETUP_BUDGET_S`, so
/// that a short set-up still gets a steady median. `setup_s` is the median
/// and the last set-up serves the measured phase.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;

/// One line-protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            buf: String::new(),
        })
    }

    /// Sends one request line and returns the reply line.
    pub fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(&self.buf)
    }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        let dir = PathBuf::from(".bench_out/tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A started server with its connections.
struct Rig {
    server: ServerHandle,
    conns: Vec<Conn>,
    _disk: Option<ScratchDir>,
}

impl Rig {
    fn stop(self) {
        drop(self.conns);
        self.server.shutdown();
    }
}

/// Starts a service and server, then sends the warm-up and every pre-solve.
fn set_up(plan: &Plan, round: usize) -> Result<Rig, String> {
    let disk = plan
        .disk
        .then(|| ScratchDir::new(&format!("{}-disk{round}", plan.name)));
    let mut config = plan.config.clone();
    config.disk_dir = disk.as_ref().map(|d| d.0.clone());
    let service =
        Arc::new(ScheduleService::start(config).map_err(|e| format!("start service: {e}"))?);
    let server = serve("127.0.0.1:0", service).map_err(|e| format!("bind: {e}"))?;
    let mut conns = Vec::new();
    for _ in 0..plan.clients {
        conns.push(Conn::connect(server.addr()).map_err(|e| format!("connect: {e}"))?);
    }
    for &i in std::iter::once(&WARMUP).chain(&plan.presolve) {
        let reply = conns[0]
            .call(&plan.items[i].line)
            .map_err(|e| format!("setup request: {e}"))?;
        parse_solve_reply(reply).map_err(|e| format!("setup request {i} failed: {e}"))?;
    }
    Ok(Rig {
        server,
        conns,
        _disk: disk,
    })
}

/// What one measured request produced.
struct Rec {
    item: u32,
    /// When the reply was parsed, in seconds from the start of the
    /// measured phase.
    done_s: f64,
    lat_s: f64,
    /// `None` when the request failed.
    answer: Option<(CacheStatus, Quality)>,
}

/// Runs the untraced end-to-end measurement.
pub fn run(plan: &Plan, seconds: u64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut rig = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let t0 = Instant::now();
        let r = set_up(plan, setups.len())?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(old) = rig.replace(r) {
            Rig::stop(old);
        }
    }
    let rig = rig.expect("at least one setup");
    let service = Arc::clone(rig.server.service());
    let before = service.stats();

    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let stop_at = start + Duration::from_secs(seconds);
    let Rig {
        server,
        conns,
        _disk,
    } = rig;
    let results: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (next, completed) = (&next, &completed);
                s.spawn(move || {
                    let mut c = Client::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if Instant::now() >= stop_at {
                            break;
                        }
                        let Some(&item) = plan.stream.get(i) else {
                            c.exhausted = true;
                            break;
                        };
                        let t = Instant::now();
                        let reply = conn
                            .call(&plan.items[item as usize].line)
                            .map_err(|e| e.to_string())
                            .and_then(parse_solve_reply);
                        let done = Instant::now();
                        let lat_s = (done - t).as_secs_f64();
                        let done_n = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        if done_n % plan.window_requests == 0 {
                            c.cpu_marks.push((done_n, process_cpu_s()));
                        }
                        let answer = match reply {
                            Ok(r) => {
                                let key = u64::from_str_radix(&r.key, 16).unwrap_or(0);
                                let a = (r.cache, r.quality);
                                c.distinct.record(key, r.quality, item as usize, &r.output);
                                Some(a)
                            }
                            Err(_) => None,
                        };
                        c.recs.push(Rec {
                            item,
                            done_s: (done - start).as_secs_f64(),
                            lat_s,
                            answer,
                        });
                    }
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let after = service.stats();
    drop(service);
    server.shutdown();
    drop(_disk);

    let mut all = Client::default();
    all.cpu_marks.push((0, cpu0));
    for c in results {
        all.recs.extend(c.recs);
        all.distinct.merge(c.distinct);
        all.cpu_marks.extend(c.cpu_marks);
        all.exhausted |= c.exhausted;
    }
    Ok(summarize(
        plan,
        all,
        (wall, cpu_s),
        &setups,
        (&before, &after),
    ))
}

/// What one client connection recorded.
#[derive(Default)]
struct Client {
    recs: Vec<Rec>,
    distinct: Distinct,
    /// (requests completed by all clients, process CPU seconds), taken
    /// whenever the count reaches a multiple of `plan.window_requests`.
    cpu_marks: Vec<(usize, f64)>,
    exhausted: bool,
}

/// The measured requests in completion order, cut into full windows of
/// `plan.window_requests`, each with its latencies (ms), its first and last
/// completion times and the process CPU seconds spent in it. The partial
/// window at the end is left out; a run shorter than two windows is one
/// window.
struct Windows {
    lat_ms: Vec<Vec<f64>>,
    span_s: Vec<(f64, f64)>,
    cpu_s: Vec<f64>,
}

impl Windows {
    fn cut(
        plan: &Plan,
        recs: &mut [Rec],
        wall: f64,
        cpu_s: f64,
        marks: &mut [(usize, f64)],
    ) -> Windows {
        recs.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
        marks.sort_by_key(|m| m.0);
        let k = plan.window_requests;
        if recs.len() < k.saturating_mul(2) {
            return Windows {
                lat_ms: vec![recs.iter().map(|r| r.lat_s * 1e3).collect()],
                span_s: vec![(0.0, wall)],
                cpu_s: vec![cpu_s],
            };
        }
        let chunks = recs.chunks_exact(k);
        Windows {
            lat_ms: chunks
                .clone()
                .map(|w| w.iter().map(|r| r.lat_s * 1e3).collect())
                .collect(),
            span_s: chunks.map(|w| (w[0].done_s, w[k - 1].done_s)).collect(),
            cpu_s: marks.windows(2).map(|m| m[1].1 - m[0].1).collect(),
        }
    }

    /// Completions per second in window `i`: the completions after the
    /// first over the time from the first to the last, so the rate does
    /// not step with whole request counts. A single window is the whole
    /// run: completions over the measured time.
    fn rate(&self, i: usize) -> f64 {
        let n = self.lat_ms[i].len() as f64;
        let (first, last) = self.span_s[i];
        if self.lat_ms.len() == 1 {
            n / (last - first)
        } else {
            (n - 1.0) / (last - first)
        }
    }

    /// Median over windows of `f(window index, latencies)`.
    fn median_of(&self, f: impl Fn(usize, &[f64]) -> f64) -> f64 {
        let per: Vec<f64> = self
            .lat_ms
            .iter()
            .enumerate()
            .map(|(i, w)| f(i, w))
            .collect();
        median(&per)
    }
}

fn summarize(
    plan: &Plan,
    mut all: Client,
    (wall, cpu_s): (f64, f64),
    setups: &[f64],
    (before, after): (&teccl_service::ServiceStats, &teccl_service::ServiceStats),
) -> Outcome {
    let win = Windows::cut(plan, &mut all.recs, wall, cpu_s, &mut all.cpu_marks);
    let Client {
        recs,
        distinct,
        exhausted,
        ..
    } = all;
    let n = recs.len();
    let mut problems = distinct.check(&plan.items);
    let failed_requests = recs.iter().filter(|r| r.answer.is_none()).count();
    if plan.name == "replay_hot" && after.solves != before.solves {
        problems.push(format!(
            "the solves counter moved from {} to {} during the measured hit-only phase",
            before.solves, after.solves
        ));
    }
    if exhausted {
        eprintln!("warning: the request stream ran out before the measured time did");
    }
    let lat_ms: Vec<f64> = recs.iter().map(|r| r.lat_s * 1e3).collect();
    eprintln!(
        "latency percentiles (ms): {}",
        [50.0, 75.0, 90.0, 95.0, 99.0, 99.9]
            .map(|p| format!("p{p}={:.3}", percentile(&lat_ms, p)))
            .join(" ")
    );
    let n_win = win.lat_ms.len();
    let fewest = win.lat_ms.iter().map(Vec::len).min().unwrap_or(0);
    let beyond = fewest - ((plan.tail_pct / 100.0) * fewest as f64).ceil() as usize;
    if beyond < 10 {
        eprintln!(
            "warning: only {beyond} samples beyond p{} in the smallest window",
            plan.tail_pct
        );
    }
    let class = |f: &dyn Fn(CacheStatus) -> bool, scale: f64| -> Vec<f64> {
        recs.iter()
            .filter(|r| matches!(r.answer, Some((c, _)) if f(c)))
            .map(|r| r.lat_s * scale)
            .collect()
    };
    let hits = class(
        &|c| matches!(c, CacheStatus::Hit | CacheStatus::DiskHit),
        1e6,
    );
    let misses = class(
        &|c| matches!(c, CacheStatus::Miss | CacheStatus::Coalesced),
        1e3,
    );
    let mut with_deadline = 0usize;
    let mut met = 0usize;
    for r in &recs {
        if let Some(d) = plan.items[r.item as usize].req.deadline {
            with_deadline += 1;
            if r.answer.is_some() && r.lat_s <= d.as_secs_f64() {
                met += 1;
            }
        }
    }
    let exact = recs
        .iter()
        .filter(|r| matches!(r.answer, Some((_, Quality::Exact))))
        .count();
    let (xfer, wire, n_exact) = distinct.versus_shortest_path(&plan.items);
    let failed = (failed_requests + problems.len()) as u64;
    let attempted = n as u64;
    let metrics = vec![
        Metric::new("setup_s", median(setups), "s")
            .better("lower")
            .note(format!("median of {} set-ups", setups.len())),
        Metric::new(
            "req_per_s",
            win.median_of(|i, _| win.rate(i)),
            "1/s",
        )
        .better("higher")
        .note(format!(
            "median of {n_win} windows of {} requests; overall {n} requests in {wall:.2} s, {} client(s)",
            win.lat_ms[0].len(), plan.clients
        )),
        Metric::new("lat_p50_ms", win.median_of(|_, w| median(w)), "ms")
            .better("lower")
            .note(format!(
                "median of {n_win} window medians; overall p50 {:.4}, n={n}",
                median(&lat_ms)
            )),
        Metric::new(
            "lat_tail_ms",
            win.median_of(|_, w| percentile(w, plan.tail_pct)),
            "ms",
        )
        .better("lower")
        .note(format!(
            "median of {n_win} window p{}s, >= {beyond} samples beyond in each; overall {:.4}, n={n}",
            plan.tail_pct,
            percentile(&lat_ms, plan.tail_pct)
        )),
        Metric::new(
            "deadline_met_ratio",
            ratio(met as f64, with_deadline as f64),
            "ratio",
        )
        .better("higher")
        .note(format!("{met} of {with_deadline} requests with a deadline")),
        Metric::new("exact_ratio", ratio(exact as f64, n as f64), "ratio")
            .better("higher")
            .note(format!("{exact} of {n}")),
        Metric::new("xfer_vs_sp", xfer, "ratio")
            .better("higher")
            .note(format!("geomean over {n_exact} distinct exact schedules")),
        Metric::new("wire_vs_sp", wire, "ratio")
            .better("lower")
            .note(format!("geomean over {n_exact} distinct exact schedules")),
        Metric::new(
            "cpu_ms_per_req",
            win.median_of(|i, w| win.cpu_s[i] * 1e3 / w.len().max(1) as f64),
            "ms",
        )
        .better("lower")
        .note(format!(
            "median of {n_win} windows; overall {cpu_s:.2} s user+sys for {n} requests, client and server"
        )),
        Metric::new("peak_rss_mb", crate::report::peak_rss_mb(), "MiB").better("lower"),
    ];
    let mut extra = Vec::new();
    if !hits.is_empty() {
        extra.push(
            Metric::new("hit_p50_us", median(&hits), "us")
                .better("lower")
                .note(format!("hit + disk_hit, n={}", hits.len())),
        );
    }
    if !misses.is_empty() {
        extra.push(
            Metric::new("miss_p50_ms", median(&misses), "ms")
                .better("lower")
                .note(format!("miss + coalesced, n={}", misses.len())),
        );
    }
    extra.push(
        Metric::new(
            "error_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        )
        .better("lower")
        .note(format!(
            "{failed_requests} failed requests + {} failed output checks",
            problems.len()
        )),
    );
    extra.push(
        Metric::new("checked_schedules", distinct.len() as f64, "count")
            .note("distinct (request, schedule) pairs re-validated and re-simulated"),
    );
    Outcome {
        correct: problems.is_empty() && failed_requests == 0,
        attempted,
        failed,
        metrics,
        extra,
        problems,
    }
}
