//! Summary statistics, process counters, run metadata and the result line.

use std::process::Command;

use teccl_util::json::Value;

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// User + system CPU seconds of this process, all threads included, from
/// `/proc/self/stat` (Linux reports them in USER_HZ = 100 ticks per second).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// "lower", "higher", or "" for per-layer metrics.
    pub better: &'static str,
    /// Extra context printed beside the value (sample counts and the like).
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            better: "",
            note: String::new(),
        }
    }

    pub fn better(mut self, better: &'static str) -> Metric {
        self.better = better;
        self
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// What a run hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metrics that go into the result line.
    pub metrics: Vec<Metric>,
    /// Metrics that are only printed (populations some workloads lack).
    pub extra: Vec<Metric>,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

/// Run metadata stored with every result, so that numbers from different
/// machines or trees are never compared by accident.
pub fn metadata(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let head = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown (not a git checkout)".into());
    let dirty = match git(&["status", "--porcelain"]) {
        Some(s) => Value::from(!s.is_empty()),
        None => Value::Null,
    };
    Value::obj(vec![
        ("workload", Value::from(workload)),
        ("seed", Value::from(seed)),
        ("seconds", Value::from(seconds)),
        ("trace", Value::from(trace)),
        ("nproc", Value::from(nproc)),
        ("cpu_model", Value::from(cpu)),
        (
            "rustc",
            Value::from(command_output("rustc", &["-V"]).unwrap_or_default()),
        ),
        (
            "profile",
            Value::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_head", Value::from(head)),
        ("git_dirty", dirty),
    ])
}

/// Runs git on the current directory only: the ceiling stops it from
/// adopting a repository that merely encloses the checkout.
fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let parent = cwd.parent()?.to_path_buf();
    let out = Command::new("git")
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", parent)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints the human-readable report, stores the full result with its
/// metadata under `.bench_out/results/`, and prints the result line last.
pub fn emit(outcome: &Outcome, meta: Value) {
    println!("run: {}", meta.to_json());
    for m in outcome.metrics.iter().chain(&outcome.extra) {
        let better = match m.better {
            "" => String::new(),
            b => format!("  ({b} is better)"),
        };
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  [{}]", m.note)
        };
        println!(
            "  {:<34} {:>14} {:<6}{better}{note}",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
    for p in &outcome.problems {
        println!("FAILED CHECK: {p}");
    }
    let metric_obj = |ms: &[Metric]| {
        Value::Obj(
            ms.iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Value::obj(vec![
                            ("value", Value::from(m.value)),
                            ("unit", Value::from(m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    };
    let line = Value::obj(vec![
        ("correct", Value::from(outcome.correct)),
        ("attempted", Value::from(outcome.attempted)),
        ("failed", Value::from(outcome.failed)),
        ("metrics", metric_obj(&outcome.metrics)),
    ]);
    let stored = Value::obj(vec![
        ("meta", meta),
        ("result", line.clone()),
        ("printed_only", metric_obj(&outcome.extra)),
        (
            "problems",
            Value::Arr(
                outcome
                    .problems
                    .iter()
                    .map(|p| Value::from(p.as_str()))
                    .collect(),
            ),
        ),
    ]);
    let dir = std::path::Path::new(".bench_out/results");
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let name = format!("{stamp}-{}.json", std::process::id());
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(dir.join(name), stored.to_json_pretty()))
    {
        eprintln!("warning: could not store the result: {e}");
    }
    println!("{}", line.to_json());
}
