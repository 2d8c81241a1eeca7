//! `tebench` — the repository benchmark for the TE-CCL schedule service.
//!
//! ```text
//! tebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tebench --workload <name> --seed <n> --seconds <s> --export <file.jsonl>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against a `teccld` server on
//! loopback; `--trace 1` replays the same requests in-process with spans
//! around every layer and prints the per-layer metrics. `--export` writes the
//! workload's requests as JSONL for `teccl-cli batch --file`. The last line
//! of standard output is the result as one JSON object. See README.md for
//! why each workload exists.

mod check;
mod drive;
mod report;
mod trace;
mod workload;

use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: tebench --workload <{}> --seed <n> --seconds <s> (--trace <0|1> | --export <file>)",
        workload::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut export = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s >= 1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            "--export" => export = Some(value.clone()),
            _ => usage(),
        }
    }
    let (Some(name), Some(seed), Some(seconds)) = (name, seed, seconds) else {
        usage()
    };
    let Some(plan) = workload::plan(&name, seed, seconds) else {
        usage()
    };

    if let Some(path) = export {
        if let Err(e) = export_requests(&plan, &path) {
            eprintln!("export failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let Some(trace) = trace else { usage() };
    let meta = report::metadata(&name, seed, seconds, trace);
    let outcome = if trace {
        trace::run(&plan, seed)
    } else {
        drive::run(&plan, seconds)
    };
    match outcome {
        Ok(outcome) => {
            let ok = outcome.correct;
            report::emit(&outcome, meta);
            if !ok {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Most lines an export writes: a replay stream repeats its keys, so a
/// prefix shows the traffic without writing gigabytes.
const EXPORT_LIMIT: usize = 20_000;

/// Writes the warm-up, the pre-solves and then the stream, one request per
/// line, in the form `teccl-cli batch --file` replays.
fn export_requests(plan: &workload::Plan, path: &str) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let order = std::iter::once(workload::WARMUP)
        .chain(plan.presolve.iter().copied())
        .chain(plan.stream.iter().map(|&i| i as usize))
        .take(EXPORT_LIMIT);
    let mut lines = 0;
    for i in order {
        writeln!(out, "{}", plan.items[i].line)?;
        lines += 1;
    }
    out.flush()?;
    eprintln!("wrote {lines} requests of {} to {path}", plan.name);
    Ok(())
}
