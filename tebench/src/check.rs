//! Output checks on served schedules, and their quality against the
//! shortest-path baseline.

use std::collections::HashMap;

use teccl_baselines::shortest_path_schedule;
use teccl_schedule::{simulate, validate, ScheduleOutput};
use teccl_service::{Quality, SolveRequest};

use crate::workload::Item;

/// The distinct schedules one client saw, keyed by request key and quality,
/// each with every request it was served to.
#[derive(Default)]
pub struct Distinct {
    seen: HashMap<(u64, &'static str), Vec<Served>>,
}

/// One distinct output and the requests (indices into the plan's items)
/// that received it.
struct Served {
    out: ScheduleOutput,
    items: Vec<usize>,
}

impl Distinct {
    /// Records a served output for request `item`. An output identical to
    /// one already seen under the same key and quality is stored once, but
    /// every request it was served to is kept: two requests that share a key
    /// (a fingerprint collision) are each checked against their own
    /// topology and demand.
    pub fn record(&mut self, key: u64, quality: Quality, item: usize, out: &ScheduleOutput) {
        let list = self.seen.entry((key, quality.name())).or_default();
        let same =
            |o: &ScheduleOutput| o.schedule.sends == out.schedule.sends && o.metrics == out.metrics;
        match list.iter_mut().find(|s| same(&s.out)) {
            Some(s) if s.items.contains(&item) => {}
            Some(s) => s.items.push(item),
            None => list.push(Served {
                out: out.clone(),
                items: vec![item],
            }),
        }
    }

    /// Folds another client's record into this one.
    pub fn merge(&mut self, other: Distinct) {
        for ((key, quality), list) in other.seen {
            let quality = Quality::from_name(quality).expect("names come from Quality::name");
            for s in list {
                for item in s.items {
                    self.record(key, quality, item, &s.out);
                }
            }
        }
    }

    /// Number of (request, schedule) pairs the check covers.
    pub fn len(&self) -> usize {
        self.seen.values().flatten().map(|s| s.items.len()).sum()
    }

    /// Re-validates and re-simulates every distinct schedule against the
    /// topology and demand of each request it was served to, and compares
    /// with the reply's transfer time and bytes on wire. Returns one message
    /// per failure.
    pub fn check(&self, items: &[Item]) -> Vec<String> {
        let mut problems = Vec::new();
        for ((key, quality), list) in &self.seen {
            for s in list {
                for &item in &s.items {
                    if let Err(e) = check_output(&items[item].req, &s.out) {
                        problems.push(format!("key {key:016x} ({quality}), item {item}: {e}"));
                    }
                }
            }
        }
        problems.sort();
        problems
    }

    /// Geometric means, over distinct exact schedules, of shortest-path
    /// transfer time ÷ served transfer time and of served bytes on wire ÷
    /// shortest-path bytes on wire.
    pub fn versus_shortest_path(&self, items: &[Item]) -> (f64, f64, usize) {
        let mut xfer = Vec::new();
        let mut wire = Vec::new();
        for ((_, quality), list) in &self.seen {
            if *quality != Quality::Exact.name() {
                continue;
            }
            for Served {
                out,
                items: served_to,
            } in list
            {
                let req = &items[served_to[0]].req;
                let demand = req.demand();
                let sp = shortest_path_schedule(&req.topology, &demand, out.schedule.chunk_bytes);
                if let Ok(sim) = simulate(&req.topology, &demand, &sp) {
                    xfer.push(sim.transfer_time / out.metrics.transfer_time);
                    wire.push(out.metrics.bytes_on_wire / sim.bytes_on_wire);
                }
            }
        }
        let n = xfer.len();
        (
            crate::report::geomean(&xfer),
            crate::report::geomean(&wire),
            n,
        )
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// The check applied to one served output.
pub fn check_output(req: &SolveRequest, out: &ScheduleOutput) -> Result<(), String> {
    let demand = req.demand();
    let report = validate(&req.topology, &demand, &out.schedule, false);
    if !report.is_valid() {
        return Err(format!("invalid schedule: {:?}", report.errors));
    }
    let sim = simulate(&req.topology, &demand, &out.schedule)
        .map_err(|e| format!("simulation failed: {e}"))?;
    if !close(sim.transfer_time, out.metrics.transfer_time) {
        return Err(format!(
            "transfer time {} differs from the reply's {}",
            sim.transfer_time, out.metrics.transfer_time
        ));
    }
    if !close(sim.bytes_on_wire, out.metrics.bytes_on_wire) {
        return Err(format!(
            "bytes on wire {} differ from the reply's {}",
            sim.bytes_on_wire, out.metrics.bytes_on_wire
        ));
    }
    Ok(())
}
