//! Same key, same bytes: a cache key maps to one schedule, whichever service
//! solved it and however often it was solved.
//!
//! Two fresh services, each with its own disk store, answer the same
//! requests — one for every solver route (the copy-free LP on two Table-4
//! ALLTOALL rows, A* on an ALLGATHER row). Their `ScheduleOutput` JSON and
//! their disk entries must be byte-identical, and a third fresh service that
//! repeats the solves must reproduce them.
//!
//! The two wall-clock fields, `stats.solve_time_s` in the disk entry and
//! `metrics.solver_time` in the output, are measurements rather than part of
//! the answer; they are zeroed before comparing. Every other byte counts.

use teccl_collective::CollectiveKind;
use teccl_service::{
    CacheStatus, DiskStore, Quality, RequestMethod, ScheduleService, ServiceConfig, SolveRequest,
};
use teccl_topology::{internal1, internal2};
use teccl_util::json::Value;

const MB: f64 = 1024.0 * 1024.0;

fn requests() -> Vec<SolveRequest> {
    vec![
        SolveRequest::new(internal1(2), CollectiveKind::AllToAll, 1, 16.0 * MB)
            .with_method(RequestMethod::Lp),
        SolveRequest::new(internal2(4), CollectiveKind::AllToAll, 1, 16.0 * MB)
            .with_method(RequestMethod::Lp),
        SolveRequest::new(internal1(2), CollectiveKind::AllGather, 1, 16.0 * MB)
            .with_method(RequestMethod::AStar),
    ]
}

/// Zeroes every wall-clock field, recursively, and re-serializes.
fn without_timing(v: &Value) -> String {
    fn strip(v: &mut Value) {
        match v {
            Value::Obj(pairs) => {
                for (k, child) in pairs.iter_mut() {
                    if k == "solve_time_s" || k == "solver_time" {
                        *child = Value::from(0.0);
                    } else {
                        strip(child);
                    }
                }
            }
            Value::Arr(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let mut v = v.clone();
    strip(&mut v);
    v.to_json_pretty()
}

/// What one answer looks like from the outside: the served output and the
/// disk entry written for it.
#[derive(Debug, PartialEq)]
struct Answer {
    output: String,
    disk: String,
}

fn answer(svc: &ScheduleService, store: &DiskStore, req: &SolveRequest) -> Answer {
    let served = svc.request(req.clone()).expect("request solves");
    assert_eq!(served.cache, CacheStatus::Miss);
    assert_eq!(served.quality, Quality::Exact);
    let text = std::fs::read_to_string(store.path_for(req.key())).expect("entry reached disk");
    Answer {
        output: without_timing(&served.entry.output.to_json_value()),
        disk: without_timing(&Value::parse(&text).expect("disk entry parses")),
    }
}

/// A fresh service over a fresh disk store; the store handle reads what the
/// service wrote.
fn fresh_service(tag: &str) -> (ScheduleService, DiskStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "teccl-same-bytes-{tag}-{}-{:?}",
        std::process::id(),
        std::time::SystemTime::now()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = ScheduleService::start(ServiceConfig {
        workers: 1,
        disk_dir: Some(dir.clone()),
        background_upgrade: false,
        fault_plan: Some(String::new()),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let store = DiskStore::open(&dir).expect("store opens");
    (svc, store, dir)
}

/// Answers every request on a fresh service.
fn cold_answers(tag: &str) -> Vec<Answer> {
    let (svc, store, dir) = fresh_service(tag);
    let answers = requests()
        .iter()
        .map(|req| answer(&svc, &store, req))
        .collect();
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    answers
}

#[test]
fn cold_services_write_identical_bytes_for_every_route() {
    let [a, b, repeat] = std::thread::scope(|s| {
        ["a", "b", "repeat"]
            .map(|tag| s.spawn(move || cold_answers(tag)))
            .map(|h| h.join().unwrap())
    });
    for (i, req) in requests().iter().enumerate() {
        let name = format!("{:?} {:?}", req.collective, req.method);
        assert_eq!(a[i], b[i], "{name}: two services disagree");
        assert_eq!(repeat[i], a[i], "{name}: a repeated solve disagrees");
    }
}

/// Known defect, kept visible: after an eviction the service re-solves a key
/// warm-hinted from its own published basis. The LP routes land on the same
/// vertex, but A* feeds its last round's basis into its first round and
/// returns a different schedule (17 epochs against 13 on this row).
#[test]
#[ignore = "known defect: a warm-hinted A* re-solve returns a different schedule"]
fn warm_hinted_repeat_reproduces_the_cold_output() {
    let (svc, store, dir) = fresh_service("warm");
    for req in requests() {
        let cold = answer(&svc, &store, &req);
        svc.evict();
        let warm = answer(&svc, &store, &req);
        assert_eq!(
            warm.output, cold.output,
            "{:?} {:?}: warm-hinted repeat changed the output",
            req.collective, req.method
        );
    }
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
