//! Satellite property test: `ScheduleOutput` JSON round-trips exactly for
//! real solver outputs across the Table-4 scenario set — serialize →
//! deserialize → `validate` still passes and the metrics are bit-identical.
//!
//! The A* rows run at the paper's full 16 MB buffer; the ALLTOALL LP rows
//! run at reduced chassis counts — the full internal1(2)/internal2(4)
//! ALLTOALL LPs are the ~100k-iteration instances of Table 4 (minutes in a
//! debug build) and the serialization path under test is independent of LP
//! size. The same reduced-scale convention applies throughout
//! `teccl-bench` (see its crate docs).

use teccl_collective::{CollectiveKind, DemandMatrix};
use teccl_core::{SolverConfig, TeCcl};
use teccl_schedule::{simulate, validate, CollectiveMetrics, ScheduleOutput};
use teccl_service::{RequestMethod, SolveRequest};
use teccl_topology::{internal1, internal2, NodeId, Topology};

fn table4_cases() -> Vec<(&'static str, Topology, CollectiveKind, RequestMethod, f64)> {
    const MB: f64 = 1024.0 * 1024.0;
    vec![
        (
            "internal1x2-ag-astar-16M",
            internal1(2),
            CollectiveKind::AllGather,
            RequestMethod::AStar,
            16.0 * MB,
        ),
        (
            "internal1x1-atoa-lp-1M",
            internal1(1),
            CollectiveKind::AllToAll,
            RequestMethod::Lp,
            MB,
        ),
        (
            "internal2x4-ag-astar-16M",
            internal2(4),
            CollectiveKind::AllGather,
            RequestMethod::AStar,
            16.0 * MB,
        ),
        (
            "internal2x2-atoa-lp-1M",
            internal2(2),
            CollectiveKind::AllToAll,
            RequestMethod::Lp,
            MB,
        ),
    ]
}

#[test]
fn table4_outputs_roundtrip_bit_exactly() {
    for (name, topo, kind, method, size) in table4_cases() {
        let mut config = SolverConfig::early_stop();
        config.time_limit = Some(std::time::Duration::from_secs(60));
        let request = SolveRequest::new(topo.clone(), kind, 1, size)
            .with_method(method)
            .with_config(config.clone());
        let demand: DemandMatrix = request.demand();
        let chunk_bytes = request.chunk_bytes();
        let solver = TeCcl::new(topo.clone(), config);
        let outcome = solver
            .solve(&demand, chunk_bytes, method, None)
            .unwrap_or_else(|e| panic!("{name}: solve failed: {e}"));

        let sim = simulate(&outcome.topology_used, &demand, &outcome.schedule).unwrap();
        let output = ScheduleOutput {
            schedule: outcome.schedule,
            metrics: CollectiveMetrics {
                solver: format!("te-ccl-{name}"),
                epoch_duration: outcome.epoch_duration,
                transfer_time: sim.transfer_time,
                solver_time: outcome.solver_time.as_secs_f64(),
                output_buffer_bytes: request.output_buffer,
                bytes_on_wire: sim.bytes_on_wire,
            },
        };

        // serialize → deserialize…
        let text = output.to_json_value().to_json();
        let back = ScheduleOutput::from_json_str(&text)
            .unwrap_or_else(|e| panic!("{name}: reparse failed: {e}"));

        // …validate still passes…
        let report = validate(&outcome.topology_used, &demand, &back.schedule, false);
        assert!(report.is_valid(), "{name}: {:?}", report.errors);
        assert_eq!(back.schedule.sends, output.schedule.sends, "{name}");
        assert_eq!(
            back.schedule.num_epochs, output.schedule.num_epochs,
            "{name}"
        );

        // …and the metrics are bit-identical, field by field.
        let (a, b) = (&back.metrics, &output.metrics);
        assert_eq!(a.solver, b.solver, "{name}");
        for (field, x, y) in [
            ("epoch_duration", a.epoch_duration, b.epoch_duration),
            ("transfer_time", a.transfer_time, b.transfer_time),
            ("solver_time", a.solver_time, b.solver_time),
            (
                "output_buffer_bytes",
                a.output_buffer_bytes,
                b.output_buffer_bytes,
            ),
            ("bytes_on_wire", a.bytes_on_wire, b.bytes_on_wire),
        ] {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{name}: metric {field} not bit-identical"
            );
        }

        // The simulator agrees with itself on the reparsed schedule — the
        // round trip did not perturb anything the α–β model observes.
        let sim2 = simulate(&outcome.topology_used, &demand, &back.schedule).unwrap();
        assert_eq!(
            sim2.transfer_time.to_bits(),
            sim.transfer_time.to_bits(),
            "{name}"
        );
    }

    // Pure property sweep on top of the real outputs: random schedules with
    // adversarial float values round-trip exactly.
    let mut rng = teccl_util::Rng64::seed_from_u64(42);
    for case in 0..50 {
        let mut s = teccl_schedule::Schedule::new(format!("prop-{case}"), rng.gen_f64() * 1e9);
        s.epoch_duration = rng.gen_f64() * 1e-3;
        s.solver_time = rng.gen_f64() * 100.0;
        for _ in 0..rng.gen_range_usize(20) {
            s.push(
                teccl_schedule::ChunkId::new(
                    NodeId(rng.gen_range_usize(8)),
                    rng.gen_range_usize(4),
                ),
                NodeId(rng.gen_range_usize(8)),
                NodeId(rng.gen_range_usize(8)),
                rng.gen_range_usize(12),
            );
        }
        let out = ScheduleOutput {
            schedule: s,
            metrics: CollectiveMetrics {
                solver: format!("prop-{case}"),
                epoch_duration: rng.gen_f64() / 3.0,
                transfer_time: rng.gen_f64() * 1e-2 + 1e-9,
                solver_time: rng.gen_f64() * 7.0,
                output_buffer_bytes: rng.gen_f64() * 1e12,
                bytes_on_wire: rng.gen_f64() * 1e12,
            },
        };
        let back = ScheduleOutput::from_json_str(&out.to_json_value().to_json()).unwrap();
        assert_eq!(back.schedule.sends, out.schedule.sends);
        assert_eq!(back.metrics, out.metrics);
        assert_eq!(
            back.metrics.transfer_time.to_bits(),
            out.metrics.transfer_time.to_bits()
        );
        assert_eq!(
            back.metrics.output_buffer_bytes.to_bits(),
            out.metrics.output_buffer_bytes.to_bits()
        );
    }
}
