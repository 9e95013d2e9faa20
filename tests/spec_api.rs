//! Acceptance tests for the spec-driven experiment API: serde round-trips,
//! registry completeness, and parallel-vs-sequential sweep determinism.

use ibc_perf_repro::framework::spec::{ExperimentSpec, ScenarioKind};
use ibc_perf_repro::framework::sweep::{self, SweepGrid, SweepMode};
use ibc_perf_repro::framework::ScenarioOutcome;
use ibc_perf_repro::framework::{registry, scenarios};

#[test]
fn every_spec_family_round_trips_through_serde_identically() {
    let mut profiled = ExperimentSpec::latency().transfers(300).named("profiled");
    profiled.deployment.profile_work = true;
    let specs = [
        ExperimentSpec::tendermint_throughput()
            .input_rate(250)
            .rtt_ms(200)
            .seed(1),
        ExperimentSpec::relayer_throughput()
            .input_rate(60)
            .relayers(2)
            .rtt_ms(200)
            .measurement_blocks(10)
            .seed(42),
        ExperimentSpec::latency()
            .transfers(5_000)
            .submission_blocks(4)
            .seed(7),
        ExperimentSpec::websocket_limit()
            .transfers(60_000)
            .named("ws"),
        profiled,
    ];
    // Every point of every registered scenario, in both sweep modes: these
    // cover the fault plans, topologies, hop plans and strategies in use.
    let registry_points = registry::entries().iter().flat_map(|entry| {
        [SweepMode::Quick, SweepMode::Full]
            .into_iter()
            .flat_map(|mode| entry.grid(mode).points())
    });
    for spec in specs.into_iter().chain(registry_points) {
        let json = spec.to_json();
        let parsed = ExperimentSpec::from_json(&json).unwrap();
        assert_eq!(parsed, spec);
        // JSON → spec → JSON is byte-identical.
        assert_eq!(parsed.to_json(), json);
    }
}

#[test]
fn spec_json_is_human_readable_and_complete() {
    let json = ExperimentSpec::relayer_throughput()
        .input_rate(60)
        .to_json();
    for field in [
        "name",
        "kind",
        "deployment",
        "workload",
        "relayer_count",
        "network_rtt_ms",
        "seed",
    ] {
        assert!(json.contains(field), "spec JSON misses `{field}`:\n{json}");
    }
}

#[test]
fn registry_lookup_returns_every_figure_name() {
    let expected = [
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "table1",
        "websocket_limit",
        "fig8_batched_pulls",
        "fig11_coordinated",
        "fig12_parallel_fetch",
        "fig13_adaptive_submission",
        "multi_channel_scaling",
        "frame_limit_sweep",
        "channel_contention",
        "sequence_race",
        "dedicated_scaling",
        "batched_pull_calibration",
        "relayer_crash",
        "chain_halt",
        "client_expiry",
        "hub_spoke_scaling",
        "mesh_contention",
        "smoke",
    ];
    assert_eq!(registry::names(), expected);
    for name in expected {
        let entry = registry::get(name).unwrap_or_else(|| panic!("{name} missing from registry"));
        for mode in [SweepMode::Quick, SweepMode::Full] {
            let grid = entry.grid(mode);
            assert!(!grid.points().is_empty(), "{name} expands to no points");
            // Every point is a well-formed, serializable spec.
            for point in grid.points() {
                assert_eq!(ExperimentSpec::from_json(&point.to_json()).unwrap(), point);
            }
        }
    }
}

#[test]
fn registry_grids_cover_all_scenario_kinds() {
    let kinds: Vec<ScenarioKind> = registry::entries()
        .iter()
        .map(|e| e.grid(SweepMode::Quick).base.kind)
        .collect();
    for kind in [
        ScenarioKind::TendermintThroughput,
        ScenarioKind::RelayerThroughput,
        ScenarioKind::Latency,
        ScenarioKind::WebSocketLimit,
    ] {
        assert!(
            kinds.contains(&kind),
            "no registered scenario covers {kind:?}"
        );
    }
}

#[test]
fn parallel_sweep_is_byte_identical_to_sequential() {
    // A multi-point grid crossing rates × RTTs × seeds, small enough for CI.
    let grid = SweepGrid::new(
        ExperimentSpec::relayer_throughput()
            .measurement_blocks(4)
            .seed(42),
    )
    .input_rates([10, 20])
    .rtts_ms([0, 200])
    .seeds([1, 2]);
    let specs = grid.points();
    assert_eq!(specs.len(), 8);

    let sequential = sweep::run_sequential(&specs);
    let parallel = sweep::run_parallel(&specs, 4);
    assert_eq!(sequential, parallel);

    // Byte-identical, not merely equal: serialize both outcome lists.
    let seq_json: Vec<String> = sequential.iter().map(ScenarioOutcome::to_json).collect();
    let par_json: Vec<String> = parallel.iter().map(ScenarioOutcome::to_json).collect();
    assert_eq!(seq_json, par_json);

    // And the sweep did real work: outcomes carry live metrics.
    assert!(sequential.iter().all(|o| o.requests_made() > 0));
}

#[test]
fn relayer_and_transfer_axes_expand_the_grid() {
    // The fleet-size and workload-size axes: every combination becomes a
    // point, and the axis values land on the right spec fields.
    let grid = SweepGrid::new(
        ExperimentSpec::latency()
            .transfers(100)
            .submission_blocks(1)
            .seed(42),
    )
    .relayer_counts([1, 2, 4])
    .transfer_counts([100, 1_000]);
    let specs = grid.points();
    assert_eq!(specs.len(), 6);

    let mut fleet_sizes: Vec<usize> = specs.iter().map(|p| p.deployment.relayer_count).collect();
    fleet_sizes.sort_unstable();
    fleet_sizes.dedup();
    assert_eq!(fleet_sizes, [1, 2, 4]);

    let mut transfers: Vec<u64> = specs.iter().map(|p| p.workload.total_transfers).collect();
    transfers.sort_unstable();
    transfers.dedup();
    assert_eq!(transfers, [100, 1_000]);
}

#[test]
fn derived_seeds_give_points_independent_streams() {
    let grid = SweepGrid::new(ExperimentSpec::tendermint_throughput().seed(42)).derived_seeds(3);
    let seeds: Vec<u64> = grid.points().iter().map(|p| p.deployment.seed).collect();
    assert_eq!(seeds.len(), 3);
    assert_eq!(seeds, sweep::derived_seeds(42, 3));
    let mut unique = seeds.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), 3, "derived seeds must be distinct");
}

#[test]
fn an_explicit_zero_channel_count_parses_as_zero_and_runs_as_one() {
    let mut one = ExperimentSpec::relayer_throughput()
        .input_rate(20)
        .rtt_ms(0)
        .measurement_blocks(4)
        .seed(3);
    one.deployment.profile_work = true;
    let json = one.to_json();
    let zero_json = json.replace("\"channel_count\": 1,", "\"channel_count\": 0,");
    assert_ne!(zero_json, json);
    let zero = ExperimentSpec::from_json(&zero_json).unwrap();
    assert_eq!(zero.deployment.channel_count, 0);

    let (a, b) = (scenarios::run(&one), scenarios::run(&zero));
    assert!(a.completed() > 0);
    assert!(a.metrics.keys().any(|k| k.starts_with("work_")));
    assert_eq!(a.metrics, b.metrics);
}
