//! Tests of the benchmark's own machinery: the percentile rule, the output
//! checks and the traced-run equality check.

use xcc_framework::outcome::keys;
use xcc_framework::{scenarios, ExperimentSpec, ScenarioOutcome, WorkProfile};
use xcc_perfbench::checks::{check_outputs, check_traced, digest};
use xcc_perfbench::stats::{summarize, MIN_BEYOND};
use xcc_perfbench::traced::traced_run;

fn samples(n: usize) -> Vec<f64> {
    // 1..=n in a scrambled order: the summary must not rely on input order.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    v.rotate_left(n / 3);
    v
}

#[test]
fn tail_needs_ten_samples_beyond_it_and_reports_the_count() {
    let few = summarize(&samples(2 * MIN_BEYOND - 1));
    assert_eq!(few.count, 19);
    assert_eq!(few.median, 10.0);
    assert_eq!(
        few.tail, None,
        "19 samples cannot put 10 beyond a tail above p50"
    );

    let twenty = summarize(&samples(20));
    assert_eq!(twenty.count, 20);
    assert_eq!(twenty.median, 10.5);
    assert_eq!(twenty.tail, Some((50.0, 10.0)));

    // The value at rank n - 10 has exactly ten samples beyond it.
    let hundred = summarize(&samples(100));
    assert_eq!(hundred.tail, Some((90.0, 90.0)));
    let thousand = summarize(&samples(1000));
    assert_eq!(thousand.count, 1000);
    assert_eq!(thousand.tail, Some((99.0, 990.0)));
    let beyond = samples(1000).iter().filter(|&&x| x > 990.0).count();
    assert_eq!(beyond, MIN_BEYOND);
}

#[test]
fn empty_and_single_samples_have_no_tail() {
    assert_eq!(summarize(&[]).count, 0);
    assert_eq!(summarize(&[]).median, 0.0);
    let one = summarize(&[3.5]);
    assert_eq!((one.count, one.median, one.tail), (1, 3.5, None));
    assert_eq!(one.tail_or_median(), 3.5);
}

fn outcome_with(counts: [(&str, f64); 7]) -> ScenarioOutcome {
    let mut outcome = ScenarioOutcome::new(ExperimentSpec::latency());
    for (key, value) in counts {
        outcome.set(key, value);
    }
    outcome
}

fn consistent_outcome() -> ScenarioOutcome {
    outcome_with([
        (keys::REQUESTS_MADE, 100.0),
        (keys::SUBMITTED, 90.0),
        (keys::COMMITTED, 80.0),
        (keys::COMPLETED, 50.0),
        (keys::PARTIAL, 20.0),
        (keys::INITIATED, 10.0),
        (keys::NOT_COMMITTED, 20.0),
    ])
}

#[test]
fn output_checks_reject_inconsistent_counts() {
    assert_eq!(check_outputs(&consistent_outcome()), Ok(()));

    let mut over_committed = consistent_outcome();
    over_committed.set(keys::COMMITTED, 95.0);
    assert!(check_outputs(&over_committed).is_err());

    let mut lost_request = consistent_outcome();
    lost_request.set(keys::PARTIAL, 19.0);
    assert!(check_outputs(&lost_request).is_err());

    let mut failed_setup = consistent_outcome();
    failed_setup.set(keys::SETUP_FAILED, 1.0);
    assert!(check_outputs(&failed_setup).is_err());
}

#[test]
fn traced_equality_check_rejects_differing_counters() {
    let outcome = consistent_outcome();
    let work = WorkProfile {
        events_popped: 40,
        txs_decoded: 7,
        ..WorkProfile::default()
    };
    assert_eq!(check_traced((&outcome, &work), (&outcome, &work)), Ok(()));

    let mut extra_decode = work.clone();
    extra_decode.txs_decoded += 1;
    let err = check_traced((&outcome, &work), (&outcome, &extra_decode))
        .expect_err("a traced run that decoded one more tx is void");
    assert!(err.contains("work profiles differ"), "{err}");

    let mut extra_rpc = work.clone();
    extra_rpc.rpc_calls.insert("status".to_string(), 1);
    assert!(check_traced((&outcome, &work), (&outcome, &extra_rpc)).is_err());

    let mut other_metric = outcome.clone();
    other_metric.set(keys::COMPLETED, 51.0);
    let err = check_traced((&outcome, &work), (&other_metric, &work))
        .expect_err("a traced run with another outcome is void");
    assert!(err.contains(keys::COMPLETED), "{err}");

    let mut missing_metric = outcome.clone();
    missing_metric.metrics.remove(keys::PARTIAL);
    assert!(check_traced((&outcome, &work), (&missing_metric, &work)).is_err());
}

#[test]
fn digest_changes_with_any_outcome_or_counter() {
    let outcome = consistent_outcome();
    let work = WorkProfile::default();
    let base = digest(&outcome, &work);
    assert_eq!(base, digest(&outcome.clone(), &work.clone()));
    let mut other = outcome.clone();
    other.set(keys::INITIATED, 11.0);
    assert_ne!(base, digest(&other, &work));
    let more_work = WorkProfile {
        telemetry_records: 1,
        ..WorkProfile::default()
    };
    assert_ne!(base, digest(&outcome, &more_work));
}

#[test]
fn traced_run_replays_the_runner_exactly() {
    let spec = ExperimentSpec::relayer_throughput()
        .relayers(2)
        .input_rate(40)
        .measurement_blocks(3);
    let raw = scenarios::try_run_raw(&spec).expect("pair deployment builds");
    let untraced = scenarios::outcome_from(&spec, &raw);
    let traced = traced_run(&spec).expect("hop- and fault-free spec replays");
    assert_eq!(
        check_traced((&untraced, &raw.work), (&traced.outcome, &traced.work)),
        Ok(())
    );
    assert!(traced.wake.calls() > 0 && traced.produce_block.calls() > 0);
    assert_eq!(traced.submit.calls(), 3);
    // The spans plus the runner's self time are the traced total.
    let spans = traced.build.secs
        + traced.submit.secs
        + traced.produce_block.secs
        + traced.wake.secs
        + traced.outcome_from.secs;
    assert!((spans + traced.runner_self_secs() - traced.total_secs).abs() < 1e-9);
    assert!(traced.runner_self_secs() >= 0.0);
}

#[test]
fn traced_run_refuses_specs_it_cannot_replay() {
    let spec = ExperimentSpec::latency()
        .transfers(10)
        .hop_plan([xcc_framework::HopRoute {
            first_leg: 0,
            second_leg: 1,
        }]);
    assert!(traced_run(&spec).is_err());
}
