//! Output checks: the count identities every run must satisfy, the outcome
//! digest that must repeat across runs of one seed, and the equality check
//! that validates a traced run against an untraced one.

use xcc_framework::{ScenarioOutcome, WorkProfile};

/// Checks one run's outcome: it set up, and its transfer counts are
/// consistent (`committed <= submitted <= requests_made`, and every request
/// is in exactly one completion state).
pub fn check_outputs(outcome: &ScenarioOutcome) -> Result<(), String> {
    if outcome.setup_failed() {
        return Err("the deployment failed to set up".to_string());
    }
    let (requests, submitted, committed) = (
        outcome.requests_made(),
        outcome.submitted(),
        outcome.committed(),
    );
    if !(committed <= submitted && submitted <= requests) {
        return Err(format!(
            "committed {committed} <= submitted {submitted} <= requests_made {requests} fails"
        ));
    }
    let states =
        outcome.completed() + outcome.partial() + outcome.initiated() + outcome.not_committed();
    if states != requests {
        return Err(format!(
            "completed + partial + initiated + not_committed = {states}, \
             but requests_made = {requests}"
        ));
    }
    Ok(())
}

/// The 64-bit FNV-1a digest of a run's outcome (spec and every metric) and
/// its work profile. Runs of one spec and seed must all share it.
pub fn digest(outcome: &ScenarioOutcome, work: &WorkProfile) -> u64 {
    let text = format!("{}\n{work:?}", outcome.to_json());
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks that a traced run did exactly the work of an untraced run of the
/// same spec: equal work profiles and equal outcomes. When this fails the
/// traced per-layer numbers describe a different run and are void.
pub fn check_traced(
    untraced: (&ScenarioOutcome, &WorkProfile),
    traced: (&ScenarioOutcome, &WorkProfile),
) -> Result<(), String> {
    if untraced.1 != traced.1 {
        return Err(format!(
            "work profiles differ: untraced {:?}, traced {:?}",
            untraced.1, traced.1
        ));
    }
    if untraced.0.spec != traced.0.spec {
        return Err("the traced run used a different spec".to_string());
    }
    let keys = untraced.0.metrics.keys().chain(traced.0.metrics.keys());
    for key in keys {
        let (a, b) = (untraced.0.metric(key), traced.0.metric(key));
        // Bitwise, so NaN metrics compare equal to themselves.
        if a.map(f64::to_bits) != b.map(f64::to_bits) {
            return Err(format!(
                "metric {key} differs: untraced {a:?}, traced {b:?}"
            ));
        }
    }
    Ok(())
}
