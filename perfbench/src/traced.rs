//! The traced run: the experiment runner's event loop, driven from outside
//! through the same public calls, with a span around each call into a layer.
//!
//! `xcc_framework::runner::run_experiment` is one opaque call. This module
//! replays its loop step for step — the same scheduler, the same event
//! order, the same yield rule, the same stop check and the same
//! post-processing — and times the calls into each layer:
//!
//! | span                    | call                                   |
//! |-------------------------|----------------------------------------|
//! | `testnet.build_s`       | `Testnet::try_build`                   |
//! | `workload.submit_s`     | `WorkloadConnector::submit_window`     |
//! | `chain.produce_block_s` | `Chain::produce_block`                 |
//! | `relayer.wake_s`        | `Relayer::wake`                        |
//! | `analysis.outcome_s`    | `scenarios::outcome_from`              |
//!
//! Everything else — popping events, notifying processes, the stop check,
//! merging telemetry and the tracing itself — is the runner's self time.
//! Each span also records the `xcc_sim::prof` counter delta of its calls.
//!
//! The replay is only valid if it does exactly what the runner does. The
//! caller checks that with [`crate::checks::check_traced`] against an
//! untraced run of the same spec. Fault plans and hop plans are not
//! replayed: specs that carry them are refused.

use std::collections::BTreeMap;

use xcc_bench::timing::Stopwatch;
use xcc_framework::runner::{BlockRecord, RunOutput};
use xcc_framework::scenarios;
use xcc_framework::testnet::{make_rpc, Testnet};
use xcc_framework::workload::{SubmissionStats, WorkloadConnector};
use xcc_framework::{ExperimentSpec, ScenarioOutcome, WorkProfile};
use xcc_ibc::events as ibc_events;
use xcc_relayer::telemetry::{TelemetryLog, TransferStep};
use xcc_rpc::endpoint::RpcEndpoint;
use xcc_sim::prof::{self, WorkCounters};
use xcc_sim::{Scheduler, SchedulerBackend, SimTime};

/// The time and work of every call into one layer.
#[derive(Debug, Clone, Default)]
pub struct Span {
    /// Host seconds inside the layer's calls.
    pub secs: f64,
    /// Host milliseconds of each call, in call order.
    pub call_ms: Vec<f64>,
    /// Calls that served no RPC request.
    pub calls_without_rpc: u64,
    /// Work counters bumped inside the calls.
    pub work: WorkCounters,
}

impl Span {
    /// Number of calls recorded.
    pub fn calls(&self) -> u64 {
        self.call_ms.len() as u64
    }

    /// Runs `call`, adding its host time and counter delta to the span.
    fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let before = prof::snapshot();
        let watch = Stopwatch::start();
        let out = call();
        let secs = watch.elapsed_secs();
        let delta = counter_delta(&prof::snapshot(), &before);
        self.secs += secs;
        self.call_ms.push(secs * 1e3);
        if delta.total_rpc_calls() == 0 {
            self.calls_without_rpc += 1;
        }
        self.work = self.work.merged(&delta);
        out
    }
}

/// Field-wise `after - before`.
fn counter_delta(after: &WorkCounters, before: &WorkCounters) -> WorkCounters {
    let mut rpc_calls = after.rpc_calls;
    for (slot, earlier) in rpc_calls.iter_mut().zip(before.rpc_calls) {
        *slot -= earlier;
    }
    WorkCounters {
        events_scheduled: after.events_scheduled - before.events_scheduled,
        events_popped: after.events_popped - before.events_popped,
        rpc_calls,
        txs_encoded: after.txs_encoded - before.txs_encoded,
        txs_decoded: after.txs_decoded - before.txs_decoded,
        bytes_serialized: after.bytes_serialized - before.bytes_serialized,
        telemetry_records: after.telemetry_records - before.telemetry_records,
        relayer_wakes: after.relayer_wakes - before.relayer_wakes,
        clear_scan_visits: after.clear_scan_visits - before.clear_scan_visits,
    }
}

/// Counts read off the finished run, after the clock stopped.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCounts {
    /// Transfers whose broadcast the source chain refused.
    pub requests_refused: u64,
    /// Blocks committed on every chain.
    pub blocks: u64,
    /// Blocks that included no transaction.
    pub blocks_idle: u64,
    /// Transactions included in blocks on every chain.
    pub txs_committed: u64,
    /// Included transactions whose execution failed.
    pub txs_failed: u64,
    /// Packet messages (receive and acknowledgement) the relayers broadcast.
    pub packet_msgs_submitted: u64,
    /// Receive and acknowledgement messages that executed successfully.
    pub packet_msgs_delivered: u64,
    /// Failed broadcast attempts across relayers.
    pub broadcast_failures: u64,
    /// Redundant packet messages (skipped or failed on chain).
    pub redundant_packet_errors: u64,
    /// Packets sent but neither acknowledged nor timed out at the end.
    pub stranded_packets: u64,
}

/// Everything one traced run measured.
pub struct TracedRun {
    /// The run's outcome, as `scenarios::run` would return it.
    pub outcome: ScenarioOutcome,
    /// The run's work profile, as `RunOutput::work` would hold it.
    pub work: WorkProfile,
    /// Host seconds of the whole traced run, tracing included.
    pub total_secs: f64,
    /// `Testnet::try_build`.
    pub build: Span,
    /// `WorkloadConnector::submit_window`.
    pub submit: Span,
    /// `Chain::produce_block`.
    pub produce_block: Span,
    /// `Relayer::wake`.
    pub wake: Span,
    /// `scenarios::outcome_from`.
    pub outcome_from: Span,
    /// Counts read off the finished run.
    pub counts: RunCounts,
}

impl TracedRun {
    /// Host seconds outside every layer span: the runner's own work plus
    /// the tracing overhead. Spans plus this add up to [`Self::total_secs`].
    pub fn runner_self_secs(&self) -> f64 {
        let spans = [
            &self.build,
            &self.submit,
            &self.produce_block,
            &self.wake,
            &self.outcome_from,
        ];
        self.total_secs - spans.iter().map(|s| s.secs).sum::<f64>()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Block(usize),
    RelayerWake(usize),
}

/// Runs `spec` once through the replayed event loop.
pub fn traced_run(spec: &ExperimentSpec) -> Result<TracedRun, String> {
    let deployment = spec.resolved_deployment();
    let workload_config = &spec.workload;
    if !deployment.fault_plan.is_empty() || !workload_config.hop_plan.is_empty() {
        return Err("the traced loop replays neither fault plans nor hop plans".to_string());
    }
    let (mut build, mut submit, mut produce_block, mut wake, mut outcome_from) = (
        Span::default(),
        Span::default(),
        Span::default(),
        Span::default(),
        Span::default(),
    );
    let total = Stopwatch::start();

    prof::reset();
    let mut testnet = build
        .time(|| Testnet::try_build(&deployment))
        .map_err(|e| e.to_string())?;
    let chain_count = testnet.chains.len();
    let path_src: Vec<usize> = testnet.path_ends.iter().map(|&(src, _)| src).collect();
    let mut rpc_chains: Vec<usize> = Vec::new();
    for &src in &path_src {
        if !rpc_chains.contains(&src) {
            rpc_chains.push(src);
        }
    }
    let workload_rpcs: Vec<RpcEndpoint> = rpc_chains
        .iter()
        .map(|&c| {
            let label = if c == 0 {
                "workload-cli".to_string()
            } else {
                format!("workload-cli-{c}")
            };
            make_rpc(&testnet.chains[c], &deployment, &testnet.rng, &label)
        })
        .collect();
    let path_rpc: Vec<usize> = path_src
        .iter()
        .map(|src| rpc_chains.iter().position(|c| c == src).unwrap_or(0))
        .collect();
    let mut workload = WorkloadConnector::for_topology(
        workload_config.clone(),
        testnet.paths.clone(),
        path_rpc,
        workload_rpcs,
        deployment.user_accounts,
    );

    let min_interval = deployment.min_block_interval;
    let mut sched: Scheduler<Ev> = Scheduler::with_backend(SchedulerBackend::Heap);
    for c in 0..chain_count {
        sched.schedule_at(SimTime::ZERO + min_interval, Ev::Block(c));
    }
    let mut blocks: Vec<Vec<BlockRecord>> = vec![Vec::new(); chain_count];
    let mut last_commit = vec![SimTime::ZERO; chain_count];
    let mut measurement_start = SimTime::ZERO;
    let mut measurement_end = SimTime::ZERO;

    let dest_height = testnet.chains[1].borrow().height();
    submit.time(|| workload.submit_window(SimTime::ZERO, dest_height));

    let target_blocks = workload_config.measurement_blocks;
    let grace_blocks = workload_config.completion_grace_blocks;
    let mut source_running = true;
    let mut wakes_due: Vec<(SimTime, usize)> = Vec::new();
    fn note_wakes(wakes_due: &mut Vec<(SimTime, usize)>, at: SimTime, count: usize) {
        if count == 0 {
            return;
        }
        match wakes_due.iter_mut().find(|(t, _)| *t == at) {
            Some((_, pending)) => *pending += count,
            None => wakes_due.push((at, count)),
        }
    }

    while let Some((t, ev)) = sched.pop() {
        let wakes_pending_now = wakes_due
            .iter()
            .any(|(at, pending)| *at == t && *pending > 0);
        match ev {
            Ev::Block(_) if wakes_pending_now => sched.schedule_at(t, ev),
            Ev::Block(c) => {
                let outcome =
                    produce_block.time(|| testnet.chains[c].borrow_mut().produce_block(t));
                blocks[c].push(BlockRecord {
                    height: outcome.height,
                    proposed_at: t,
                    committed_at: outcome.committed_at,
                    tx_count: outcome.tx_count,
                    events: outcome.included_messages,
                    interval: outcome.committed_at - last_commit[c],
                });
                last_commit[c] = outcome.committed_at;

                let mut woken = 0;
                for id in 0..testnet.relayers.len() {
                    let (src, dst) = testnet.relayer_chains[id];
                    if src != c && dst != c {
                        continue;
                    }
                    if src == c {
                        testnet.relayers[id]
                            .notify_source_block(outcome.height, outcome.committed_at);
                    }
                    if dst == c {
                        testnet.relayers[id]
                            .notify_dest_block(outcome.height, outcome.committed_at);
                    }
                    sched.schedule_at(t, Ev::RelayerWake(id));
                    woken += 1;
                }
                note_wakes(&mut wakes_due, t, woken);

                if c == 0 {
                    let measured = blocks[0].len() as u64;
                    if measured == 1 {
                        measurement_start = outcome.committed_at;
                    }
                    if measured == target_blocks {
                        measurement_end = outcome.committed_at;
                    }
                    if !workload.finished_submitting() {
                        let dest_height = testnet.chains[1].borrow().height();
                        submit.time(|| workload.submit_window(outcome.committed_at, dest_height));
                    }
                    let stop = if measured < target_blocks {
                        false
                    } else if !workload_config.run_to_completion {
                        true
                    } else {
                        let outstanding: usize = testnet
                            .paths
                            .iter()
                            .zip(&testnet.path_ends)
                            .map(|(path, &(src, _))| {
                                let chain = testnet.chains[src].borrow();
                                let ibc = chain.app().ibc();
                                let sent = ibc.sent_sequences(&path.port, &path.src_channel);
                                ibc.unacknowledged_packets(&path.port, &path.src_channel, &sent)
                                    .len()
                            })
                            .sum();
                        let done = workload.finished_submitting() && outstanding == 0;
                        done || measured >= target_blocks + grace_blocks
                    };
                    if !stop {
                        sched.schedule_at(outcome.committed_at.max(t + min_interval), Ev::Block(0));
                    } else {
                        source_running = false;
                        if measurement_end == SimTime::ZERO {
                            measurement_end = outcome.committed_at;
                        }
                    }
                } else if source_running {
                    sched.schedule_at(outcome.committed_at.max(t + min_interval), Ev::Block(c));
                }
            }
            Ev::RelayerWake(id) => {
                prof::bump_relayer_wake();
                if let Some((_, pending)) = wakes_due.iter_mut().find(|(at, _)| *at == t) {
                    *pending = pending.saturating_sub(1);
                }
                wakes_due.retain(|(at, pending)| *at > t || *pending > 0);
                if let Some(next) = wake.time(|| testnet.relayers[id].wake(t)) {
                    let at = next.max(t);
                    sched.schedule_at(at, Ev::RelayerWake(id));
                    note_wakes(&mut wakes_due, at, 1);
                }
            }
        }
    }

    let mut telemetry = TelemetryLog::new();
    let mut relayer_stats = Vec::new();
    let mut rpc_lanes = Vec::new();
    for (r, relayer) in testnet.relayers.iter().enumerate() {
        telemetry.merge_offset(
            relayer.telemetry(),
            testnet.relayer_channel_offset[r] as u64,
        );
        relayer_stats.push(*relayer.stats());
        rpc_lanes.push(relayer.lane_stats());
    }
    for record in workload.records() {
        if !record.accepted {
            continue;
        }
        let chain = testnet.chains[path_src[record.channel]].borrow();
        let Some((_, _, result)) = chain.find_tx(&record.tx_hash) else {
            continue;
        };
        for event in &result.events {
            if event.kind != ibc_events::SEND_PACKET {
                continue;
            }
            if let Some(packet) = ibc_events::packet_from_event(event) {
                telemetry.record_on(
                    record.channel as u64,
                    packet.sequence,
                    TransferStep::TransferBroadcast,
                    record.broadcast_at,
                );
            }
        }
    }
    backfill_confirmations(&mut telemetry, &testnet, &blocks);

    let run = RunOutput {
        blocks_a: blocks[0].clone(),
        blocks_b: blocks[1].clone(),
        blocks,
        telemetry,
        submission: workload.stats(),
        submission_records: workload.records().to_vec(),
        forwards: Vec::new(),
        forward_stats: SubmissionStats::default(),
        hop_routes: Vec::new(),
        relayer_stats,
        rpc_lanes,
        chain_a: testnet.chain_a.clone(),
        chain_b: testnet.chain_b.clone(),
        chains: testnet.chains.clone(),
        path: testnet.path.clone(),
        paths: testnet.paths.clone(),
        path_ends: testnet.path_ends.clone(),
        measurement_start,
        measurement_end,
        workload: workload_config.clone(),
        deployment: deployment.clone(),
        work: WorkProfile::from_counters(&prof::snapshot()),
    };
    let outcome = outcome_from.time(|| scenarios::outcome_from(spec, &run));
    let secs_before_counts = total.elapsed_secs();

    let counts = count_run(&run, &testnet);
    let work = run.work.clone();
    // Dropping the run is part of an untraced run's time too.
    let drop_watch = Stopwatch::start();
    drop(run);
    drop(testnet);
    let total_secs = secs_before_counts + drop_watch.elapsed_secs();

    Ok(TracedRun {
        outcome,
        work,
        total_secs,
        build,
        submit,
        produce_block,
        wake,
        outcome_from,
        counts,
    })
}

/// The runner's gap-filling pass: receive and acknowledgement confirmations
/// read from committed blocks for packets no relayer observed, never
/// overwriting a relayer-observed step.
fn backfill_confirmations(
    telemetry: &mut TelemetryLog,
    testnet: &Testnet,
    blocks: &[Vec<BlockRecord>],
) {
    for (c, records) in blocks.iter().enumerate() {
        let chain = testnet.chains[c].borrow();
        for record in records {
            let Some(block) = chain.block_at(record.height) else {
                continue;
            };
            for result in block.results.iter().filter(|r| r.is_ok()) {
                for event in &result.events {
                    let (dst_side, step) = if event.kind == ibc_events::WRITE_ACK {
                        (true, TransferStep::RecvConfirmation)
                    } else if event.kind == ibc_events::ACK_PACKET {
                        (false, TransferStep::AckConfirmation)
                    } else {
                        continue;
                    };
                    let channel = testnet.paths.iter().enumerate().position(|(i, p)| {
                        let (src, dst) = testnet.path_ends[i];
                        let (on_chain, end) = if dst_side {
                            (dst == c, &p.dst_channel)
                        } else {
                            (src == c, &p.src_channel)
                        };
                        on_chain && ibc_events::is_for_channel(event, &p.port, end)
                    });
                    let (Some(channel), Some(packet)) =
                        (channel, ibc_events::packet_from_event(event))
                    else {
                        continue;
                    };
                    let channel = channel as u64;
                    if telemetry
                        .step_time_on(channel, packet.sequence, step)
                        .is_none()
                    {
                        telemetry.record_on(channel, packet.sequence, step, record.committed_at);
                    }
                }
            }
        }
    }
}

/// Reads the per-layer counts off a finished run.
fn count_run(run: &RunOutput, testnet: &Testnet) -> RunCounts {
    let mut counts = RunCounts {
        requests_refused: run.submission.rejected,
        broadcast_failures: run.relayer_stats.iter().map(|s| s.broadcast_failures).sum(),
        redundant_packet_errors: xcc_framework::analysis::redundant_packet_errors(run),
        stranded_packets: xcc_framework::analysis::stranded_packets(run),
        ..RunCounts::default()
    };
    for relayer in &testnet.relayers {
        let log = relayer.telemetry();
        counts.packet_msgs_submitted += (log.count_for_step(TransferStep::RecvBroadcast)
            + log.count_for_step(TransferStep::AckBroadcast))
            as u64;
    }
    for (c, records) in run.blocks.iter().enumerate() {
        let chain = run.chains[c].borrow();
        for record in records {
            counts.blocks += 1;
            counts.blocks_idle += u64::from(record.tx_count == 0);
            counts.txs_committed += record.tx_count as u64;
            let Some(block) = chain.block_at(record.height) else {
                continue;
            };
            for result in &block.results {
                if !result.is_ok() {
                    counts.txs_failed += 1;
                    continue;
                }
                counts.packet_msgs_delivered += result
                    .events
                    .iter()
                    .filter(|e| e.kind == ibc_events::WRITE_ACK || e.kind == ibc_events::ACK_PACKET)
                    .count() as u64;
            }
        }
    }
    counts
}

/// The per-kind RPC calls of a span, by request-kind name (every kind
/// listed, zero included).
pub fn rpc_by_kind(span: &Span) -> BTreeMap<&'static str, u64> {
    xcc_rpc::cost::RequestKind::ALL
        .iter()
        .map(|kind| (kind.name(), span.work.rpc_calls[kind.index()]))
        .collect()
}
