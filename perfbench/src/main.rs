//! `perfbench --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Runs one workload in a closed loop on one thread for `--seconds` host
//! seconds and prints its metrics, one per line, then a JSON result as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` adds one traced run and reports the per-layer
//! metrics instead. Exit code 2 means bad arguments.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use xcc_bench::timing::Stopwatch;
use xcc_framework::config::DeploymentConfig;
use xcc_framework::testnet::Testnet;
use xcc_framework::{scenarios, ExperimentSpec, ScenarioOutcome, WorkProfile};
use xcc_perfbench::checks::{check_outputs, check_traced, digest};
use xcc_perfbench::stats::summarize;
use xcc_perfbench::traced::{rpc_by_kind, traced_run, TracedRun};
use xcc_perfbench::workloads::{find, Workload, DEFAULT_SEED, WORKLOADS};

/// `Testnet::try_build` calls timed before each run of the end-to-end loop;
/// `setup_s` is the median over all of them. Spreading the builds over the
/// whole measurement exposes them to the same host phases as the runs.
const SETUP_PER_RUN: usize = 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && find(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    Ok(args)
}

/// One untraced run: the two halves of `scenarios::run`, timed together
/// with dropping the run's data.
struct Sample {
    secs: f64,
    txs_committed: u64,
    outcome: ScenarioOutcome,
    work: WorkProfile,
}

fn untraced_run(spec: &ExperimentSpec) -> Result<Sample, String> {
    let watch = Stopwatch::start();
    let raw = scenarios::try_run_raw(spec).map_err(|e| e.to_string())?;
    let outcome = scenarios::outcome_from(spec, &raw);
    let txs_committed = raw.blocks.iter().flatten().map(|b| b.tx_count as u64).sum();
    let work = raw.work.clone();
    drop(raw);
    Ok(Sample {
        secs: watch.elapsed_secs(),
        txs_committed,
        outcome,
        work,
    })
}

/// The runs of one invocation and their verdicts.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    run_secs: Vec<f64>,
    tx_per_sec: Vec<f64>,
    setup_secs: Vec<f64>,
    /// The first good run's outcome, work profile and digest: every later
    /// run of the seed must match it.
    reference: Option<(ScenarioOutcome, WorkProfile, u64)>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        println!("attempt {} FAILED: {why}", self.attempted);
    }

    fn attempt<T>(&mut self, run: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(run)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(why)) => {
                self.fail(why);
                None
            }
            Err(_) => {
                self.fail("panicked".to_string());
                None
            }
        }
    }

    /// Times `SETUP_PER_RUN` builds of `deployment`, as one attempt: any
    /// failing build fails it.
    fn time_setup(&mut self, deployment: &DeploymentConfig) {
        let builds = self.attempt(|| {
            (0..SETUP_PER_RUN)
                .map(|_| {
                    let watch = Stopwatch::start();
                    let testnet = Testnet::try_build(deployment).map_err(|e| e.to_string())?;
                    let secs = watch.elapsed_secs();
                    drop(testnet);
                    Ok(secs)
                })
                .collect::<Result<Vec<f64>, String>>()
        });
        self.setup_secs.extend(builds.unwrap_or_default());
    }

    /// Runs `spec` back to back for about `seconds`. The first good run
    /// warms the caches and the allocator: it is checked and sets the
    /// reference digest, but its time is not a sample. A run starts while it
    /// is expected (from the previous run) to end less than half a run past
    /// the deadline, so the measurement lasts `seconds` on average, and
    /// until one run is timed or the last attempt failed. With `setup`,
    /// set-up builds are timed before each run.
    fn closed_loop(
        &mut self,
        spec: &ExperimentSpec,
        seconds: f64,
        setup: Option<&DeploymentConfig>,
    ) {
        let clock = Stopwatch::start();
        let mut last_run_secs = 0.0;
        let mut last_failed = false;
        let mut warm = false;
        loop {
            let due = clock.elapsed_secs() + last_run_secs / 2.0 < seconds;
            if !due && (!self.run_secs.is_empty() || last_failed) {
                break;
            }
            last_failed = true;
            if let Some(deployment) = setup {
                self.time_setup(deployment);
            }
            let Some(sample) = self.attempt(|| untraced_run(spec)) else {
                continue;
            };
            last_run_secs = sample.secs;
            let sample_digest = digest(&sample.outcome, &sample.work);
            let verdict = check_outputs(&sample.outcome).and_then(|()| match &self.reference {
                Some((_, _, first)) if *first != sample_digest => Err(format!(
                    "outcome digest {sample_digest:#018x} differs from the first run's {first:#018x}"
                )),
                _ => Ok(()),
            });
            if let Err(why) = verdict {
                self.fail(why);
                continue;
            }
            last_failed = false;
            if self.reference.is_none() {
                self.reference = Some((sample.outcome, sample.work, sample_digest));
            }
            if !warm {
                println!("warm-up run: {:.3} s", sample.secs);
                warm = true;
                continue;
            }
            println!("run {}: {:.3} s", self.run_secs.len() + 1, sample.secs);
            self.run_secs.push(sample.secs);
            self.tx_per_sec
                .push(sample.txs_committed as f64 / sample.secs);
        }
    }
}

/// Peak resident memory of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// The end-to-end metrics of the closed loop, with set-up builds timed
/// between its runs.
fn end_to_end(spec: &ExperimentSpec, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    tally.closed_loop(spec, seconds, Some(&spec.resolved_deployment()));
    let rss = peak_rss_mb().unwrap_or_else(|why| {
        tally.fail(why);
        0.0
    });

    let run = summarize(&tally.run_secs);
    let rate = summarize(&tally.tx_per_sec);
    let setup = summarize(&tally.setup_secs);
    println!("run_s        {}", run.describe("s"));
    println!("sim_tx_per_s {}", rate.describe("tx/s"));
    println!("setup_s      {}", setup.describe("s"));
    println!("peak_rss_mb  {rss:.1} MiB");
    println!(
        "runs_failed  {} of {} attempted",
        tally.failed, tally.attempted
    );
    vec![
        metric("run_s", run.median, "s"),
        metric("sim_tx_per_s", rate.median, "1/s"),
        metric("setup_s", setup.median, "s"),
        metric("peak_rss_mb", rss, "MiB"),
    ]
}

/// The per-layer metrics of one traced run, checked against the untraced
/// runs of the closed loop.
fn per_layer(spec: &ExperimentSpec, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    tally.closed_loop(spec, seconds, None);
    let Some(traced) = tally.attempt(|| traced_run(spec)) else {
        return Vec::new();
    };
    let verdict = check_outputs(&traced.outcome).and_then(|()| match &tally.reference {
        Some((outcome, work, _)) => check_traced((outcome, work), (&traced.outcome, &traced.work)),
        None => Err("no untraced run to check the traced run against".to_string()),
    });
    if let Err(why) = verdict {
        tally.fail(format!("traced run void: {why}"));
    }
    let untraced = summarize(&tally.run_secs).median;
    layer_metrics(&traced, untraced)
}

fn layer_metrics(t: &TracedRun, untraced_run_secs: f64) -> Vec<Metric> {
    let c = &t.counts;
    let block_ms = summarize(&t.produce_block.call_ms);
    let wake_ms = summarize(&t.wake.call_ms);
    println!("chain.block_ms    {}", block_ms.describe("ms"));
    println!("relayer.wake_ms   {}", wake_ms.describe("ms"));
    let useful_ratio = if c.packet_msgs_submitted == 0 {
        0.0
    } else {
        c.packet_msgs_delivered as f64 / c.packet_msgs_submitted as f64
    };
    let n = |v: u64| v as f64;
    let mut out = vec![
        metric("testnet.build_s", t.build.secs, "s"),
        metric("workload.submit_s", t.submit.secs, "s"),
        metric("workload.submit_calls", n(t.submit.calls()), "count"),
        metric(
            "workload.txs_encoded",
            n(t.submit.work.txs_encoded),
            "count",
        ),
        metric(
            "workload.bytes_serialized",
            n(t.submit.work.bytes_serialized),
            "bytes",
        ),
        metric(
            "workload.checktx_decodes",
            n(t.submit.work.txs_decoded),
            "count",
        ),
        metric(
            "workload.rpc_calls",
            n(t.submit.work.total_rpc_calls()),
            "count",
        ),
        metric("workload.requests_refused", n(c.requests_refused), "count"),
        metric("chain.produce_block_s", t.produce_block.secs, "s"),
        metric("chain.blocks", n(c.blocks), "count"),
        metric("chain.blocks_idle", n(c.blocks_idle), "count"),
        metric("chain.block_ms.p50", block_ms.median, "ms"),
        metric("chain.block_ms.tail", block_ms.tail_or_median(), "ms"),
        metric("chain.txs_committed", n(c.txs_committed), "count"),
        metric("chain.txs_failed", n(c.txs_failed), "count"),
        metric(
            "chain.delivertx_decodes",
            n(t.produce_block.work.txs_decoded),
            "count",
        ),
        metric("relayer.wake_s", t.wake.secs, "s"),
        metric("relayer.wakes", n(t.wake.calls()), "count"),
        metric("relayer.wakes_idle", n(t.wake.calls_without_rpc), "count"),
        metric("relayer.wake_ms.p50", wake_ms.median, "ms"),
        metric("relayer.wake_ms.tail", wake_ms.tail_or_median(), "ms"),
    ];
    for (kind, calls) in rpc_by_kind(&t.wake) {
        out.push(metric(&format!("relayer.rpc.{kind}"), n(calls), "count"));
    }
    out.extend([
        metric(
            "relayer.telemetry_records",
            n(t.wake.work.telemetry_records),
            "count",
        ),
        metric(
            "relayer.packet_msgs_submitted",
            n(c.packet_msgs_submitted),
            "count",
        ),
        metric(
            "relayer.broadcast_failures",
            n(c.broadcast_failures),
            "count",
        ),
        metric(
            "relayer.redundant_packet_errors",
            n(c.redundant_packet_errors),
            "count",
        ),
        metric("relayer.useful_ratio", useful_ratio, "ratio"),
        metric("relayer.stranded_packets", n(c.stranded_packets), "count"),
        metric("runner.self_s", t.runner_self_secs(), "s"),
        metric("runner.events_popped", n(t.work.events_popped), "count"),
        metric("analysis.outcome_s", t.outcome_from.secs, "s"),
        metric("trace.total_s", t.total_secs, "s"),
        metric("trace.overhead", t.total_secs / untraced_run_secs, "ratio"),
    ]);
    out
}

fn json_result(tally: &Tally, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    )
}

fn bench(workload: &Workload, args: &Args) -> String {
    let spec = workload.spec(args.seed);
    println!(
        "workload {} (seed {}, {} s, trace {}): {}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload.why
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        per_layer(&spec, args.seconds, &mut tally)
    } else {
        end_to_end(&spec, args.seconds, &mut tally)
    };
    if let Some((outcome, _, run_digest)) = &tally.reference {
        let unfinished = outcome.committed().saturating_sub(outcome.completed());
        println!(
            "outcome digest {run_digest:#018x}; {} requests, {} committed, {} completed \
             ({unfinished} committed but not completed)",
            outcome.requests_made(),
            outcome.committed(),
            outcome.completed(),
        );
        if args.seed == DEFAULT_SEED {
            let same = *run_digest == workload.recorded_digest;
            println!(
                "recorded digest at seed {DEFAULT_SEED}: {:#018x} ({})",
                workload.recorded_digest,
                if same { "same" } else { "DIFFERENT" }
            );
        }
    }
    for (name, value, unit) in &metrics {
        if args.trace {
            println!("{name:<34} {value:.6} {unit}");
        }
    }
    json_result(&tally, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Workload> = match find(&args.workload) {
        Some(workload) => vec![workload],
        None => WORKLOADS.iter().collect(),
    };
    for workload in selected {
        let line = bench(workload, &args);
        println!("{line}");
    }
    ExitCode::SUCCESS
}
