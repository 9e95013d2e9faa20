//! The three figure-shaped workloads. Each is one [`ExperimentSpec`] built
//! from the paper's scenario constructors; the seed is the only input that
//! varies between runs. `BENCHMARK.json` gates on `tendermint_saturation`
//! and `large_batch`; `relayer_contention` is run by hand (see the README).

use xcc_framework::ExperimentSpec;

/// One named benchmark workload.
pub struct Workload {
    /// The name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (which layer it stresses).
    pub why: &'static str,
    /// The outcome digest of this workload at [`DEFAULT_SEED`], recorded at
    /// the commit that defined the benchmark. A change that only makes the
    /// program faster leaves it unchanged.
    pub recorded_digest: u64,
    build: fn() -> ExperimentSpec,
}

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

impl Workload {
    /// The workload's spec at `seed`.
    pub fn spec(&self, seed: u64) -> ExperimentSpec {
        (self.build)().seed(seed)
    }
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tendermint_saturation",
        why: "Fig. 6 / Table I shape, 9,000 rps for 8 blocks and no relayer: \
              stresses workload submission and CheckTx; the relayer does nothing",
        recorded_digest: 0xd3b0_f3e0_1066_4d42,
        build: || {
            ExperimentSpec::tendermint_throughput()
                .named("tendermint_saturation")
                .input_rate(9_000)
                .measurement_blocks(8)
        },
    },
    Workload {
        name: "relayer_contention",
        why: "Figs. 9/11 shape, 2 uncoordinated relayers, 200 ms RTT, 160 rps for \
              10 blocks: stresses Relayer::wake and wasted redundant messages",
        recorded_digest: 0xdaa0_fd1e_bf3d_46a0,
        build: || {
            ExperimentSpec::relayer_throughput()
                .named("relayer_contention")
                .relayers(2)
                .rtt_ms(200)
                .input_rate(160)
                .measurement_blocks(10)
        },
    },
    Workload {
        name: "large_batch",
        why: "Fig. 12 shape, 5,000 transfers in one block, 200 ms RTT, run to \
              completion: huge blocks and a relayer burst, then an idle tail where \
              the stop check dominates",
        recorded_digest: 0xe3c4_692f_3cb6_83a1,
        build: || {
            ExperimentSpec::latency()
                .named("large_batch")
                .transfers(5_000)
                .rtt_ms(200)
        },
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
