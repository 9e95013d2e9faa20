//! Deterministic fault plans for dependability experiments.
//!
//! A [`FaultPlan`] is the user-facing, serde-able description of the faults a
//! run injects: which relayer process crashes and when it restarts, which
//! chain halts or stretches its block interval, which relay path's light
//! client expires. It lives on
//! [`DeploymentConfig`](crate::config::DeploymentConfig) so a plan travels
//! with the spec through JSON, sweeps and golden fixtures like every other
//! deployment knob. Event times are [`SimDuration`] offsets from simulation
//! start.
//!
//! [`FaultPlan::compile`] lowers the plan to the simulation kernel's
//! domain-neutral [`FaultTimeline`]: relayer ids become process indices,
//! [`FaultChain::Source`]/[`FaultChain::Destination`] become service indices
//! 0/1, and path indices become trust subjects. The runner schedules the
//! compiled timeline up-front, so an empty plan schedules nothing and leaves
//! every pre-existing event ordering untouched (see docs/DETERMINISM.md).

use serde::{Deserialize, Error, Serialize, Value};
use xcc_sim::{FaultKind, FaultTimeline, SimDuration, SimTime};

/// Which of the two chains a chain-level fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultChain {
    /// The source (sending) chain.
    Source,
    /// The destination (receiving) chain.
    Destination,
}

impl FaultChain {
    /// Short label used in sweep point names and fixture names.
    pub fn label(&self) -> &'static str {
        match self {
            FaultChain::Source => "src",
            FaultChain::Destination => "dst",
        }
    }

    /// The simulation-kernel service index this chain compiles to.
    fn service(&self) -> usize {
        match self {
            FaultChain::Source => 0,
            FaultChain::Destination => 1,
        }
    }
}

impl Serialize for FaultChain {
    fn to_value(&self) -> Value {
        Value::Str(
            match self {
                FaultChain::Source => "source",
                FaultChain::Destination => "destination",
            }
            .to_string(),
        )
    }
}

impl Deserialize for FaultChain {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) if s == "source" => Ok(FaultChain::Source),
            Value::Str(s) if s == "destination" => Ok(FaultChain::Destination),
            _ => Err(Error::custom(
                "expected \"source\" or \"destination\" for FaultChain",
            )),
        }
    }
}

/// One scheduled fault. Times are offsets from simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Relayer process `relayer` crashes at `at`, losing all in-memory state
    /// (pending queues, sequence-tracker caches, inbox).
    RelayerCrash {
        /// Index of the crashing relayer process.
        relayer: usize,
        /// When the crash happens.
        at: SimDuration,
    },
    /// Relayer process `relayer` restarts cold at `at`: it re-reads its
    /// account sequences over RPC and rejoins the notify/wake protocol.
    RelayerRestart {
        /// Index of the restarting relayer process.
        relayer: usize,
        /// When the restart happens.
        at: SimDuration,
    },
    /// `chain` produces no blocks for `duration` starting at `from`.
    ChainHalt {
        /// Which chain halts.
        chain: FaultChain,
        /// When the halt begins.
        from: SimDuration,
        /// How long the halt lasts.
        duration: SimDuration,
    },
    /// `chain` runs its block interval `factor`× slower for `duration`
    /// starting at `from` (fig. 7 territory). `factor` is an integer
    /// multiplier so stretched schedules stay exactly representable.
    BlockStretch {
        /// Which chain slows down.
        chain: FaultChain,
        /// Integer multiplier applied to the chain's minimum block interval.
        factor: u64,
        /// When the stretch window opens.
        from: SimDuration,
        /// How long the stretch window lasts.
        duration: SimDuration,
    },
    /// The light client backing relay path `path` lapses at `at`: recv/ack
    /// verification against it fails from then on, stranding the channel
    /// (recovery is out of band, as for a real trust-period expiry).
    ClientExpiry {
        /// Index of the stranded relay path.
        path: usize,
        /// When the client expires.
        at: SimDuration,
    },
}

impl FaultEvent {
    /// When the event fires, as an offset from simulation start.
    pub fn at(&self) -> SimDuration {
        match self {
            FaultEvent::RelayerCrash { at, .. }
            | FaultEvent::RelayerRestart { at, .. }
            | FaultEvent::ClientExpiry { at, .. } => *at,
            FaultEvent::ChainHalt { from, .. } | FaultEvent::BlockStretch { from, .. } => *from,
        }
    }

    /// Compact label used in sweep point names (e.g. `crash0@16s`).
    pub fn label(&self) -> String {
        fn secs(d: &SimDuration) -> u64 {
            d.as_millis() / 1_000
        }
        match self {
            FaultEvent::RelayerCrash { relayer, at } => {
                format!("crash{relayer}@{}s", secs(at))
            }
            FaultEvent::RelayerRestart { relayer, at } => {
                format!("restart{relayer}@{}s", secs(at))
            }
            FaultEvent::ChainHalt {
                chain,
                from,
                duration,
            } => format!("halt-{}@{}s+{}s", chain.label(), secs(from), secs(duration)),
            FaultEvent::BlockStretch {
                chain,
                factor,
                from,
                duration,
            } => format!(
                "stretch-{}x{factor}@{}s+{}s",
                chain.label(),
                secs(from),
                secs(duration)
            ),
            FaultEvent::ClientExpiry { path, at } => {
                format!("expiry{path}@{}s", secs(at))
            }
        }
    }

    fn to_kind(self) -> FaultKind {
        match self {
            FaultEvent::RelayerCrash { relayer, .. } => {
                FaultKind::ProcessCrash { process: relayer }
            }
            FaultEvent::RelayerRestart { relayer, .. } => {
                FaultKind::ProcessRestart { process: relayer }
            }
            FaultEvent::ChainHalt {
                chain, duration, ..
            } => FaultKind::ServiceHalt {
                service: chain.service(),
                duration,
            },
            FaultEvent::BlockStretch {
                chain,
                factor,
                duration,
                ..
            } => FaultKind::ServiceStretch {
                service: chain.service(),
                factor,
                duration,
            },
            FaultEvent::ClientExpiry { path, .. } => FaultKind::TrustExpiry { subject: path },
        }
    }
}

/// The fault schedule of one run: a list of [`FaultEvent`]s. The default
/// (and the value every pre-fault spec JSON parses to) is the empty plan,
/// which injects nothing and perturbs nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled fault events, in any order; [`compile`](Self::compile)
    /// stable-sorts them by time.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from a list of events.
    pub fn new(events: impl IntoIterator<Item = FaultEvent>) -> Self {
        FaultPlan {
            events: events.into_iter().collect(),
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Compact label used in sweep point names: `none` for the empty plan,
    /// otherwise the event labels joined with `+`.
    pub fn label(&self) -> String {
        if self.events.is_empty() {
            return "none".to_string();
        }
        self.events
            .iter()
            .map(FaultEvent::label)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The time of the earliest event, if any (offset from simulation start).
    pub fn first_fault_at(&self) -> Option<SimDuration> {
        self.events.iter().map(FaultEvent::at).min()
    }

    /// The time of the latest [`FaultEvent::RelayerRestart`], if any.
    pub fn last_restart_at(&self) -> Option<SimDuration> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::RelayerRestart { at, .. } => Some(*at),
                _ => None,
            })
            .max()
    }

    /// Lowers the plan to the simulation kernel's timeline: offsets become
    /// absolute [`SimTime`]s, relayers become processes, chains become
    /// services 0 (source) / 1 (destination), paths become trust subjects.
    pub fn compile(&self) -> FaultTimeline {
        FaultTimeline::from_events(
            self.events
                .iter()
                .map(|e| (SimTime::ZERO + e.at(), e.to_kind())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan::new([
            FaultEvent::RelayerRestart {
                relayer: 0,
                at: SimDuration::from_secs(26),
            },
            FaultEvent::RelayerCrash {
                relayer: 0,
                at: SimDuration::from_secs(16),
            },
            FaultEvent::ChainHalt {
                chain: FaultChain::Source,
                from: SimDuration::from_secs(40),
                duration: SimDuration::from_secs(30),
            },
            FaultEvent::BlockStretch {
                chain: FaultChain::Destination,
                factor: 4,
                from: SimDuration::from_secs(80),
                duration: SimDuration::from_secs(20),
            },
            FaultEvent::ClientExpiry {
                path: 0,
                at: SimDuration::from_secs(55),
            },
        ])
    }

    #[test]
    fn plans_round_trip_through_serde_values() {
        let plan = sample_plan();
        let back = FaultPlan::from_value(&plan.to_value()).unwrap();
        assert_eq!(back, plan);
        let empty = FaultPlan::none();
        assert_eq!(FaultPlan::from_value(&empty.to_value()).unwrap(), empty);
    }

    #[test]
    fn compile_sorts_events_and_maps_chains_to_services() {
        let timeline = sample_plan().compile();
        assert_eq!(timeline.len(), 5);
        let (t0, k0) = timeline.get(0).unwrap();
        assert_eq!(t0, SimTime::from_secs(16));
        assert_eq!(k0, xcc_sim::FaultKind::ProcessCrash { process: 0 });
        let (_, halt) = timeline.get(2).unwrap();
        assert_eq!(
            halt,
            xcc_sim::FaultKind::ServiceHalt {
                service: 0,
                duration: SimDuration::from_secs(30)
            }
        );
        let (t_last, stretch) = timeline.get(4).unwrap();
        assert_eq!(t_last, SimTime::from_secs(80));
        assert_eq!(
            stretch,
            xcc_sim::FaultKind::ServiceStretch {
                service: 1,
                factor: 4,
                duration: SimDuration::from_secs(20)
            }
        );
        assert!(FaultPlan::none().compile().is_empty());
    }

    #[test]
    fn labels_are_compact_and_stable() {
        assert_eq!(FaultPlan::none().label(), "none");
        let plan = FaultPlan::new([
            FaultEvent::RelayerCrash {
                relayer: 1,
                at: SimDuration::from_secs(16),
            },
            FaultEvent::RelayerRestart {
                relayer: 1,
                at: SimDuration::from_secs(26),
            },
        ]);
        assert_eq!(plan.label(), "crash1@16s+restart1@26s");
        let expiry = FaultPlan::new([FaultEvent::ClientExpiry {
            path: 2,
            at: SimDuration::from_secs(30),
        }]);
        assert_eq!(expiry.label(), "expiry2@30s");
        let halt = FaultPlan::new([FaultEvent::ChainHalt {
            chain: FaultChain::Source,
            from: SimDuration::from_secs(40),
            duration: SimDuration::from_secs(30),
        }]);
        assert_eq!(halt.label(), "halt-src@40s+30s");
        let stretch = FaultPlan::new([FaultEvent::BlockStretch {
            chain: FaultChain::Destination,
            factor: 4,
            from: SimDuration::from_secs(80),
            duration: SimDuration::from_secs(20),
        }]);
        assert_eq!(stretch.label(), "stretch-dstx4@80s+20s");
    }

    #[test]
    fn fault_time_helpers_report_first_and_last() {
        let plan = sample_plan();
        assert_eq!(plan.first_fault_at(), Some(SimDuration::from_secs(16)));
        assert_eq!(plan.last_restart_at(), Some(SimDuration::from_secs(26)));
        assert_eq!(FaultPlan::none().first_fault_at(), None);
        assert_eq!(FaultPlan::none().last_restart_at(), None);
    }
}
