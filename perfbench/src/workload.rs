//! The benchmark's workloads: which networks, at which precision, under
//! which campaign plan — and how they are deployed.

use std::path::PathBuf;

use fidelity_core::adaptive::AdaptivePlan;
use fidelity_core::campaign::CampaignSpec;
use fidelity_core::outcome::{CorrectnessMetric, TopOneMatch};
use fidelity_core::resilience::{CheckpointSpec, ResilienceSpec};
use fidelity_dnn::graph::{Engine, Trace};
use fidelity_dnn::precision::Precision;
use fidelity_workloads::{
    classification_suite, lstm_workload, transformer_workload, yolo_workload, BleuThreshold,
    DetectionThreshold, Workload, WorkloadKind,
};

use crate::host;
use crate::spans::Tracer;

/// Seed of every network's weights and input sample: the benchmark analyses
/// one deployed model on one input, as a user would, and the run seed is
/// the campaign's sampling seed. (Drawing a fresh model and input per seed
/// moves the adaptive planner's stopping wave, and with it the injection
/// count, by up to 1.5x between seeds.)
pub const NET_SEED: u64 = 42;

/// Where checkpoints, spans and provenance land, relative to the checkout.
pub const OUT_DIR: &str = ".bench_out";

/// How a workload's campaigns are sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plan {
    /// The same number of injections in every (layer × FF category) cell.
    Fixed { samples_per_cell: usize },
    /// `AdaptivePlan::new(epsilon)`: waves until the FIT bound is ≤ ε.
    Adaptive { epsilon: f64 },
}

/// One named workload.
#[derive(Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub networks: &'static [&'static str],
    pub precision: Precision,
    pub plan: Plan,
    /// Whether campaigns write a checkpoint file.
    pub checkpoint: bool,
}

pub const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "fixed-narrow",
        networks: &["inception", "mobilenet", "yolo"],
        precision: Precision::Fp16,
        plan: Plan::Fixed {
            samples_per_cell: 200,
        },
        checkpoint: true,
    },
    WorkloadDef {
        name: "fixed-wide",
        networks: &["resnet", "transformer", "lstm"],
        precision: Precision::Int8,
        plan: Plan::Fixed {
            samples_per_cell: 200,
        },
        checkpoint: false,
    },
    WorkloadDef {
        name: "adaptive",
        networks: &["inception", "resnet", "mobilenet"],
        precision: Precision::Fp16,
        plan: Plan::Adaptive { epsilon: 0.33 },
        checkpoint: true,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One network deployed for a campaign.
pub struct Deployed {
    pub name: &'static str,
    pub engine: Engine,
    pub trace: Trace,
    pub metric: Box<dyn CorrectnessMetric>,
}

impl WorkloadDef {
    /// The campaign spec: the plan, the seed, every core, and a checkpoint
    /// when the workload has one. `batch` and `mac_tier` stay at their
    /// defaults, so the benchmark measures what a user gets by default.
    pub fn spec(&self, seed: u64, network: &str) -> CampaignSpec {
        let mut spec = CampaignSpec {
            seed,
            threads: host::nproc(),
            resilience: ResilienceSpec {
                checkpoint: self
                    .checkpoint
                    .then(|| CheckpointSpec::new(self.checkpoint_path(network))),
                ..ResilienceSpec::default()
            },
            ..CampaignSpec::default()
        };
        match self.plan {
            Plan::Fixed { samples_per_cell } => spec.samples_per_cell = samples_per_cell,
            Plan::Adaptive { epsilon } => spec.adaptive = Some(AdaptivePlan::new(epsilon)),
        }
        spec
    }

    pub fn checkpoint_path(&self, network: &str) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!("{}-{network}.ckpt", self.name))
    }

    /// Generates and deploys every network from [`NET_SEED`]: calibrated
    /// on its input sample, then traced.
    pub fn deploy(&self, tracer: &mut Tracer) -> Result<Vec<Deployed>, String> {
        let workloads = tracer.span("workloads.build", |_| generate(self.networks));
        self.networks
            .iter()
            .zip(workloads)
            .map(|(&name, w)| {
                let metric = metric_for(w.kind);
                let calibration = [w.inputs.clone()];
                let engine = tracer
                    .span("dnn.engine_new", |_| {
                        Engine::new(w.network, self.precision, &calibration)
                    })
                    .map_err(|e| format!("{name}: Engine::new: {e}"))?;
                let trace = tracer
                    .span("dnn.trace", |_| engine.trace(&w.inputs))
                    .map_err(|e| format!("{name}: trace: {e}"))?;
                Ok(Deployed {
                    name,
                    engine,
                    trace,
                    metric,
                })
            })
            .collect()
    }
}

/// The repository's generators, one workload per name, in order.
fn generate(networks: &[&str]) -> Vec<Workload> {
    let mut suite: Vec<Workload> = Vec::new();
    networks
        .iter()
        .map(|&name| match name {
            "yolo" => yolo_workload(NET_SEED),
            "transformer" => transformer_workload(NET_SEED),
            "lstm" => lstm_workload(NET_SEED),
            _ => {
                if suite.is_empty() {
                    suite = classification_suite(NET_SEED);
                }
                let at = suite
                    .iter()
                    .position(|w| w.name == name)
                    .unwrap_or_else(|| panic!("`{name}` is not a generated network"));
                suite.swap_remove(at)
            }
        })
        .collect()
}

/// The correctness metric a user would pick for the task, as the CLI does.
fn metric_for(kind: WorkloadKind) -> Box<dyn CorrectnessMetric> {
    match kind {
        WorkloadKind::Classification => Box::new(TopOneMatch),
        WorkloadKind::Translation => Box::new(BleuThreshold::ten_percent()),
        WorkloadKind::Detection => Box::new(DetectionThreshold::ten_percent()),
    }
}
