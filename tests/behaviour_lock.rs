//! Behaviour lock for the campaign engine: FNV digests of everything a
//! campaign publishes, over {lstm, mobilenet} × {fp16, int8} × {fixed,
//! adaptive} × jobs {1, 4}, plus fixed-plan rows for yolo (fp16) and resnet
//! (int8) — the conv-heavy networks whose corrupted-layer evaluation is the
//! bulk of an injection — and for transformer (fp16 and int8), whose
//! rank-2 sequence tensors take row-windowed cones, compared against
//! `tests/golden/behaviour_lock.txt`.
//!
//! Each row pins four artifacts:
//! - `result`: every cell's tallies plus the failures list, and the bits of
//!   the Eq.-2 FIT total that `analyze` derives from them;
//! - `ckpt`: the checkpoint file bytes (`fidelity-ckpt v1` for fixed plans,
//!   `fidelity-ackpt v1` for adaptive ones);
//! - `cert`: `ConfidenceCertificate::canonical_bytes` (`-` for fixed plans).
//!
//! Refactors of the campaign engine must keep this file byte-identical. A
//! deliberate behaviour change regenerates it: the failure message prints
//! the full expected text.

use std::path::PathBuf;

use fidelity::accel::presets;
use fidelity::core::adaptive::AdaptivePlan;
use fidelity::core::analysis::analyze;
use fidelity::core::campaign::CampaignSpec;
use fidelity::core::fit::PAPER_RAW_FIT_PER_MB;
use fidelity::core::outcome::{CorrectnessMetric, TopOneMatch};
use fidelity::core::resilience::CheckpointSpec;
use fidelity::dnn::graph::Engine;
use fidelity::dnn::precision::Precision;
use fidelity::workloads::{
    classification_suite, lstm_workload, transformer_workload, yolo_workload, BleuThreshold,
    DetectionThreshold, Workload, WorkloadKind,
};

const GOLDEN: &str = include_str!("golden/behaviour_lock.txt");

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Removes the checkpoint on drop, pass or fail.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn workload(net: &str) -> Workload {
    match net {
        "lstm" => lstm_workload(42),
        "resnet" => classification_suite(42).remove(1),
        "mobilenet" => classification_suite(42).remove(2),
        "yolo" => yolo_workload(42),
        "transformer" => transformer_workload(42),
        other => unreachable!("no workload {other}"),
    }
}

/// One row of the golden table.
fn row(net: &str, precision: Precision, adaptive: bool, jobs: usize) -> String {
    let w = workload(net);
    let metric: Box<dyn CorrectnessMetric> = match w.kind {
        WorkloadKind::Translation => Box::new(BleuThreshold::ten_percent()),
        WorkloadKind::Detection => Box::new(DetectionThreshold::ten_percent()),
        WorkloadKind::Classification => Box::new(TopOneMatch),
    };
    let engine = Engine::new(w.network, precision, std::slice::from_ref(&w.inputs)).unwrap();
    let trace = engine.trace(&w.inputs).unwrap();
    let plan = if adaptive { "adaptive" } else { "fixed" };
    let ckpt = Scratch(std::env::temp_dir().join(format!(
        "fidelity_lock_{net}_{precision:?}_{plan}_{jobs}_{}.ckpt",
        std::process::id()
    )));
    let mut spec = CampaignSpec {
        samples_per_cell: 6,
        seed: 0x10C4,
        threads: jobs,
        adaptive: adaptive.then(|| AdaptivePlan {
            max_injections: 20_000,
            ..AdaptivePlan::new(0.6)
        }),
        ..CampaignSpec::default()
    };
    spec.resilience.checkpoint = Some(CheckpointSpec::new(&ckpt.0));
    let accel = presets::nvdla_like();
    let analysis = analyze(
        &engine,
        &trace,
        &accel,
        metric.as_ref(),
        PAPER_RAW_FIT_PER_MB,
        &spec,
    )
    .unwrap();
    let campaign = &analysis.campaign;
    let mut surface = String::new();
    for c in &campaign.cells {
        surface.push_str(&format!(
            "{} {} {:?} {:?} {} {} {} {}\n",
            c.node, c.layer, c.category, c.model, c.samples, c.masked, c.output_error, c.anomaly
        ));
    }
    for f in &campaign.failures {
        surface.push_str(&format!("FAIL {} {:?} {}\n", f.node, f.category, f.reason));
    }
    surface.push_str(&format!("fit {:016x}\n", analysis.fit.total.to_bits()));
    let ckpt_bytes = std::fs::read(&ckpt.0).unwrap();
    let cert = campaign.certificate.as_ref().map_or_else(
        || "-".to_owned(),
        |c| format!("{:016x}", fnv(&c.canonical_bytes())),
    );
    format!(
        "{net} {precision:?} {plan} jobs={jobs} injections={} result={:016x} ckpt={:016x} cert={cert}",
        campaign.total_samples(),
        fnv(surface.as_bytes()),
        fnv(&ckpt_bytes),
    )
}

#[test]
fn campaign_artifacts_match_the_behaviour_lock() {
    let mut actual = String::from(
        "# Campaign behaviour lock; regenerate only for a deliberate behaviour change.\n",
    );
    for net in ["lstm", "mobilenet"] {
        for precision in [Precision::Fp16, Precision::Int8] {
            for adaptive in [false, true] {
                for jobs in [1, 4] {
                    actual.push_str(&row(net, precision, adaptive, jobs));
                    actual.push('\n');
                }
            }
        }
    }
    for (net, precision) in [
        ("yolo", Precision::Fp16),
        ("resnet", Precision::Int8),
        ("transformer", Precision::Fp16),
        ("transformer", Precision::Int8),
    ] {
        for jobs in [1, 4] {
            actual.push_str(&row(net, precision, false, jobs));
            actual.push('\n');
        }
    }
    assert!(
        actual == GOLDEN,
        "behaviour lock mismatch; the current code produces:\n{actual}"
    );
}
