//! Output checks: a fast answer only counts when it is the right answer.
//!
//! Each check returns the list of problems it found; an empty list passes.

use std::path::Path;

use fidelity_accel::arch::AcceleratorConfig;
use fidelity_core::adaptive::{verify_checkpoint_file, ConfidenceCertificate};
use fidelity_core::campaign::{CampaignResult, CellStats};
use fidelity_core::models::model_for;

use crate::workload::{Deployed, Plan};

/// The committed goldens: `<workload> <network> <FIT total bits> <digest>`
/// for the campaign at [`CHECK_SEED`].
pub const GOLDENS: &str = include_str!("../goldens.txt");

/// The seed whose campaign results are pinned in `goldens.txt`.
pub const CHECK_SEED: u64 = 42;

/// FNV-1a over each cell's identity and tallies, in plan order: equal
/// digests mean the campaign produced the same statistics cell for cell.
pub fn cell_digest(cells: &[CellStats]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in cells {
        let line = format!(
            "{} {} {} {} {} {} {}\n",
            c.node, c.layer, c.category, c.samples, c.masked, c.output_error, c.anomaly
        );
        for b in line.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// (node, category) cells a campaign over `d` must cover: every MAC node
/// times every census category that has a software fault model.
fn planned_cells(d: &Deployed, accel: &AcceleratorConfig) -> usize {
    let nodes = (0..d.engine.network().node_count())
        .filter(|&i| d.engine.mac_spec(i, &d.trace).is_some())
        .count();
    let models = accel
        .census
        .iter()
        .filter(|(c, _)| model_for(*c, accel).is_some())
        .count();
    nodes * models
}

/// One finished campaign: no failed cells, every planned cell present, and
/// the plan honoured — exact sample counts for a fixed plan, a converged
/// certificate within ε for an adaptive one.
pub fn campaign(
    d: &Deployed,
    accel: &AcceleratorConfig,
    plan: Plan,
    result: &CampaignResult,
) -> Vec<String> {
    let mut problems = Vec::new();
    let net = d.name;
    for f in &result.failures {
        problems.push(format!("{net}: failed cell {f:?}"));
    }
    let planned = planned_cells(d, accel);
    if result.cells.len() != planned {
        problems.push(format!(
            "{net}: {} cells, plan has {planned}",
            result.cells.len()
        ));
    }
    match plan {
        Plan::Fixed { samples_per_cell } => {
            for c in result
                .cells
                .iter()
                .filter(|c| c.samples != samples_per_cell)
            {
                problems.push(format!(
                    "{net}: cell (node {}, {}) ran {} samples, planned {samples_per_cell}",
                    c.node, c.category, c.samples
                ));
            }
        }
        Plan::Adaptive { epsilon } => match &result.certificate {
            None => problems.push(format!("{net}: adaptive campaign without a certificate")),
            Some(cert) if !cert.converged || cert.total_bound > epsilon => {
                problems.push(format!(
                    "{net}: certificate not converged within ε={epsilon} (converged {}, bound {})",
                    cert.converged, cert.total_bound
                ));
            }
            Some(_) => {}
        },
    }
    problems
}

/// A resumed campaign must reproduce the finished one cell for cell, and
/// an adaptive one its certificate byte for byte.
pub fn resumed(net: &str, finished: &CampaignResult, resumed: &CampaignResult) -> Vec<String> {
    let mut problems = Vec::new();
    if cell_digest(&finished.cells) != cell_digest(&resumed.cells) {
        problems.push(format!("{net}: resume_from changed the cell tallies"));
    }
    let bytes = |r: &CampaignResult| {
        r.certificate
            .as_ref()
            .map(ConfidenceCertificate::canonical_bytes)
    };
    if bytes(finished) != bytes(resumed) {
        problems.push(format!("{net}: resume_from changed the certificate"));
    }
    problems
}

/// Re-derives the certificate offline from the checkpoint file; it must
/// equal the campaign's own certificate byte for byte.
pub fn certificate_file(net: &str, path: &Path, cert: &ConfidenceCertificate) -> Vec<String> {
    match verify_checkpoint_file(path) {
        Err(e) => vec![format!("{net}: {}: {e}", path.display())],
        Ok(c) if c.canonical_bytes() != cert.canonical_bytes() => vec![format!(
            "{net}: {} re-derives a different certificate",
            path.display()
        )],
        Ok(_) => Vec::new(),
    }
}

/// The golden line for one network's campaign at [`CHECK_SEED`].
pub fn golden_line(workload: &str, net: &str, fit_total: f64, digest: u64) -> String {
    format!(
        "{workload} {net} {:016x} {digest:016x}",
        fit_total.to_bits()
    )
}

/// Compares one network's check-seed campaign with `goldens` (the
/// committed file's text).
pub fn golden(
    goldens: &str,
    workload: &str,
    net: &str,
    fit_total: f64,
    digest: u64,
) -> Vec<String> {
    let actual = golden_line(workload, net, fit_total, digest);
    let prefix = format!("{workload} {net} ");
    match goldens.lines().find(|l| l.starts_with(&prefix)) {
        None => vec![format!("no golden for `{workload} {net}`; this run gives `{actual}`")],
        Some(expected) if expected.trim() != actual => vec![format!(
            "golden mismatch at seed {CHECK_SEED}: expected `{}`, got `{actual}` (FIT total {fit_total})",
            expected.trim()
        )],
        Some(_) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use crate::workload;
    use fidelity_core::adaptive::AdaptivePlan;
    use fidelity_core::campaign::{run_campaign, CampaignSpec};
    use fidelity_core::resilience::{CheckpointSpec, ResilienceSpec};

    /// Mobilenet from the adaptive workload.
    fn mobilenet() -> Deployed {
        let def = workload::find("adaptive").unwrap();
        let mut deployed = def.deploy(&mut Tracer::new(false, 0)).unwrap();
        let at = deployed.iter().position(|d| d.name == "mobilenet").unwrap();
        deployed.swap_remove(at)
    }

    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_fixed(d: &Deployed, accel: &AcceleratorConfig) -> CampaignResult {
        let spec = CampaignSpec {
            seed: 5,
            threads: 1,
            samples_per_cell: 2,
            ..CampaignSpec::default()
        };
        run_campaign(&d.engine, &d.trace, accel, d.metric.as_ref(), &spec).unwrap()
    }

    /// Moves one injection of the first stratum row with a masked outcome
    /// to "output error": the row still sums to its samples, so only the
    /// certificate cross-check can notice.
    fn flip_one_tally(ckpt: &str) -> String {
        let mut flipped = false;
        let lines: Vec<String> = ckpt
            .lines()
            .map(|line| {
                let f: Vec<&str> = line.split(' ').collect();
                if flipped || f[0] != "w" || f[3] == "0" {
                    return line.to_owned();
                }
                flipped = true;
                let masked: usize = f[3].parse().unwrap();
                let errors: usize = f[4].parse().unwrap();
                format!(
                    "w {} {} {} {} {} {}",
                    f[1],
                    f[2],
                    masked - 1,
                    errors + 1,
                    f[5],
                    f[6]
                )
            })
            .collect();
        assert!(flipped, "no stratum row with a masked outcome");
        lines.join("\n") + "\n"
    }

    #[test]
    fn flipped_tally_in_a_checkpoint_copy_fails_certificate_verification() {
        let accel = fidelity_accel::presets::nvdla_like();
        let d = mobilenet();
        let dir = scratch_dir("cert");
        let path = dir.join("adaptive.ckpt");
        let spec = CampaignSpec {
            seed: 11,
            threads: 1,
            adaptive: Some(AdaptivePlan::new(2.0)),
            resilience: ResilienceSpec {
                checkpoint: Some(CheckpointSpec::new(&path)),
                ..ResilienceSpec::default()
            },
            ..CampaignSpec::default()
        };
        let result = run_campaign(&d.engine, &d.trace, &accel, d.metric.as_ref(), &spec).unwrap();
        let cert = result.certificate.as_ref().expect("adaptive certificate");
        assert!(campaign(&d, &accel, Plan::Adaptive { epsilon: 2.0 }, &result).is_empty());
        assert!(certificate_file("mobilenet", &path, cert).is_empty());

        let copy = dir.join("flipped.ckpt");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&copy, flip_one_tally(&text)).unwrap();
        let found = certificate_file("mobilenet", &copy, cert);
        assert_eq!(found.len(), 1, "{found:?}");
        // The original is untouched and still verifies.
        assert!(certificate_file("mobilenet", &path, cert).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_digest_is_reported_as_a_golden_mismatch() {
        let accel = fidelity_accel::presets::nvdla_like();
        let d = mobilenet();
        let result = small_fixed(&d, &accel);
        let digest = cell_digest(&result.cells);
        let goldens = golden_line("w", "mobilenet", 1.5, digest) + "\n";
        assert!(golden(&goldens, "w", "mobilenet", 1.5, digest).is_empty());

        let mut cells = result.cells.clone();
        cells[0].masked ^= 1;
        let wrong = cell_digest(&cells);
        assert_ne!(wrong, digest);
        let found = golden(&goldens, "w", "mobilenet", 1.5, wrong);
        assert!(found[0].starts_with("golden mismatch"), "{found:?}");
        assert!(!golden(&goldens, "w", "mobilenet", 1.25, digest).is_empty());
        assert!(golden(&goldens, "w", "resnet", 1.5, digest)[0].starts_with("no golden"));
    }

    #[test]
    fn altered_results_fail_the_campaign_and_resume_checks() {
        let accel = fidelity_accel::presets::nvdla_like();
        let d = mobilenet();
        let result = small_fixed(&d, &accel);
        let plan = Plan::Fixed {
            samples_per_cell: 2,
        };
        assert!(campaign(&d, &accel, plan, &result).is_empty());
        assert!(resumed("m", &result, &result).is_empty());

        let mut short = result.clone();
        short.cells[1].samples = 1;
        assert_eq!(campaign(&d, &accel, plan, &short).len(), 1);
        assert_eq!(resumed("m", &result, &short).len(), 1);
        short.cells.pop();
        assert_eq!(campaign(&d, &accel, plan, &short).len(), 2);
    }

    #[test]
    fn committed_goldens_cover_every_fixed_network() {
        for def in workload::WORKLOADS
            .iter()
            .filter(|w| matches!(w.plan, Plan::Fixed { .. }))
        {
            for net in def.networks {
                let prefix = format!("{} {net} ", def.name);
                assert!(GOLDENS.lines().any(|l| l.starts_with(&prefix)), "{prefix}");
            }
        }
    }
}
