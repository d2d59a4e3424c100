//! Accelerator FIT-rate computation — Eq. 2 of the paper — plus the
//! ISO 26262 budgeting arithmetic used by Key Result 1.

use fidelity_accel::arch::AcceleratorConfig;
use fidelity_accel::ff::FfCategory;
use std::sync::Arc;

/// The raw flip-flop FIT rate the paper uses: 600 FIT per MB of flip-flops,
/// from 40nm alpha-particle measurements (Jagannathan et al.).
pub const PAPER_RAW_FIT_PER_MB: f64 = 600.0;

/// ASIL-D budget for a full self-driving chipset: overall FIT < 10.
pub const ASIL_D_CHIPSET_FIT: f64 = 10.0;

/// Area fraction of the chipset the accelerator's FFs occupy in the paper's
/// budgeting example (~2%), giving the FF FIT budget of 0.2.
pub const NVDLA_FF_AREA_FRACTION: f64 = 0.02;

/// The FIT budget assigned to a component occupying `area_fraction` of a
/// chipset with total budget `chipset_fit` (the standard area-proportional
/// assignment).
pub fn ff_fit_budget(chipset_fit: f64, area_fraction: f64) -> f64 {
    chipset_fit * area_fraction
}

/// One FF category's masking terms for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryTerm {
    /// FF category.
    pub category: FfCategory,
    /// `Prob_inactive(cat, r)` from Eq. 1.
    pub prob_inactive: f64,
    /// `Prob_SWmask(cat, r)` from the injection campaign (0 for global
    /// control, by definition).
    pub prob_swmask: f64,
}

/// One layer's contribution inputs to Eq. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTerm {
    /// Layer name (reporting only), shared with the campaign's cells.
    pub name: Arc<str>,
    /// `exec_time(r)` in cycles (only the ratios matter).
    pub exec_cycles: u64,
    /// Per-category masking terms.
    pub categories: Vec<CategoryTerm>,
}

/// FIT-rate result, broken down the way Figs. 4–6 stack it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FitBreakdown {
    /// Total Accelerator_FIT_rate.
    pub total: f64,
    /// Contribution of all datapath categories.
    pub datapath: f64,
    /// Contribution of local control.
    pub local: f64,
    /// Contribution of global control.
    pub global: f64,
    /// Per-category contributions.
    pub per_category: Vec<(FfCategory, f64)>,
}

/// Computes Eq. 2:
///
/// ```text
/// FIT = FIT_raw · N_ff · Σ_r [ exec(r) · Σ_cat FF_Perc(cat)
///        · (1 − Prob_inactive(cat, r)) · (1 − Prob_SWmask(cat, r)) ] / Σ_r exec(r)
/// ```
///
/// `protected` lists categories whose raw FIT is forced to zero (Fig. 6's
/// "global control FFs are protected" scenario).
///
/// # Panics
///
/// Panics if `layers` is empty or all exec times are zero (there is no
/// meaningful average to take).
pub fn accelerator_fit_rate(
    cfg: &AcceleratorConfig,
    raw_fit_per_mb: f64,
    layers: &[LayerTerm],
    protected: &[FfCategory],
) -> FitBreakdown {
    assert!(!layers.is_empty(), "FIT rate needs at least one layer");
    let total_exec: f64 = layers.iter().map(|l| l.exec_cycles as f64).sum();
    assert!(total_exec > 0.0, "total execution time must be positive");

    let raw_total = raw_fit_per_mb * cfg.ff_megabytes();

    let mut per_category: Vec<(FfCategory, f64)> = Vec::new();
    for layer in layers {
        let w = layer.exec_cycles as f64 / total_exec;
        for term in &layer.categories {
            if protected.contains(&term.category) {
                continue;
            }
            let frac = cfg.census.fraction(term.category);
            let contrib =
                raw_total * w * frac * (1.0 - term.prob_inactive) * (1.0 - term.prob_swmask);
            match per_category.iter_mut().find(|(c, _)| *c == term.category) {
                Some((_, v)) => *v += contrib,
                None => per_category.push((term.category, contrib)),
            }
        }
    }

    let mut breakdown = FitBreakdown::default();
    for (cat, v) in &per_category {
        breakdown.total += v;
        match cat {
            FfCategory::Datapath { .. } => breakdown.datapath += v,
            FfCategory::LocalControl => breakdown.local += v,
            FfCategory::GlobalControl => breakdown.global += v,
        }
    }
    per_category.shrink_to_fit();
    breakdown.per_category = per_category;
    breakdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelity_accel::ff::{PipelineStage, VarType};
    use fidelity_accel::presets;

    fn layer(name: &str, cycles: u64, mask: f64) -> LayerTerm {
        let cfg = presets::nvdla_like();
        LayerTerm {
            name: name.into(),
            exec_cycles: cycles,
            categories: cfg
                .census
                .iter()
                .map(|(category, _)| CategoryTerm {
                    category,
                    prob_inactive: 0.0,
                    prob_swmask: if category == FfCategory::GlobalControl {
                        0.0
                    } else {
                        mask
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn everything_masked_gives_only_global() {
        let cfg = presets::nvdla_like();
        let b = accelerator_fit_rate(&cfg, 600.0, &[layer("l", 100, 1.0)], &[]);
        // All non-global categories fully masked; global never masks.
        let raw_total = 600.0 * cfg.ff_megabytes();
        assert!((b.total - raw_total * 0.113).abs() < 1e-9);
        assert_eq!(b.datapath, 0.0);
        assert!((b.global - b.total).abs() < 1e-12);
    }

    #[test]
    fn nothing_masked_gives_raw_total() {
        let cfg = presets::nvdla_like();
        let b = accelerator_fit_rate(&cfg, 600.0, &[layer("l", 100, 0.0)], &[]);
        let raw_total = 600.0 * cfg.ff_megabytes();
        assert!((b.total - raw_total).abs() < 1e-9);
    }

    #[test]
    fn exec_time_weighting() {
        let cfg = presets::nvdla_like();
        // Long layer fully masked, short layer unmasked: FIT close to the
        // short layer's share.
        let long_masked = layer("long", 900, 1.0);
        let short_open = layer("short", 100, 0.0);
        let b = accelerator_fit_rate(&cfg, 600.0, &[long_masked, short_open], &[]);
        let raw_total = 600.0 * cfg.ff_megabytes();
        // Global control is unmasked in both layers; the datapath+local part
        // only contributes in the short layer (10% weight).
        let expected = raw_total * (0.113 + 0.1 * 0.887);
        assert!(
            (b.total - expected).abs() < 1e-9,
            "{} vs {expected}",
            b.total
        );
    }

    #[test]
    fn protection_zeroes_category() {
        let cfg = presets::nvdla_like();
        let unprotected = accelerator_fit_rate(&cfg, 600.0, &[layer("l", 10, 0.5)], &[]);
        let protected = accelerator_fit_rate(
            &cfg,
            600.0,
            &[layer("l", 10, 0.5)],
            &[FfCategory::GlobalControl],
        );
        assert_eq!(protected.global, 0.0);
        assert!((unprotected.total - unprotected.global - protected.total).abs() < 1e-9);
    }

    #[test]
    fn budget_arithmetic() {
        let budget = ff_fit_budget(ASIL_D_CHIPSET_FIT, NVDLA_FF_AREA_FRACTION);
        assert!((budget - 0.2).abs() < 1e-12);
    }

    #[test]
    fn inactive_discount() {
        let cfg = presets::nvdla_like();
        let mut l = layer("l", 10, 0.0);
        for t in &mut l.categories {
            t.prob_inactive = 0.5;
        }
        let b = accelerator_fit_rate(&cfg, 600.0, &[l], &[]);
        let raw_total = 600.0 * cfg.ff_megabytes();
        assert!((b.total - raw_total * 0.5).abs() < 1e-9);
    }

    #[test]
    fn datapath_is_sum_of_datapath_categories() {
        let cfg = presets::nvdla_like();
        let b = accelerator_fit_rate(&cfg, 600.0, &[layer("l", 10, 0.3)], &[]);
        let dp: f64 = b
            .per_category
            .iter()
            .filter(|(c, _)| matches!(c, FfCategory::Datapath { .. }))
            .map(|(_, v)| v)
            .sum();
        assert!((b.datapath - dp).abs() < 1e-12);
        let _ = (
            FfCategory::Datapath {
                stage: PipelineStage::BeforeBuffer,
                var: VarType::Input,
            },
            b,
        );
    }
}
