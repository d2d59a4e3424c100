//! Layer 1 — the model-level static verifier.
//!
//! The FF-category × MAC-layer-family × preset domain is finite, so the
//! equivalence the paper establishes between Table-II software fault models
//! and hardware faults can be checked exhaustively without running a single
//! injection:
//!
//! * **check a (inventory/census)** — every flip-flop of the register-level
//!   engines maps to exactly one Table-II category, every realized category
//!   is censused, and the `%FF` fractions are complete, disjoint, and sum
//!   to 1;
//! * **check b (model ↔ RFA)** — each Table-II recipe's faulty-neuron set
//!   (count, relative locations, production order, random-suffix
//!   truncation) equals the Reuse-Factor-Analysis (Algorithm 1) derivation
//!   for the same category, with a minimized counterexample on divergence,
//!   instantiated for every MAC layer family;
//! * **check c (Eq. 1 / Eq. 2)** — activeness fractions stay in `[0, 1]`
//!   with disjoint Class-1/2/3 partitions, and the FIT arithmetic is
//!   unit-consistent (decomposition, linearity, bounds, protection).

use std::collections::BTreeSet;

use fidelity_accel::arch::{AcceleratorConfig, DataflowKind};
use fidelity_accel::dataflow::{NeuronOffset, ReuseAxis};
use fidelity_accel::ff::{FfCategory, PipelineStage, VarType};
use fidelity_accel::perf::{LayerTiming, LayerWork};
use fidelity_accel::presets;
use fidelity_core::activeness::{class_partition, prob_inactive};
use fidelity_core::fit::{accelerator_fit_rate, CategoryTerm, LayerTerm};
use fidelity_core::models::{model_for, SoftwareFaultModel};
use fidelity_core::rfa::{reuse_factor_analysis, RfaResult};
use fidelity_dnn::layers::LayerKind;
use fidelity_dnn::macspec::{ConvSpec, DenseSpec, MacSpec, MatMulSpec, OperandKind};
use fidelity_dnn::precision::Precision;
use fidelity_rtl::ffid::FfId;
use fidelity_rtl::systolic::SysFfId;

use crate::report::{CheckId, NeuronSetMismatch, Report, Severity, Violation};

/// A Table-II recipe source: maps a category to its software fault model
/// under a configuration. Injectable so tests can verify that a corrupted
/// recipe is caught.
pub type ModelProvider<'a> =
    dyn Fn(FfCategory, &AcceleratorConfig) -> Option<SoftwareFaultModel> + 'a;

/// The MAC layer families of Table II.
pub const MAC_LAYER_KINDS: [LayerKind; 3] = [LayerKind::Conv, LayerKind::Dense, LayerKind::MatMul];

/// Verifies every shipped preset against the framework's own recipes.
pub fn verify_all() -> Report {
    let mut report = Report::default();
    for cfg in presets::all() {
        report.merge(verify_preset(&cfg));
    }
    report
}

/// Verifies one preset against the framework's own recipes
/// ([`fidelity_core::models::model_for`]).
pub fn verify_preset(cfg: &AcceleratorConfig) -> Report {
    verify_preset_with(cfg, &|cat, cfg| model_for(cat, cfg))
}

/// Verifies one preset against an arbitrary recipe provider.
pub fn verify_preset_with(cfg: &AcceleratorConfig, models: &ModelProvider<'_>) -> Report {
    let mut r = Report::default();
    check_census_fractions(cfg, &mut r);
    check_inventory_census(cfg, &mut r);
    check_models_vs_rfa(cfg, models, &mut r);
    check_layer_geometry(cfg, models, &mut r);
    check_activeness(cfg, &mut r);
    check_fit_arithmetic(cfg, &mut r);
    r
}

fn violation(
    r: &mut Report,
    check: CheckId,
    subject: impl Into<String>,
    message: impl Into<String>,
) {
    r.violations.push(Violation {
        severity: Severity::Error,
        check,
        subject: subject.into(),
        message: message.into(),
        counterexample: None,
    });
}

// ---------------------------------------------------------------- check a --

fn check_census_fractions(cfg: &AcceleratorConfig, r: &mut Report) {
    let subject = format!("preset {}", cfg.name);
    let mut sum = 0.0;
    let mut rows: Vec<FfCategory> = Vec::new();
    for (cat, frac) in cfg.census.iter() {
        r.checks_run += 1;
        if !frac.is_finite() || !(0.0..=1.0).contains(&frac) {
            violation(
                r,
                CheckId::CensusFractions,
                format!("{subject} · {cat}"),
                format!("census fraction {frac} outside [0, 1]"),
            );
        }
        sum += frac;
        // Disjointness at Table-II granularity: two census entries that
        // collapse to the same Table-II row would double-count that row's
        // FFs in Eq. 2.
        let row = cat.census_category();
        if rows.contains(&row) {
            violation(
                r,
                CheckId::CensusFractions,
                format!("{subject} · {cat}"),
                format!("census rows are not disjoint: `{row}` is counted twice"),
            );
        }
        rows.push(row);
    }
    r.checks_run += 1;
    if (sum - 1.0).abs() > 1e-6 {
        violation(
            r,
            CheckId::CensusFractions,
            subject,
            format!("census fractions sum to {sum}, expected 1.0"),
        );
    }
}

/// Categories realized by the register-level inventory of the preset's
/// dataflow family, at census (Table-II row) granularity.
fn inventory_categories(cfg: &AcceleratorConfig) -> Vec<FfCategory> {
    let mut out: Vec<FfCategory> = Vec::new();
    let mut push = |cat: FfCategory| {
        let row = cat.census_category();
        if !out.contains(&row) {
            out.push(row);
        }
    };
    match cfg.dataflow {
        DataflowKind::Nvdla(d) => {
            for ff in FfId::inventory(d.lanes, d.weight_hold) {
                push(ff.category());
            }
        }
        DataflowKind::Eyeriss(d) => {
            for ff in SysFfId::inventory(d.k, d.channel_reuse) {
                push(ff.category());
            }
        }
    }
    out
}

fn check_inventory_census(cfg: &AcceleratorConfig, r: &mut Report) {
    let subject = format!("preset {}", cfg.name);
    let realized = inventory_categories(cfg);
    // Completeness: every category the engine instantiates has census mass.
    for row in &realized {
        r.checks_run += 1;
        if cfg.census.fraction(*row) <= 0.0 {
            violation(
                r,
                CheckId::InventoryCensus,
                format!("{subject} · {row}"),
                "register-level inventory realizes this category but the census gives it zero mass",
            );
        }
    }
    // Soundness: every censused row is realized by at least one FF.
    for (cat, frac) in cfg.census.iter() {
        r.checks_run += 1;
        if frac > 0.0 && !realized.contains(&cat.census_category()) {
            violation(
                r,
                CheckId::InventoryCensus,
                format!("{subject} · {cat}"),
                "census gives mass to a category no register-level FF realizes",
            );
        }
    }
}

// ---------------------------------------------------------------- check b --

/// The expected relative faulty-neuron lattice of an operand window:
/// `positions` consecutive reuse steps along the dataflow's reuse axis ×
/// `channels` consecutive channels, anchored at the reference neuron.
fn window_lattice(positions: usize, channels: usize, axis: ReuseAxis) -> Vec<NeuronOffset> {
    let mut out = Vec::with_capacity(positions * channels);
    for p in 0..positions {
        for c in 0..channels {
            out.push(match axis {
                ReuseAxis::Width => NeuronOffset::new(0, 0, p as i32, c as i32),
                ReuseAxis::Height => NeuronOffset::new(0, p as i32, 0, c as i32),
            });
        }
    }
    out
}

fn axis_coord(n: NeuronOffset, axis: ReuseAxis) -> i32 {
    match axis {
        ReuseAxis::Width => n.width,
        ReuseAxis::Height => n.height,
    }
}

fn neuron_set_mismatch(
    cat: FfCategory,
    kind: LayerKind,
    recipe: &[NeuronOffset],
    derived: &[NeuronOffset],
) -> Option<NeuronSetMismatch> {
    let recipe_set: BTreeSet<NeuronOffset> = recipe.iter().copied().collect();
    let derived_set: BTreeSet<NeuronOffset> = derived.iter().copied().collect();
    if recipe_set == derived_set {
        return None;
    }
    Some(NeuronSetMismatch {
        category: cat,
        layer_kind: kind,
        recipe: recipe.to_vec(),
        derived: derived.to_vec(),
        missing: derived_set.difference(&recipe_set).copied().collect(),
        extra: recipe_set.difference(&derived_set).copied().collect(),
    })
}

/// Canonical MAC geometry per layer family, sized so every shipped window
/// (≤ 32 positions × ≤ 32 channels) fits without clipping.
fn canonical_spec(kind: LayerKind) -> MacSpec {
    match kind {
        LayerKind::Conv => MacSpec::Conv(ConvSpec {
            batch: 1,
            in_c: 3,
            in_h: 34,
            in_w: 34,
            out_c: 48,
            kh: 3,
            kw: 3,
            stride: (1, 1),
            padding: (1, 1),
            dilation: (1, 1),
            groups: 1,
        }),
        LayerKind::Dense => MacSpec::Dense(DenseSpec {
            batch: 40,
            in_features: 24,
            out_features: 48,
        }),
        _ => MacSpec::MatMul(MatMulSpec {
            batch: 1,
            m: 40,
            k: 24,
            n: 48,
            transpose_b: false,
        }),
    }
}

fn expected_operand_kind(var: VarType) -> OperandKind {
    match var {
        VarType::Input => OperandKind::Input,
        _ => OperandKind::Weight,
    }
}

fn check_models_vs_rfa(cfg: &AcceleratorConfig, models: &ModelProvider<'_>, r: &mut Report) {
    for cat in FfCategory::enumerate() {
        let subject = format!("preset {} · {cat}", cfg.name);
        let model = models(cat, cfg);
        let censused = cfg.census.fraction(cat.census_category()) > 0.0;

        r.checks_run += 1;
        if censused && model.is_none() {
            violation(
                r,
                CheckId::ModelVsRfa,
                subject.clone(),
                "censused category has no software fault model recipe",
            );
            continue;
        }

        let Some(inputs) = cfg.dataflow.rfa_inputs_for(cat) else {
            // No fixed dataflow window: before-buffer and control categories
            // are covered by the recipe-shape checks below.
            check_unwindowed_shape(cfg, cat, model, r);
            continue;
        };
        let derived = match reuse_factor_analysis(&inputs) {
            Ok(d) => d,
            Err(e) => {
                violation(
                    r,
                    CheckId::ModelVsRfa,
                    subject,
                    format!("Algorithm-1 inputs are malformed: {e}"),
                );
                continue;
            }
        };
        match model {
            Some(SoftwareFaultModel::Operand {
                kind,
                window,
                random_suffix,
            }) => {
                check_operand_recipe(cfg, cat, kind, window, random_suffix, &derived, r);
            }
            Some(SoftwareFaultModel::OutputValue) => {
                check_output_recipe(cfg, cat, &derived, r);
            }
            Some(other) => {
                r.checks_run += 1;
                violation(
                    r,
                    CheckId::ModelVsRfa,
                    subject,
                    format!(
                        "category has a dataflow reuse window (RF = {}) but recipe {other:?} \
                         does not model one",
                        derived.rf()
                    ),
                );
            }
            None if censused => unreachable!("handled above"),
            None => {}
        }
    }
}

/// Shape checks for categories whose faulty-neuron set is not a fixed
/// window: the recipe family must still match the category semantics.
fn check_unwindowed_shape(
    cfg: &AcceleratorConfig,
    cat: FfCategory,
    model: Option<SoftwareFaultModel>,
    r: &mut Report,
) {
    let subject = format!("preset {} · {cat}", cfg.name);
    let Some(model) = model else { return };
    r.checks_run += 1;
    let ok = match cat {
        FfCategory::Datapath {
            stage: PipelineStage::BeforeBuffer,
            var,
        } => matches!(
            model,
            SoftwareFaultModel::BeforeBuffer { kind } if kind == expected_operand_kind(var)
        ),
        FfCategory::LocalControl => matches!(model, SoftwareFaultModel::LocalControl),
        FfCategory::GlobalControl => matches!(model, SoftwareFaultModel::GlobalControl),
        _ => true,
    };
    if !ok {
        violation(
            r,
            CheckId::ModelVsRfa,
            subject,
            format!("recipe {model:?} does not match the category's fault semantics"),
        );
    }
}

fn check_operand_recipe(
    cfg: &AcceleratorConfig,
    cat: FfCategory,
    kind: OperandKind,
    window: fidelity_core::models::OperandWindow,
    random_suffix: bool,
    derived: &RfaResult,
    r: &mut Report,
) {
    let axis = cfg.dataflow.reuse_axis();
    let subject = format!("preset {} · {cat}", cfg.name);

    // Operand identity: the recipe must corrupt the variable the FF holds.
    if let FfCategory::Datapath { var, .. } = cat {
        r.checks_run += 1;
        if kind != expected_operand_kind(var) {
            violation(
                r,
                CheckId::ModelVsRfa,
                subject.clone(),
                format!("recipe corrupts the {kind:?} operand but the FF holds a {var} value"),
            );
        }
    }

    let (win_pos, win_ch) = (window.positions as usize, window.channels as usize);
    let recipe_set = window_lattice(win_pos, win_ch, axis);
    let derived_set: Vec<NeuronOffset> = derived.faulty_neurons.iter().map(|t| t.neuron).collect();

    // Count: |window| must equal the reuse factor.
    r.checks_run += 1;
    if win_pos * win_ch != derived.rf() {
        emit_set_mismatch(
            r,
            &subject,
            cat,
            &recipe_set,
            &derived_set,
            format!(
                "recipe window {}×{} covers {} neurons but Algorithm 1 derives RF = {}",
                win_pos,
                win_ch,
                win_pos * win_ch,
                derived.rf()
            ),
        );
        return;
    }

    // Relative locations: the window lattice must equal the derived set.
    r.checks_run += 1;
    if neuron_set_mismatch(cat, LayerKind::Conv, &recipe_set, &derived_set).is_some() {
        emit_set_mismatch(
            r,
            &subject,
            cat,
            &recipe_set,
            &derived_set,
            "recipe faulty-neuron locations diverge from the Algorithm-1 derivation".to_owned(),
        );
        return;
    }

    // Production order: Algorithm 1 inserts neurons in computation order;
    // positions along the reuse axis must be produced in ascending loop
    // order so the random-suffix truncation keeps exactly the late loops.
    r.checks_run += 1;
    let mut last_loop = 0usize;
    let mut order_ok = true;
    for t in &derived.faulty_neurons {
        if t.loop_index < last_loop {
            order_ok = false;
            break;
        }
        last_loop = t.loop_index;
    }
    if !order_ok {
        violation(
            r,
            CheckId::ModelVsRfa,
            subject.clone(),
            "Algorithm-1 production order is not monotone in the loop timestamp",
        );
    }

    // Random-suffix ↔ FF_value_cycles consistency (the paper's random fault
    // cycle `p`): a truncating recipe must correspond to a multi-cycle FF
    // hold with one position per value cycle, and vice versa.
    r.checks_run += 1;
    if random_suffix {
        if derived.ff_value_cycles != win_pos {
            violation(
                r,
                CheckId::ModelVsRfa,
                subject.clone(),
                format!(
                    "recipe truncates a {}-position suffix but the FF holds its value for {} \
                     cycles — the truncation cannot model the random fault cycle",
                    win_pos, derived.ff_value_cycles
                ),
            );
        } else {
            let aligned = derived
                .faulty_neurons
                .iter()
                .all(|t| t.loop_index as i32 == axis_coord(t.neuron, axis));
            if !aligned {
                violation(
                    r,
                    CheckId::ModelVsRfa,
                    subject.clone(),
                    "suffix truncation keeps positions ≥ p but the derivation does not produce \
                     position i at value cycle i",
                );
            }
        }
    } else if derived.ff_value_cycles != 1 {
        violation(
            r,
            CheckId::ModelVsRfa,
            subject,
            format!(
                "FF holds its value for {} cycles but the recipe never truncates — a late \
                 fault cycle would corrupt fewer neurons than the recipe claims",
                derived.ff_value_cycles
            ),
        );
    }
}

fn check_output_recipe(
    cfg: &AcceleratorConfig,
    cat: FfCategory,
    derived: &RfaResult,
    r: &mut Report,
) {
    let subject = format!("preset {} · {cat}", cfg.name);
    r.checks_run += 1;
    let derived_set: Vec<NeuronOffset> = derived.faulty_neurons.iter().map(|t| t.neuron).collect();
    if derived.rf() != 1 || derived_set != [NeuronOffset::new(0, 0, 0, 0)] {
        emit_set_mismatch(
            r,
            &subject,
            cat,
            &[NeuronOffset::new(0, 0, 0, 0)],
            &derived_set,
            format!(
                "single-neuron recipe but Algorithm 1 derives RF = {}",
                derived.rf()
            ),
        );
    }
}

/// Emits one counterexample per MAC layer family, naming the family the
/// mismatch is instantiated for (Table-II recipes apply to all three).
fn emit_set_mismatch(
    r: &mut Report,
    subject: &str,
    cat: FfCategory,
    recipe: &[NeuronOffset],
    derived: &[NeuronOffset],
    message: String,
) {
    for kind in MAC_LAYER_KINDS {
        let cx = NeuronSetMismatch {
            category: cat,
            layer_kind: kind,
            recipe: recipe.to_vec(),
            derived: derived.to_vec(),
            missing: {
                let rs: BTreeSet<_> = recipe.iter().copied().collect();
                derived
                    .iter()
                    .copied()
                    .filter(|n| !rs.contains(n))
                    .collect()
            },
            extra: {
                let ds: BTreeSet<_> = derived.iter().copied().collect();
                recipe.iter().copied().filter(|n| !ds.contains(n)).collect()
            },
        };
        r.violations.push(Violation {
            severity: Severity::Error,
            check: CheckId::ModelVsRfa,
            subject: format!("{subject} · {kind:?}"),
            message: message.clone(),
            counterexample: Some(cx),
        });
    }
}

// ------------------------------------------------- check b (layer axis) ----

/// Verifies that every windowed recipe's lattice maps to distinct in-bounds
/// output neurons under each MAC layer family's position/channel coordinate
/// arithmetic ([`MacSpec::offset_of`] / [`MacSpec::coords_of`]).
fn check_layer_geometry(cfg: &AcceleratorConfig, models: &ModelProvider<'_>, r: &mut Report) {
    for cat in FfCategory::enumerate() {
        let Some(SoftwareFaultModel::Operand { window, .. }) = models(cat, cfg) else {
            continue;
        };
        let (win_pos, win_ch) = (window.positions as usize, window.channels as usize);
        for kind in MAC_LAYER_KINDS {
            r.checks_run += 1;
            let spec = canonical_spec(kind);
            let subject = format!("preset {} · {cat} · {kind:?}", cfg.name);
            if win_pos > spec.position_count() || win_ch > spec.channel_count() {
                violation(
                    r,
                    CheckId::LayerGeometry,
                    subject,
                    format!(
                        "window {}×{} does not fit the canonical {:?} geometry {}×{}",
                        win_pos,
                        win_ch,
                        kind,
                        spec.position_count(),
                        spec.channel_count()
                    ),
                );
                continue;
            }
            let mut seen = BTreeSet::new();
            let mut ok = true;
            for p in 0..win_pos {
                for c in 0..win_ch {
                    let off = spec.offset_of(p, c);
                    if off >= spec.out_len() || !seen.insert(off) || spec.coords_of(off) != (p, c) {
                        violation(
                            r,
                            CheckId::LayerGeometry,
                            subject.clone(),
                            format!(
                                "window neuron (position {p}, channel {c}) maps to offset {off} \
                                 which is out of bounds, duplicated, or does not round-trip"
                            ),
                        );
                        ok = false;
                    }
                }
            }
            if ok && seen.len() != win_pos * win_ch {
                violation(
                    r,
                    CheckId::LayerGeometry,
                    subject,
                    "window lattice collapsed to fewer distinct neurons than |window|",
                );
            }
        }
    }
}

// ---------------------------------------------------------------- check c --

fn canonical_work(kind: LayerKind) -> LayerWork {
    LayerWork {
        name: format!("{kind:?}"),
        kind,
        macs: 50_000,
        input_elems: 2_000,
        weight_elems: 1_000,
        output_elems: 4_000,
    }
}

fn check_activeness(cfg: &AcceleratorConfig, r: &mut Report) {
    for kind in MAC_LAYER_KINDS {
        let timing = LayerTiming::analyze(cfg, &canonical_work(kind));
        for (cat, _) in cfg.census.iter() {
            for precision in Precision::ALL {
                let subject = format!("preset {} · {cat} · {kind:?} · {precision:?}", cfg.name);
                r.checks_run += 1;
                let (c1, c2) = class_partition(cfg, cat, precision);
                if !(0.0..=1.0).contains(&c1) || !(0.0..=1.0).contains(&c2) {
                    violation(
                        r,
                        CheckId::Activeness,
                        subject.clone(),
                        format!("class fractions ({c1}, {c2}) outside [0, 1]"),
                    );
                }
                if c1 + c2 > 1.0 + 1e-12 {
                    violation(
                        r,
                        CheckId::Activeness,
                        subject.clone(),
                        format!(
                            "Class-1/2 populations overlap: {c1} + {c2} > 1 leaves no room \
                             for the Class-3 population"
                        ),
                    );
                }
                let c3 = timing.class3_inactive(cat);
                if !(0.0..=1.0).contains(&c3) {
                    violation(
                        r,
                        CheckId::Activeness,
                        subject.clone(),
                        format!("Class-3 inactive fraction {c3} outside [0, 1]"),
                    );
                }
                let p = prob_inactive(cfg, cat, &timing, precision);
                if !(0.0..=1.0).contains(&p) {
                    violation(
                        r,
                        CheckId::Activeness,
                        subject,
                        format!("Prob_inactive = {p} outside [0, 1]"),
                    );
                }
            }
        }
    }
}

/// Builds one Eq.-2 layer term over the preset's census with probe masking
/// probabilities.
fn probe_layer(cfg: &AcceleratorConfig, name: &str, cycles: u64, mask: f64) -> LayerTerm {
    LayerTerm {
        name: name.into(),
        exec_cycles: cycles,
        categories: cfg
            .census
            .iter()
            .map(|(category, _)| CategoryTerm {
                category,
                prob_inactive: 0.25,
                prob_swmask: if category == FfCategory::GlobalControl {
                    0.0
                } else {
                    mask
                },
            })
            .collect(),
    }
}

fn check_fit_arithmetic(cfg: &AcceleratorConfig, r: &mut Report) {
    let subject = format!("preset {}", cfg.name);
    let raw = fidelity_core::fit::PAPER_RAW_FIT_PER_MB;
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);

    // Unit consistency of the MB conversion feeding `FIT/MB × MB`.
    r.checks_run += 1;
    let mb = cfg.total_ff_bits as f64 / 8.0 / (1024.0 * 1024.0);
    if rel(cfg.ff_megabytes(), mb) > 1e-12 {
        violation(
            r,
            CheckId::FitArithmetic,
            subject.clone(),
            format!(
                "ff_megabytes() = {} but total_ff_bits implies {mb} MB",
                cfg.ff_megabytes()
            ),
        );
    }

    let layers = [
        probe_layer(cfg, "conv", 900, 0.5),
        probe_layer(cfg, "fc", 100, 0.125),
    ];
    let b = accelerator_fit_rate(cfg, raw, &layers, &[]);

    // Decomposition: the breakdown must partition the total.
    r.checks_run += 1;
    if rel(b.total, b.datapath + b.local + b.global) > 1e-9 {
        violation(
            r,
            CheckId::FitArithmetic,
            subject.clone(),
            format!(
                "total {} ≠ datapath {} + local {} + global {}",
                b.total, b.datapath, b.local, b.global
            ),
        );
    }
    r.checks_run += 1;
    let per_cat: f64 = b.per_category.iter().map(|(_, v)| v).sum();
    if rel(b.total, per_cat) > 1e-9 {
        violation(
            r,
            CheckId::FitArithmetic,
            subject.clone(),
            format!("total {} ≠ Σ per-category {per_cat}", b.total),
        );
    }

    // Linearity in the raw FIT rate (unit consistency of Eq. 2's prefactor).
    r.checks_run += 1;
    let b2 = accelerator_fit_rate(cfg, 2.0 * raw, &layers, &[]);
    if rel(b2.total, 2.0 * b.total) > 1e-9 {
        violation(
            r,
            CheckId::FitArithmetic,
            subject.clone(),
            format!(
                "doubling the raw FIT rate scales the total by {} instead of 2",
                b2.total / b.total
            ),
        );
    }

    // Bound: masking can only remove FIT, never add it.
    r.checks_run += 1;
    let ceiling = raw * cfg.ff_megabytes();
    if b.total > ceiling * (1.0 + 1e-9) || b.total < 0.0 {
        violation(
            r,
            CheckId::FitArithmetic,
            subject.clone(),
            format!("total {} outside [0, raw ceiling {ceiling}]", b.total),
        );
    }

    // Protection: zeroing a category removes exactly its contribution.
    r.checks_run += 1;
    let prot = accelerator_fit_rate(cfg, raw, &layers, &[FfCategory::GlobalControl]);
    if prot.global != 0.0 || rel(prot.total, b.total - b.global) > 1e-9 {
        violation(
            r,
            CheckId::FitArithmetic,
            subject,
            format!(
                "protecting global control left {} global FIT (total {} vs expected {})",
                prot.global,
                prot.total,
                b.total - b.global
            ),
        );
    }
}
