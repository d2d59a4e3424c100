//! Differential-oracle property tests for the two-tier MAC lane kernels.
//!
//! The `Bitwise` tier (8-wide lane unrolls across *independent* output
//! accumulators) must be byte-identical to the scalar `compute_at` oracle
//! for every shape — including non-multiple-of-lane-width tails — and every
//! input class, including NaN, ±∞, denormals and signed zeros. The `Fast`
//! tier (4-lane in-contraction tree reduction) is allowed to diverge, but
//! its reported divergence must be an exact measurement, not an estimate.
//! The multi-neuron fault evaluator `compute_neurons` is held to the same
//! oracle under every substitution, neuron set and geometry.

use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::macspec::{
    conv_out_window, ConvSpec, DenseSpec, KernelScratch, MacSpec, MacTier, MatMulSpec, OperandKind,
    Operands, Substitution,
};
use fidelity_dnn::tensor::Tensor;
use proptest::prelude::*;

/// Bit image of a value for differential comparison, with NaNs collapsed to
/// one canonical payload. Which outputs are NaN is fully deterministic, but
/// the *payload* of a NaN is the one IEEE bit pattern the compiler may
/// legally vary between code locations (float add/mul commute in LLVM, and
/// x86 NaN propagation picks the payload by operand order), so two
/// differently-located but semantically identical accumulations can emit
/// e.g. `0x7FC00000` vs `0xFFC00000`. Every campaign-visible statistic
/// (outcomes, masking bits, checkpoint bytes) is NaN-payload-insensitive.
fn canon_bits(v: f32) -> u32 {
    if v.is_nan() {
        0x7FC0_0000
    } else {
        v.to_bits()
    }
}

/// Fills a tensor from a seeded stream, salting in the awkward input
/// classes (NaN, infinities, denormals, signed zeros) at ~1-in-6 density.
fn adversarial_tensor(seed: u64, shape: Vec<usize>) -> Tensor {
    const SPECIALS: [f32; 8] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0e-40,  // subnormal
        -1.0e-42, // subnormal
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
    ];
    let mut rng = SplitMix64::new(seed);
    let len = shape.iter().product();
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        let r = rng.next_u64();
        if r.is_multiple_of(6) {
            data.push(SPECIALS[(r >> 8) as usize % SPECIALS.len()]);
        } else {
            data.push(rng.next_symmetric(8.0));
        }
    }
    Tensor::from_vec(shape, data).unwrap()
}

fn operand_shapes(spec: &MacSpec) -> (Vec<usize>, Vec<usize>) {
    match spec {
        MacSpec::Conv(c) => (
            vec![c.batch, c.in_c, c.in_h, c.in_w],
            vec![c.out_c, c.group_in_c(), c.kh, c.kw],
        ),
        MacSpec::Dense(d) => (
            vec![d.batch, d.in_features],
            vec![d.out_features, d.in_features],
        ),
        MacSpec::MatMul(m) => {
            let b = if m.transpose_b {
                vec![m.batch, m.n, m.k]
            } else {
                vec![m.batch, m.k, m.n]
            };
            (vec![m.batch, m.m, m.k], b)
        }
    }
}

/// Asserts the packed `Bitwise`-tier kernel agrees bit-for-bit with the
/// scalar per-neuron oracle on adversarial operands.
fn assert_bitwise_tier_matches_oracle(spec: &MacSpec, seed: u64) -> Result<(), TestCaseError> {
    let (in_shape, w_shape) = operand_shapes(spec);
    let input = adversarial_tensor(seed, in_shape);
    let weight = adversarial_tensor(seed ^ 0xABCD_EF01, w_shape);
    let ops = Operands {
        input: &input,
        weight: &weight,
    };
    let mut scratch = KernelScratch::new();
    let mut out = vec![0.0f32; spec.out_len()];
    spec.forward_tier_into_scratch(&ops, &mut out, &mut scratch, MacTier::Bitwise);
    for (off, v) in out.iter().enumerate() {
        let oracle = spec.compute_at(&ops, off, None);
        prop_assert_eq!(
            canon_bits(*v),
            canon_bits(oracle),
            "bitwise tier != compute_at oracle at neuron {} ({:?})",
            off,
            spec
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense: `in_features` sweeps across the 8-lane (and 4-lane) boundary
    /// so both the unrolled body and the scalar tail are exercised.
    #[test]
    fn dense_bitwise_tier_is_bit_identical(
        batch in 1usize..4,
        in_features in 1usize..35,
        out_features in 1usize..19,
        seed in 0u64..u64::MAX,
    ) {
        let spec = MacSpec::Dense(DenseSpec { batch, in_features, out_features });
        assert_bitwise_tier_matches_oracle(&spec, seed)?;
    }

    /// MatMul, both storage orders; `n` crosses the 8-lane boundary for the
    /// transposed row-dot kernel, `k` for the contraction.
    #[test]
    fn matmul_bitwise_tier_is_bit_identical(
        batch in 1usize..3,
        m in 1usize..5,
        k in 1usize..21,
        n in 1usize..13,
        transpose_b in prop_oneof![Just(false), Just(true)],
        seed in 0u64..u64::MAX,
    ) {
        let spec = MacSpec::MatMul(MatMulSpec { batch, m, k, n, transpose_b });
        assert_bitwise_tier_matches_oracle(&spec, seed)?;
    }

    /// Conv with stride / padding / dilation / groups variation; `in_w`
    /// crosses the 8-lane boundary of the row-accumulate kernel.
    #[test]
    fn conv_bitwise_tier_is_bit_identical(
        in_c_per_group in 1usize..3,
        groups in 1usize..3,
        in_h in 1usize..7,
        in_w in 1usize..12,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        dilation in 1usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let spec = MacSpec::Conv(ConvSpec {
            batch: 1 + (seed % 2) as usize,
            in_c: in_c_per_group * groups,
            in_h,
            in_w,
            out_c: 2 * groups,
            kh,
            kw,
            stride: (stride, stride),
            padding: (padding, padding),
            dilation: (dilation, dilation),
            groups,
        });
        assert_bitwise_tier_matches_oracle(&spec, seed)?;
    }

    /// The reported Fast-tier divergence equals an independent element-wise
    /// re-measurement — exact, not estimated — and the `Fast` tier itself is
    /// reproducible run-to-run.
    #[test]
    fn fast_divergence_is_exact_measurement(
        batch in 1usize..3,
        in_features in 1usize..27,
        out_features in 1usize..9,
        seed in 0u64..u64::MAX,
    ) {
        let spec = MacSpec::Dense(DenseSpec { batch, in_features, out_features });
        let (in_shape, w_shape) = operand_shapes(&spec);
        let input = adversarial_tensor(seed, in_shape);
        let weight = adversarial_tensor(seed ^ 0x5EED, w_shape);
        let ops = Operands { input: &input, weight: &weight };

        let mut scratch = KernelScratch::new();
        let mut bitwise = vec![0.0f32; spec.out_len()];
        let mut fast = vec![0.0f32; spec.out_len()];
        let mut fast2 = vec![0.0f32; spec.out_len()];
        spec.forward_tier_into_scratch(&ops, &mut bitwise, &mut scratch, MacTier::Bitwise);
        spec.forward_tier_into_scratch(&ops, &mut fast, &mut scratch, MacTier::Fast);
        spec.forward_tier_into_scratch(&ops, &mut fast2, &mut scratch, MacTier::Fast);
        for (a, b) in fast.iter().zip(&fast2) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "Fast tier must be deterministic");
        }
        // (Re-running the *same* code location is exactly reproducible,
        // payloads included — only cross-location comparison canonicalizes.)

        let mut expected = 0.0f32;
        for (a, b) in bitwise.iter().zip(&fast) {
            if a.to_bits() == b.to_bits() {
                continue;
            }
            let d = (a - b).abs();
            expected = expected.max(if d.is_nan() { f32::INFINITY } else { d });
        }
        let reported = spec.fast_divergence(&ops);
        prop_assert_eq!(
            reported.to_bits(),
            expected.to_bits(),
            "fast_divergence must equal the element-wise measurement"
        );
    }

    /// Conv and non-transposed MatMul keep their bitwise kernels under the
    /// `Fast` tier (they are already output-parallel), so their divergence
    /// is exactly zero by construction.
    #[test]
    fn fast_tier_divergence_is_zero_for_output_parallel_kernels(seed in 0u64..u64::MAX) {
        let conv = MacSpec::Conv(ConvSpec {
            batch: 1,
            in_c: 3,
            in_h: 5,
            in_w: 6,
            out_c: 4,
            kh: 3,
            kw: 3,
            stride: (1, 1),
            padding: (1, 1),
            dilation: (1, 1),
            groups: 1,
        });
        let mm = MacSpec::MatMul(MatMulSpec { batch: 2, m: 3, k: 9, n: 5, transpose_b: false });
        for spec in [conv, mm] {
            let (in_shape, w_shape) = operand_shapes(&spec);
            let input = adversarial_tensor(seed, in_shape);
            let weight = adversarial_tensor(seed ^ 0x77, w_shape);
            let ops = Operands { input: &input, weight: &weight };
            prop_assert_eq!(spec.fast_divergence(&ops).to_bits(), 0.0f32.to_bits());
        }
    }

    /// The windowed conv kernel writes bits identical to the full kernel
    /// inside the window and leaves everything outside untouched.
    #[test]
    fn conv_window_kernel_matches_full_kernel(
        in_h in 1usize..7,
        in_w in 1usize..10,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        h0 in 0usize..8,
        hspan in 0usize..8,
        w0 in 0usize..10,
        wspan in 0usize..10,
        seed in 0u64..u64::MAX,
    ) {
        let c = ConvSpec {
            batch: 2,
            in_c: 2,
            in_h,
            in_w,
            out_c: 3,
            kh,
            kw,
            stride: (stride, stride),
            padding: (padding, padding),
            dilation: (1, 1),
            groups: 1,
        };
        let (oh, ow) = (c.out_h(), c.out_w());
        let spec = MacSpec::Conv(c);
        let (in_shape, w_shape) = operand_shapes(&spec);
        let input = adversarial_tensor(seed, in_shape);
        let weight = adversarial_tensor(seed ^ 0xC0FFEE, w_shape);
        let ops = Operands { input: &input, weight: &weight };

        let mut scratch = KernelScratch::new();
        let mut full = vec![0.0f32; spec.out_len()];
        spec.forward_into_scratch(&ops, &mut full, &mut scratch);

        const SENTINEL: f32 = 7777.5;
        let mut windowed = vec![SENTINEL; spec.out_len()];
        let window = ((h0, h0 + hspan), (w0, w0 + wspan));
        prop_assert!(spec.forward_region_into_scratch(
            &ops, &mut windowed, &mut scratch, window.0, window.1
        ));

        let (h0c, h1c) = (window.0.0.min(oh), window.0.1.min(oh));
        let (w0c, w1c) = (window.1.0.min(ow), window.1.1.min(ow));
        for (off, got) in windowed.iter().enumerate() {
            let y = (off / ow) % oh;
            let x = off % ow;
            let inside = y >= h0c && y < h1c && x >= w0c && x < w1c;
            if inside {
                prop_assert_eq!(canon_bits(*got), canon_bits(full[off]), "window bits at {}", off);
            } else {
                prop_assert_eq!(got.to_bits(), SENTINEL.to_bits(), "outside window at {}", off);
            }
        }
    }

    /// Dense and unbatched matmul windows (rows × columns of the `[rows,
    /// cols]` output) are byte-identical to the full kernel inside the
    /// window and leave everything outside it untouched; batched matmuls
    /// have no windows and write nothing. Column counts cross the 8-lane
    /// boundary so windows start and end inside lane groups.
    #[test]
    fn row_window_kernels_match_full_kernel(
        kind in 0usize..3,
        batch in 1usize..3,
        rows in 1usize..7,
        k in 1usize..13,
        cols in 1usize..20,
        h0 in 0usize..7,
        hspan in 0usize..7,
        w0 in 0usize..20,
        wspan in 0usize..20,
        seed in 0u64..u64::MAX,
    ) {
        let spec = match kind {
            0 => MacSpec::Dense(DenseSpec { batch: rows, in_features: k, out_features: cols }),
            _ => MacSpec::MatMul(MatMulSpec { batch, m: rows, k, n: cols, transpose_b: kind == 2 }),
        };
        let (in_shape, w_shape) = operand_shapes(&spec);
        let input = adversarial_tensor(seed, in_shape);
        let weight = adversarial_tensor(seed ^ 0xC0FFEE, w_shape);
        let ops = Operands { input: &input, weight: &weight };

        let mut scratch = KernelScratch::new();
        let mut full = vec![0.0f32; spec.out_len()];
        spec.forward_into_scratch(&ops, &mut full, &mut scratch);

        const SENTINEL: f32 = 7777.5;
        let mut windowed = vec![SENTINEL; spec.out_len()];
        let window = ((h0, h0 + hspan), (w0, w0 + wspan));
        let batched = matches!(&spec, MacSpec::MatMul(m) if m.batch != 1);
        prop_assert_eq!(
            spec.forward_region_into_scratch(&ops, &mut windowed, &mut scratch, window.0, window.1),
            !batched
        );
        for (off, got) in windowed.iter().enumerate() {
            let (r, c) = (off / cols, off % cols);
            let inside = !batched
                && (window.0 .0..window.0 .1).contains(&r)
                && (window.1 .0..window.1 .1).contains(&c);
            if inside {
                prop_assert_eq!(canon_bits(*got), canon_bits(full[off]), "window bits at {}", off);
            } else {
                prop_assert_eq!(got.to_bits(), SENTINEL.to_bits(), "outside window at {}", off);
            }
        }
    }

    /// `conv_out_window` is a conservative superset: every output whose
    /// receptive field touches the input window must land inside the mapped
    /// output window (brute-forced over all taps).
    #[test]
    fn conv_out_window_covers_receptive_fields(
        dim in 1usize..9,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        dilation in 1usize..3,
        lo in 0usize..9,
        span in 0usize..9,
    ) {
        let out_dim = {
            let span_needed = dilation * (k - 1) + 1;
            let padded = dim + 2 * padding;
            if padded < span_needed { 0 } else { (padded - span_needed) / stride + 1 }
        };
        let hi = (lo + span).min(dim);
        let lo = lo.min(hi);
        let (out_lo, out_hi) = conv_out_window((lo, hi), k, stride, padding, dilation, out_dim);
        prop_assert!(out_hi <= out_dim);
        for oy in 0..out_dim {
            let mut touches = false;
            for tap in 0..k {
                let coord = oy * stride + tap * dilation;
                if coord >= padding {
                    let iy = coord - padding;
                    if iy < dim && iy >= lo && iy < hi {
                        touches = true;
                    }
                }
            }
            if touches {
                prop_assert!(
                    oy >= out_lo && oy < out_hi,
                    "output {} touches input window [{}, {}) but mapped window is [{}, {})",
                    oy, lo, hi, out_lo, out_hi
                );
            }
        }
    }
}

/// Pinned Fast-tier divergence: the 4-lane tree reduction
/// `(l0+l1)+(l2+l3)` loses the `+1.0` that the sequential order keeps, so
/// the reported divergence is exactly `1.0` — a deliberate catastrophic-
/// cancellation construction, not a tolerance check.
#[test]
fn fast_divergence_pinned_cancellation_case() {
    let spec = MacSpec::Dense(DenseSpec {
        batch: 1,
        in_features: 4,
        out_features: 1,
    });
    let input = Tensor::from_vec(vec![1, 4], vec![1.0e8, 1.0, -1.0e8, 1.0]).unwrap();
    let weight = Tensor::from_vec(vec![1, 4], vec![1.0, 1.0, 1.0, 1.0]).unwrap();
    let ops = Operands {
        input: &input,
        weight: &weight,
    };
    // Sequential: ((1e8 + 1) + -1e8) + 1 = 1.0  (the first +1 is absorbed).
    // Tree: (1e8 + 1) + (-1e8 + 1) = 1e8 - 1e8 = 0.0 (both +1s absorbed).
    assert_eq!(spec.compute_at(&ops, 0, None), 1.0);
    assert_eq!(spec.fast_divergence(&ops), 1.0);

    // And a case where the tiers agree exactly: sums representable at every
    // association order diverge by exactly 0.
    let input = Tensor::from_vec(vec![1, 4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
    let ops = Operands {
        input: &input,
        weight: &weight,
    };
    assert_eq!(spec.fast_divergence(&ops), 0.0);
}

/// Values a bit flip can produce that stress the evaluator: NaN, ±∞, both
/// signed zeros and subnormals.
const FAULTY_VALUES: [f32; 7] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    0.0,
    1.0e-40,
    -1.0e-42,
];

/// A dataflow reuse window of `users`, the shape `select_window` hands the
/// evaluator: up to `positions` consecutive positions from a random user's
/// position onward, times the aligned block of `channels` channels holding
/// that user's channel.
fn window_of(spec: &MacSpec, users: &[usize], rng: &mut SplitMix64) -> Vec<usize> {
    if users.is_empty() {
        return Vec::new();
    }
    let (p0, c0) = spec.coords_of(users[rng.next_below(users.len() as u64) as usize]);
    let positions = 1 + rng.next_below(4) as usize;
    let channels = [1, 4, 8, 16][rng.next_below(4) as usize];
    users
        .iter()
        .copied()
        .filter(|&off| {
            let (p, c) = spec.coords_of(off);
            p >= p0 && p < p0 + positions && c / channels == c0 / channels
        })
        .collect()
}

/// Asserts `compute_neurons` matches the scalar oracle on adversarial
/// operands, for substitutions in both operands with adversarial faulty
/// values, over the neuron sets a fault model produces — the full use set
/// and a dataflow window of it — plus a random subset in ascending and in
/// descending order, every neuron of the layer, and the empty set.
fn assert_compute_neurons_matches_oracle(spec: &MacSpec, seed: u64) -> Result<(), TestCaseError> {
    let (in_shape, w_shape) = operand_shapes(spec);
    let input = adversarial_tensor(seed, in_shape);
    let weight = adversarial_tensor(seed ^ 0x0BAD_CAFE, w_shape);
    let ops = Operands {
        input: &input,
        weight: &weight,
    };
    let mut rng = SplitMix64::new(seed ^ 0xFA17);
    let mut scratch = KernelScratch::new();
    for kind in [OperandKind::Input, OperandKind::Weight] {
        let len = match kind {
            OperandKind::Input => input.len(),
            OperandKind::Weight => weight.len(),
        };
        for _ in 0..3 {
            let offset = rng.next_below(len as u64) as usize;
            let value = match rng.next_below(FAULTY_VALUES.len() as u64 + 2) as usize {
                i if i < FAULTY_VALUES.len() => FAULTY_VALUES[i],
                _ => rng.next_symmetric(8.0),
            };
            let subst = Substitution {
                kind,
                offset,
                value,
            };
            let users = match kind {
                OperandKind::Input => spec.neurons_using_input(offset),
                OperandKind::Weight => spec.neurons_using_weight(offset),
            };
            let window = window_of(spec, &users, &mut rng);
            let subset: Vec<usize> = (0..spec.out_len())
                .filter(|_| rng.next_below(3) == 0)
                .collect();
            let every: Vec<usize> = (0..spec.out_len()).collect();
            let reversed: Vec<usize> = subset.iter().rev().copied().collect();
            for set in [&users, &window, &subset, &reversed, &every, &Vec::new()] {
                let mut out = vec![0.0f32; set.len()];
                spec.compute_neurons(&ops, &subst, set, &mut out, &mut scratch);
                for (&off, &v) in set.iter().zip(&out) {
                    let oracle = spec.compute_at(&ops, off, Some(&subst));
                    prop_assert_eq!(
                        canon_bits(v),
                        canon_bits(oracle),
                        "compute_neurons != compute_at at neuron {} under {:?} ({:?})",
                        off,
                        subst,
                        spec
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conv over stride, padding, dilation and groups (depthwise included),
    /// each independent per axis; `out_c` per group crosses the 8-lane
    /// boundary of the channel lanes, `in_w` that of the column lanes.
    #[test]
    fn conv_compute_neurons_is_bit_identical(
        in_c_per_group in 1usize..4,
        out_c_per_group in 1usize..11,
        groups in 1usize..4,
        depthwise in prop_oneof![Just(false), Just(true)],
        in_h in 1usize..8,
        in_w in 1usize..12,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in (1usize..3, 1usize..3),
        padding in (0usize..3, 0usize..3),
        dilation in (1usize..3, 1usize..3),
        seed in 0u64..u64::MAX,
    ) {
        let (icg, ocg) = if depthwise { (1, 1) } else { (in_c_per_group, out_c_per_group) };
        let spec = MacSpec::Conv(ConvSpec {
            batch: 1 + (seed % 2) as usize,
            in_c: icg * groups,
            in_h,
            in_w,
            out_c: ocg * groups,
            kh,
            kw,
            stride,
            padding,
            dilation,
            groups,
        });
        assert_compute_neurons_matches_oracle(&spec, seed)?;
    }

    /// Dense; `out_features` crosses the 8-lane boundary.
    #[test]
    fn dense_compute_neurons_is_bit_identical(
        batch in 1usize..4,
        in_features in 1usize..30,
        out_features in 1usize..20,
        seed in 0u64..u64::MAX,
    ) {
        let spec = MacSpec::Dense(DenseSpec { batch, in_features, out_features });
        assert_compute_neurons_matches_oracle(&spec, seed)?;
    }

    /// MatMul with and without `transpose_b`.
    #[test]
    fn matmul_compute_neurons_is_bit_identical(
        batch in 1usize..3,
        m in 1usize..6,
        k in 1usize..20,
        n in 1usize..19,
        transpose_b in prop_oneof![Just(false), Just(true)],
        seed in 0u64..u64::MAX,
    ) {
        let spec = MacSpec::MatMul(MatMulSpec { batch, m, k, n, transpose_b });
        assert_compute_neurons_matches_oracle(&spec, seed)?;
    }

    /// `neurons_using_input` on conv equals the brute-force scan: every
    /// neuron with a kernel step reading the element, in ascending order.
    #[test]
    fn conv_input_users_match_brute_force(
        in_c_per_group in 1usize..3,
        out_c_per_group in 1usize..4,
        groups in 1usize..4,
        in_h in 1usize..9,
        in_w in 1usize..9,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in (1usize..4, 1usize..4),
        padding in (0usize..3, 0usize..3),
        dilation in (1usize..3, 1usize..3),
        seed in 0u64..u64::MAX,
    ) {
        let spec = MacSpec::Conv(ConvSpec {
            batch: 1 + (seed % 2) as usize,
            in_c: in_c_per_group * groups,
            in_h,
            in_w,
            out_c: out_c_per_group * groups,
            kh,
            kw,
            stride,
            padding,
            dilation,
            groups,
        });
        let in_len = operand_shapes(&spec).0.iter().product::<usize>();
        for elem in 0..in_len {
            let brute: Vec<usize> = (0..spec.out_len())
                .filter(|&off| {
                    (0..spec.kernel_steps())
                        .any(|st| spec.term_offsets(off, st).is_some_and(|(i, _)| i == elem))
                })
                .collect();
            prop_assert_eq!(spec.neurons_using_input(elem), brute, "input {} of {:?}", elem, spec);
        }
    }
}
