//! Campaign resilience: panic isolation, per-injection watchdogs, and
//! checkpoint/resume for long-running campaigns.
//!
//! A statistically-sized campaign over a large workload runs millions of
//! injections across hours; a single panicking fault model, a runaway
//! propagation, or a pre-empted batch job must not discard the work already
//! done. [`ResilienceSpec`] configures three independent defense layers that
//! [`crate::campaign::CampaignRunner`] enforces:
//!
//! * **Panic isolation** — every cell runs under `catch_unwind` with bounded
//!   retries; an unrecoverable cell degrades to its partial [`CellStats`]
//!   (fewer samples → a wider Wilson interval) and is reported as a
//!   [`CellFailure`] instead of aborting the campaign, until the campaign's
//!   failure budget is exhausted.
//! * **Per-injection watchdog** — a wall-clock deadline on each injection;
//!   overruns classify as [`crate::outcome::Outcome::SystemAnomaly`], the
//!   same verdict the hardware watchdog would deliver.
//! * **Checkpoint/resume** — completed cells are persisted to a line-oriented
//!   checkpoint file; a restarted campaign replays only the missing cells.
//!   Because every cell owns a deterministic RNG stream, a resumed campaign
//!   is bit-identical to an uninterrupted one.
//!
//! The checkpoint format is hand-rolled (one record per line, `done <idx>`
//! completeness markers, f32 fields as exact bit patterns) so torn writes
//! from a killed process are detected and discarded on resume.

use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use fidelity_accel::ff::{FfCategory, PipelineStage, VarType};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::macspec::OperandKind;
use fidelity_dnn::DnnError;
use fidelity_par::CancelToken;

use crate::campaign::{CampaignSpec, CellEvents, CellStats, InjectionEvent};
use crate::models::{OperandWindow, SoftwareFaultModel};
use crate::outcome::Outcome;

/// Fault-tolerance policy for a campaign.
#[derive(Debug, Clone)]
pub struct ResilienceSpec {
    /// Wall-clock deadline per injection. An injection that overruns it is
    /// classified as a system anomaly (watchdog reset) instead of hanging a
    /// worker. Campaigns with a deadline set are only statistically — not
    /// bit — reproducible, since classification depends on host timing.
    /// `None` (the default) disables the watchdog.
    pub injection_deadline: Option<Duration>,
    /// Retries after a cell's first failed attempt. A retried cell restarts
    /// its RNG stream from scratch, so a successful retry is bit-identical
    /// to a run that never failed.
    pub max_retries_per_cell: usize,
    /// Wait schedule between retry attempts. See [`RetryBackoff`]; the
    /// default backs off exponentially with seeded jitter. Use
    /// [`RetryBackoff::none`] to restore immediate retry.
    pub retry_backoff: RetryBackoff,
    /// Campaign-level cap on failed cells (after retries). Exceeding it
    /// aborts the campaign with [`DnnError::Campaign`]; up to the budget,
    /// failed cells degrade to their partial statistics.
    pub failure_budget: usize,
    /// Checkpoint persistence; `None` disables it.
    pub checkpoint: Option<CheckpointSpec>,
    /// Cooperative cancellation. When the token fires, queued cells are
    /// skipped, cells mid-flight run to completion and commit to the
    /// checkpoint, and the campaign returns a "cancelled" error — leaving a
    /// resumable checkpoint behind. `None` (the default) disables it.
    pub cancel: Option<CancelToken>,
    /// Fault injection for the injector itself (tests and drills); empty in
    /// production. Several specs may target different cells at once, which
    /// is how multi-cell failure accounting is exercised.
    pub chaos: Vec<ChaosSpec>,
}

impl Default for ResilienceSpec {
    fn default() -> Self {
        ResilienceSpec {
            injection_deadline: None,
            max_retries_per_cell: 1,
            retry_backoff: RetryBackoff::default(),
            failure_budget: 4,
            checkpoint: None,
            cancel: None,
            chaos: Vec::new(),
        }
    }
}

/// Where a campaign persists its progress. Every committed record is
/// flushed as it lands.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file path (conventionally `results/<campaign>.ckpt`).
    pub path: PathBuf,
    /// When set, an existing compatible checkpoint at `path` is loaded
    /// before running and only missing cells are executed. A missing file
    /// starts fresh; a checkpoint written for a different campaign
    /// (fingerprint mismatch) is an error.
    pub resume: bool,
}

impl CheckpointSpec {
    /// A write-only checkpoint at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            path: path.into(),
            resume: false,
        }
    }

    /// Like [`CheckpointSpec::new`], but resuming from `path` when a
    /// compatible checkpoint exists there.
    pub fn resuming(path: impl Into<PathBuf>) -> Self {
        CheckpointSpec {
            resume: true,
            ..CheckpointSpec::new(path)
        }
    }
}

/// Wait schedule between a cell's retry attempts.
///
/// Immediate retry is the wrong reflex for the failures retries exist to
/// absorb — a host under transient memory pressure, a watchdog tripping
/// under load — because hammering the same cell back-to-back tends to
/// reproduce the failure. Delays instead grow exponentially from `base`,
/// bounded by `cap`, with jitter so a fleet of failing cells does not retry
/// in lockstep. The jitter is *deterministic*: it comes from a `SplitMix64`
/// stream keyed on the campaign seed, the cell index, and the retry number,
/// so two runs of the same spec wait the exact same schedule — retries stay
/// reproducible like everything else in a campaign.
#[derive(Debug, Clone)]
pub struct RetryBackoff {
    /// Nominal delay before the first retry. [`Duration::ZERO`] disables
    /// waiting entirely (immediate retry).
    pub base: Duration,
    /// Growth factor per retry: retry `n` nominally waits
    /// `base * factor^(n-1)`.
    pub factor: u32,
    /// Upper bound on the nominal delay of any single retry.
    pub cap: Duration,
    /// Jitter as a percentage of the nominal delay (clamped to 100): retry
    /// `n` waits a value drawn uniformly from
    /// `nominal ± nominal * jitter_pct / 100`.
    pub jitter_pct: u8,
}

impl Default for RetryBackoff {
    fn default() -> Self {
        RetryBackoff {
            base: Duration::from_millis(25),
            factor: 2,
            cap: Duration::from_secs(1),
            jitter_pct: 20,
        }
    }
}

impl RetryBackoff {
    /// Immediate retry — the schedule every delay of which is zero.
    pub const fn none() -> Self {
        RetryBackoff {
            base: Duration::ZERO,
            factor: 2,
            cap: Duration::ZERO,
            jitter_pct: 0,
        }
    }

    /// The delay before retry `retry` (1-based; `0` means "first attempt"
    /// and never waits) of plan cell `cell` in a campaign seeded with
    /// `seed`. Pure: the same inputs always produce the same delay.
    pub fn delay(&self, seed: u64, cell: usize, retry: usize) -> Duration {
        if retry == 0 || self.base.is_zero() {
            return Duration::ZERO;
        }
        let base_us = duration_us(self.base);
        let cap_us = duration_us(self.cap);
        let mut nominal = base_us;
        for _ in 1..retry {
            nominal = nominal.saturating_mul(u64::from(self.factor));
            if nominal >= cap_us {
                break;
            }
        }
        nominal = nominal.min(cap_us);
        let span = nominal.saturating_mul(u64::from(self.jitter_pct.min(100))) / 100;
        let mut rng = SplitMix64::new(
            seed ^ (cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (retry as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        // `2 * span + 1` possible outcomes centred on the nominal delay.
        let jittered = nominal - span + rng.next_below(2 * span + 1);
        Duration::from_micros(jittered)
    }
}

/// Saturating microseconds of a `Duration` (fits any schedule we care about).
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Deliberate malfunction injected into the campaign runner itself, aimed at
/// one (node, category) cell. This is how the resilience machinery is tested
/// without a genuinely buggy fault model.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Target node index.
    pub node: usize,
    /// Target FF category.
    pub category: FfCategory,
    /// What goes wrong.
    pub mode: ChaosMode,
}

/// The malfunction a [`ChaosSpec`] triggers.
#[derive(Debug, Clone, Copy)]
pub enum ChaosMode {
    /// Panic when the cell reaches the given sample index, on every attempt.
    PanicAtSample(usize),
    /// Sleep this long before every injection of the cell, simulating a
    /// pathologically slow propagation (drives the watchdog).
    DelayPerInjection(Duration),
}

/// Why a cell failed.
#[derive(Debug, Clone)]
pub enum FailureReason {
    /// The injection code panicked; the payload rendered as text.
    Panic(String),
    /// The injection returned an error.
    Error(String),
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureReason::Panic(msg) => write!(f, "panic: {msg}"),
            FailureReason::Error(msg) => write!(f, "error: {msg}"),
        }
    }
}

/// The record of one cell that exhausted its retries.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Target node index.
    pub node: usize,
    /// Target layer name.
    pub layer: String,
    /// FF category of the failed cell.
    pub category: FfCategory,
    /// Attempts made (first run + retries).
    pub attempts: usize,
    /// Samples the kept partial statistics contain (the RNG stream position
    /// reached on the last attempt).
    pub samples_completed: usize,
    /// Why the last attempt failed.
    pub reason: FailureReason,
}

// ---------------------------------------------------------------------------
// Checkpoint encoding
// ---------------------------------------------------------------------------

/// Checkpoint format magic + version line.
const HEADER: &str = "fidelity-ckpt v1";

/// FNV-1a over the campaign identity: everything that determines the cell
/// plan and each cell's RNG stream. Two specs with the same fingerprint
/// produce interchangeable checkpoints; the resilience policy itself is
/// deliberately excluded (a resumed run may use different retry settings),
/// and so is `batch` — batched fault-cone evaluation is a scheduling policy
/// whose results are bit-identical to the dense path by construction. The
/// MAC tier IS identity: the Fast tier may legally change low-order bits,
/// so its checkpoints are not interchangeable with Bitwise ones.
pub fn campaign_fingerprint(
    spec: &CampaignSpec,
    network: &str,
    plan: &[(usize, FfCategory)],
) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(network.as_bytes());
    eat(&spec.seed.to_le_bytes());
    eat(&(spec.samples_per_cell as u64).to_le_bytes());
    eat(&[u8::from(spec.record_events)]);
    // The retired per-cell Wilson stopping rule's `None` encoding: on-disk
    // checkpoints depend on these bytes (as the serve journal's dedup keys
    // depend on the job fingerprint's copy), so they stay.
    eat(&u64::MAX.to_le_bytes());
    eat(spec.mac_tier.as_str().as_bytes());
    // Adaptive plan parameters are identity: epsilon/confidence/max decide
    // which injections run, so adaptive checkpoints only interchange between
    // equal plans. Eaten only when present, preserving every pre-adaptive
    // fingerprint byte-for-byte.
    if let Some(a) = &spec.adaptive {
        eat(&[1u8]);
        eat(&a.epsilon.to_bits().to_le_bytes());
        eat(&a.confidence.to_bits().to_le_bytes());
        eat(&(a.max_injections as u64).to_le_bytes());
    }
    for &(node, cat) in plan {
        eat(&(node as u64).to_le_bytes());
        eat(cat_code(cat).as_bytes());
    }
    h
}

/// Writes the checkpoint header.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_header<W: Write>(w: &mut W, fingerprint: u64) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    writeln!(w, "fingerprint {fingerprint:016x}")
}

/// Appends one completed cell, terminated by its `done` marker. A record cut
/// short by a kill lacks the marker and is discarded on parse.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_cell<W: Write>(w: &mut W, idx: usize, cell: &CellStats) -> io::Result<()> {
    writeln!(
        w,
        "cell {idx} {} {} {} {} {} {} {} {} {}",
        cell.node,
        cat_code(cell.category),
        model_code(&cell.model),
        cell.samples,
        cell.masked,
        cell.output_error,
        cell.anomaly,
        cell.events.len(),
        cell.layer,
    )?;
    for ev in &cell.events {
        writeln!(
            w,
            "ev {} {:08x} {}",
            ev.faulty_neurons,
            ev.max_perturbation.to_bits(),
            outcome_code(ev.outcome),
        )?;
    }
    writeln!(w, "done {idx}")
}

/// A parsed checkpoint: the campaign fingerprint plus every complete cell
/// record, keyed by plan index.
#[derive(Debug, Clone)]
pub struct ParsedCheckpoint {
    /// Fingerprint the checkpoint was written for.
    pub fingerprint: u64,
    /// Complete `(plan index, statistics)` records, in file order.
    pub cells: Vec<(usize, CellStats)>,
}

/// Parses a checkpoint, keeping only records whose `done` marker made it to
/// disk (a torn tail from a killed process is silently dropped — those cells
/// simply rerun).
///
/// # Errors
///
/// Returns [`DnnError::Campaign`] on I/O errors, a bad header, or a
/// structurally malformed record (which indicates corruption rather than a
/// torn tail).
pub fn parse_checkpoint<R: BufRead>(r: R) -> Result<ParsedCheckpoint, DnnError> {
    let corrupt = |what: &str| DnnError::Campaign {
        message: format!("corrupt checkpoint: {what}"),
    };
    let mut lines = r.lines();
    let header = lines
        .next()
        .transpose()
        .map_err(|e| corrupt(&format!("read failed: {e}")))?
        .ok_or_else(|| corrupt("empty file"))?;
    if header != HEADER {
        return Err(corrupt(&format!("bad header `{header}`")));
    }
    let fp_line = lines
        .next()
        .transpose()
        .map_err(|e| corrupt(&format!("read failed: {e}")))?
        .ok_or_else(|| corrupt("missing fingerprint"))?;
    let fingerprint = fp_line
        .strip_prefix("fingerprint ")
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| corrupt(&format!("bad fingerprint line `{fp_line}`")))?;

    let mut cells = Vec::new();
    let mut committed = std::collections::HashSet::new();
    // The record being accumulated: (idx, stats, events still expected).
    let mut pending: Option<(usize, CellStats, usize)> = None;
    for (off, line) in lines.enumerate() {
        // Header and fingerprint occupy lines 1-2; data starts at line 3.
        let lineno = off + 3;
        // A torn final line can be unreadable; everything after it is
        // lost anyway, so stop at the last complete record.
        let Ok(line) = line else { break };
        if let Some(rest) = line.strip_prefix("cell ") {
            // A new cell while one is pending means the previous record
            // never completed; drop it.
            pending = parse_cell_line(rest);
            match &pending {
                // A second record for an already-committed cell cannot come
                // from a torn tail (the writer commits each index once);
                // it means a concurrent writer or silent corruption, and
                // last-write-wins would mask it.
                Some((idx, ..)) if committed.contains(idx) => {
                    return Err(corrupt(&format!(
                        "duplicate record for cell {idx} at line {lineno}"
                    )));
                }
                None if !line_is_torn_tail(&line) => {
                    return Err(corrupt(&format!("bad cell line `{line}`")));
                }
                _ => {}
            }
        } else if let Some(rest) = line.strip_prefix("ev ") {
            if let Some((_, stats, expected)) = pending.as_mut() {
                if *expected == 0 {
                    return Err(corrupt("more events than declared"));
                }
                match parse_event_line(rest) {
                    Some(ev) => {
                        stats.events.push(ev);
                        *expected -= 1;
                    }
                    None => {
                        // Torn mid-event: discard the pending record.
                        pending = None;
                    }
                }
            }
            // An `ev` with no pending cell: remnant of a dropped record.
        } else if let Some(rest) = line.strip_prefix("done ") {
            if let Some((idx, stats, expected)) = pending.take() {
                let done_idx: Option<usize> = rest.trim().parse().ok();
                if done_idx == Some(idx) && expected == 0 {
                    committed.insert(idx);
                    cells.push((idx, stats));
                }
                // Mismatched or short record: drop it, keep parsing.
            }
        } else if line.trim().is_empty() {
            // Blank line: ignore.
        } else if line_is_torn_tail(&line) {
            break;
        } else {
            return Err(corrupt(&format!("unrecognized line `{line}`")));
        }
    }
    Ok(ParsedCheckpoint { fingerprint, cells })
}

/// A heuristic for the final, torn line of a killed writer: any prefix of a
/// valid record keyword. Full garbage elsewhere in the file still errors.
fn line_is_torn_tail(line: &str) -> bool {
    ["cell", "ev", "done"]
        .iter()
        .any(|kw| kw.starts_with(line.split_whitespace().next().unwrap_or("")))
}

fn parse_cell_line(rest: &str) -> Option<(usize, CellStats, usize)> {
    // cell <idx> <node> <cat> <model> <samples> <masked> <oe> <an> <nev> <layer...>
    let mut it = rest.splitn(10, ' ');
    let idx: usize = it.next()?.parse().ok()?;
    let node: usize = it.next()?.parse().ok()?;
    let category = parse_cat(it.next()?)?;
    let model = parse_model(it.next()?)?;
    let samples: usize = it.next()?.parse().ok()?;
    let masked: usize = it.next()?.parse().ok()?;
    let output_error: usize = it.next()?.parse().ok()?;
    let anomaly: usize = it.next()?.parse().ok()?;
    let nevents: usize = it.next()?.parse().ok()?;
    let layer = Arc::from(it.next()?);
    Some((
        idx,
        CellStats {
            node,
            layer,
            category,
            model,
            samples,
            masked,
            output_error,
            anomaly,
            events: CellEvents::default(),
        },
        nevents,
    ))
}

fn parse_event_line(rest: &str) -> Option<InjectionEvent> {
    let mut it = rest.split(' ');
    let faulty_neurons: usize = it.next()?.parse().ok()?;
    let bits = u32::from_str_radix(it.next()?, 16).ok()?;
    let outcome = parse_outcome(it.next()?)?;
    if it.next().is_some() {
        return None;
    }
    Some(InjectionEvent {
        faulty_neurons,
        max_perturbation: f32::from_bits(bits),
        outcome,
    })
}

fn outcome_code(o: Outcome) -> &'static str {
    match o {
        Outcome::Masked => "m",
        Outcome::OutputError => "e",
        Outcome::SystemAnomaly => "a",
    }
}

fn parse_outcome(s: &str) -> Option<Outcome> {
    match s {
        "m" => Some(Outcome::Masked),
        "e" => Some(Outcome::OutputError),
        "a" => Some(Outcome::SystemAnomaly),
        _ => None,
    }
}

/// Compact, stable code for an FF category (`d:<stage>:<var>`, `lc`, `gc`).
pub(crate) fn cat_code(cat: FfCategory) -> String {
    match cat {
        FfCategory::Datapath { stage, var } => {
            let s = match stage {
                PipelineStage::BeforeBuffer => "bb",
                PipelineStage::BufferToMac => "bm",
                PipelineStage::AfterMac => "am",
            };
            let v = match var {
                VarType::Input => "i",
                VarType::Weight => "w",
                VarType::Bias => "b",
                VarType::PartialSum => "p",
                VarType::Output => "o",
            };
            format!("d:{s}:{v}")
        }
        FfCategory::LocalControl => "lc".to_owned(),
        FfCategory::GlobalControl => "gc".to_owned(),
    }
}

pub(crate) fn parse_cat(s: &str) -> Option<FfCategory> {
    match s {
        "lc" => return Some(FfCategory::LocalControl),
        "gc" => return Some(FfCategory::GlobalControl),
        _ => {}
    }
    let mut it = s.split(':');
    if it.next()? != "d" {
        return None;
    }
    let stage = match it.next()? {
        "bb" => PipelineStage::BeforeBuffer,
        "bm" => PipelineStage::BufferToMac,
        "am" => PipelineStage::AfterMac,
        _ => return None,
    };
    let var = match it.next()? {
        "i" => VarType::Input,
        "w" => VarType::Weight,
        "b" => VarType::Bias,
        "p" => VarType::PartialSum,
        "o" => VarType::Output,
        _ => return None,
    };
    if it.next().is_some() {
        return None;
    }
    Some(FfCategory::Datapath { stage, var })
}

fn operand_code(kind: OperandKind) -> &'static str {
    match kind {
        OperandKind::Input => "i",
        OperandKind::Weight => "w",
    }
}

fn parse_operand(s: &str) -> Option<OperandKind> {
    match s {
        "i" => Some(OperandKind::Input),
        "w" => Some(OperandKind::Weight),
        _ => None,
    }
}

/// Compact, stable code for a software fault model.
pub(crate) fn model_code(model: &SoftwareFaultModel) -> String {
    match model {
        SoftwareFaultModel::BeforeBuffer { kind } => format!("bb:{}", operand_code(*kind)),
        SoftwareFaultModel::Operand {
            kind,
            window,
            random_suffix,
        } => format!(
            "op:{}:{}:{}:{}",
            operand_code(*kind),
            window.positions,
            window.channels,
            u8::from(*random_suffix),
        ),
        SoftwareFaultModel::OutputValue => "out".to_owned(),
        SoftwareFaultModel::LocalControl => "lc".to_owned(),
        SoftwareFaultModel::GlobalControl => "gc".to_owned(),
    }
}

pub(crate) fn parse_model(s: &str) -> Option<SoftwareFaultModel> {
    match s {
        "out" => return Some(SoftwareFaultModel::OutputValue),
        "lc" => return Some(SoftwareFaultModel::LocalControl),
        "gc" => return Some(SoftwareFaultModel::GlobalControl),
        _ => {}
    }
    let mut it = s.split(':');
    let model = match it.next()? {
        "bb" => SoftwareFaultModel::BeforeBuffer {
            kind: parse_operand(it.next()?)?,
        },
        "op" => SoftwareFaultModel::Operand {
            kind: parse_operand(it.next()?)?,
            window: OperandWindow {
                positions: it.next()?.parse().ok()?,
                channels: it.next()?.parse().ok()?,
            },
            random_suffix: match it.next()? {
                "0" => false,
                "1" => true,
                _ => return None,
            },
        },
        _ => return None,
    };
    if it.next().is_some() {
        return None;
    }
    Some(model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> CellStats {
        CellStats {
            node: 3,
            layer: "conv block 2".into(), // spaces round-trip
            category: FfCategory::Datapath {
                stage: PipelineStage::BufferToMac,
                var: VarType::Weight,
            },
            model: SoftwareFaultModel::Operand {
                kind: OperandKind::Weight,
                window: OperandWindow {
                    positions: 16,
                    channels: 1,
                },
                random_suffix: true,
            },
            samples: 100,
            masked: 60,
            output_error: 30,
            anomaly: 10,
            events: vec![
                InjectionEvent {
                    faulty_neurons: 5,
                    max_perturbation: f32::NAN,
                    outcome: Outcome::OutputError,
                },
                InjectionEvent {
                    faulty_neurons: 0,
                    max_perturbation: 0.25,
                    outcome: Outcome::Masked,
                },
            ]
            .into(),
        }
    }

    fn assert_cells_eq(a: &CellStats, b: &CellStats) {
        assert_eq!(a.node, b.node);
        assert_eq!(a.layer, b.layer);
        assert_eq!(a.category, b.category);
        assert_eq!(a.model, b.model);
        assert_eq!(
            (a.samples, a.masked, a.output_error, a.anomaly),
            (b.samples, b.masked, b.output_error, b.anomaly)
        );
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.faulty_neurons, y.faulty_neurons);
            assert_eq!(x.max_perturbation.to_bits(), y.max_perturbation.to_bits());
            assert_eq!(x.outcome, y.outcome);
        }
    }

    #[test]
    fn cell_round_trips_including_nan_events() {
        let cell = sample_cell();
        let mut buf = Vec::new();
        write_header(&mut buf, 0xDEAD_BEEF).unwrap();
        write_cell(&mut buf, 7, &cell).unwrap();
        let parsed = parse_checkpoint(&buf[..]).unwrap();
        assert_eq!(parsed.fingerprint, 0xDEAD_BEEF);
        assert_eq!(parsed.cells.len(), 1);
        assert_eq!(parsed.cells[0].0, 7);
        assert_cells_eq(&parsed.cells[0].1, &cell);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let cell = sample_cell();
        let mut buf = Vec::new();
        write_header(&mut buf, 1).unwrap();
        write_cell(&mut buf, 0, &cell).unwrap();
        write_cell(&mut buf, 1, &cell).unwrap();
        // Kill mid-write: truncate inside the second record.
        let s = String::from_utf8(buf).unwrap();
        let second = s.match_indices("cell 1 ").next().unwrap().0;
        let torn = &s[..second + 20];
        let parsed = parse_checkpoint(torn.as_bytes()).unwrap();
        assert_eq!(parsed.cells.len(), 1);
        assert_eq!(parsed.cells[0].0, 0);
    }

    #[test]
    fn record_without_done_marker_is_dropped() {
        let cell = sample_cell();
        let mut buf = Vec::new();
        write_header(&mut buf, 1).unwrap();
        write_cell(&mut buf, 0, &cell).unwrap();
        let mut s = String::from_utf8(buf).unwrap();
        s = s.replace("done 0\n", "");
        let parsed = parse_checkpoint(s.as_bytes()).unwrap();
        assert!(parsed.cells.is_empty());
    }

    #[test]
    fn duplicate_cell_record_is_rejected_with_line_number() {
        let cell = sample_cell();
        let mut buf = Vec::new();
        write_header(&mut buf, 1).unwrap();
        write_cell(&mut buf, 0, &cell).unwrap();
        write_cell(&mut buf, 0, &cell).unwrap();
        let err = parse_checkpoint(&buf[..]).unwrap_err().to_string();
        // Record 0 spans lines 3-6 (cell + 2 events + done); the duplicate
        // `cell` line lands on line 7.
        assert!(
            err.contains("duplicate record for cell 0 at line 7"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn distinct_cells_still_parse_after_duplicate_check() {
        let cell = sample_cell();
        let mut buf = Vec::new();
        write_header(&mut buf, 1).unwrap();
        write_cell(&mut buf, 0, &cell).unwrap();
        write_cell(&mut buf, 1, &cell).unwrap();
        let parsed = parse_checkpoint(&buf[..]).unwrap();
        assert_eq!(parsed.cells.len(), 2);
    }

    #[test]
    fn backoff_schedule_is_pinned_and_reproducible() {
        let b = RetryBackoff::default();
        let schedule: Vec<u64> = (1..=6)
            .map(|r| b.delay(41, 3, r).as_micros() as u64)
            .collect();
        // Exact values for (seed=41, cell=3): nominal 25ms/50ms/100ms/...
        // capped at 1s, each jittered ±20% by the seeded stream. Any change
        // to the derivation is a reproducibility break and must show up here.
        let again: Vec<u64> = (1..=6)
            .map(|r| b.delay(41, 3, r).as_micros() as u64)
            .collect();
        assert_eq!(schedule, again, "schedule must be deterministic");
        let nominal = [25_000u64, 50_000, 100_000, 200_000, 400_000, 800_000];
        for (i, (&got, &nom)) in schedule.iter().zip(&nominal).enumerate() {
            let span = nom / 5;
            assert!(
                got >= nom - span && got <= nom + span,
                "retry {} delay {got}us outside {nom}±{span}us",
                i + 1
            );
        }
        assert_eq!(schedule, PINNED_SCHEDULE, "seeded jitter schedule moved");
    }

    /// The exact delays (microseconds) of `RetryBackoff::default()` for
    /// seed 41, cell 3, retries 1..=6.
    const PINNED_SCHEDULE: [u64; 6] = [25_028, 49_385, 89_200, 192_080, 343_645, 877_268];

    #[test]
    fn backoff_caps_jitters_and_disables() {
        let b = RetryBackoff::default();
        // Past the cap the nominal delay stops growing (1s ± 20%).
        let far = b.delay(7, 0, 30).as_micros() as u64;
        assert!((800_000..=1_200_000).contains(&far), "capped delay: {far}");
        // Different seeds, cells, or retry numbers draw different jitter.
        assert_ne!(b.delay(1, 0, 1), b.delay(2, 0, 1));
        assert_ne!(b.delay(1, 0, 1), b.delay(1, 1, 1));
        // Retry 0 (the first attempt) and `none()` never wait.
        assert_eq!(b.delay(1, 0, 0), Duration::ZERO);
        assert_eq!(RetryBackoff::none().delay(1, 0, 5), Duration::ZERO);
    }

    #[test]
    fn bad_header_is_an_error() {
        assert!(parse_checkpoint(&b"not a checkpoint\n"[..]).is_err());
        assert!(parse_checkpoint(&b""[..]).is_err());
        assert!(parse_checkpoint(&b"fidelity-ckpt v1\nfingerprint zz\n"[..]).is_err());
    }

    #[test]
    fn all_categories_and_models_round_trip() {
        let cats = [
            FfCategory::LocalControl,
            FfCategory::GlobalControl,
            FfCategory::Datapath {
                stage: PipelineStage::BeforeBuffer,
                var: VarType::Bias,
            },
            FfCategory::Datapath {
                stage: PipelineStage::AfterMac,
                var: VarType::PartialSum,
            },
        ];
        for cat in cats {
            assert_eq!(parse_cat(&cat_code(cat)), Some(cat));
        }
        let models = [
            SoftwareFaultModel::BeforeBuffer {
                kind: OperandKind::Input,
            },
            SoftwareFaultModel::Operand {
                kind: OperandKind::Input,
                window: OperandWindow {
                    positions: 1,
                    channels: 16,
                },
                random_suffix: false,
            },
            SoftwareFaultModel::OutputValue,
            SoftwareFaultModel::LocalControl,
            SoftwareFaultModel::GlobalControl,
        ];
        for model in models {
            assert_eq!(parse_model(&model_code(&model)), Some(model));
        }
    }

    #[test]
    fn fingerprint_tracks_identity_fields_only() {
        let base = CampaignSpec::default();
        let plan = [(0usize, FfCategory::LocalControl)];
        let fp = campaign_fingerprint(&base, "net", &plan);
        let mut other = base.clone();
        other.threads = base.threads + 1; // scheduling is irrelevant
        assert_eq!(fp, campaign_fingerprint(&other, "net", &plan));
        // Batching is policy, results are bit-identical: the dense oracle
        // and every cadence share the default's fingerprint.
        for batch in [0, 1, 64, 65] {
            let mut batched = base.clone();
            batched.batch = batch;
            assert_eq!(fp, campaign_fingerprint(&batched, "net", &plan));
        }
        let mut fast = base.clone();
        fast.mac_tier = fidelity_dnn::macspec::MacTier::Fast; // may change bits
        assert_ne!(fp, campaign_fingerprint(&fast, "net", &plan));
        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        assert_ne!(fp, campaign_fingerprint(&reseeded, "net", &plan));
        assert_ne!(fp, campaign_fingerprint(&base, "other-net", &plan));
        assert_ne!(
            fp,
            campaign_fingerprint(&base, "net", &[(1, FfCategory::LocalControl)])
        );
    }

    #[test]
    fn fingerprint_treats_adaptive_plan_as_identity() {
        let base = CampaignSpec::default();
        let plan = [(0usize, FfCategory::LocalControl)];
        let fp = campaign_fingerprint(&base, "net", &plan);
        // Turning the adaptive plan on is an identity change.
        let mut adaptive = base.clone();
        adaptive.adaptive = Some(crate::adaptive::AdaptivePlan::new(0.01));
        let fp_a = campaign_fingerprint(&adaptive, "net", &plan);
        assert_ne!(fp, fp_a);
        // So is every plan parameter.
        let mut eps = adaptive.clone();
        eps.adaptive.as_mut().unwrap().epsilon = 0.02;
        assert_ne!(fp_a, campaign_fingerprint(&eps, "net", &plan));
        let mut conf = adaptive.clone();
        conf.adaptive.as_mut().unwrap().confidence = 0.99;
        assert_ne!(fp_a, campaign_fingerprint(&conf, "net", &plan));
        let mut cap = adaptive.clone();
        cap.adaptive.as_mut().unwrap().max_injections = 999;
        assert_ne!(fp_a, campaign_fingerprint(&cap, "net", &plan));
        // An equal plan reproduces the fingerprint exactly.
        let again = adaptive.clone();
        assert_eq!(fp_a, campaign_fingerprint(&again, "net", &plan));
        // And a None plan leaves the legacy fingerprint untouched.
        assert_eq!(fp, campaign_fingerprint(&base.clone(), "net", &plan));
    }
}
