//! Statistical fault-injection campaigns (Fig. 3, step 2).
//!
//! A campaign runs a configured number of software injections for every
//! (MAC layer × FF category) cell of a deployed network and tallies the
//! outcome distribution, yielding the `Prob_SWmask(cat, r)` inputs of Eq. 2.
//! Cells are independent, so they are sharded across the `fidelity-par`
//! work-stealing pool ([`ParallelCampaignRunner`]); each cell derives its
//! own RNG stream from `(campaign seed, cell id)`, never from shared state,
//! making campaigns bit-reproducible regardless of worker count or steal
//! order. Checkpoint records go through an ordered commit buffer, so the
//! on-disk file is always the same deterministic prefix a serial run would
//! have written.
//!
//! Long campaigns run under the fault-tolerance policy of
//! [`crate::resilience`]: cells execute inside a panic boundary with bounded
//! retries, each injection can carry a wall-clock watchdog, and completed
//! cells can be checkpointed to disk so an interrupted campaign resumes
//! exactly where it stopped ([`CampaignRunner::resume_from`]).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use fidelity_accel::arch::AcceleratorConfig;
use fidelity_accel::ff::FfCategory;
use fidelity_dnn::graph::{golden_key, Engine, Trace};
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::workspace::Workspace;
use fidelity_dnn::DnnError;
use fidelity_obs::event;
use fidelity_obs::metrics::{Counter, Histogram};
use fidelity_obs::progress::{CampaignProgress, CategoryKind, OutcomeKind, ProgressSpec};
use fidelity_obs::trace::{self, Field, Value};
use fidelity_obs::{clock, prof, timing_enabled};
use fidelity_par::{CancelToken, PoolSpec, ShardPlan, WorkStealPool};

pub use fidelity_dnn::macspec::MacTier;

use crate::adaptive::{
    allocate_even, allocate_neyman, build_certificate, parse_adaptive_checkpoint, stratum_terms,
    stratum_weights, write_adaptive_header, write_cert_footer, write_wave, AdaptivePlan,
    CertFooter, ConfidenceCertificate, StratumMeta, StratumRow, StratumTally, WaveBlock, WaveFail,
    WAVE_FLOOR, WAVE_MIN_BUDGET,
};
use crate::inject::inject_once_pooled;
use crate::models::{model_for, node_fast_divergence, SoftwareFaultModel};
use crate::outcome::{CorrectnessMetric, Outcome};
use crate::resilience::{
    campaign_fingerprint, cat_code, parse_checkpoint, write_cell, write_header, CellFailure,
    ChaosMode, ChaosSpec, FailureReason, ResilienceSpec,
};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Injection samples per (layer × category) cell (the maximum, when
    /// adaptive sampling is enabled).
    pub samples_per_cell: usize,
    /// Base RNG seed; campaigns are deterministic in (seed, spec).
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Whether to keep per-injection events (needed for the Key-Result-5
    /// perturbation analysis; costs memory).
    pub record_events: bool,
    /// Adaptive sampling: stop a cell early once the 95% Wilson interval of
    /// its masking probability is narrower than this half-width (the paper
    /// sizes campaigns for a 95% confidence target). `None` always runs
    /// `samples_per_cell`.
    pub target_ci_halfwidth: Option<f64>,
    /// Fault-tolerance policy: panic isolation, watchdogs, checkpointing.
    pub resilience: ResilienceSpec,
    /// Live progress telemetry to stderr (`--progress`). `None` keeps the
    /// campaign silent. Excluded from the checkpoint fingerprint: reporting
    /// never changes the statistics.
    pub progress: Option<ProgressSpec>,
    /// Batched fault-cone evaluation (`--batch`, default 64). When `> 0`,
    /// each worker installs a shared read-only golden snapshot of the trace
    /// in its workspace and every injection is evaluated as a sparse delta
    /// over its value-exact downstream cone ([`Engine::resume_delta`]); the
    /// snapshot is re-ensured every `batch` samples so a panic that lost the
    /// overlay falls back to at most `batch - 1` dense resumes. `0` is the
    /// dense oracle: every injection re-runs its downstream nodes in full.
    /// Pure scheduling/evaluation policy: per-cell RNG streams and every
    /// produced value are bit-identical either way, so the field is
    /// excluded from the checkpoint fingerprint.
    pub batch: usize,
    /// MAC kernel tier for injected forwards (`--mac-tier`).
    /// [`MacTier::Bitwise`] (the default) is byte-identical to the scalar
    /// oracle; [`MacTier::Fast`] may change low-order bits on Dense/MatMul
    /// layers, so the tier is part of the campaign identity and is included
    /// in the checkpoint fingerprint. Under `Fast` the campaign also
    /// measures the worst-case kernel divergence once per MAC layer and
    /// reports it in [`CampaignResult::fast_divergence`].
    pub mac_tier: MacTier,
    /// Confidence-driven adaptive campaign plan (`--adaptive`). When set,
    /// the fixed `samples_per_cell` is replaced by wave-based sequential
    /// sampling that terminates once the total Eq.-2 FIT uncertainty is
    /// below the plan's ±ε (see [`crate::adaptive`]); the plan's parameters
    /// are campaign identity and enter the checkpoint fingerprint. Mutually
    /// exclusive with `record_events` and `target_ci_halfwidth`.
    pub adaptive: Option<AdaptivePlan>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            samples_per_cell: 200,
            seed: 0xF1DE_117F,
            threads: std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
            record_events: false,
            target_ci_halfwidth: None,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 64,
            mac_tier: MacTier::Bitwise,
            adaptive: None,
        }
    }
}

/// One recorded injection (when `record_events` is set).
#[derive(Debug, Clone, Copy)]
pub struct InjectionEvent {
    /// Number of faulty neurons at the corrupted layer.
    pub faulty_neurons: usize,
    /// Largest layer-level perturbation.
    pub max_perturbation: f32,
    /// Outcome class.
    pub outcome: Outcome,
}

/// Outcome tally of one (layer × category) cell.
#[derive(Debug, Clone)]
pub struct CellStats {
    /// Target node index.
    pub node: usize,
    /// Target layer name.
    pub layer: String,
    /// FF category.
    pub category: FfCategory,
    /// The software fault model applied.
    pub model: SoftwareFaultModel,
    /// Samples run.
    pub samples: usize,
    /// Masked outcomes.
    pub masked: usize,
    /// Application output errors.
    pub output_error: usize,
    /// System anomalies.
    pub anomaly: usize,
    /// Per-injection events (empty unless requested).
    pub events: Vec<InjectionEvent>,
}

impl CellStats {
    /// `Prob_SWmask` for this cell. Global-control cells are 0 by the
    /// framework's definition.
    pub fn prob_swmask(&self) -> f64 {
        if matches!(self.model, SoftwareFaultModel::GlobalControl) {
            return 0.0;
        }
        if self.samples == 0 {
            return 0.0;
        }
        self.masked as f64 / self.samples as f64
    }
}

/// All cells of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-cell statistics, ordered by (node, census order). Cells listed in
    /// [`CampaignResult::failures`] carry the partial statistics of their
    /// last attempt (possibly zero samples).
    pub cells: Vec<CellStats>,
    /// Cells that exhausted their retries and degraded to partial
    /// statistics. Empty for a healthy campaign.
    pub failures: Vec<CellFailure>,
    /// Measured worst-case Fast-tier kernel divergence over every MAC layer
    /// of the campaign (max |bitwise − fast| per element; `+∞` marks a NaN
    /// mismatch). `Some(0.0)` means the Fast tier was byte-identical on this
    /// workload. `None` when the campaign ran the Bitwise tier, where
    /// divergence is zero by construction.
    pub fast_divergence: Option<f32>,
    /// The machine-checkable confidence certificate of an adaptive campaign
    /// (per-stratum n, p̂, CI half-width, FIT contribution ± bound, total ε
    /// achieved). `None` for fixed-count campaigns.
    pub certificate: Option<ConfidenceCertificate>,
}

impl CampaignResult {
    /// Total injections run.
    pub fn total_samples(&self) -> usize {
        self.cells.iter().map(|c| c.samples).sum()
    }

    /// `Prob_SWmask(cat, r)` for a given node, when the cell exists.
    pub fn prob_swmask(&self, node: usize, category: FfCategory) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.node == node && c.category == category)
            .map(CellStats::prob_swmask)
    }

    /// Target node indices covered by the campaign.
    pub fn nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.cells.iter().map(|c| c.node).collect();
        v.dedup();
        v
    }
}

/// 95% Wilson score interval for a binomial proportion — the paper sizes its
/// campaigns for a 95% confidence interval.
///
/// Delegates to [`fidelity_obs::stats::wilson95`], the workspace's canonical
/// implementation (the live progress line uses the same one, so displayed
/// bounds always agree with adaptive-stopping decisions).
pub fn wilson_interval(successes: usize, n: usize) -> (f64, f64) {
    fidelity_obs::stats::wilson95(successes, n)
}

/// Runs a campaign over every MAC layer of the deployed engine and every FF
/// category of the accelerator's census, honoring `spec.resilience`.
///
/// Convenience wrapper around [`CampaignRunner::run`].
///
/// # Errors
///
/// Returns [`DnnError::Campaign`] when the failure budget is exhausted or
/// the checkpoint is unusable.
pub fn run_campaign(
    engine: &Engine,
    trace: &Trace,
    accel: &AcceleratorConfig,
    metric: &dyn CorrectnessMetric,
    spec: &CampaignSpec,
) -> Result<CampaignResult, DnnError> {
    CampaignRunner::new(engine, trace, accel, metric, spec.clone()).run()
}

/// One planned (node, category) cell.
struct CellPlan {
    node: usize,
    category: FfCategory,
    model: SoftwareFaultModel,
}

/// Applies a chaos directive to sample `i` of a cell, shared by the fixed
/// and adaptive sampling loops.
fn apply_chaos(chaos: Option<&ChaosSpec>, i: usize, node: usize, category: FfCategory) {
    if let Some(c) = chaos {
        match c.mode {
            ChaosMode::PanicAtSample(k) if i == k => {
                // Deliberate: exercises the panic-isolation path.
                // statcheck:allow(panic-path)
                panic!("chaos: deliberate panic at sample {i} of cell (node {node}, {category})");
            }
            ChaosMode::PanicAtSample(_) => {}
            ChaosMode::DelayPerInjection(d) => std::thread::sleep(d),
        }
    }
}

/// The open checkpoint file behind an ordered commit buffer.
///
/// Workers complete cells out of order, but the file must stay a
/// deterministic prefix of what a serial run writes — otherwise the bytes
/// (and any resumed campaign's view of them) would depend on scheduling.
/// Completed cells therefore park in `pending` until every lower-indexed
/// cell has been committed or skipped; the cursor then drains them to disk
/// in plan order. Failed cells commit as a skip: the cursor advances without
/// writing a record, so a resumed campaign retries them.
struct OrderedCommit {
    writer: BufWriter<File>,
    /// Flush every N written records.
    interval: usize,
    unflushed: usize,
    /// Lowest plan index not yet committed or skipped.
    cursor: usize,
    /// Out-of-order completions waiting for the cursor. `None` marks a skip
    /// (failed cell, or a cell already rewritten at open from the resume
    /// checkpoint).
    pending: BTreeMap<usize, Option<CellStats>>,
}

/// What one [`OrderedCommit::commit`] call put on disk.
struct CommitReceipt {
    /// Plan indices whose records were written by this call, in order.
    written: Vec<usize>,
    /// Whether the flush interval elapsed and the file was flushed.
    flushed: bool,
}

impl OrderedCommit {
    /// Parks one completed (`Some`) or failed (`None`) cell and drains every
    /// now-contiguous entry to disk in plan-index order.
    fn commit(&mut self, idx: usize, entry: Option<CellStats>) -> Result<CommitReceipt, DnnError> {
        let io_err = |e: std::io::Error| DnnError::Campaign {
            message: format!("checkpoint write failed: {e}"),
        };
        self.pending.insert(idx, entry);
        let mut written = Vec::new();
        while let Some(slot) = self.pending.remove(&self.cursor) {
            if let Some(stats) = slot {
                write_cell(&mut self.writer, self.cursor, &stats).map_err(io_err)?;
                written.push(self.cursor);
                self.unflushed += 1;
            }
            self.cursor += 1;
        }
        let mut flushed = false;
        if self.unflushed >= self.interval {
            self.writer.flush().map_err(io_err)?;
            self.unflushed = 0;
            flushed = true;
        }
        Ok(CommitReceipt { written, flushed })
    }
}

/// Cached handles into the global metrics registry — resolved once per
/// campaign so the hot path pays one relaxed `fetch_add` per increment, not
/// a registry lock.
struct CampaignMetrics {
    injections: Arc<Counter>,
    cells_done: Arc<Counter>,
    retries: Arc<Counter>,
    watchdog: Arc<Counter>,
    /// Per-injection latency (recorded only while timing is enabled).
    injection_ns: Arc<Histogram>,
}

impl CampaignMetrics {
    fn handles() -> Self {
        CampaignMetrics {
            injections: fidelity_obs::metrics::counter("campaign.injections"),
            cells_done: fidelity_obs::metrics::counter("campaign.cells_done"),
            retries: fidelity_obs::metrics::counter("campaign.cell_retries"),
            watchdog: fidelity_obs::metrics::counter("campaign.watchdog_fires"),
            injection_ns: fidelity_obs::metrics::histogram("campaign.injection_ns"),
        }
    }
}

/// Maps the accelerator's FF category onto the coarse kind the
/// dependency-free progress reporter tallies.
fn category_kind(cat: FfCategory) -> CategoryKind {
    match cat {
        FfCategory::Datapath { .. } => CategoryKind::Datapath,
        FfCategory::LocalControl => CategoryKind::LocalControl,
        FfCategory::GlobalControl => CategoryKind::GlobalControl,
    }
}

fn outcome_kind(outcome: Outcome) -> OutcomeKind {
    match outcome {
        Outcome::Masked => OutcomeKind::Masked,
        Outcome::OutputError => OutcomeKind::OutputError,
        Outcome::SystemAnomaly => OutcomeKind::Anomaly,
    }
}

/// A campaign bound to its engine, workload trace, accelerator, and spec —
/// the stateful entry point when checkpoint/resume or failure reporting is
/// needed ([`run_campaign`] remains the one-shot convenience).
pub struct CampaignRunner<'a> {
    engine: &'a Engine,
    trace: &'a Trace,
    accel: &'a AcceleratorConfig,
    metric: &'a dyn CorrectnessMetric,
    spec: CampaignSpec,
}

impl std::fmt::Debug for CampaignRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CampaignRunner(net={}, samples_per_cell={})",
            self.engine.network().name(),
            self.spec.samples_per_cell
        )
    }
}

impl<'a> CampaignRunner<'a> {
    /// Binds a campaign to its inputs.
    pub fn new(
        engine: &'a Engine,
        trace: &'a Trace,
        accel: &'a AcceleratorConfig,
        metric: &'a dyn CorrectnessMetric,
        spec: CampaignSpec,
    ) -> Self {
        CampaignRunner {
            engine,
            trace,
            accel,
            metric,
            spec,
        }
    }

    /// The bound spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Runs the campaign. When the spec's checkpoint has `resume` set and a
    /// compatible checkpoint exists, completed cells are loaded from it.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Campaign`] when the failure budget is exhausted
    /// or the checkpoint is unusable.
    pub fn run(&self) -> Result<CampaignResult, DnnError> {
        let _prof = prof::scope("campaign.run");
        let resume = self
            .spec
            .resilience
            .checkpoint
            .as_ref()
            .filter(|c| c.resume)
            .map(|c| c.path.clone());
        self.execute(resume.as_deref(), self.spec.threads)
    }

    /// Runs the campaign, first loading every completed cell from the
    /// checkpoint at `path` (which must have been written by a campaign with
    /// the same fingerprint: same network, seed, sampling plan). Cells are
    /// deterministic in (seed, node, category), so the combined result is
    /// bit-identical to an uninterrupted run. A missing file simply runs the
    /// whole campaign; progress keeps being checkpointed to the spec's
    /// configured path, or to `path` when none is configured.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Campaign`] on a fingerprint mismatch or corrupt
    /// checkpoint, and for an exhausted failure budget as in
    /// [`CampaignRunner::run`].
    pub fn resume_from(&self, path: &Path) -> Result<CampaignResult, DnnError> {
        self.execute(Some(path), self.spec.threads)
    }

    fn plans(&self) -> Vec<CellPlan> {
        let mac_nodes: Vec<usize> = (0..self.engine.network().node_count())
            .filter(|&i| self.engine.mac_spec(i, self.trace).is_some())
            .collect();
        let mut plans = Vec::new();
        for &node in &mac_nodes {
            for (category, _) in self.accel.census.iter() {
                if let Some(model) = model_for(category, self.accel) {
                    plans.push(CellPlan {
                        node,
                        category,
                        model,
                    });
                }
            }
        }
        plans
    }

    fn execute(&self, resume_path: Option<&Path>, jobs: usize) -> Result<CampaignResult, DnnError> {
        if self.spec.adaptive.is_some() {
            return self.execute_adaptive(resume_path, jobs);
        }
        let spec = &self.spec;
        let plans = self.plans();
        let plan_ids: Vec<(usize, FfCategory)> =
            plans.iter().map(|p| (p.node, p.category)).collect();
        let fingerprint = campaign_fingerprint(spec, self.engine.network().name(), &plan_ids);

        // Load previously completed cells, when resuming.
        let mut loaded: Vec<Option<CellStats>> = (0..plans.len()).map(|_| None).collect();
        if let Some(path) = resume_path {
            if path.exists() {
                let file = File::open(path).map_err(|e| DnnError::Campaign {
                    message: format!("cannot open checkpoint {}: {e}", path.display()),
                })?;
                let parsed = parse_checkpoint(BufReader::new(file))?;
                if parsed.fingerprint != fingerprint {
                    return Err(DnnError::Campaign {
                        message: format!(
                            "checkpoint {} belongs to a different campaign \
                             (fingerprint {:016x}, expected {:016x})",
                            path.display(),
                            parsed.fingerprint,
                            fingerprint
                        ),
                    });
                }
                for (idx, stats) in parsed.cells {
                    let plan = plans.get(idx).ok_or_else(|| DnnError::Campaign {
                        message: format!("checkpoint cell index {idx} out of range"),
                    })?;
                    if stats.node != plan.node || stats.category != plan.category {
                        return Err(DnnError::Campaign {
                            message: format!(
                                "checkpoint cell {idx} does not match the plan \
                                 (node {}, {})",
                                plan.node, plan.category
                            ),
                        });
                    }
                    loaded[idx] = Some(stats);
                }
            }
        }

        // Telemetry: the campaign lifecycle is traced, counted, and (when
        // asked for) rendered live. All of it is a no-op without a sink or
        // `spec.progress`.
        let campaign_sw = clock::Stopwatch::start_if(timing_enabled());
        let metrics = CampaignMetrics::handles();
        let net = self.engine.network().name().to_owned();
        let restored = loaded.iter().filter(|c| c.is_some()).count();
        let workers = jobs.clamp(1, plans.len().max(1));
        event!(
            "campaign.start",
            net = &net,
            cells = plans.len(),
            samples_per_cell = spec.samples_per_cell,
            seed = spec.seed,
            threads = workers,
        );
        let progress = spec.progress.as_ref().map(|p| {
            CampaignProgress::new(
                net.clone(),
                p,
                plans.len(),
                spec.samples_per_cell,
                spec.resilience.failure_budget,
            )
        });
        // Per-job trace outlet: when a service attached a sink to the
        // progress spec (the daemon's per-job trace file), lifecycle events
        // are mirrored there in addition to the global trace sink. The sink
        // stamps its own identity fields (trace id, job id, pid).
        let job_sink = spec.progress.as_ref().and_then(|p| p.sink.clone());
        let mirror = |name: &str, fields: &[Field<'_>]| {
            if let Some(h) = &job_sink {
                trace::record_now(h.sink(), name, fields);
            }
        };
        mirror(
            "campaign.start",
            &[
                ("net", Value::Str(&net)),
                ("cells", Value::U64(plans.len() as u64)),
                ("threads", Value::U64(workers as u64)),
            ],
        );
        if restored > 0 {
            // A resumed campaign announces where it picks up instead of
            // silently restarting the display from zero.
            event!(
                "campaign.resume",
                net = &net,
                restored = restored,
                remaining = plans.len() - restored,
            );
            if let Some(p) = &progress {
                p.set_restored(restored);
            }
            mirror(
                "campaign.resume",
                &[
                    ("restored", Value::U64(restored as u64)),
                    ("remaining", Value::U64((plans.len() - restored) as u64)),
                ],
            );
        }

        // Open the checkpoint for writing: the configured path, else the
        // explicit resume path. The file is rewritten from the loaded cells
        // so a torn tail from the previous process does not linger.
        let ckpt_path = spec
            .resilience
            .checkpoint
            .as_ref()
            .map(|c| c.path.as_path())
            .or(resume_path);
        let interval = spec
            .resilience
            .checkpoint
            .as_ref()
            .map_or(1, |c| c.interval_cells.max(1));
        let ckpt: Option<Mutex<OrderedCommit>> = match ckpt_path {
            Some(path) => Some(Mutex::new(open_checkpoint(
                path,
                fingerprint,
                interval,
                &loaded,
            )?)),
            None => None,
        };

        let abort = AtomicBool::new(false);
        let failure_count = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<CellStats>>> = Mutex::new(loaded);
        let failures: Mutex<Vec<(usize, CellFailure)>> = Mutex::new(Vec::new());
        let errors: Mutex<Vec<DnnError>> = Mutex::new(Vec::new());
        let fatal = |e: DnnError| {
            lock(&errors).push(e);
            abort.store(true, Ordering::Relaxed);
        };
        // Records a cell's verdict in the ordered commit buffer: `Some` is a
        // completed cell to persist, `None` a failed (or restored) one the
        // cursor must skip. Either way the cursor only moves in plan order,
        // so the checkpoint bytes cannot depend on scheduling.
        let commit = |idx: usize, entry: Option<CellStats>| {
            if let Some(state) = &ckpt {
                match lock(state).commit(idx, entry) {
                    Ok(receipt) => {
                        for &widx in &receipt.written {
                            event!("checkpoint.cell", idx = widx, node = plans[widx].node);
                        }
                        if receipt.flushed {
                            event!("checkpoint.flush", upto = idx);
                        }
                    }
                    Err(e) => fatal(e),
                }
            }
        };

        let max_attempts = spec.resilience.max_retries_per_cell + 1;
        let cancel = spec.resilience.cancel.as_ref();
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let pool = WorkStealPool::new(PoolSpec {
            workers,
            seed: spec.seed,
            plan: ShardPlan::Balanced,
            cancel: spec.resilience.cancel.clone(),
        });
        // One workspace per worker: injection tensors come from (and return
        // to) the worker's pool, so steady-state cells allocate nothing.
        // Workspaces never influence values, so sharding stays deterministic.
        // The worker index rides along so mirrored cell events attribute
        // work to a worker (the per-worker spans in `report --trace`).
        // Batched mode additionally installs the shared golden snapshot once
        // per worker, so every cell the worker runs takes the delta path.
        pool.run_with(
            plans.len(),
            |worker| {
                let mut ws = Workspace::new();
                ws.set_mac_tier(spec.mac_tier);
                if spec.batch > 0 {
                    ws.install_golden(golden_key(self.trace), &self.trace.node_outputs);
                }
                (worker, ws)
            },
            |state, idx| {
                let (worker, ws) = state;
                let worker = *worker as u64;
                // Advisory early-exit: a stale read runs at most one
                // extra cell; the abort's error state is sequenced by the
                // `errors` lock, not this flag.
                // statcheck:allow(relaxed-flag)
                if abort.load(Ordering::Relaxed) || cancelled() {
                    return;
                }
                if lock(&results)[idx].is_some() {
                    return; // restored from the checkpoint (pre-skipped at open)
                }
                let plan = &plans[idx];
                let cat = cat_code(plan.category);
                // Per-cell, not per-injection: a cell is hundreds of
                // injections, so the guard's cost stays off the hot path.
                let _cell_prof = prof::scope("campaign.run;campaign.cell");
                let cell_sw = clock::Stopwatch::start_if(timing_enabled());
                let mut last: Option<(CellStats, FailureReason)> = None;
                let mut completed = None;
                for attempt in 0..max_attempts {
                    // Each attempt restarts the cell's RNG stream, so a
                    // successful retry is bit-identical to a clean run.
                    let mut stats = self.fresh_cell(plan);
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        self.run_cell(&mut stats, plan, progress.as_ref(), &metrics, &mut *ws)
                    }));
                    match run {
                        Ok(Ok(())) => {
                            completed = Some(stats);
                            break;
                        }
                        Ok(Err(e)) => {
                            last = Some((stats, FailureReason::Error(e.to_string())));
                        }
                        Err(payload) => {
                            last = Some((stats, FailureReason::Panic(panic_text(&*payload))));
                        }
                    }
                    if attempt + 1 < max_attempts {
                        metrics.retries.inc();
                        if let Some(p) = &progress {
                            p.on_retry();
                        }
                        event!(
                            "cell.retry",
                            node = plan.node,
                            cat = &cat,
                            attempt = attempt + 1,
                            reason = last.as_ref().map_or("", |(_, r)| reason_kind(r)),
                        );
                        // Back off before the retry; the wait is derived from
                        // (seed, cell, retry) so the schedule replays exactly.
                        // A cancellation or abort cuts the wait short — the
                        // cell then lands on the failure path with its partial
                        // tally, like any cell that exhausted its attempts.
                        let wait = spec
                            .resilience
                            .retry_backoff
                            .delay(spec.seed, idx, attempt + 1);
                        // Advisory wake-early hint, same contract as the
                        // cell-entry abort check.
                        // statcheck:allow(relaxed-flag)
                        if !sleep_unless(wait, || abort.load(Ordering::Relaxed) || cancelled()) {
                            break;
                        }
                    }
                }
                match completed {
                    Some(stats) => {
                        event!(
                            "cell.done",
                            node = plan.node,
                            cat = &cat,
                            samples = stats.samples,
                            masked = stats.masked,
                            output_error = stats.output_error,
                            anomaly = stats.anomaly,
                            elapsed_us = cell_sw.elapsed_us().unwrap_or(0),
                        );
                        metrics.cells_done.inc();
                        if let Some(p) = &progress {
                            p.on_cell_done();
                        }
                        mirror(
                            "cell.done",
                            &[
                                ("node", Value::U64(plan.node as u64)),
                                ("cat", Value::Str(&cat)),
                                ("samples", Value::U64(stats.samples as u64)),
                                ("masked", Value::U64(stats.masked as u64)),
                                ("worker", Value::U64(worker)),
                                ("dur_us", Value::U64(cell_sw.elapsed_us().unwrap_or(0))),
                            ],
                        );
                        commit(idx, Some(stats.clone()));
                        lock(&results)[idx] = Some(stats);
                    }
                    None => {
                        // Unreachable fallback: `last` is always set when
                        // no attempt completed (max_attempts >= 1).
                        let (partial, reason) = last.unwrap_or_else(|| {
                            (
                                self.fresh_cell(plan),
                                FailureReason::Error("cell never ran".into()),
                            )
                        });
                        let failed_so_far = failure_count.fetch_add(1, Ordering::Relaxed) + 1;
                        event!(
                            "cell.failed",
                            node = plan.node,
                            cat = &cat,
                            attempts = max_attempts,
                            samples = partial.samples,
                            reason = reason_kind(&reason),
                        );
                        if let Some(p) = &progress {
                            p.on_cell_failed();
                        }
                        mirror(
                            "cell.failed",
                            &[
                                ("node", Value::U64(plan.node as u64)),
                                ("cat", Value::Str(&cat)),
                                ("reason", Value::Str(reason_kind(&reason))),
                                ("worker", Value::U64(worker)),
                                ("dur_us", Value::U64(cell_sw.elapsed_us().unwrap_or(0))),
                            ],
                        );
                        lock(&failures).push((
                            idx,
                            CellFailure {
                                node: plan.node,
                                layer: partial.layer.clone(),
                                category: plan.category,
                                attempts: max_attempts,
                                samples_completed: partial.samples,
                                reason,
                            },
                        ));
                        // The degraded cell keeps its partial tally: fewer
                        // samples simply widen its Wilson interval. The ordered
                        // commit records a skip (no bytes), so a resumed
                        // campaign retries the cell.
                        commit(idx, None);
                        lock(&results)[idx] = Some(partial);
                        // Exactly one worker observes the count crossing the
                        // budget — the one whose `fetch_add` lands on budget + 1
                        // — so the abort fires once with a message that does not
                        // depend on how many other cells failed concurrently.
                        if failed_so_far == spec.resilience.failure_budget + 1 {
                            fatal(DnnError::Campaign {
                                message: format!(
                                    "failure budget exhausted: {failed_so_far} cells \
                                 failed (budget {})",
                                    spec.resilience.failure_budget
                                ),
                            });
                        }
                    }
                }
            },
        );

        if let Some(state) = &ckpt {
            let mut st = lock(state);
            // The checkpoint writer IS the guarded resource; flushing
            // under the lock is what keeps the file's record stream
            // append-ordered with committing workers.
            // statcheck:allow(block-under-lock)
            if let Err(e) = st.writer.flush() {
                lock(&errors).push(DnnError::Campaign {
                    message: format!("checkpoint flush failed: {e}"),
                });
            } else {
                event!("checkpoint.flush", upto = plans.len());
            }
        }
        // The progress line terminates even on the error path, so an aborted
        // campaign does not leave a torn `\r` line on the terminal.
        if let Some(p) = &progress {
            p.finish();
        }
        if cancelled() {
            // Cells finished before the token fired were committed above, so
            // the checkpoint left behind resumes cleanly. A token that fired
            // after the last cell completed is a no-op: the run is whole.
            let done = lock(&results).iter().filter(|c| c.is_some()).count();
            if done < plans.len() {
                event!(
                    "campaign.cancel",
                    net = &net,
                    done = done,
                    total = plans.len()
                );
                return Err(DnnError::Campaign {
                    message: format!("campaign cancelled after {done}/{} cells", plans.len()),
                });
            }
        }
        if let Some(e) = lock(&errors).first() {
            event!("campaign.abort", net = &net, error = &e.to_string());
            mirror("campaign.abort", &[("error", Value::Str(&e.to_string()))]);
            return Err(e.clone());
        }
        let mut cells = Vec::with_capacity(plans.len());
        for (idx, slot) in results
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .enumerate()
        {
            cells.push(slot.ok_or_else(|| DnnError::Campaign {
                message: format!("internal: cell {idx} never ran"),
            })?);
        }
        // Failures were pushed in completion order, which depends on
        // scheduling; reporting them in plan order keeps the result (and
        // anything diffing it) deterministic across worker counts.
        let mut indexed_failures = failures
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        indexed_failures.sort_by_key(|&(idx, _)| idx);
        let fast_divergence = self.measure_fast_divergence(&plans, &net);
        let result = CampaignResult {
            cells,
            failures: indexed_failures.into_iter().map(|(_, f)| f).collect(),
            fast_divergence,
            certificate: None,
        };
        let (masked, output_error, anomaly) = result.cells.iter().fold((0, 0, 0), |acc, c| {
            (acc.0 + c.masked, acc.1 + c.output_error, acc.2 + c.anomaly)
        });
        event!(
            "campaign.finish",
            net = &net,
            cells = result.cells.len(),
            injections = result.total_samples(),
            masked = masked,
            output_error = output_error,
            anomaly = anomaly,
            failures = result.failures.len(),
            elapsed_us = campaign_sw.elapsed_us().unwrap_or(0),
        );
        mirror(
            "campaign.finish",
            &[
                ("cells", Value::U64(result.cells.len() as u64)),
                ("injections", Value::U64(result.total_samples() as u64)),
                ("masked", Value::U64(masked as u64)),
                ("failures", Value::U64(result.failures.len() as u64)),
                (
                    "elapsed_us",
                    Value::U64(campaign_sw.elapsed_us().unwrap_or(0)),
                ),
            ],
        );
        Ok(result)
    }

    fn fresh_cell(&self, plan: &CellPlan) -> CellStats {
        CellStats {
            node: plan.node,
            layer: self.engine.network().layer(plan.node).name().to_owned(),
            category: plan.category,
            model: plan.model,
            samples: 0,
            masked: 0,
            output_error: 0,
            anomaly: 0,
            events: Vec::new(),
        }
    }

    /// Runs one cell's injection loop into `stats`. The tally is passed in
    /// by reference so a panic mid-loop leaves the samples completed so far
    /// observable to the caller's recovery path.
    fn run_cell(
        &self,
        stats: &mut CellStats,
        plan: &CellPlan,
        progress: Option<&CampaignProgress>,
        metrics: &CampaignMetrics,
        ws: &mut Workspace,
    ) -> Result<(), DnnError> {
        let spec = &self.spec;
        // Global control needs no simulation: Prob_SWmask is 0 by definition.
        if matches!(plan.model, SoftwareFaultModel::GlobalControl) {
            stats.samples = spec.samples_per_cell;
            stats.anomaly = spec.samples_per_cell;
            metrics.injections.add(spec.samples_per_cell as u64);
            if let Some(p) = progress {
                for _ in 0..spec.samples_per_cell {
                    p.on_injection(CategoryKind::GlobalControl, OutcomeKind::Anomaly);
                }
            }
            return Ok(());
        }
        let kind = category_kind(plan.category);
        let chaos = spec
            .resilience
            .chaos
            .iter()
            .find(|c| c.node == plan.node && c.category == plan.category);
        let mut rng = SplitMix64::new(
            spec.seed
                ^ (plan.node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ cat_tag(plan.category),
        );
        // Adaptive stopping checks the CI every `batch` samples, with a
        // minimum sample floor so a lucky streak cannot end a cell after a
        // handful of injections.
        const ADAPTIVE_BATCH: usize = 50;
        const ADAPTIVE_FLOOR: usize = 100;
        // Batched fault-cone evaluation: the delta path engages whenever the
        // worker's workspace holds a golden snapshot matching this trace.
        // The snapshot is re-ensured on the batch cadence (and at sample 0,
        // so a retried cell recovers immediately) — a panic that lost the
        // loaned overlay costs at most `batch - 1` dense fallback resumes
        // before the snapshot is reinstalled.
        let golden = (spec.batch > 0).then(|| golden_key(self.trace));
        for i in 0..spec.samples_per_cell {
            if let Some(key) = golden {
                if i % spec.batch == 0 && ws.golden_key() != Some(key) {
                    ws.install_golden(key, &self.trace.node_outputs);
                }
            }
            if let Some(target) = spec.target_ci_halfwidth {
                if i >= ADAPTIVE_FLOOR && i % ADAPTIVE_BATCH == 0 {
                    let (lo, hi) = wilson_interval(stats.masked, stats.samples);
                    if (hi - lo) / 2.0 <= target {
                        break;
                    }
                }
            }
            // The watchdog clock starts before any chaos delay: a slow
            // injection and a stalled one are indistinguishable to it. Time
            // comes from the obs clock — the workspace's one sanctioned
            // wall-clock site — and never feeds campaign statistics.
            let deadline = spec.resilience.injection_deadline.map(|d| clock::now() + d);
            apply_chaos(chaos, i, plan.node, plan.category);
            let inj_sw = clock::Stopwatch::start_if(timing_enabled());
            let inj = inject_once_pooled(
                self.engine,
                self.trace,
                plan.node,
                plan.model,
                self.metric,
                &mut rng,
                deadline,
                ws,
            )?;
            metrics.injection_ns.record_opt(inj_sw.elapsed_ns());
            metrics.injections.inc();
            stats.samples += 1;
            match inj.outcome {
                Outcome::Masked => stats.masked += 1,
                Outcome::OutputError => stats.output_error += 1,
                Outcome::SystemAnomaly => stats.anomaly += 1,
            }
            if inj.watchdog {
                metrics.watchdog.inc();
                event!("watchdog.fired", node = plan.node, sample = i);
                if let Some(p) = progress {
                    p.on_watchdog();
                }
            }
            if let Some(p) = progress {
                p.on_injection(kind, outcome_kind(inj.outcome));
            }
            if spec.record_events {
                stats.events.push(InjectionEvent {
                    faulty_neurons: inj.faulty_neurons,
                    max_perturbation: inj.max_perturbation,
                    outcome: inj.outcome,
                });
            }
        }
        Ok(())
    }

    /// Fast tier only: measure (not estimate) the worst-case kernel
    /// divergence once per MAC layer, so the campaign reports exactly how
    /// far its arithmetic strayed from the bitwise oracle on this workload.
    fn measure_fast_divergence(&self, plans: &[CellPlan], net: &str) -> Option<f32> {
        (self.spec.mac_tier == MacTier::Fast).then(|| {
            let mut worst = 0.0f32;
            let mut prev = None;
            for plan in plans {
                if prev == Some(plan.node) {
                    continue; // one measurement per node, not per category
                }
                prev = Some(plan.node);
                if let Some(d) = node_fast_divergence(self.engine, self.trace, plan.node) {
                    worst = worst.max(d);
                }
            }
            event!(
                "campaign.fast_divergence",
                net = net,
                divergence = f64::from(worst),
            );
            worst
        })
    }

    /// The adaptive (confidence-driven) execution path: wave-based
    /// sequential sampling over per-(node × category) strata, Neyman
    /// allocation by uncertainty contribution, `fidelity-ackpt v1`
    /// checkpointing at every wave barrier, and a confidence certificate on
    /// completion. Dispatched from [`CampaignRunner::run`] when
    /// `spec.adaptive` is set.
    #[allow(clippy::too_many_lines)] // one linear pipeline: setup, resume, wave loop, certificate
    fn execute_adaptive(
        &self,
        resume_path: Option<&Path>,
        jobs: usize,
    ) -> Result<CampaignResult, DnnError> {
        let _prof = prof::scope("campaign.adaptive");
        let spec = &self.spec;
        let bad = |message: String| DnnError::Campaign { message };
        let Some(aplan) = spec.adaptive.clone() else {
            return Err(bad("adaptive execution requires spec.adaptive".into()));
        };
        let z = aplan.validated_z()?;
        if spec.record_events {
            return Err(bad(
                "adaptive campaigns do not record per-injection events \
                 (strata sizes are data-dependent); drop record_events"
                    .into(),
            ));
        }
        if spec.target_ci_halfwidth.is_some() {
            return Err(bad(
                "target_ci_halfwidth (per-cell stopping) and the adaptive plan \
                 (campaign-level stopping) are mutually exclusive"
                    .into(),
            ));
        }
        let plans = self.plans();
        let plan_ids: Vec<(usize, FfCategory)> =
            plans.iter().map(|p| (p.node, p.category)).collect();
        let fingerprint = campaign_fingerprint(spec, self.engine.network().name(), &plan_ids);
        let weights = stratum_weights(self.engine, self.trace, self.accel, &plan_ids);
        let strata: Vec<StratumMeta> = plans
            .iter()
            .zip(&weights)
            .map(|(p, &weight)| StratumMeta {
                node: p.node,
                category: p.category,
                model: p.model,
                weight,
                layer: self.engine.network().layer(p.node).name().to_owned(),
            })
            .collect();

        // Each stratum owns the same derived RNG stream a fixed-count cell
        // would: its first k samples are bit-identical to the fixed path's.
        let mut states: Vec<StratumTally> = plans
            .iter()
            .map(|p| {
                StratumTally::fresh(
                    spec.seed
                        ^ (p.node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ cat_tag(p.category),
                )
            })
            .collect();
        let mut committed: Vec<WaveBlock> = Vec::new();
        let mut failures: Vec<(usize, CellFailure)> = Vec::new();
        let mut resumed_footer: Option<CertFooter> = None;

        // Resume: replay every committed wave into the tallies. The RNG
        // stream state rides in the rows, so sampling continues mid-stream
        // exactly where the killed process stopped.
        if let Some(path) = resume_path {
            if path.exists() {
                let file = File::open(path)
                    .map_err(|e| bad(format!("cannot open checkpoint {}: {e}", path.display())))?;
                let parsed = parse_adaptive_checkpoint(BufReader::new(file))?;
                if parsed.fingerprint != fingerprint {
                    return Err(bad(format!(
                        "checkpoint {} belongs to a different campaign \
                         (fingerprint {:016x}, expected {:016x})",
                        path.display(),
                        parsed.fingerprint,
                        fingerprint
                    )));
                }
                if parsed.epsilon_bits != aplan.epsilon.to_bits()
                    || parsed.confidence_bits != aplan.confidence.to_bits()
                    || parsed.max_injections != aplan.max_injections
                    || parsed.floor != WAVE_FLOOR
                {
                    return Err(bad(format!(
                        "checkpoint {} was written by a different adaptive plan",
                        path.display()
                    )));
                }
                if parsed.strata.len() != strata.len()
                    || parsed.strata.iter().zip(&strata).any(|((m, wbits), mine)| {
                        m.node != mine.node
                            || m.category != mine.category
                            || *wbits != mine.weight.to_bits()
                    })
                {
                    return Err(bad(format!(
                        "checkpoint {} stratum table does not match the plan",
                        path.display()
                    )));
                }
                for block in &parsed.waves {
                    for (idx, row) in &block.rows {
                        let state = states.get_mut(*idx).ok_or_else(|| {
                            bad(format!(
                                "corrupt adaptive checkpoint: stratum {idx} out of range"
                            ))
                        })?;
                        if state.frozen || row.samples < state.samples {
                            return Err(bad(format!(
                                "corrupt adaptive checkpoint: stratum {idx} tally regressed"
                            )));
                        }
                        *state = StratumTally {
                            samples: row.samples,
                            masked: row.masked,
                            output_error: row.output_error,
                            anomaly: row.anomaly,
                            rng_state: row.rng_state,
                            frozen: false,
                        };
                    }
                    for f in &block.fails {
                        let meta = strata.get(f.stratum).ok_or_else(|| {
                            bad(format!(
                                "corrupt adaptive checkpoint: failed stratum {} out of range",
                                f.stratum
                            ))
                        })?;
                        states[f.stratum].frozen = true;
                        let reason = if f.kind == "panic" {
                            FailureReason::Panic(f.message.clone())
                        } else {
                            FailureReason::Error(f.message.clone())
                        };
                        failures.push((
                            f.stratum,
                            CellFailure {
                                node: meta.node,
                                layer: meta.layer.clone(),
                                category: meta.category,
                                attempts: f.attempts,
                                samples_completed: states[f.stratum].samples,
                                reason,
                            },
                        ));
                    }
                }
                committed = parsed.waves;
                resumed_footer = parsed.footer;
            }
        }

        // Telemetry (same shape as the fixed path).
        let campaign_sw = clock::Stopwatch::start_if(timing_enabled());
        let metrics = CampaignMetrics::handles();
        let net = self.engine.network().name().to_owned();
        let workers = jobs.clamp(1, plans.len().max(1));
        event!(
            "campaign.start",
            net = &net,
            cells = plans.len(),
            adaptive = true,
            epsilon = aplan.epsilon,
            seed = spec.seed,
            threads = workers,
        );
        let progress = spec.progress.as_ref().map(|p| {
            CampaignProgress::new(
                net.clone(),
                p,
                plans.len(),
                aplan.max_injections / plans.len().max(1),
                spec.resilience.failure_budget,
            )
        });
        let job_sink = spec.progress.as_ref().and_then(|p| p.sink.clone());
        let mirror = |name: &str, fields: &[Field<'_>]| {
            if let Some(h) = &job_sink {
                trace::record_now(h.sink(), name, fields);
            }
        };
        mirror(
            "campaign.start",
            &[
                ("net", Value::Str(&net)),
                ("cells", Value::U64(plans.len() as u64)),
                ("adaptive", Value::U64(1)),
                ("threads", Value::U64(workers as u64)),
            ],
        );
        if !committed.is_empty() {
            event!(
                "campaign.resume",
                net = &net,
                waves = committed.len(),
                injections = states.iter().map(|t| t.samples).sum::<usize>(),
            );
        }

        // Canonical rewrite: the checkpoint is recreated from the replayed
        // blocks, so a torn tail from the previous process never lingers and
        // resumed files stay bit-identical to uninterrupted ones.
        let ckpt_path = spec
            .resilience
            .checkpoint
            .as_ref()
            .map(|c| c.path.as_path())
            .or(resume_path);
        let io_err = |what: &str, e: std::io::Error| DnnError::Campaign {
            message: format!("adaptive checkpoint {what} failed: {e}"),
        };
        let mut ckpt: Option<BufWriter<File>> = match ckpt_path {
            Some(path) => {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)
                            .map_err(|e| io_err("directory creation", e))?;
                    }
                }
                let file = File::create(path).map_err(|e| io_err("creation", e))?;
                let mut w = BufWriter::new(file);
                write_adaptive_header(&mut w, fingerprint, &aplan, WAVE_FLOOR, &strata)
                    .map_err(|e| io_err("header write", e))?;
                for block in &committed {
                    write_wave(&mut w, block).map_err(|e| io_err("wave write", e))?;
                }
                w.flush().map_err(|e| io_err("flush", e))?;
                Some(w)
            }
            None => None,
        };

        let max_attempts = spec.resilience.max_retries_per_cell + 1;
        let cancel = spec.resilience.cancel.as_ref();
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let pool = WorkStealPool::new(PoolSpec {
            workers,
            seed: spec.seed,
            plan: ShardPlan::Balanced,
            cancel: spec.resilience.cancel.clone(),
        });
        let gauge_resolved = fidelity_obs::metrics::gauge("campaign.strata_resolved");
        let gauge_total = fidelity_obs::metrics::gauge("campaign.strata_total");
        // Strata that can ever carry uncertainty: sampled with nonzero
        // weight. Display-only denominator for the convergence readout.
        let display_total = strata
            .iter()
            .filter(|m| m.sampled() && m.weight > 0.0)
            .count();
        gauge_total.set(display_total as i64);

        let mut wave = committed.len();
        let mut total_failures = failures.len();
        // A checkpoint that already carries its certificate footer is a
        // finished campaign: re-running waves would extend a sealed result.
        while resumed_footer.is_none() {
            let bounds: Vec<f64> = strata
                .iter()
                .zip(&states)
                .map(|(m, t)| stratum_terms(m.weight, t.masked, t.samples, z, m.sampled()).3)
                .collect();
            let total_bound: f64 = bounds.iter().sum();
            // Display-only convergence readout: a stratum counts as resolved
            // once its share of the bound is below its even split of ε.
            let resolved = (0..strata.len())
                .filter(|&i| {
                    strata[i].sampled()
                        && strata[i].weight > 0.0
                        && bounds[i] <= aplan.epsilon / display_total.max(1) as f64
                })
                .count();
            gauge_resolved.set(resolved as i64);
            if let Some(p) = &progress {
                p.set_strata(resolved, display_total);
            }
            if total_bound <= aplan.epsilon {
                break; // converged
            }
            let total: usize = states.iter().map(|t| t.samples).sum();
            let headroom = aplan.max_injections.saturating_sub(total);
            if headroom == 0 {
                break; // cap reached: honest non-converged certificate
            }
            let growable: Vec<usize> = (0..strata.len())
                .filter(|&i| strata[i].sampled() && !states[i].frozen && bounds[i] > 0.0)
                .collect();
            if growable.is_empty() {
                break; // every live stratum is exact; frozen ones hold the bound up
            }
            // Wave 0 lays an even floor; later waves spend half the total so
            // far (amortizing the re-estimation) proportionally to each
            // stratum's uncertainty contribution.
            let quotas = if wave == 0 {
                let budget = (WAVE_FLOOR * growable.len()).min(headroom);
                allocate_even(budget, &growable, spec.seed, wave)
            } else {
                let budget = (total / 2).max(WAVE_MIN_BUDGET).min(headroom);
                let weighted: Vec<(usize, f64)> =
                    growable.iter().map(|&i| (i, bounds[i])).collect();
                allocate_neyman(budget, &weighted, spec.seed, wave)
            };
            if quotas.is_empty() {
                break;
            }
            event!(
                "campaign.wave",
                net = &net,
                wave = wave,
                strata = quotas.len(),
                budget = quotas.iter().map(|&(_, q)| q).sum::<usize>(),
                bound = total_bound,
            );
            mirror(
                "campaign.wave",
                &[
                    ("wave", Value::U64(wave as u64)),
                    ("strata", Value::U64(quotas.len() as u64)),
                ],
            );

            // Run the wave. Tasks read the committed tallies immutably and
            // publish into their own slot; the coordinator folds the slots
            // back in stratum order at the barrier, so nothing about the
            // result depends on scheduling.
            let outcomes: Vec<Mutex<Option<WaveOutcome>>> =
                quotas.iter().map(|_| Mutex::new(None)).collect();
            let states_ref = &states;
            pool.run_with(
                quotas.len(),
                |worker| {
                    let mut ws = Workspace::new();
                    ws.set_mac_tier(spec.mac_tier);
                    if spec.batch > 0 {
                        ws.install_golden(golden_key(self.trace), &self.trace.node_outputs);
                    }
                    (worker, ws)
                },
                |state, tidx| {
                    let (_worker, ws) = state;
                    if cancelled() {
                        return;
                    }
                    let (sidx, quota) = quotas[tidx];
                    let plan = &plans[sidx];
                    let cat = cat_code(plan.category);
                    let snapshot = states_ref[sidx].clone();
                    let mut last: Option<FailureReason> = None;
                    let mut done = None;
                    for attempt in 0..max_attempts {
                        // Each attempt restarts from the committed snapshot,
                        // so a successful retry is bit-identical to a clean
                        // first run of the wave.
                        let mut tally = snapshot.clone();
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            self.run_stratum_quota(
                                &mut tally,
                                plan,
                                quota,
                                progress.as_ref(),
                                &metrics,
                                &mut *ws,
                            )
                        }));
                        match run {
                            Ok(Ok(())) => {
                                done = Some(tally);
                                break;
                            }
                            Ok(Err(e)) => last = Some(FailureReason::Error(e.to_string())),
                            Err(payload) => {
                                last = Some(FailureReason::Panic(panic_text(&*payload)));
                            }
                        }
                        if attempt + 1 < max_attempts {
                            metrics.retries.inc();
                            if let Some(p) = &progress {
                                p.on_retry();
                            }
                            event!(
                                "cell.retry",
                                node = plan.node,
                                cat = &cat,
                                attempt = attempt + 1,
                                reason = last.as_ref().map_or("", reason_kind),
                            );
                            let wait =
                                spec.resilience
                                    .retry_backoff
                                    .delay(spec.seed, sidx, attempt + 1);
                            if !sleep_unless(wait, cancelled) {
                                break;
                            }
                        }
                    }
                    let outcome = match done {
                        Some(tally) => WaveOutcome::Done(tally),
                        None => WaveOutcome::Failed {
                            attempts: max_attempts,
                            reason: last.unwrap_or_else(|| {
                                FailureReason::Error("stratum never ran".into())
                            }),
                        },
                    };
                    *lock(&outcomes[tidx]) = Some(outcome);
                },
            );

            // Fold the wave at the barrier, in stratum order.
            let mut block = WaveBlock {
                index: wave,
                rows: Vec::new(),
                fails: Vec::new(),
            };
            let mut incomplete = false;
            for (tidx, &(sidx, _)) in quotas.iter().enumerate() {
                match lock(&outcomes[tidx]).take() {
                    None => incomplete = true,
                    Some(WaveOutcome::Done(tally)) => {
                        block.rows.push((
                            sidx,
                            StratumRow {
                                samples: tally.samples,
                                masked: tally.masked,
                                output_error: tally.output_error,
                                anomaly: tally.anomaly,
                                rng_state: tally.rng_state,
                            },
                        ));
                        states[sidx] = tally;
                    }
                    Some(WaveOutcome::Failed { attempts, reason }) => {
                        // The stratum freezes with its pre-wave tally: the
                        // lost wave's partial samples are discarded (they
                        // were never committed), its Wilson interval simply
                        // stays at the committed width.
                        states[sidx].frozen = true;
                        total_failures += 1;
                        let meta = &strata[sidx];
                        event!(
                            "cell.failed",
                            node = meta.node,
                            cat = &cat_code(meta.category),
                            attempts = attempts,
                            samples = states[sidx].samples,
                            reason = reason_kind(&reason),
                        );
                        if let Some(p) = &progress {
                            p.on_cell_failed();
                        }
                        block.fails.push(WaveFail {
                            stratum: sidx,
                            attempts,
                            kind: reason_kind(&reason).to_owned(),
                            message: match &reason {
                                FailureReason::Error(m) | FailureReason::Panic(m) => m.clone(),
                            },
                        });
                        failures.push((
                            sidx,
                            CellFailure {
                                node: meta.node,
                                layer: meta.layer.clone(),
                                category: meta.category,
                                attempts,
                                samples_completed: states[sidx].samples,
                                reason,
                            },
                        ));
                    }
                }
            }
            if incomplete {
                // Cancelled mid-wave: nothing of this wave is committed, so
                // the checkpoint on disk resumes from the last barrier.
                if let Some(p) = &progress {
                    p.finish();
                }
                let total: usize = states.iter().map(|t| t.samples).sum();
                event!(
                    "campaign.cancel",
                    net = &net,
                    waves = wave,
                    injections = total
                );
                return Err(bad(format!(
                    "adaptive campaign cancelled after {wave} waves ({total} injections)"
                )));
            }
            if let Some(w) = &mut ckpt {
                write_wave(w, &block).map_err(|e| io_err("wave write", e))?;
                w.flush().map_err(|e| io_err("flush", e))?;
            }
            wave += 1;
            if total_failures > spec.resilience.failure_budget {
                if let Some(p) = &progress {
                    p.finish();
                }
                return Err(bad(format!(
                    "failure budget exhausted: {total_failures} cells failed (budget {})",
                    spec.resilience.failure_budget
                )));
            }
        }

        // Build the certificate with the exact arithmetic the offline
        // verifier replays, so `statcheck --cert` compares bit-for-bit.
        let tallies: Vec<(usize, usize)> = states.iter().map(|t| (t.samples, t.masked)).collect();
        let cert = build_certificate(fingerprint, &aplan, z, &strata, &tallies, wave);
        if let Some(f) = &resumed_footer {
            // A complete checkpoint must agree with its own data when
            // recomputed — anything else is tampering or corruption.
            if cert.total_bound.to_bits() != f.total_bound.to_bits()
                || cert.total_injections != f.total_injections
                || cert.converged != f.converged
                || committed.len() != f.waves
            {
                return Err(bad(
                    "corrupt adaptive checkpoint: stored certificate does not match \
                     its own wave data"
                        .into(),
                ));
            }
        }
        if let Some(w) = &mut ckpt {
            write_cert_footer(
                w,
                &CertFooter {
                    total_bound: cert.total_bound,
                    total_injections: cert.total_injections,
                    waves: wave,
                    converged: cert.converged,
                },
            )
            .map_err(|e| io_err("certificate write", e))?;
            w.flush().map_err(|e| io_err("flush", e))?;
        }
        if let Some(p) = &progress {
            p.finish();
        }

        let cells: Vec<CellStats> = strata
            .iter()
            .zip(&states)
            .map(|(m, t)| CellStats {
                node: m.node,
                layer: m.layer.clone(),
                category: m.category,
                model: m.model,
                samples: t.samples,
                masked: t.masked,
                output_error: t.output_error,
                anomaly: t.anomaly,
                events: Vec::new(),
            })
            .collect();
        failures.sort_by_key(|&(idx, _)| idx);
        let fast_divergence = self.measure_fast_divergence(&plans, &net);
        let result = CampaignResult {
            cells,
            failures: failures.into_iter().map(|(_, f)| f).collect(),
            fast_divergence,
            certificate: Some(cert),
        };
        event!(
            "campaign.finish",
            net = &net,
            cells = result.cells.len(),
            injections = result.total_samples(),
            waves = wave,
            converged = result.certificate.as_ref().is_some_and(|c| c.converged),
            failures = result.failures.len(),
            elapsed_us = campaign_sw.elapsed_us().unwrap_or(0),
        );
        mirror(
            "campaign.finish",
            &[
                ("cells", Value::U64(result.cells.len() as u64)),
                ("injections", Value::U64(result.total_samples() as u64)),
                ("waves", Value::U64(wave as u64)),
                ("failures", Value::U64(result.failures.len() as u64)),
                (
                    "elapsed_us",
                    Value::U64(campaign_sw.elapsed_us().unwrap_or(0)),
                ),
            ],
        );
        Ok(result)
    }

    /// Runs one wave quota for one stratum, continuing its RNG stream from
    /// the committed tally. Sample indices are absolute (`tally.samples`
    /// counts from the stratum's birth), so chaos triggers and the golden
    /// re-ensure cadence line up with the fixed path's.
    fn run_stratum_quota(
        &self,
        tally: &mut StratumTally,
        plan: &CellPlan,
        quota: usize,
        progress: Option<&CampaignProgress>,
        metrics: &CampaignMetrics,
        ws: &mut Workspace,
    ) -> Result<(), DnnError> {
        let spec = &self.spec;
        let kind = category_kind(plan.category);
        let chaos = spec
            .resilience
            .chaos
            .iter()
            .find(|c| c.node == plan.node && c.category == plan.category);
        let mut rng = SplitMix64::new(tally.rng_state);
        let golden = (spec.batch > 0).then(|| golden_key(self.trace));
        for j in 0..quota {
            let i = tally.samples;
            if let Some(key) = golden {
                // `j == 0` additionally re-ensures at every wave entry: an
                // absolute index mid-batch must still find the snapshot.
                if (j == 0 || i.is_multiple_of(spec.batch)) && ws.golden_key() != Some(key) {
                    ws.install_golden(key, &self.trace.node_outputs);
                }
            }
            let deadline = spec.resilience.injection_deadline.map(|d| clock::now() + d);
            apply_chaos(chaos, i, plan.node, plan.category);
            let inj_sw = clock::Stopwatch::start_if(timing_enabled());
            let inj = inject_once_pooled(
                self.engine,
                self.trace,
                plan.node,
                plan.model,
                self.metric,
                &mut rng,
                deadline,
                ws,
            )?;
            metrics.injection_ns.record_opt(inj_sw.elapsed_ns());
            metrics.injections.inc();
            tally.samples += 1;
            match inj.outcome {
                Outcome::Masked => tally.masked += 1,
                Outcome::OutputError => tally.output_error += 1,
                Outcome::SystemAnomaly => tally.anomaly += 1,
            }
            if inj.watchdog {
                metrics.watchdog.inc();
                event!("watchdog.fired", node = plan.node, sample = i);
                if let Some(p) = progress {
                    p.on_watchdog();
                }
            }
            if let Some(p) = progress {
                p.on_injection(kind, outcome_kind(inj.outcome));
            }
        }
        tally.rng_state = rng.state();
        Ok(())
    }
}

/// The published result of one stratum's wave task: either the extended
/// tally, or a failure that freezes the stratum at its pre-wave snapshot.
enum WaveOutcome {
    Done(StratumTally),
    Failed {
        attempts: usize,
        reason: FailureReason,
    },
}

/// A campaign runner with an explicit worker count, sharding cells over the
/// `fidelity-par` work-stealing pool.
///
/// [`CampaignRunner`] already executes in parallel using `spec.threads`;
/// this façade is the entry point for callers that choose the degree of
/// parallelism at the call site (the CLI's `--jobs`, benchmarks sweeping
/// worker counts, determinism tests comparing job counts). The determinism
/// contract is identical either way: every cell derives its RNG stream from
/// `(campaign seed, cell id)` alone, all shared accounting is commutative,
/// and checkpoint records pass through the ordered commit buffer — so for
/// any `jobs` value the results and checkpoint bytes are bit-identical to a
/// serial run.
pub struct ParallelCampaignRunner<'a> {
    runner: CampaignRunner<'a>,
    jobs: usize,
}

impl std::fmt::Debug for ParallelCampaignRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Parallel{:?} jobs={}", self.runner, self.jobs)
    }
}

impl<'a> ParallelCampaignRunner<'a> {
    /// Binds a campaign to its inputs; the worker count starts at
    /// `spec.threads` and can be overridden with
    /// [`ParallelCampaignRunner::with_jobs`].
    pub fn new(
        engine: &'a Engine,
        trace: &'a Trace,
        accel: &'a AcceleratorConfig,
        metric: &'a dyn CorrectnessMetric,
        spec: CampaignSpec,
    ) -> Self {
        let jobs = spec.threads.max(1);
        ParallelCampaignRunner {
            runner: CampaignRunner::new(engine, trace, accel, metric, spec),
            jobs,
        }
    }

    /// Sets the worker count (min 1). Results do not depend on it.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The effective worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The bound spec.
    pub fn spec(&self) -> &CampaignSpec {
        self.runner.spec()
    }

    /// Runs the campaign on `jobs` workers; semantics are exactly
    /// [`CampaignRunner::run`].
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Campaign`] when the failure budget is exhausted
    /// or the checkpoint is unusable.
    pub fn run(&self) -> Result<CampaignResult, DnnError> {
        let resume = self
            .runner
            .spec
            .resilience
            .checkpoint
            .as_ref()
            .filter(|c| c.resume)
            .map(|c| c.path.clone());
        self.runner.execute(resume.as_deref(), self.jobs)
    }

    /// Resumes from `path` on `jobs` workers; semantics are exactly
    /// [`CampaignRunner::resume_from`].
    ///
    /// # Errors
    ///
    /// As for [`CampaignRunner::resume_from`].
    pub fn resume_from(&self, path: &Path) -> Result<CampaignResult, DnnError> {
        self.runner.execute(Some(path), self.jobs)
    }
}

/// Locks a mutex, recovering from poisoning: a worker that panicked inside
/// the runner's own bookkeeping (not the injection code, which unwinds
/// before any lock is taken) still leaves consistent per-cell data.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Short tag for trace events (full messages live in [`CellFailure`]).
fn reason_kind(reason: &FailureReason) -> &'static str {
    match reason {
        FailureReason::Error(_) => "error",
        FailureReason::Panic(_) => "panic",
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Sleeps for `total`, polling `interrupted` in short slices so a
/// cancellation or abort cuts a long backoff wait short. Returns `false`
/// when the wait was interrupted.
fn sleep_unless(total: std::time::Duration, interrupted: impl Fn() -> bool) -> bool {
    const SLICE: std::time::Duration = std::time::Duration::from_millis(5);
    let mut remaining = total;
    while !remaining.is_zero() {
        if interrupted() {
            return false;
        }
        let step = remaining.min(SLICE);
        std::thread::sleep(step);
        remaining -= step;
    }
    !interrupted()
}

/// Creates (or truncates) the checkpoint file, writes the header plus all
/// already-completed cells in plan-index order, and marks those indices as
/// pre-committed skips so the ordered cursor passes over them.
fn open_checkpoint(
    path: &Path,
    fingerprint: u64,
    interval: usize,
    completed: &[Option<CellStats>],
) -> Result<OrderedCommit, DnnError> {
    let io_err = |what: &str, e: std::io::Error| DnnError::Campaign {
        message: format!("checkpoint {what} failed for {}: {e}", path.display()),
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| io_err("directory creation", e))?;
        }
    }
    let file = File::create(path).map_err(|e| io_err("creation", e))?;
    let mut writer = BufWriter::new(file);
    write_header(&mut writer, fingerprint).map_err(|e| io_err("header write", e))?;
    let mut pending = BTreeMap::new();
    for (idx, cell) in completed.iter().enumerate() {
        if let Some(cell) = cell {
            write_cell(&mut writer, idx, cell).map_err(|e| io_err("cell write", e))?;
            pending.insert(idx, None);
        }
    }
    writer.flush().map_err(|e| io_err("flush", e))?;
    let mut state = OrderedCommit {
        writer,
        interval,
        unflushed: 0,
        cursor: 0,
        pending,
    };
    // Advance past any restored prefix right away; the loop writes nothing
    // (every entry is a skip), so no I/O error can surface here.
    while state.pending.remove(&state.cursor).is_some() {
        state.cursor += 1;
    }
    Ok(state)
}

fn cat_tag(category: FfCategory) -> u64 {
    use fidelity_accel::ff::{PipelineStage, VarType};
    match category {
        FfCategory::Datapath { stage, var } => {
            let s = match stage {
                PipelineStage::BeforeBuffer => 1u64,
                PipelineStage::BufferToMac => 2,
                PipelineStage::AfterMac => 3,
            };
            let v = match var {
                VarType::Input => 1u64,
                VarType::Weight => 2,
                VarType::Bias => 3,
                VarType::PartialSum => 4,
                VarType::Output => 5,
            };
            s * 31 + v
        }
        FfCategory::LocalControl => 1009,
        FfCategory::GlobalControl => 2003,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::TopOneMatch;
    use fidelity_accel::presets;
    use fidelity_dnn::graph::NetworkBuilder;
    use fidelity_dnn::init::uniform_tensor;
    use fidelity_dnn::layers::{Activation, ActivationKind, Conv2d, Dense, Flatten, GlobalAvgPool};
    use fidelity_dnn::precision::Precision;

    fn tiny_engine() -> (Engine, Trace) {
        let net = NetworkBuilder::new("clf")
            .input("x")
            .layer(
                Conv2d::new("conv", uniform_tensor(1, vec![4, 2, 3, 3], 0.6))
                    .unwrap()
                    .with_padding(1, 1),
                &["x"],
            )
            .unwrap()
            .layer(Activation::new("relu", ActivationKind::Relu), &["conv"])
            .unwrap()
            .layer(GlobalAvgPool::new("gap"), &["relu"])
            .unwrap()
            .layer(Flatten::new("flat"), &["gap"])
            .unwrap()
            .layer(
                Dense::new("fc", uniform_tensor(2, vec![5, 4], 0.6)).unwrap(),
                &["flat"],
            )
            .unwrap()
            .build()
            .unwrap();
        let engine = Engine::new(net, Precision::Fp16, &[]).unwrap();
        let x = uniform_tensor(3, vec![1, 2, 6, 6], 1.0);
        let trace = engine.trace(&[x]).unwrap();
        (engine, trace)
    }

    #[test]
    fn campaign_covers_all_cells() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let spec = CampaignSpec {
            samples_per_cell: 20,
            seed: 7,
            threads: 4,
            record_events: false,
            target_ci_halfwidth: None,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            mac_tier: MacTier::Bitwise,
            adaptive: None,
        };
        let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        // 2 MAC layers × 7 categories.
        assert_eq!(result.cells.len(), 14);
        assert_eq!(result.total_samples(), 14 * 20);
        for cell in &result.cells {
            assert_eq!(cell.masked + cell.output_error + cell.anomaly, cell.samples);
        }
    }

    #[test]
    fn campaign_is_reproducible_across_thread_counts() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let run = |threads: usize| {
            let spec = CampaignSpec {
                samples_per_cell: 30,
                seed: 99,
                threads,
                record_events: false,
                target_ci_halfwidth: None,
                resilience: Default::default(),
                progress: None,
                batch: 0,
                mac_tier: MacTier::Bitwise,
                adaptive: None,
            };
            run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec)
                .unwrap()
                .cells
                .iter()
                .map(|c| (c.node, c.masked, c.output_error, c.anomaly))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn global_cells_never_mask() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let spec = CampaignSpec {
            samples_per_cell: 5,
            seed: 1,
            threads: 2,
            record_events: false,
            target_ci_halfwidth: None,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            mac_tier: MacTier::Bitwise,
            adaptive: None,
        };
        let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        for cell in result
            .cells
            .iter()
            .filter(|c| c.category == FfCategory::GlobalControl)
        {
            assert_eq!(cell.prob_swmask(), 0.0);
            assert_eq!(cell.anomaly, cell.samples);
        }
    }

    #[test]
    fn adaptive_sampling_stops_early_on_tight_ci() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let fixed = CampaignSpec {
            samples_per_cell: 2000,
            seed: 21,
            threads: 2,
            record_events: false,
            target_ci_halfwidth: None,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            mac_tier: MacTier::Bitwise,
            adaptive: None,
        };
        let adaptive = CampaignSpec {
            target_ci_halfwidth: Some(0.08),
            ..fixed.clone()
        };
        let full = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &fixed).unwrap();
        let early = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &adaptive).unwrap();
        assert!(
            early.total_samples() < full.total_samples(),
            "adaptive should save samples: {} vs {}",
            early.total_samples(),
            full.total_samples()
        );
        // And the estimates agree within the combined CI slack.
        for (a, b) in early.cells.iter().zip(&full.cells) {
            assert_eq!(a.category, b.category);
            assert!(
                (a.prob_swmask() - b.prob_swmask()).abs() < 0.2,
                "{}: {} vs {}",
                a.category,
                a.prob_swmask(),
                b.prob_swmask()
            );
        }
    }

    /// Scratch path for checkpoint-writing tests; unique per test name and
    /// process so parallel test threads never collide.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fidelity-campaign-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Cancellation skips work, reports a distinct error, and leaves a
    /// checkpoint that resumes to the same bytes as an uninterrupted run.
    #[test]
    fn cancelled_campaign_errors_and_checkpoint_resumes_bit_identical() {
        use crate::resilience::CheckpointSpec;
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let base = |ckpt: CheckpointSpec, cancel: Option<CancelToken>| CampaignSpec {
            samples_per_cell: 12,
            seed: 23,
            threads: 2,
            record_events: true,
            target_ci_halfwidth: None,
            resilience: ResilienceSpec {
                checkpoint: Some(ckpt),
                cancel,
                ..ResilienceSpec::default()
            },
            progress: None,
            batch: 0,
            mac_tier: MacTier::Bitwise,
            adaptive: None,
        };

        let ref_path = scratch("cancel-ref.ckpt");
        let spec = base(CheckpointSpec::new(&ref_path), None);
        run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        let ref_bytes = std::fs::read(&ref_path).unwrap();
        std::fs::remove_file(&ref_path).ok();

        // A pre-fired token: every cell is skipped and the run reports
        // cancellation instead of fabricating results.
        let path = scratch("cancel-resume.ckpt");
        let token = CancelToken::new();
        token.cancel();
        let spec = base(CheckpointSpec::new(&path), Some(token));
        let err = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("cancelled after 0/"),
            "unexpected error: {err}"
        );

        // The checkpoint left behind (header only) resumes cleanly, and the
        // finished file is bit-identical to the uninterrupted run's.
        let spec = base(CheckpointSpec::resuming(&path), None);
        let resumed = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        assert!(resumed.failures.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), ref_bytes);
        std::fs::remove_file(&path).ok();
    }

    /// The first and last non-global cells of the plan, as chaos victims
    /// (global-control cells never reach the injection loop, so chaos cannot
    /// fire there).
    fn victim_pair(result: &CampaignResult) -> ((usize, FfCategory), (usize, FfCategory)) {
        let non_global: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.category != FfCategory::GlobalControl)
            .collect();
        let first = non_global.first().unwrap();
        let last = non_global.last().unwrap();
        ((first.node, first.category), (last.node, last.category))
    }

    /// Regression (serial-ordering bug): failures used to be reported in
    /// completion order, which depends on scheduling. They must come back in
    /// plan order for any worker count — even when the chaos specs are
    /// listed in the opposite order.
    #[test]
    fn failures_are_reported_in_plan_order() {
        use crate::resilience::{ChaosMode, ChaosSpec};
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let mut spec = CampaignSpec {
            samples_per_cell: 10,
            seed: 13,
            threads: 8,
            record_events: false,
            target_ci_halfwidth: None,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            mac_tier: MacTier::Bitwise,
            adaptive: None,
        };
        let baseline = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        let ((n1, c1), (n2, c2)) = victim_pair(&baseline);
        spec.resilience.max_retries_per_cell = 0;
        spec.resilience.failure_budget = 10;
        // Reverse order in the spec: the report order must not follow it.
        spec.resilience.chaos = vec![
            ChaosSpec {
                node: n2,
                category: c2,
                mode: ChaosMode::PanicAtSample(0),
            },
            ChaosSpec {
                node: n1,
                category: c1,
                mode: ChaosMode::PanicAtSample(0),
            },
        ];
        for _ in 0..4 {
            let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
            assert_eq!(result.failures.len(), 2);
            assert_eq!(
                (result.failures[0].node, result.failures[0].category),
                (n1, c1)
            );
            assert_eq!(
                (result.failures[1].node, result.failures[1].category),
                (n2, c2)
            );
        }
    }

    /// Regression (serial-ordering bug): the failure-budget abort used to
    /// fire in every worker that observed the count above budget, with a
    /// message carrying whatever count that worker happened to see. Now only
    /// the worker whose increment lands exactly on budget + 1 aborts, so the
    /// error is byte-identical for any job count.
    #[test]
    fn budget_abort_message_is_deterministic_across_job_counts() {
        use crate::resilience::{ChaosMode, ChaosSpec};
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let mut spec = CampaignSpec {
            samples_per_cell: 10,
            seed: 29,
            threads: 1,
            record_events: false,
            target_ci_halfwidth: None,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            mac_tier: MacTier::Bitwise,
            adaptive: None,
        };
        let baseline = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        let ((n1, c1), (n2, c2)) = victim_pair(&baseline);
        spec.resilience.max_retries_per_cell = 0;
        spec.resilience.failure_budget = 0;
        spec.resilience.chaos = vec![
            ChaosSpec {
                node: n1,
                category: c1,
                mode: ChaosMode::PanicAtSample(0),
            },
            ChaosSpec {
                node: n2,
                category: c2,
                mode: ChaosMode::PanicAtSample(0),
            },
        ];
        let message = |jobs: usize| {
            ParallelCampaignRunner::new(&engine, &trace, &cfg, &TopOneMatch, spec.clone())
                .with_jobs(jobs)
                .run()
                .unwrap_err()
                .to_string()
        };
        let serial = message(1);
        assert!(
            serial.contains("1 cells failed (budget 0)"),
            "unexpected message: {serial}"
        );
        for jobs in [2, 4, 8] {
            assert_eq!(serial, message(jobs), "jobs={jobs}");
        }
    }

    /// Regression (serial-ordering bug): checkpoint records used to be
    /// appended in completion order, so the file bytes depended on
    /// scheduling. The ordered commit buffer must make them identical for
    /// any worker count, including with per-injection events in the records.
    #[test]
    fn checkpoint_bytes_identical_across_job_counts() {
        use crate::resilience::CheckpointSpec;
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let bytes = |jobs: usize| {
            let path = scratch(&format!("ordered-commit-{jobs}.ckpt"));
            let spec = CampaignSpec {
                samples_per_cell: 15,
                seed: 41,
                threads: 1,
                record_events: true,
                target_ci_halfwidth: None,
                resilience: ResilienceSpec {
                    checkpoint: Some(CheckpointSpec::new(&path)),
                    ..ResilienceSpec::default()
                },
                progress: None,
                batch: 0,
                mac_tier: MacTier::Bitwise,
                adaptive: None,
            };
            ParallelCampaignRunner::new(&engine, &trace, &cfg, &TopOneMatch, spec)
                .with_jobs(jobs)
                .run()
                .unwrap();
            let data = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            data
        };
        let serial = bytes(1);
        for jobs in [2, 4, 8] {
            assert_eq!(
                serial,
                bytes(jobs),
                "checkpoint bytes diverge at jobs={jobs}"
            );
        }
    }

    /// The batched fault-cone path is a pure evaluation policy: outcomes,
    /// masking counts, and recorded per-injection events (perturbation bits
    /// included) must be identical to the dense resume path for any batch
    /// size and worker count.
    #[test]
    fn batched_campaign_matches_dense_path_bitwise() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let run = |batch: usize, jobs: usize| {
            let spec = CampaignSpec {
                samples_per_cell: 25,
                seed: 71,
                threads: jobs,
                record_events: true,
                batch,
                ..CampaignSpec::default()
            };
            let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
            result
                .cells
                .iter()
                .map(|c| {
                    let events: Vec<(usize, u32, u8)> = c
                        .events
                        .iter()
                        .map(|e| {
                            (
                                e.faulty_neurons,
                                e.max_perturbation.to_bits(),
                                e.outcome as u8,
                            )
                        })
                        .collect();
                    (c.node, c.masked, c.output_error, c.anomaly, events)
                })
                .collect::<Vec<_>>()
        };
        let dense = run(0, 1);
        for batch in [1, 7, 64] {
            for jobs in [1, 4] {
                assert_eq!(dense, run(batch, jobs), "batch={batch} jobs={jobs}");
            }
        }
    }

    /// The Fast-tier divergence metric is reported exactly when the Fast
    /// tier runs, and the Bitwise tier never fabricates one.
    #[test]
    fn fast_divergence_reported_only_for_fast_tier() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let run = |mac_tier: MacTier| {
            let spec = CampaignSpec {
                samples_per_cell: 5,
                seed: 3,
                threads: 1,
                mac_tier,
                ..CampaignSpec::default()
            };
            run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap()
        };
        assert_eq!(run(MacTier::Bitwise).fast_divergence, None);
        let fast = run(MacTier::Fast).fast_divergence.unwrap();
        // A measurement, not a guess: finite unless a kernel produced a NaN
        // mismatch, which this tiny all-finite workload cannot.
        assert!(fast.is_finite(), "divergence should be finite: {fast}");
    }

    #[test]
    fn wilson_interval_sane() {
        let (lo, hi) = wilson_interval(50, 100);
        assert!(lo > 0.38 && lo < 0.5);
        assert!(hi > 0.5 && hi < 0.62);
        assert_eq!(wilson_interval(0, 0), (0.0, 1.0));
        let (lo0, _) = wilson_interval(0, 10);
        assert!(lo0.abs() < 1e-12);
        let (_, hi1) = wilson_interval(10, 10);
        assert!((hi1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn events_recorded_when_requested() {
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let spec = CampaignSpec {
            samples_per_cell: 10,
            seed: 3,
            threads: 1,
            record_events: true,
            target_ci_halfwidth: None,
            resilience: ResilienceSpec::default(),
            progress: None,
            batch: 0,
            mac_tier: MacTier::Bitwise,
            adaptive: None,
        };
        let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
        let non_global: Vec<_> = result
            .cells
            .iter()
            .filter(|c| c.category != FfCategory::GlobalControl)
            .collect();
        assert!(non_global.iter().all(|c| c.events.len() == c.samples));
    }
}
