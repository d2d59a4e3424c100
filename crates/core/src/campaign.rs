//! Statistical fault-injection campaigns (Fig. 3, step 2).
//!
//! A campaign runs software injections for every (MAC layer × FF category)
//! cell of a deployed network and tallies the outcome distribution, yielding
//! the `Prob_SWmask(cat, r)` inputs of Eq. 2. Both sampling plans run on one
//! engine: a *wave* is a list of `(cell, quota)` tasks sharded across the
//! `fidelity-par` work-stealing pool (`spec.threads` workers). A fixed plan
//! is a single wave of `samples_per_cell` for every cell; an adaptive plan
//! ([`crate::adaptive`]) runs waves until its FIT bound resolves. Each cell
//! derives its own RNG stream from `(campaign seed, cell id)`, never from
//! shared state, making campaigns bit-reproducible regardless of worker
//! count or steal order. Fixed-plan checkpoint records go through an ordered
//! commit buffer, so the on-disk file is always the same deterministic
//! prefix a serial run would have written; adaptive waves are folded and
//! written at the wave barrier.
//!
//! Long campaigns run under the fault-tolerance policy of
//! [`crate::resilience`]: tasks execute inside a panic boundary with bounded
//! retries, each injection can carry a wall-clock watchdog, and progress can
//! be checkpointed to disk so an interrupted campaign resumes exactly where
//! it stopped ([`CampaignRunner::resume_from`]).

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::panic::AssertUnwindSafe;
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
use fidelity_obs::trace::{self, Field, SinkHandle, Value};
use fidelity_obs::{clock, prof, timing_enabled};
use fidelity_par::{CancelToken, PoolSpec, ShardPlan, WorkStealPool};

pub use fidelity_dnn::macspec::MacTier;

use crate::adaptive::{
    allocate_even, allocate_neyman, build_certificate, parse_adaptive_checkpoint, stratum_terms,
    stratum_weights, write_adaptive_header, write_cert_footer, write_wave, AdaptivePlan,
    CertFooter, ConfidenceCertificate, StratumMeta, StratumRow, WaveBlock, WaveFail, WAVE_FLOOR,
    WAVE_MIN_BUDGET,
};
use crate::models::{model_for, node_fast_divergence, SoftwareFaultModel};
use crate::outcome::{CorrectnessMetric, Outcome};
use crate::resilience::{
    campaign_fingerprint, cat_code, parse_checkpoint, write_cell, write_header, CellFailure,
    ChaosMode, ChaosSpec, FailureReason, ResilienceSpec,
};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Injection samples per (layer × category) cell of a fixed plan.
    /// Ignored when `adaptive` is set.
    pub samples_per_cell: usize,
    /// Base RNG seed; campaigns are deterministic in (seed, spec).
    pub seed: u64,
    /// Worker threads. Results are bit-identical for any value.
    pub threads: usize,
    /// Whether to keep per-injection events (needed for the Key-Result-5
    /// perturbation analysis; costs memory).
    pub record_events: bool,
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
    /// exclusive with `record_events`.
    pub adaptive: Option<AdaptivePlan>,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            samples_per_cell: 200,
            seed: 0xF1DE_117F,
            threads: std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
            record_events: false,
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

/// The recorded injections of one cell: empty, and one pointer wide,
/// unless `record_events` is set. Campaign results are kept per run (a
/// benchmark keeps one per round), and a plain `Vec` would add two words to
/// every cell of every result.
// The box is the point: one pointer inline instead of a `Vec`'s three
// words, paid for with one extra allocation only when events are recorded.
#[allow(clippy::box_collection)]
#[derive(Debug, Clone, Default)]
pub struct CellEvents(Option<Box<Vec<InjectionEvent>>>);

impl CellEvents {
    /// Appends one event.
    pub fn push(&mut self, event: InjectionEvent) {
        self.0.get_or_insert_with(Box::default).push(event);
    }
}

impl std::ops::Deref for CellEvents {
    type Target = [InjectionEvent];

    fn deref(&self) -> &[InjectionEvent] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }
}

impl<'a> IntoIterator for &'a CellEvents {
    type Item = &'a InjectionEvent;
    type IntoIter = std::slice::Iter<'a, InjectionEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<InjectionEvent>> for CellEvents {
    fn from(events: Vec<InjectionEvent>) -> Self {
        CellEvents((!events.is_empty()).then(|| Box::new(events)))
    }
}

/// Outcome tally of one (layer × category) cell.
#[derive(Debug, Clone)]
pub struct CellStats {
    /// Target node index.
    pub node: usize,
    /// Target layer name, shared by every cell of the layer (a campaign
    /// result is kept per run, so one allocation per layer rather than per
    /// cell).
    pub layer: Arc<str>,
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
    pub events: CellEvents,
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

    /// The shared name of node `node`'s layer, when the campaign has a
    /// cell on it.
    pub fn layer_name(&self, node: usize) -> Option<Arc<str>> {
        self.cells
            .iter()
            .find(|c| c.node == node)
            .map(|c| Arc::clone(&c.layer))
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
/// bounds always agree with reported ones).
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
    layer: Arc<str>,
    category: FfCategory,
    model: SoftwareFaultModel,
}

/// A cell's running tally and the RNG stream position it continues from.
#[derive(Clone)]
struct Tally {
    stats: CellStats,
    rng_state: u64,
}

/// How one wave task ended. A failed task carries the partial tally of its
/// last attempt; the fixed plan keeps it, the adaptive plan discards it.
enum TaskOutcome {
    Done(Tally),
    Failed {
        partial: Tally,
        attempts: usize,
        reason: FailureReason,
    },
}

/// What a plan hands back to [`CampaignRunner::execute`] for assembly.
struct PlanOutput {
    cells: Vec<CellStats>,
    /// Failures keyed by plan index (any order).
    failures: Vec<(usize, CellFailure)>,
    certificate: Option<ConfidenceCertificate>,
}

/// Applies a chaos directive to sample `i` of a cell.
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

/// The open fixed-plan checkpoint file behind an ordered commit buffer.
///
/// Workers complete cells out of order, but the file must stay a
/// deterministic prefix of what a serial run writes — otherwise the bytes
/// (and any resumed campaign's view of them) would depend on scheduling.
/// Completed cells therefore park in `pending` until every lower-indexed
/// cell has been committed or skipped; the cursor then drains them to disk
/// in plan order and flushes. Failed cells commit as a skip: the cursor
/// advances without writing a record, so a resumed campaign retries them.
struct OrderedCommit {
    writer: BufWriter<File>,
    /// Lowest plan index not yet committed or skipped.
    cursor: usize,
    /// Out-of-order completions waiting for the cursor. `None` marks a skip
    /// (failed cell, or a cell already rewritten at open from the resume
    /// checkpoint).
    pending: BTreeMap<usize, Option<CellStats>>,
}

impl OrderedCommit {
    /// Parks one completed (`Some`) or failed (`None`) cell, drains every
    /// now-contiguous entry to disk in plan-index order, and flushes when
    /// anything was written. Returns the plan indices written.
    fn commit(&mut self, idx: usize, entry: Option<CellStats>) -> Result<Vec<usize>, DnnError> {
        let io_err = |e: std::io::Error| DnnError::Campaign {
            message: format!("checkpoint write failed: {e}"),
        };
        self.pending.insert(idx, entry);
        let mut written = Vec::new();
        while let Some(slot) = self.pending.remove(&self.cursor) {
            if let Some(stats) = slot {
                write_cell(&mut self.writer, self.cursor, &stats).map_err(io_err)?;
                written.push(self.cursor);
            }
            self.cursor += 1;
        }
        if !written.is_empty() {
            self.writer.flush().map_err(io_err)?;
        }
        Ok(written)
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

/// Per-campaign state every wave shares: lifecycle telemetry (traced to the
/// global sink and mirrored to the job's sink, when a service attached
/// one), metrics, the live progress line, the worker pool, and the stop
/// flags. All telemetry is a no-op without a sink or `spec.progress`.
struct Lifecycle {
    net: String,
    stopwatch: clock::Stopwatch,
    metrics: CampaignMetrics,
    progress: Option<CampaignProgress>,
    /// Per-job trace outlet; the sink stamps its own identity fields
    /// (trace id, job id, pid).
    job_sink: Option<SinkHandle>,
    pool: WorkStealPool,
    cancel: Option<CancelToken>,
    /// Set once by the first fatal error; workers stop taking tasks.
    abort: AtomicBool,
    errors: Mutex<Vec<DnnError>>,
}

impl Lifecycle {
    /// Readies telemetry and the pool for a campaign of `cells` cells and
    /// emits `campaign.start`.
    fn start(runner: &CampaignRunner<'_>, cells: usize) -> Self {
        let spec = &runner.spec;
        let net = runner.engine.network().name().to_owned();
        let workers = spec.threads.clamp(1, cells.max(1));
        // The progress line sizes its ETA from a per-cell budget: the fixed
        // quota, or an adaptive plan's cap split evenly.
        let per_cell = spec
            .adaptive
            .as_ref()
            .map_or(spec.samples_per_cell, |a| a.max_injections / cells.max(1));
        let life = Lifecycle {
            progress: spec.progress.as_ref().map(|p| {
                CampaignProgress::new(
                    net.clone(),
                    p,
                    cells,
                    per_cell,
                    spec.resilience.failure_budget,
                )
            }),
            job_sink: spec.progress.as_ref().and_then(|p| p.sink.clone()),
            pool: WorkStealPool::new(PoolSpec {
                workers,
                seed: spec.seed,
                plan: ShardPlan::Balanced,
                cancel: spec.resilience.cancel.clone(),
            }),
            cancel: spec.resilience.cancel.clone(),
            stopwatch: clock::Stopwatch::start_if(timing_enabled()),
            metrics: CampaignMetrics::handles(),
            abort: AtomicBool::new(false),
            errors: Mutex::new(Vec::new()),
            net,
        };
        let mut fields = vec![
            ("net", Value::Str(&life.net)),
            ("cells", Value::U64(cells as u64)),
            ("seed", Value::U64(spec.seed)),
            ("threads", Value::U64(workers as u64)),
        ];
        match &spec.adaptive {
            None => fields.push(("samples_per_cell", Value::U64(spec.samples_per_cell as u64))),
            Some(a) => {
                fields.push(("adaptive", Value::Bool(true)));
                fields.push(("epsilon", Value::F64(a.epsilon)));
            }
        }
        life.emit("campaign.start", &fields);
        life
    }

    /// Emits a lifecycle event to the global sink and the job's sink.
    fn emit(&self, name: &str, fields: &[Field<'_>]) {
        fidelity_obs::emit_event(name, fields);
        self.mirror(name, fields);
    }

    /// Records an event on the job's sink only.
    fn mirror(&self, name: &str, fields: &[Field<'_>]) {
        if let Some(h) = &self.job_sink {
            trace::record_now(h.sink(), name, fields);
        }
    }

    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Whether workers should stop taking tasks: cancelled, or aborted by a
    /// fatal error. The Acquire load pairs with the Release store in
    /// [`Lifecycle::fatal`]; the error itself is read under the `errors`
    /// lock, so the flag only lets workers exit early.
    fn stopped(&self) -> bool {
        self.abort.load(Ordering::Acquire) || self.cancelled()
    }

    /// Records a fatal error and stops the campaign.
    fn fatal(&self, e: DnnError) {
        lock(&self.errors).push(e);
        self.abort.store(true, Ordering::Release);
    }

    /// Reports a cell (or stratum) that exhausted its retries; `samples` is
    /// the tally it keeps.
    fn cell_failed(
        &self,
        plan: &CellPlan,
        attempts: usize,
        samples: usize,
        reason: &FailureReason,
    ) {
        self.emit(
            "cell.failed",
            &[
                ("node", Value::U64(plan.node as u64)),
                ("cat", Value::Str(&cat_code(plan.category))),
                ("attempts", Value::U64(attempts as u64)),
                ("samples", Value::U64(samples as u64)),
                ("reason", Value::Str(reason_kind(reason))),
            ],
        );
        if let Some(p) = &self.progress {
            p.on_cell_failed();
        }
    }

    /// Emits `campaign.finish` for a completed result.
    fn finish(&self, result: &CampaignResult) {
        let (masked, output_error, anomaly) = result.cells.iter().fold((0, 0, 0), |acc, c| {
            (acc.0 + c.masked, acc.1 + c.output_error, acc.2 + c.anomaly)
        });
        let mut fields = vec![
            ("net", Value::Str(&self.net)),
            ("cells", Value::U64(result.cells.len() as u64)),
            ("injections", Value::U64(result.total_samples() as u64)),
            ("masked", Value::U64(masked as u64)),
            ("output_error", Value::U64(output_error as u64)),
            ("anomaly", Value::U64(anomaly as u64)),
            ("failures", Value::U64(result.failures.len() as u64)),
            (
                "elapsed_us",
                Value::U64(self.stopwatch.elapsed_us().unwrap_or(0)),
            ),
        ];
        if let Some(c) = &result.certificate {
            fields.push(("waves", Value::U64(c.waves as u64)));
            fields.push(("converged", Value::Bool(c.converged)));
        }
        self.emit("campaign.finish", &fields);
    }
}

/// A campaign bound to its engine, workload trace, accelerator, and spec —
/// the stateful entry point when checkpoint/resume or failure reporting is
/// needed ([`run_campaign`] remains the one-shot convenience). It runs on
/// `spec.threads` workers; results and checkpoint bytes are bit-identical
/// for any worker count.
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
    /// compatible checkpoint exists, completed work is loaded from it.
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
        self.execute(resume.as_deref())
    }

    /// Runs the campaign, first loading every completed cell (or committed
    /// wave) from the checkpoint at `path`, which must have been written by
    /// a campaign with the same fingerprint: same network, seed, sampling
    /// plan. Cells are deterministic in (seed, node, category), so the
    /// combined result is bit-identical to an uninterrupted run. A missing
    /// file simply runs the whole campaign; progress keeps being
    /// checkpointed to the spec's configured path, or to `path` when none
    /// is configured.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::Campaign`] on a fingerprint mismatch or corrupt
    /// checkpoint, and for an exhausted failure budget as in
    /// [`CampaignRunner::run`].
    pub fn resume_from(&self, path: &Path) -> Result<CampaignResult, DnnError> {
        self.execute(Some(path))
    }

    fn plans(&self) -> Vec<CellPlan> {
        let mac_nodes: Vec<usize> = (0..self.engine.network().node_count())
            .filter(|&i| self.engine.mac_spec(i, self.trace).is_some())
            .collect();
        let mut plans = Vec::new();
        for &node in &mac_nodes {
            let layer: Arc<str> = Arc::from(self.engine.network().layer(node).name());
            for (category, _) in self.accel.census.iter() {
                if let Some(model) = model_for(category, self.accel) {
                    plans.push(CellPlan {
                        node,
                        layer: Arc::clone(&layer),
                        category,
                        model,
                    });
                }
            }
        }
        plans
    }

    /// Shared campaign frame: plan, fingerprint, lifecycle telemetry, the
    /// plan-specific body, and result assembly.
    fn execute(&self, resume_path: Option<&Path>) -> Result<CampaignResult, DnnError> {
        let spec = &self.spec;
        let plans = self.plans();
        let plan_ids: Vec<(usize, FfCategory)> =
            plans.iter().map(|p| (p.node, p.category)).collect();
        let fingerprint = campaign_fingerprint(spec, self.engine.network().name(), &plan_ids);
        // A missing resume file simply starts fresh.
        let resume = match resume_path.filter(|p| p.exists()) {
            Some(path) => {
                let file = File::open(path).map_err(|e| DnnError::Campaign {
                    message: format!("cannot open checkpoint {}: {e}", path.display()),
                })?;
                Some((path, BufReader::new(file)))
            }
            None => None,
        };
        // Progress is written to the configured checkpoint, else the
        // explicit resume path. Either plan rewrites the file from what it
        // loaded, so a torn tail from the previous process does not linger.
        let ckpt_path = spec
            .resilience
            .checkpoint
            .as_ref()
            .map(|c| c.path.as_path())
            .or(resume_path);
        let life = Lifecycle::start(self, plans.len());
        let output = match &spec.adaptive {
            None => self.execute_fixed(&life, &plans, fingerprint, resume, ckpt_path),
            Some(aplan) => {
                self.execute_adaptive(&life, aplan, &plans, fingerprint, resume, ckpt_path)
            }
        };
        // The progress line terminates even on the error path, so an aborted
        // campaign does not leave a torn `\r` line on the terminal.
        if let Some(p) = &life.progress {
            p.finish();
        }
        let mut output = output.inspect_err(|e| {
            life.emit("campaign.abort", &[("error", Value::Str(&e.to_string()))]);
        })?;
        // Failures arrive in completion order, which depends on scheduling;
        // reporting them in plan order keeps the result (and anything
        // diffing it) deterministic across worker counts.
        output.failures.sort_by_key(|&(idx, _)| idx);
        let result = CampaignResult {
            cells: output.cells,
            failures: output.failures.into_iter().map(|(_, f)| f).collect(),
            fast_divergence: self.measure_fast_divergence(&plans, &life.net),
            certificate: output.certificate,
        };
        life.finish(&result);
        Ok(result)
    }

    /// The fixed plan: one wave of `samples_per_cell` for every cell not
    /// restored from the checkpoint. Each finished cell commits through the
    /// ordered buffer into `fidelity-ckpt v1`; a failed cell keeps its
    /// partial tally and commits as a skip, so a resumed run retries it.
    fn execute_fixed(
        &self,
        life: &Lifecycle,
        plans: &[CellPlan],
        fingerprint: u64,
        resume: Option<(&Path, BufReader<File>)>,
        ckpt_path: Option<&Path>,
    ) -> Result<PlanOutput, DnnError> {
        let spec = &self.spec;
        let mut loaded: Vec<Option<CellStats>> = vec![None; plans.len()];
        if let Some((path, reader)) = resume {
            let parsed = parse_checkpoint(reader)?;
            check_fingerprint(path, parsed.fingerprint, fingerprint)?;
            for (idx, stats) in parsed.cells {
                let plan = plans.get(idx).ok_or_else(|| DnnError::Campaign {
                    message: format!("checkpoint cell index {idx} out of range"),
                })?;
                if stats.node != plan.node || stats.category != plan.category {
                    return Err(DnnError::Campaign {
                        message: format!(
                            "checkpoint cell {idx} does not match the plan (node {}, {})",
                            plan.node, plan.category
                        ),
                    });
                }
                loaded[idx] = Some(stats);
            }
        }
        let restored = loaded.iter().flatten().count();
        if restored > 0 {
            // A resumed campaign announces where it picks up instead of
            // silently restarting the display from zero.
            life.emit(
                "campaign.resume",
                &[
                    ("net", Value::Str(&life.net)),
                    ("restored", Value::U64(restored as u64)),
                    ("remaining", Value::U64((plans.len() - restored) as u64)),
                ],
            );
            if let Some(p) = &life.progress {
                p.set_restored(restored);
            }
        }
        let ckpt = match ckpt_path {
            Some(path) => Some(Mutex::new(open_checkpoint(path, fingerprint, &loaded)?)),
            None => None,
        };
        let tasks: Vec<(usize, usize)> = (0..plans.len())
            .filter(|&idx| loaded[idx].is_none())
            .map(|idx| (idx, spec.samples_per_cell))
            .collect();
        let results = Mutex::new(loaded);
        let failures = Mutex::new(Vec::new());
        let failure_count = AtomicUsize::new(0);
        // Records a cell's verdict in the ordered commit buffer: `Some` is a
        // completed cell to persist, `None` a failed one the cursor must
        // skip. Either way the cursor only moves in plan order, so the
        // checkpoint bytes cannot depend on scheduling.
        let commit = |idx: usize, entry: Option<CellStats>| {
            if let Some(state) = &ckpt {
                match lock(state).commit(idx, entry) {
                    Ok(written) => {
                        for &widx in &written {
                            event!("checkpoint.cell", idx = widx, node = plans[widx].node);
                        }
                        if !written.is_empty() {
                            event!("checkpoint.flush", upto = idx);
                        }
                    }
                    Err(e) => life.fatal(e),
                }
            }
        };
        self.run_wave(
            life,
            plans,
            &tasks,
            |idx| self.fresh_tally(&plans[idx]),
            |idx, outcome, worker, dur_us| {
                let plan = &plans[idx];
                match outcome {
                    TaskOutcome::Done(Tally { stats, .. }) => {
                        // The worker index attributes work to a worker (the
                        // per-worker spans in `report --trace`).
                        life.emit(
                            "cell.done",
                            &[
                                ("node", Value::U64(plan.node as u64)),
                                ("cat", Value::Str(&cat_code(plan.category))),
                                ("samples", Value::U64(stats.samples as u64)),
                                ("masked", Value::U64(stats.masked as u64)),
                                ("output_error", Value::U64(stats.output_error as u64)),
                                ("anomaly", Value::U64(stats.anomaly as u64)),
                                ("worker", Value::U64(worker)),
                                ("elapsed_us", Value::U64(dur_us)),
                            ],
                        );
                        life.metrics.cells_done.inc();
                        if let Some(p) = &life.progress {
                            p.on_cell_done();
                        }
                        commit(idx, Some(stats.clone()));
                        lock(&results)[idx] = Some(stats);
                    }
                    TaskOutcome::Failed {
                        partial,
                        attempts,
                        reason,
                    } => {
                        let partial = partial.stats;
                        let failed_so_far = failure_count.fetch_add(1, Ordering::Relaxed) + 1;
                        life.cell_failed(plan, attempts, partial.samples, &reason);
                        lock(&failures).push((
                            idx,
                            CellFailure {
                                node: plan.node,
                                layer: partial.layer.to_string(),
                                category: plan.category,
                                attempts,
                                samples_completed: partial.samples,
                                reason,
                            },
                        ));
                        // The degraded cell keeps its partial tally: fewer
                        // samples simply widen its Wilson interval.
                        commit(idx, None);
                        lock(&results)[idx] = Some(partial);
                        // Exactly one worker observes the count crossing the
                        // budget — the one whose `fetch_add` lands on budget
                        // + 1 — so the abort fires once with a message that
                        // does not depend on how many other cells failed
                        // concurrently.
                        if failed_so_far == spec.resilience.failure_budget + 1 {
                            life.fatal(budget_exhausted(failed_so_far, spec));
                        }
                    }
                }
            },
        );

        let results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
        if life.cancelled() {
            // Cells finished before the token fired were committed above, so
            // the checkpoint left behind resumes cleanly. A token that fired
            // after the last cell completed is a no-op: the run is whole.
            let done = results.iter().flatten().count();
            if done < plans.len() {
                event!(
                    "campaign.cancel",
                    net = &life.net,
                    done = done,
                    total = plans.len()
                );
                return Err(DnnError::Campaign {
                    message: format!("campaign cancelled after {done}/{} cells", plans.len()),
                });
            }
        }
        if let Some(e) = lock(&life.errors).first() {
            return Err(e.clone());
        }
        let cells = results
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| {
                slot.ok_or_else(|| DnnError::Campaign {
                    message: format!("internal: cell {idx} never ran"),
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(PlanOutput {
            cells,
            failures: failures
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
            certificate: None,
        })
    }

    /// The adaptive plan: wave-based sequential sampling over per-(node ×
    /// category) strata, Neyman allocation by uncertainty contribution,
    /// `fidelity-ackpt v1` checkpointing at every wave barrier, and a
    /// confidence certificate on completion. A stratum whose task fails
    /// freezes at its pre-wave tally.
    fn execute_adaptive(
        &self,
        life: &Lifecycle,
        aplan: &AdaptivePlan,
        plans: &[CellPlan],
        fingerprint: u64,
        resume: Option<(&Path, BufReader<File>)>,
        ckpt_path: Option<&Path>,
    ) -> Result<PlanOutput, DnnError> {
        let _prof = prof::scope("campaign.adaptive");
        let spec = &self.spec;
        let bad = |message: String| DnnError::Campaign { message };
        let z = aplan.validated_z()?;
        if spec.record_events {
            return Err(bad(
                "adaptive campaigns do not record per-injection events \
                 (strata sizes are data-dependent); drop record_events"
                    .into(),
            ));
        }
        let plan_ids: Vec<(usize, FfCategory)> =
            plans.iter().map(|p| (p.node, p.category)).collect();
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

        // Each stratum owns the same derived RNG stream a fixed-plan cell
        // does: its first k samples are bit-identical to the fixed plan's.
        let mut states: Vec<Tally> = plans.iter().map(|p| self.fresh_tally(p)).collect();
        // A frozen stratum exhausted its retries; it keeps its last
        // committed tally and receives no further allocation.
        let mut frozen = vec![false; plans.len()];
        let mut committed: Vec<WaveBlock> = Vec::new();
        let mut failures: Vec<(usize, CellFailure)> = Vec::new();
        let mut resumed_footer: Option<CertFooter> = None;

        // Resume: replay every committed wave into the tallies. The RNG
        // stream state rides in the rows, so sampling continues mid-stream
        // exactly where the killed process stopped.
        if let Some((path, reader)) = resume {
            let parsed = parse_adaptive_checkpoint(reader)?;
            check_fingerprint(path, parsed.fingerprint, fingerprint)?;
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
                    if frozen[*idx] || row.samples < state.stats.samples {
                        return Err(bad(format!(
                            "corrupt adaptive checkpoint: stratum {idx} tally regressed"
                        )));
                    }
                    state.stats.samples = row.samples;
                    state.stats.masked = row.masked;
                    state.stats.output_error = row.output_error;
                    state.stats.anomaly = row.anomaly;
                    state.rng_state = row.rng_state;
                }
                for f in &block.fails {
                    let meta = strata.get(f.stratum).ok_or_else(|| {
                        bad(format!(
                            "corrupt adaptive checkpoint: failed stratum {} out of range",
                            f.stratum
                        ))
                    })?;
                    frozen[f.stratum] = true;
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
                            samples_completed: states[f.stratum].stats.samples,
                            reason,
                        },
                    ));
                }
            }
            committed = parsed.waves;
            resumed_footer = parsed.footer;
        }
        if !committed.is_empty() {
            life.emit(
                "campaign.resume",
                &[
                    ("net", Value::Str(&life.net)),
                    ("waves", Value::U64(committed.len() as u64)),
                    (
                        "injections",
                        Value::U64(states.iter().map(|t| t.stats.samples as u64).sum()),
                    ),
                ],
            );
        }

        // Canonical rewrite: the checkpoint is recreated from the replayed
        // blocks, so resumed files stay bit-identical to uninterrupted ones.
        let io_err = |what: &'static str| {
            move |e: std::io::Error| bad(format!("adaptive checkpoint {what} failed: {e}"))
        };
        let mut ckpt: Option<BufWriter<File>> = match ckpt_path {
            Some(path) => {
                let mut w = create_checkpoint(path)?;
                write_adaptive_header(&mut w, fingerprint, aplan, WAVE_FLOOR, &strata)
                    .map_err(io_err("header write"))?;
                for block in &committed {
                    write_wave(&mut w, block).map_err(io_err("wave write"))?;
                }
                w.flush().map_err(io_err("flush"))?;
                Some(w)
            }
            None => None,
        };

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
                .map(|(m, t)| {
                    stratum_terms(m.weight, t.stats.masked, t.stats.samples, z, m.sampled()).3
                })
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
            if let Some(p) = &life.progress {
                p.set_strata(resolved, display_total);
            }
            if total_bound <= aplan.epsilon {
                break; // converged
            }
            let total: usize = states.iter().map(|t| t.stats.samples).sum();
            let headroom = aplan.max_injections.saturating_sub(total);
            if headroom == 0 {
                break; // cap reached: honest non-converged certificate
            }
            let growable: Vec<usize> = (0..strata.len())
                .filter(|&i| strata[i].sampled() && !frozen[i] && bounds[i] > 0.0)
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
                net = &life.net,
                wave = wave,
                strata = quotas.len(),
                budget = quotas.iter().map(|&(_, q)| q).sum::<usize>(),
                bound = total_bound,
            );
            life.mirror(
                "campaign.wave",
                &[
                    ("wave", Value::U64(wave as u64)),
                    ("strata", Value::U64(quotas.len() as u64)),
                ],
            );

            // Run the wave. Tasks start from the committed tallies and
            // publish into their stratum's slot; the barrier folds the slots
            // back in stratum order, so nothing about the result depends on
            // scheduling.
            let slots: Vec<Mutex<Option<TaskOutcome>>> =
                plans.iter().map(|_| Mutex::new(None)).collect();
            self.run_wave(
                life,
                plans,
                &quotas,
                |sidx| states[sidx].clone(),
                |sidx, outcome, _, _| *lock(&slots[sidx]) = Some(outcome),
            );

            // Fold the wave at the barrier, in stratum order.
            let mut block = WaveBlock {
                index: wave,
                rows: Vec::new(),
                fails: Vec::new(),
            };
            let mut incomplete = false;
            for &(sidx, _) in &quotas {
                match lock(&slots[sidx]).take() {
                    None => incomplete = true,
                    Some(TaskOutcome::Done(tally)) => {
                        let s = &tally.stats;
                        block.rows.push((
                            sidx,
                            StratumRow {
                                samples: s.samples,
                                masked: s.masked,
                                output_error: s.output_error,
                                anomaly: s.anomaly,
                                rng_state: tally.rng_state,
                            },
                        ));
                        states[sidx] = tally;
                    }
                    Some(TaskOutcome::Failed {
                        attempts, reason, ..
                    }) => {
                        // The stratum freezes with its pre-wave tally: the
                        // lost wave's partial samples are discarded (they
                        // were never committed), its Wilson interval simply
                        // stays at the committed width.
                        frozen[sidx] = true;
                        total_failures += 1;
                        let samples = states[sidx].stats.samples;
                        life.cell_failed(&plans[sidx], attempts, samples, &reason);
                        block.fails.push(WaveFail {
                            stratum: sidx,
                            attempts,
                            kind: reason_kind(&reason).to_owned(),
                            message: match &reason {
                                FailureReason::Error(m) | FailureReason::Panic(m) => m.clone(),
                            },
                        });
                        let meta = &strata[sidx];
                        failures.push((
                            sidx,
                            CellFailure {
                                node: meta.node,
                                layer: meta.layer.clone(),
                                category: meta.category,
                                attempts,
                                samples_completed: samples,
                                reason,
                            },
                        ));
                    }
                }
            }
            if incomplete {
                // Cancelled mid-wave: nothing of this wave is committed, so
                // the checkpoint on disk resumes from the last barrier.
                let total: usize = states.iter().map(|t| t.stats.samples).sum();
                event!(
                    "campaign.cancel",
                    net = &life.net,
                    waves = wave,
                    injections = total
                );
                return Err(bad(format!(
                    "adaptive campaign cancelled after {wave} waves ({total} injections)"
                )));
            }
            if let Some(w) = &mut ckpt {
                write_wave(w, &block).map_err(io_err("wave write"))?;
                w.flush().map_err(io_err("flush"))?;
            }
            wave += 1;
            if total_failures > spec.resilience.failure_budget {
                return Err(budget_exhausted(total_failures, spec));
            }
        }

        // Build the certificate with the exact arithmetic the offline
        // verifier replays, so `statcheck --cert` compares bit-for-bit.
        let tallies: Vec<(usize, usize)> = states
            .iter()
            .map(|t| (t.stats.samples, t.stats.masked))
            .collect();
        let cert = build_certificate(fingerprint, aplan, z, &strata, &tallies, wave);
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
            .map_err(io_err("certificate write"))?;
            w.flush().map_err(io_err("flush"))?;
        }
        Ok(PlanOutput {
            cells: states.into_iter().map(|t| t.stats).collect(),
            failures,
            certificate: Some(cert),
        })
    }

    /// Runs one wave: every `(cell, quota)` task continues `start(cell)`'s
    /// tally by `quota` samples on the work-stealing pool. A task runs
    /// inside one panic-isolated attempt loop: each attempt restarts from
    /// `start(cell)`, so a successful retry is bit-identical to a clean run;
    /// retries wait out the seeded [`RetryBackoff`] schedule, which a cancel
    /// or abort cuts short. `finish(cell, outcome, worker, dur_us)` receives
    /// every task that ran, on the worker that ran it; tasks skipped after a
    /// cancel or abort never reach it.
    ///
    /// [`RetryBackoff`]: crate::resilience::RetryBackoff
    fn run_wave(
        &self,
        life: &Lifecycle,
        plans: &[CellPlan],
        tasks: &[(usize, usize)],
        start: impl Fn(usize) -> Tally + Sync,
        finish: impl Fn(usize, TaskOutcome, u64, u64) + Sync,
    ) {
        let spec = &self.spec;
        let max_attempts = spec.resilience.max_retries_per_cell + 1;
        // One workspace per worker: injection tensors come from (and return
        // to) the worker's pool, so steady-state tasks allocate nothing.
        // Workspaces never influence values, so sharding stays deterministic.
        // Batched mode additionally installs the shared golden snapshot once
        // per worker, so every task the worker runs takes the delta path.
        life.pool.run_with(
            tasks.len(),
            |worker| {
                let mut ws = Workspace::new();
                ws.set_mac_tier(spec.mac_tier);
                if spec.batch > 0 {
                    ws.install_golden(golden_key(self.trace), &self.trace.node_outputs);
                }
                (worker as u64, ws)
            },
            |(worker, ws), t| {
                if life.stopped() {
                    return;
                }
                let (cell, quota) = tasks[t];
                let plan = &plans[cell];
                // Per-task, not per-injection: a task is hundreds of
                // injections, so the guard's cost stays off the hot path.
                let _prof = prof::scope("campaign.run;campaign.cell");
                let sw = clock::Stopwatch::start_if(timing_enabled());
                let mut attempt = 0;
                let outcome = loop {
                    let mut tally = start(cell);
                    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        self.run_samples(&mut tally, plan, quota, life, ws)
                    }));
                    let reason = match run {
                        Ok(Ok(())) => break TaskOutcome::Done(tally),
                        Ok(Err(e)) => FailureReason::Error(e.to_string()),
                        Err(payload) => FailureReason::Panic(panic_text(&*payload)),
                    };
                    attempt += 1;
                    let failed = |reason| TaskOutcome::Failed {
                        partial: tally,
                        attempts: max_attempts,
                        reason,
                    };
                    if attempt == max_attempts {
                        break failed(reason);
                    }
                    life.metrics.retries.inc();
                    if let Some(p) = &life.progress {
                        p.on_retry();
                    }
                    event!(
                        "cell.retry",
                        node = plan.node,
                        cat = &cat_code(plan.category),
                        attempt = attempt,
                        reason = reason_kind(&reason),
                    );
                    // The wait derives from (seed, cell, retry), so the
                    // schedule replays exactly.
                    let wait = spec
                        .resilience
                        .retry_backoff
                        .delay(spec.seed, cell, attempt);
                    if !sleep_unless(wait, || life.stopped()) {
                        break failed(reason);
                    }
                };
                finish(cell, outcome, *worker, sw.elapsed_us().unwrap_or(0));
            },
        );
    }

    /// A cell's tally before its first sample, at the start of its derived
    /// RNG stream.
    fn fresh_tally(&self, plan: &CellPlan) -> Tally {
        Tally {
            stats: CellStats {
                node: plan.node,
                layer: Arc::clone(&plan.layer),
                category: plan.category,
                model: plan.model,
                samples: 0,
                masked: 0,
                output_error: 0,
                anomaly: 0,
                events: CellEvents::default(),
            },
            rng_state: self.spec.seed
                ^ (plan.node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ cat_tag(plan.category),
        }
    }

    /// Runs `quota` more samples of one cell into `tally`, continuing its
    /// RNG stream. Sample indices are absolute (`stats.samples` counts from
    /// the cell's first sample), so chaos triggers and the golden re-ensure
    /// cadence line up across waves. The tally is passed by reference so a
    /// panic mid-loop leaves the samples completed so far observable to the
    /// attempt loop.
    fn run_samples(
        &self,
        tally: &mut Tally,
        plan: &CellPlan,
        quota: usize,
        life: &Lifecycle,
        ws: &mut Workspace,
    ) -> Result<(), DnnError> {
        let spec = &self.spec;
        let stats = &mut tally.stats;
        let progress = life.progress.as_ref();
        // Global control needs no simulation: Prob_SWmask is 0 by definition.
        if matches!(plan.model, SoftwareFaultModel::GlobalControl) {
            stats.samples += quota;
            stats.anomaly += quota;
            life.metrics.injections.add(quota as u64);
            if let Some(p) = progress {
                for _ in 0..quota {
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
        let mut rng = SplitMix64::new(tally.rng_state);
        // Batched fault-cone evaluation: the delta path engages whenever the
        // worker's workspace holds a golden snapshot matching this trace.
        // The snapshot is re-ensured at task entry (so a retried task
        // recovers immediately) and on the batch cadence — a panic that lost
        // the loaned overlay costs at most `batch - 1` dense fallback
        // resumes before the snapshot is reinstalled.
        let golden = (spec.batch > 0).then(|| golden_key(self.trace));
        for j in 0..quota {
            let i = stats.samples;
            if let Some(key) = golden {
                if (j == 0 || i.is_multiple_of(spec.batch)) && ws.golden_key() != Some(key) {
                    ws.install_golden(key, &self.trace.node_outputs);
                }
            }
            // The watchdog clock starts before any chaos delay: a slow
            // injection and a stalled one are indistinguishable to it. Time
            // comes from the obs clock — the workspace's one sanctioned
            // wall-clock site — and never feeds campaign statistics.
            let deadline = spec.resilience.injection_deadline.map(|d| clock::now() + d);
            apply_chaos(chaos, i, plan.node, plan.category);
            let inj_sw = clock::Stopwatch::start_if(timing_enabled());
            let inj = crate::inject::inject_once_pooled(
                self.engine,
                self.trace,
                plan.node,
                plan.model,
                self.metric,
                &mut rng,
                deadline,
                ws,
            )?;
            life.metrics.injection_ns.record_opt(inj_sw.elapsed_ns());
            life.metrics.injections.inc();
            stats.samples += 1;
            match inj.outcome {
                Outcome::Masked => stats.masked += 1,
                Outcome::OutputError => stats.output_error += 1,
                Outcome::SystemAnomaly => stats.anomaly += 1,
            }
            if inj.watchdog {
                life.metrics.watchdog.inc();
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
        tally.rng_state = rng.state();
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
}

fn budget_exhausted(failed: usize, spec: &CampaignSpec) -> DnnError {
    DnnError::Campaign {
        message: format!(
            "failure budget exhausted: {failed} cells failed (budget {})",
            spec.resilience.failure_budget
        ),
    }
}

fn check_fingerprint(path: &Path, found: u64, expected: u64) -> Result<(), DnnError> {
    if found == expected {
        return Ok(());
    }
    Err(DnnError::Campaign {
        message: format!(
            "checkpoint {} belongs to a different campaign \
             (fingerprint {found:016x}, expected {expected:016x})",
            path.display()
        ),
    })
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

/// Creates (or truncates) a checkpoint file, creating its directory first.
fn create_checkpoint(path: &Path) -> Result<BufWriter<File>, DnnError> {
    let io_err = |what: &str, e: std::io::Error| DnnError::Campaign {
        message: format!("checkpoint {what} failed for {}: {e}", path.display()),
    };
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| io_err("directory creation", e))?;
        }
    }
    let file = File::create(path).map_err(|e| io_err("creation", e))?;
    Ok(BufWriter::new(file))
}

/// Creates the fixed-plan checkpoint, writes the header plus all
/// already-completed cells in plan-index order, and marks those indices as
/// pre-committed skips so the ordered cursor passes over them.
fn open_checkpoint(
    path: &Path,
    fingerprint: u64,
    completed: &[Option<CellStats>],
) -> Result<OrderedCommit, DnnError> {
    let io_err = |what: &str, e: std::io::Error| DnnError::Campaign {
        message: format!("checkpoint {what} failed for {}: {e}", path.display()),
    };
    let mut writer = create_checkpoint(path)?;
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

    /// Results are kept per run (a campaign bench holds one per round), so
    /// a cell stays ten words: shared name, boxed events, `u32` windows.
    #[test]
    fn cell_stats_stay_compact() {
        assert_eq!(std::mem::size_of::<CellEvents>(), 8);
        assert!(std::mem::size_of::<CellStats>() <= 80);
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
            let spec = CampaignSpec {
                threads: jobs,
                ..spec.clone()
            };
            run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec)
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
                threads: jobs,
                record_events: true,
                resilience: ResilienceSpec {
                    checkpoint: Some(CheckpointSpec::new(&path)),
                    ..ResilienceSpec::default()
                },
                progress: None,
                batch: 0,
                mac_tier: MacTier::Bitwise,
                adaptive: None,
            };
            run_campaign(&engine, &trace, &cfg, &TopOneMatch, &spec).unwrap();
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

    /// The adaptive plan's failure semantics: a stratum whose wave task
    /// exhausts its retries freezes at its pre-wave tally (the lost wave's
    /// partial samples are discarded) and is never allocated again, while
    /// the rest of the campaign carries on and the checkpoint still
    /// verifies offline.
    #[test]
    fn failed_adaptive_stratum_freezes_at_its_pre_wave_tally() {
        use crate::adaptive::verify_checkpoint;
        use crate::resilience::{ChaosMode, ChaosSpec, CheckpointSpec};
        let (engine, trace) = tiny_engine();
        let cfg = presets::nvdla_like();
        let clean = CampaignSpec {
            seed: 17,
            threads: 2,
            adaptive: Some(AdaptivePlan {
                max_injections: 3_000,
                ..AdaptivePlan::new(1e-9)
            }),
            ..CampaignSpec::default()
        };
        let reference = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &clean).unwrap();
        // The stratum the clean run grew most: wave 1 allocates it more than
        // one sample, so a panic at its second post-floor sample fails that
        // wave with one partial sample that must not be kept.
        let victim = reference
            .cells
            .iter()
            .max_by_key(|c| c.samples)
            .unwrap()
            .clone();
        assert!(victim.samples > WAVE_FLOOR);

        let path = scratch("adaptive-freeze.ackpt");
        let mut chaotic = clean.clone();
        chaotic.resilience.max_retries_per_cell = 0;
        chaotic.resilience.checkpoint = Some(CheckpointSpec::new(&path));
        chaotic.resilience.chaos = vec![ChaosSpec {
            node: victim.node,
            category: victim.category,
            mode: ChaosMode::PanicAtSample(WAVE_FLOOR + 1),
        }];
        let result = run_campaign(&engine, &trace, &cfg, &TopOneMatch, &chaotic).unwrap();
        assert_eq!(result.failures.len(), 1);
        let failure = &result.failures[0];
        assert_eq!(
            (failure.node, failure.category),
            (victim.node, victim.category)
        );
        assert_eq!(failure.samples_completed, WAVE_FLOOR);
        let frozen = result
            .cells
            .iter()
            .find(|c| c.node == victim.node && c.category == victim.category)
            .unwrap();
        assert_eq!(frozen.samples, WAVE_FLOOR, "partial wave samples leaked");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        verify_checkpoint(std::io::BufReader::new(&bytes[..])).unwrap();
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
