//! Campaign benchmark: time to a FIT answer on three workloads, plus a
//! traced run that splits that time into the program's layers.
//!
//! ```text
//! perfbench --workload fixed-narrow|fixed-wide|adaptive
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the JSON result. Checkpoints, spans
//! and provenance are written under `.bench_out/` in the working directory.
//! See `perfbench/README.md` for the workloads and the metric map.

mod checks;
mod drill;
mod host;
mod report;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fidelity_accel::arch::AcceleratorConfig;
use fidelity_accel::perf::extract_work;
use fidelity_core::analysis::{analyze, ResilienceAnalysis};
use fidelity_core::campaign::CampaignRunner;
use fidelity_core::fit::{accelerator_fit_rate, PAPER_RAW_FIT_PER_MB};

use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::spans::{Span, Tracer};
use crate::stats::{mean, median, percentile};
use crate::workload::{Deployed, Plan, WorkloadDef, OUT_DIR};

/// Set-ups timed before every round; `setup_s` is the median of all of
/// them. Spreading them over the run samples the host's speed at many
/// moments, as the rounds do, instead of at one.
const SETUP_BURST: usize = 10;

const USAGE: &str = "usage: perfbench --workload fixed-narrow|fixed-wide|adaptive \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: &'static WorkloadDef,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One pass of `analyze()` over every network of the workload.
struct Round {
    /// Wall time inside `analyze()`, summed over the networks.
    campaign_s: f64,
    /// Process CPU time over the same calls.
    cpu_s: f64,
    analyses: Vec<ResilienceAnalysis>,
}

impl Round {
    fn injections(&self) -> usize {
        self.analyses
            .iter()
            .map(|a| a.campaign.total_samples())
            .sum()
    }
}

/// Deploys the workload [`SETUP_BURST`] times, recording each set-up's
/// wall time, and returns the last deployment.
fn set_up(
    def: &WorkloadDef,
    tracer: &mut Tracer,
    setup_s: &mut Vec<f64>,
) -> Result<Vec<Deployed>, String> {
    let mut deployed = Vec::new();
    for _ in 0..SETUP_BURST {
        let start = Instant::now();
        deployed = tracer.span("bench.setup", |t| def.deploy(t))?;
        setup_s.push(start.elapsed().as_secs_f64());
    }
    Ok(deployed)
}

fn campaign_round(
    def: &WorkloadDef,
    deployed: &[Deployed],
    accel: &AcceleratorConfig,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Round, String> {
    let specs: Vec<_> = deployed.iter().map(|d| def.spec(seed, d.name)).collect();
    let cpu_start = host::cpu_seconds()?;
    let mut campaign_s = 0.0;
    let mut analyses = Vec::with_capacity(deployed.len());
    for (d, spec) in deployed.iter().zip(&specs) {
        let start = Instant::now();
        let analysis = tracer.span("campaign.analyze", |_| {
            analyze(
                &d.engine,
                &d.trace,
                accel,
                d.metric.as_ref(),
                PAPER_RAW_FIT_PER_MB,
                spec,
            )
        });
        campaign_s += start.elapsed().as_secs_f64();
        analyses.push(analysis.map_err(|e| format!("{}: analyze: {e}", d.name))?);
    }
    Ok(Round {
        campaign_s,
        cpu_s: host::cpu_seconds()? - cpu_start,
        analyses,
    })
}

/// What the post-campaign layer calls measured (beyond their spans).
#[derive(Default)]
struct Verified {
    ckpt_bytes: u64,
    waves: usize,
    strata_sampled: usize,
    bound_over_eps: Vec<f64>,
}

/// Recomputes Eq. 2, re-derives certificates and resumes from the finished
/// checkpoints, each call in its own span; records what does not hold.
fn verify(
    def: &WorkloadDef,
    deployed: &[Deployed],
    accel: &AcceleratorConfig,
    seed: u64,
    round: &Round,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<Verified, String> {
    let mut v = Verified::default();
    for (d, a) in deployed.iter().zip(&round.analyses) {
        let fit = tracer.span("fit.eq2", |t| {
            t.span("fit.extract_work", |_| {
                black_box(extract_work(&d.engine, &d.trace));
            });
            t.span("fit.accelerator_fit_rate", |_| {
                accelerator_fit_rate(accel, PAPER_RAW_FIT_PER_MB, &a.layer_terms, &[])
            })
        });
        if fit.total.to_bits() != a.fit.total.to_bits() {
            problems.push(format!(
                "{}: Eq. 2 over the campaign's terms gives {}, analyze reported {}",
                d.name, fit.total, a.fit.total
            ));
        }
        if let (Plan::Adaptive { epsilon }, Some(cert)) = (def.plan, &a.campaign.certificate) {
            v.waves += cert.waves;
            v.strata_sampled += cert.strata.iter().filter(|s| s.sampled).count();
            v.bound_over_eps.push(cert.total_bound / epsilon);
        }
        if !def.checkpoint {
            continue;
        }
        let path = def.checkpoint_path(d.name);
        v.ckpt_bytes += std::fs::metadata(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        if let Some(cert) = &a.campaign.certificate {
            problems.extend(tracer.span("adaptive.cert_verify", |_| {
                checks::certificate_file(d.name, &path, cert)
            }));
        }
        let runner = CampaignRunner::new(
            &d.engine,
            &d.trace,
            accel,
            d.metric.as_ref(),
            def.spec(seed, d.name),
        );
        let resumed = tracer
            .span("resilience.resume", |_| runner.resume_from(&path))
            .map_err(|e| format!("{}: resume_from: {e}", d.name))?;
        problems.extend(checks::resumed(d.name, &a.campaign, &resumed));
    }
    Ok(v)
}

/// Compares the fixed plans' campaigns at the check seed with the committed
/// goldens (reusing the measured round when the run seed is the check seed).
fn check_goldens(
    def: &WorkloadDef,
    deployed: &[Deployed],
    accel: &AcceleratorConfig,
    seed: u64,
    measured: &Round,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let fresh;
    let round = if seed == checks::CHECK_SEED {
        measured
    } else {
        let mut untraced = Tracer::new(false, 0);
        fresh = campaign_round(def, deployed, accel, checks::CHECK_SEED, &mut untraced)?;
        &fresh
    };
    for (d, a) in deployed.iter().zip(&round.analyses) {
        let digest = checks::cell_digest(&a.campaign.cells);
        problems.extend(checks::golden(
            checks::GOLDENS,
            def.name,
            d.name,
            a.fit.total,
            digest,
        ));
    }
    Ok(())
}

fn run(args: &Args) -> Result<Report, String> {
    let def = args.workload;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let accel = fidelity_accel::presets::nvdla_like();
    let run_id = (u64::from(std::process::id()) << 32) ^ args.seed;
    let mut tracer = Tracer::new(args.trace, run_id);
    let provenance = provenance(args);
    println!("provenance {provenance}");

    // Campaign rounds until the run's time is up, each on a fresh set-up.
    // A traced run alternates untraced and traced rounds; the untraced ones
    // are the base of `trace.overhead_frac`.
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut untraced = Tracer::new(false, run_id);
    let mut setup_s = Vec::new();
    let mut untraced_s = Vec::new();
    let mut rounds = Vec::new();
    let deployed = loop {
        let deployed = set_up(def, &mut tracer, &mut setup_s)?;
        if args.trace {
            let round = campaign_round(def, &deployed, &accel, args.seed, &mut untraced)?;
            untraced_s.push(round.campaign_s);
        }
        rounds.push(campaign_round(
            def,
            &deployed,
            &accel,
            args.seed,
            &mut tracer,
        )?);
        if Instant::now() >= deadline {
            break deployed;
        }
    };

    let mut problems = Vec::new();
    let mut failed = 0;
    let first_digests: Vec<u64> = rounds[0]
        .analyses
        .iter()
        .map(|a| checks::cell_digest(&a.campaign.cells))
        .collect();
    for (r, round) in rounds.iter().enumerate() {
        for ((d, a), first) in deployed.iter().zip(&round.analyses).zip(&first_digests) {
            let found = checks::campaign(d, &accel, def.plan, &a.campaign);
            failed += usize::from(!found.is_empty());
            problems.extend(found);
            if checks::cell_digest(&a.campaign.cells) != *first {
                problems.push(format!("{}: round {r} differs from round 0", d.name));
            }
        }
    }
    let last = rounds.last().expect("at least one round");
    let verified = verify(
        def,
        &deployed,
        &accel,
        args.seed,
        last,
        &mut tracer,
        &mut problems,
    )?;
    if matches!(def.plan, Plan::Fixed { .. }) {
        check_goldens(def, &deployed, &accel, args.seed, &rounds[0], &mut problems)?;
    }

    let measured = Measured {
        setup_s,
        rounds,
        untraced_s,
        jobs: def.spec(args.seed, def.networks[0]).threads as f64,
    };
    let (list, values) = if args.trace {
        let drill = tracer.span("bench.drill", |t| {
            drill::run(&deployed, &accel, args.seed, t)
        })?;
        problems.extend(drill.mismatches.iter().cloned());
        let path = PathBuf::from(OUT_DIR).join(format!("spans-{}-s{}.jsonl", def.name, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let values = per_layer(&measured, tracer.spans(), &drill, &verified);
        (&PER_LAYER[..], values)
    } else {
        (&END_TO_END[..], end_to_end(&measured)?)
    };

    let rounds = &measured.rounds;
    let attempted = rounds.len() * deployed.len();
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let report = Report::new(problems.is_empty(), attempted, failed, list, values)?;
    eprintln!(
        "{} seed {}: {} round(s), failed_frac {} ({failed}/{attempted} campaigns)",
        def.name,
        args.seed,
        rounds.len(),
        failed as f64 / attempted as f64
    );
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    let campaign_s: Vec<f64> = rounds.iter().map(|r| r.campaign_s).collect();
    eprintln!("  campaign_s per round: {campaign_s:.3?}");
    if let Some(s) = stats::spread(&campaign_s) {
        eprintln!("  campaign_s IQR/median over rounds: {s:.4}");
    }
    Ok(report)
}

/// Everything one run measured.
struct Measured {
    /// Wall time of each set-up.
    setup_s: Vec<f64>,
    rounds: Vec<Round>,
    /// Traced runs only: `campaign_s` of the interleaved untraced rounds.
    untraced_s: Vec<f64>,
    /// Campaign worker threads.
    jobs: f64,
}

impl Measured {
    fn campaign_s(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.campaign_s).collect()
    }

    fn injections(&self) -> f64 {
        self.rounds.last().map_or(0, Round::injections) as f64
    }
}

fn end_to_end(m: &Measured) -> Result<BTreeMap<&'static str, f64>, String> {
    let per_round = |f: fn(&Round) -> f64| median(&m.rounds.iter().map(f).collect::<Vec<_>>());
    Ok([
        ("campaign_s", median(&m.campaign_s())),
        (
            "inj_per_s",
            per_round(|r| r.injections() as f64 / r.campaign_s),
        ),
        ("injections", m.injections()),
        ("cpu_s", per_round(|r| r.cpu_s)),
        ("setup_s", median(&m.setup_s)),
        ("peak_rss_mb", host::peak_rss_mb()?),
    ]
    .into_iter()
    .collect())
}

/// The per-layer metrics, derived from the spans (and the counts measured
/// at the same calls).
fn per_layer(
    m: &Measured,
    spans: &[Span],
    drill: &drill::Drill,
    v: &Verified,
) -> BTreeMap<&'static str, f64> {
    let layers = spans::durations_by_name(spans);
    let durations = |name: &str| layers.get(name).map_or(&[][..], Vec::as_slice);
    let total_s = |name: &str| durations(name).iter().fold(0.0, |t, d| t + d) / 1e6;
    let per_setup = |name| median(&per_parent_sums(spans, "bench.setup", name));
    let build = per_setup("workloads.build");
    let engine_new = per_setup("dnn.engine_new");
    let trace_s = per_setup("dnn.trace");
    let dense_p50 = percentile(durations("inject.dense"), 50.0);
    let eq2_s = total_s("fit.eq2");
    let resume_s = total_s("resilience.resume");
    let traced_s = median(&m.campaign_s());
    let untraced_s = median(&m.untraced_s);
    let cpu_util: Vec<f64> = m
        .rounds
        .iter()
        .map(|r| r.cpu_s / (r.campaign_s * m.jobs))
        .collect();
    // The outside-in ledger: set-up, the median injection on every worker,
    // checkpoint resume and Eq. 2, against the untraced end-to-end time.
    let ledger =
        build + engine_new + trace_s + m.injections() * dense_p50 / 1e6 / m.jobs + resume_s + eq2_s;
    let b = drill.batch;
    [
        ("workloads.build_s", build),
        ("dnn.engine_new_s", engine_new),
        ("dnn.trace_s", trace_s),
        ("dnn.forward_us", mean(durations("dnn.forward"))),
        ("dnn.resume_dense_us", mean(durations("dnn.resume_dense"))),
        ("dnn.workspace_hit_rate", drill.workspace_hit_rate),
        ("inject.dense_us_p50", dense_p50),
        (
            "inject.dense_us_p99",
            percentile(durations("inject.dense"), 99.0),
        ),
        ("inject.layer_masked_frac", drill.layer_masked_frac),
        (
            "batch.delta_us_p50",
            percentile(durations("batch.delta"), 50.0),
        ),
        (
            "batch.delta_us_p99",
            percentile(durations("batch.delta"), 99.0),
        ),
        (
            "batch.delta_eligible_frac",
            b.delta_eligible as f64 / b.injections as f64,
        ),
        ("batch.installs", b.installs as f64),
        (
            "outcome.is_correct_us",
            mean(durations("outcome.is_correct")),
        ),
        ("campaign.run_s", traced_s - eq2_s),
        ("campaign.cpu_util", median(&cpu_util)),
        ("resilience.ckpt_bytes", v.ckpt_bytes as f64),
        ("resilience.resume_s", resume_s),
        ("adaptive.waves", v.waves as f64),
        ("adaptive.strata_sampled", v.strata_sampled as f64),
        (
            "adaptive.bound_over_eps",
            if v.bound_over_eps.is_empty() {
                0.0
            } else {
                mean(&v.bound_over_eps)
            },
        ),
        ("adaptive.cert_verify_s", total_s("adaptive.cert_verify")),
        ("fit.eq2_s", eq2_s),
        (
            "ledger.coverage",
            ledger / (median(&m.setup_s) + untraced_s),
        ),
        ("trace.overhead_frac", traced_s / untraced_s - 1.0),
    ]
    .into_iter()
    .collect()
}

/// For every span named `parent`, the summed duration (s) of its direct
/// children named `child`.
fn per_parent_sums(spans: &[Span], parent: &str, child: &str) -> Vec<f64> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == parent)
        .map(|(id, _)| {
            spans
                .iter()
                .filter(|s| s.parent == Some(id) && s.name == child)
                .map(|s| s.duration_ns() as f64 / 1e9)
                .sum()
        })
        .collect()
}

/// The run's configuration as one JSON object: what ran, with which
/// effective defaults, on which host and commit. Also written to
/// `.bench_out/provenance-<workload>-s<seed>.json`.
fn provenance(args: &Args) -> String {
    let def = args.workload;
    let spec = def.spec(args.seed, def.networks[0]);
    let plan = match def.plan {
        Plan::Fixed { samples_per_cell } => format!("fixed {samples_per_cell} samples/cell"),
        Plan::Adaptive { .. } => {
            let p = spec.adaptive.as_ref().expect("adaptive plan sets the spec");
            format!(
                "adaptive epsilon {} confidence {} cap {}",
                p.epsilon, p.confidence, p.max_injections
            )
        }
    };
    let mut out = String::from("{");
    let fields = [
        ("workload", def.name.to_owned()),
        ("networks", def.networks.join("+")),
        ("precision", def.precision.to_string()),
        ("plan", plan),
        ("checkpoint", def.checkpoint.to_string()),
        ("batch", spec.batch.to_string()),
        ("mac_tier", format!("{:?}", spec.mac_tier)),
        ("jobs", spec.threads.to_string()),
        ("nproc", host::nproc().to_string()),
        ("seed", args.seed.to_string()),
        ("net_seed", workload::NET_SEED.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("git_rev", host::git_rev()),
    ];
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        fidelity_obs::json::escape_into(&mut out, k);
        out.push_str(": ");
        fidelity_obs::json::escape_into(&mut out, v);
    }
    out.push('}');
    let path = PathBuf::from(OUT_DIR).join(format!("provenance-{}-s{}.json", def.name, args.seed));
    if let Err(e) = std::fs::write(&path, format!("{out}\n")) {
        eprintln!("perfbench: {}: {e}", path.display());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload adaptive --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload.name, "adaptive");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert!(parse_args(&argv("--seed 9")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload adaptive --trace 2")).is_err());
        assert!(parse_args(&argv("--workload adaptive --seed")).is_err());
    }

    #[test]
    fn per_parent_sums_groups_children_by_parent() {
        let s = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        };
        let spans = [
            s("bench.setup", 0, 100, None),
            s("dnn.trace", 0, 10, Some(0)),
            s("dnn.trace", 20, 50, Some(0)),
            s("bench.setup", 100, 200, None),
            s("dnn.trace", 100, 105, Some(3)),
        ];
        let sums = per_parent_sums(&spans, "bench.setup", "dnn.trace");
        assert_eq!(sums, vec![40e-9, 5e-9]);
    }
}
