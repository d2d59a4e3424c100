//! The traced per-layer drill: calls each layer's public functions directly
//! on the deployed networks, one span per call, and checks the batched
//! evaluator against the dense one injection for injection.

use fidelity_accel::arch::AcceleratorConfig;
use fidelity_core::batch::{BatchStats, BatchedInjectionRunner};
use fidelity_core::inject::{inject_once_pooled, Injection};
use fidelity_core::models::{model_for, SoftwareFaultModel};
use fidelity_dnn::graph::Trace;
use fidelity_dnn::init::SplitMix64;
use fidelity_dnn::workspace::Workspace;

use crate::spans::Tracer;
use crate::workload::Deployed;

/// Injections sampled per workload: enough that p99 has at least ten
/// samples beyond it.
const SAMPLE_TARGET: usize = 1200;

/// Timed repetitions of each warm forward pass and each dense resume.
const REPS: usize = 5;

/// Counts the drill measures alongside its spans.
#[derive(Debug, Clone)]
pub struct Drill {
    /// `Workspace::hit_rate` of the dense path's workspace over the drill.
    pub workspace_hit_rate: f64,
    /// Dense injections whose fault was masked at the corrupted layer
    /// (`faulty_neurons == 0`), over all sampled injections.
    pub layer_masked_frac: f64,
    pub batch: BatchStats,
    /// Injections where the batched path disagreed with the dense one.
    pub mismatches: Vec<String>,
}

/// One sampled injection: network, MAC node, fault model, RNG seed.
struct Item {
    net: usize,
    node: usize,
    model: SoftwareFaultModel,
    rng_seed: u64,
}

/// A seeded sample of every MAC node × census category of every network,
/// the same number of injections per cell.
fn sample(deployed: &[Deployed], accel: &AcceleratorConfig, seed: u64) -> Vec<Item> {
    let models: Vec<SoftwareFaultModel> = accel
        .census
        .iter()
        .filter_map(|(c, _)| model_for(c, accel))
        .collect();
    let cells: Vec<(usize, usize)> = deployed
        .iter()
        .enumerate()
        .flat_map(|(net, d)| mac_nodes(d).into_iter().map(move |node| (net, node)))
        .collect();
    let per_cell = SAMPLE_TARGET.div_ceil(cells.len() * models.len());
    let mut rng = SplitMix64::new(seed);
    let mut items = Vec::new();
    for &(net, node) in &cells {
        for &model in &models {
            for _ in 0..per_cell {
                items.push(Item {
                    net,
                    node,
                    model,
                    rng_seed: rng.next_u64(),
                });
            }
        }
    }
    items
}

fn mac_nodes(d: &Deployed) -> Vec<usize> {
    (0..d.engine.network().node_count())
        .filter(|&i| d.engine.mac_spec(i, &d.trace).is_some())
        .collect()
}

fn same(a: &Injection, b: &Injection) -> bool {
    a.outcome == b.outcome
        && a.faulty_neurons == b.faulty_neurons
        && a.max_perturbation.to_bits() == b.max_perturbation.to_bits()
}

/// Runs the drill. Spans: `dnn.forward`, `dnn.resume_dense`,
/// `outcome.is_correct`, `inject.dense`, `batch.delta`.
pub fn run(
    deployed: &[Deployed],
    accel: &AcceleratorConfig,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Drill, String> {
    let mut ws = Workspace::new();
    ws.reset_counters();

    // Repetition 0 of every timed call is a warm-up, recorded nowhere.
    let mut warm_up = Tracer::new(false, 0);
    for d in deployed {
        let err = |e| format!("{}: {e}", d.name);
        for rep in 0..=REPS {
            let t = if rep == 0 { &mut warm_up } else { &mut *tracer };
            let out = t
                .span("dnn.forward", |_| {
                    d.engine.forward_pooled(&d.trace.inputs, &mut ws)
                })
                .map_err(err)?;
            ws.recycle(out);
        }
        // Dense resume from every MAC node with its golden output, and the
        // correctness metric on what comes out. Every node has the same
        // number of cells, so the plain mean over these spans is the
        // cell-weighted mean.
        for node in mac_nodes(d) {
            for rep in 0..=REPS {
                let t = if rep == 0 { &mut warm_up } else { &mut *tracer };
                let golden = ws.clone_of(&d.trace.node_outputs[node]);
                let out = t
                    .span("dnn.resume_dense", |_| {
                        d.engine
                            .resume_pooled(&d.trace, node, golden, None, &mut ws)
                    })
                    .map_err(err)?;
                let ok = t.span("outcome.is_correct", |_| {
                    d.metric.is_correct(&d.trace.output, out.tensor())
                });
                if !ok {
                    return Err(format!(
                        "{}: the golden resume from node {node} is judged incorrect",
                        d.name
                    ));
                }
                out.recycle_into(&mut ws);
            }
        }
    }

    // The same injection sample through the dense path, in sample order...
    let items = sample(deployed, accel, seed);
    let mut dense = Vec::with_capacity(items.len());
    for it in &items {
        let d = &deployed[it.net];
        let mut rng = SplitMix64::new(it.rng_seed);
        let inj = tracer
            .span("inject.dense", |_| {
                inject_once_pooled(
                    &d.engine,
                    &d.trace,
                    it.node,
                    it.model,
                    d.metric.as_ref(),
                    &mut rng,
                    None,
                    &mut ws,
                )
            })
            .map_err(|e| format!("{}: dense injection at node {}: {e}", d.name, it.node))?;
        dense.push(inj);
    }
    let workspace_hit_rate = ws.hit_rate();
    let layer_masked = dense.iter().filter(|i| i.faulty_neurons == 0).count();

    // ...and through the batched runner, grouped by golden trace.
    let traces: Vec<&Trace> = items.iter().map(|it| &deployed[it.net].trace).collect();
    let mut runner = BatchedInjectionRunner::new(64);
    let mut mismatches = Vec::new();
    for i in BatchedInjectionRunner::group_order(&traces) {
        let it = &items[i];
        let d = &deployed[it.net];
        let mut rng = SplitMix64::new(it.rng_seed);
        let inj = tracer
            .span("batch.delta", |_| {
                runner.run(
                    &d.engine,
                    &d.trace,
                    it.node,
                    it.model,
                    d.metric.as_ref(),
                    &mut rng,
                    None,
                )
            })
            .map_err(|e| format!("{}: batched injection at node {}: {e}", d.name, it.node))?;
        if !same(&inj, &dense[i]) {
            mismatches.push(format!(
                "{}: node {} {:?} sample {i}: batched {:?}/{} vs dense {:?}/{}",
                d.name,
                it.node,
                it.model,
                inj.outcome,
                inj.faulty_neurons,
                dense[i].outcome,
                dense[i].faulty_neurons
            ));
        }
    }

    Ok(Drill {
        workspace_hit_rate,
        layer_masked_frac: layer_masked as f64 / items.len() as f64,
        batch: runner.stats(),
        mismatches,
    })
}
