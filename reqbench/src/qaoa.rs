//! `qaoa-15q`: one QAOA step on MaxCut-(n15, e63) at fresh (γ, β), with
//! the repository's simulator standing in for the device. In-process the
//! step is `Engine::compile`, simulation of the initial layer, optimized
//! circuit and CA-Pre basis layer, 2^14 shots, packing, CA-Post through
//! `Engine::post_process_shots` and the 63 edge expectations. Over
//! loopback the compile goes through `Client::compile` and the caller
//! rebuilds the absorber from the returned extracted Clifford. With 2^14
//! shots below 2^15 amplitudes, simulation dominates.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use quclear_circuit::qasm::from_qasm;
use quclear_circuit::Circuit;
use quclear_core::{ProbabilityAbsorber, ShotBatch};
use quclear_engine::Engine;
use quclear_pauli::{PauliRotation, SignedPauli};
use quclear_serve::{Client, RequestKind, ResponseBody};
use quclear_sim::StateVector;
use quclear_workloads::{maxcut_observables, maxcut_qaoa, qaoa_initial_layer, Benchmark, Graph};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::harness::{self, rng_for, Rig, Sample};
use crate::layered::{self, HitCount};
use crate::oracle;
use crate::stats::Report;
use crate::trace::{Layers, Tracer};

pub const SHOTS: usize = 1 << 14;
const QUBITS: usize = 15;
const EDGES: usize = 63;
/// The graph seed `Benchmark::MaxCutRandom` uses for the Table-II instance.
const GRAPH_SEED: u64 = 0x51CA;
/// Steps per run checked against exact simulation (about 25 ms each).
const ORACLE_STEPS: usize = 48;

struct Setup {
    graph: Graph,
    observables: Vec<SignedPauli>,
    rig: Rig,
}

fn setup() -> Setup {
    let graph = Graph::random(QUBITS, EDGES, GRAPH_SEED);
    let instance = Benchmark::MaxCutRandom {
        n: QUBITS,
        edges: EDGES,
    };
    let program = maxcut_qaoa(&graph, 1, 0.4, 0.9);
    assert!(
        program
            .iter()
            .zip(instance.rotations())
            .all(|(a, b)| a == &b),
        "the rebuilt graph is not the Table-II instance"
    );
    let rig = Rig::start();
    let warm = Step::new(&graph, 0.4, 0.9, 0);
    warm.inproc(&rig.engine, &instance.observables())
        .expect("warm-up step");
    Setup {
        graph,
        observables: maxcut_observables(&Graph::random(QUBITS, EDGES, GRAPH_SEED)),
        rig,
    }
}

/// The inputs of one step.
struct Step {
    rotations: Vec<PauliRotation>,
    shot_seed: u64,
}

impl Step {
    fn new(graph: &Graph, gamma: f64, beta: f64, shot_seed: u64) -> Step {
        Step {
            rotations: maxcut_qaoa(graph, 1, gamma, beta),
            shot_seed,
        }
    }

    /// Request `i`: fresh (γ, β) and a fresh shot seed.
    fn request(seed: u64, graph: &Graph, i: u64) -> Step {
        let mut rng = rng_for(seed, 0, i);
        let gamma = rng.gen_range(0.0..std::f64::consts::PI);
        let beta = rng.gen_range(0.0..std::f64::consts::FRAC_PI_2);
        Step::new(graph, gamma, beta, rng.next_u64())
    }

    fn inproc(&self, engine: &Engine, observables: &[SignedPauli]) -> Result<Vec<f64>, String> {
        let result = engine.compile(&self.rotations).map_err(|e| e.to_string())?;
        let absorber = engine
            .template_for(&self.rotations)
            .map_err(|e| e.to_string())?
            .probability_absorber()
            .map_err(|e| e.to_string())?;
        let indices = sample(&result.optimized, &absorber, self.shot_seed);
        let batch = ShotBatch::from_indices(QUBITS, &indices);
        let processed = engine
            .post_process_shots(&self.rotations, &batch)
            .map_err(|e| e.to_string())?;
        Ok(readout(&processed, observables))
    }

    fn wire(&self, client: &mut Client, observables: &[SignedPauli]) -> Result<Vec<f64>, String> {
        let axes: Vec<String> = self
            .rotations
            .iter()
            .map(|r| r.pauli().to_string())
            .collect();
        let axes: Vec<&str> = axes.iter().map(String::as_str).collect();
        let angles: Vec<f64> = self.rotations.iter().map(PauliRotation::angle).collect();
        let summary = client.compile(&axes, &angles).map_err(|e| e.to_string())?;
        let optimized = from_qasm(&summary.optimized_qasm).map_err(|e| e.to_string())?;
        let extracted = from_qasm(&summary.extracted_qasm).map_err(|e| e.to_string())?;
        let absorber =
            ProbabilityAbsorber::from_extracted(&extracted).map_err(|e| e.to_string())?;
        let indices = sample(&optimized, &absorber, self.shot_seed);
        let processed = absorber.post_process_shots(&ShotBatch::from_indices(QUBITS, &indices));
        Ok(readout(&processed, observables))
    }
}

/// The measured circuit: `|+⟩` layer, optimized circuit, CA-Pre basis layer.
fn measured_circuit(optimized: &Circuit, absorber: &ProbabilityAbsorber) -> Circuit {
    let mut circuit = qaoa_initial_layer(QUBITS);
    circuit.append(optimized);
    circuit.append(&absorber.pre_circuit());
    circuit
}

fn sample(optimized: &Circuit, absorber: &ProbabilityAbsorber, shot_seed: u64) -> Vec<u64> {
    let state = StateVector::from_circuit(&measured_circuit(optimized, absorber));
    state.sample_indices(SHOTS, &mut StdRng::seed_from_u64(shot_seed))
}

fn readout(shots: &ShotBatch, observables: &[SignedPauli]) -> Vec<f64> {
    observables
        .iter()
        .map(|o| o.sign() * shots.parity_expectation_of(o.pauli()))
        .collect()
}

pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let (mut s, setup_timer) = harness::timed_setup(setup);
    s.rig.connect(1);
    let engine = std::sync::Arc::clone(&s.rig.engine);
    let (graph, observables) = (&s.graph, &s.observables);
    let inproc_out: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());
    let wire_out: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());
    let (inproc, wire) = harness::interleaved(
        &mut [()],
        &mut s.rig.clients,
        budget,
        1,
        |_, _, i| {
            let step = Step::request(seed, graph, i);
            let start = Instant::now();
            let edges = step.inproc(&engine, observables)?;
            let ns = harness::ns_since(start);
            inproc_out.lock().expect("no caller panics").push(edges);
            Ok(Sample { class: 0, ns })
        },
        |client, _, i| {
            let step = Step::request(seed, graph, i);
            let start = Instant::now();
            let edges = step.wire(client, observables)?;
            let ns = harness::ns_since(start);
            wire_out.lock().expect("no caller panics").push(edges);
            Ok(Sample { class: 0, ns })
        },
    );
    let inproc_out = inproc_out.into_inner().expect("callers joined");
    let wire_out = wire_out.into_inner().expect("callers joined");
    report.set("peak_rss_mib", harness::peak_rss_mib());
    setup_timer.finish(setup, &mut report);

    inproc.report("", &mut report);
    wire.report("wire_", &mut report);
    harness::report_geomean(&inproc, 1, &mut report);

    // Oracle: every wire step reproduces the bits of the in-process step
    // with the same inputs, and every edge expectation of a seeded sample of
    // steps (plus any step only the wire phase ran) lies within the
    // sampling bound of exact simulation of the uncompiled program.
    let prep = qaoa_initial_layer(QUBITS);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rng = rng_for(seed, 3, 0);
    let sampled: Vec<usize> = harness::shuffled(inproc_out.len(), &mut rng)
        .into_iter()
        .take(ORACLE_STEPS)
        .chain(inproc_out.len()..wire_out.len())
        .collect();
    for (i, (a, b)) in inproc_out.iter().zip(&wire_out).enumerate() {
        if bits(a) != bits(b) {
            report.reject(format!("step {i}: wire edges differ from in-process"));
        }
    }
    for i in sampled {
        let step = Step::request(seed, graph, i as u64);
        let exact = oracle::exact_expectations(&prep, &step.rotations, observables);
        let edges = inproc_out
            .get(i)
            .or(wire_out.get(i))
            .expect("sampled steps ran");
        if let Err(e) = oracle::within_sampling_bound(edges, &exact, SHOTS as u64) {
            report.reject(format!("step {i}: {e}"));
        }
    }

    let program = Benchmark::MaxCutRandom {
        n: QUBITS,
        edges: EDGES,
    }
    .rotations();
    let compiled = engine.compile(&program).expect("warm compile");
    let naive = quclear_baselines::synthesize_naive(&program);
    harness::report_quality(
        &[(compiled.cnot_count(), naive.cnot_count())],
        &[(compiled.entangling_depth(), naive.entangling_depth())],
        &mut report,
    );
    let absorber = engine
        .template_for(&program)
        .and_then(|t| {
            t.probability_absorber()
                .map_err(quclear_engine::EngineError::NotAbsorbable)
        })
        .expect("MaxCut QAOA is probability-absorbable");
    let executed = compiled.optimized.cnot_count() + absorber.pre_circuit().cnot_count();
    report.set("executed_cx", executed as f64);
    report
}

/// Sampling through readout, as both step variants run it after the
/// absorber is in hand.
fn layered_tail(
    t: &mut Tracer,
    layers: &mut Layers,
    optimized: &Circuit,
    absorber: &ProbabilityAbsorber,
    shot_seed: u64,
) -> ShotBatch {
    let state = t.span("sim.simulate_ms", || {
        StateVector::from_circuit(&measured_circuit(optimized, absorber))
    });
    let indices = t.span("sim.sample_ms", || {
        state.sample_indices(SHOTS, &mut StdRng::seed_from_u64(shot_seed))
    });
    layers.push("sim.amplitudes", (1u64 << QUBITS) as f64);
    layers.push("sim.shots", SHOTS as f64);
    layers.push("core.diag_cx", absorber.pre_circuit().cnot_count() as f64);
    t.span("core.pack_ms", || ShotBatch::from_indices(QUBITS, &indices))
}

fn layered_inproc(
    t: &mut Tracer,
    layers: &mut Layers,
    engine: &Engine,
    step: &Step,
    observables: &[SignedPauli],
) -> Result<Vec<f64>, String> {
    let axes = layered::axes_of(&step.rotations);
    let template = layered::lookup(t, engine, &axes)?;
    let bound = t
        .span("engine.bind_us", || template.bind_program(&step.rotations))
        .map_err(|e| e.to_string())?;
    // The template keeps its absorber once built; fetching it is engine
    // glue, left to `engine.unattributed_us`.
    let template = layered::lookup(t, engine, &axes)?;
    let absorber = template.probability_absorber().map_err(|e| e.to_string())?;
    let batch = layered_tail(t, layers, &bound.optimized, &absorber, step.shot_seed);
    let template = layered::lookup(t, engine, &axes)?;
    let absorber = template.probability_absorber().map_err(|e| e.to_string())?;
    let processed = t.span("core.absorb_post_us", || {
        absorber.post_process_shots(&batch)
    });
    Ok(t.span("core.readout_ms", || readout(&processed, observables)))
}

fn layered_wire(
    t: &mut Tracer,
    layers: &mut Layers,
    engine: &Engine,
    step: &Step,
    observables: &[SignedPauli],
    id: u64,
) -> Result<(Vec<f64>, usize), String> {
    let kind = RequestKind::Compile {
        program: step
            .rotations
            .iter()
            .map(|r| r.pauli().to_string())
            .collect(),
        angles: step.rotations.iter().map(PauliRotation::angle).collect(),
    };
    let RequestKind::Compile { program, angles } = layered::request_codec(t, id, kind)? else {
        return Err("decoded another kind".to_string());
    };
    let rotations = layered::parse_program(t, &program, &angles)?;
    let template = layered::lookup(t, engine, &layered::axes_of(&rotations))?;
    let bound = t
        .span("engine.bind_us", || template.bind_program(&rotations))
        .map_err(|e| e.to_string())?;
    let summary = layered::render(t, &bound);
    let (body, bytes) = layered::response_codec(t, id, ResponseBody::Compiled(summary))?;
    let ResponseBody::Compiled(summary) = body else {
        return Err("decoded another body".to_string());
    };
    let (optimized, extracted) = t
        .span("circuit.parse_us", || {
            Ok::<_, quclear_circuit::qasm::ParseQasmError>((
                from_qasm(&summary.optimized_qasm)?,
                from_qasm(&summary.extracted_qasm)?,
            ))
        })
        .map_err(|e| e.to_string())?;
    let absorber = t
        .span("core.absorber_us", || {
            ProbabilityAbsorber::from_extracted(&extracted)
        })
        .map_err(|e| e.to_string())?;
    let batch = layered_tail(t, layers, &optimized, &absorber, step.shot_seed);
    let processed = t.span("core.absorb_post_us", || {
        absorber.post_process_shots(&batch)
    });
    Ok((
        t.span("core.readout_ms", || readout(&processed, observables)),
        bytes,
    ))
}

pub fn traced(seed: u64, budget: Duration, t: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mut s = setup();
    s.rig.connect(1);
    let engine = std::sync::Arc::clone(&s.rig.engine);
    let mut layers = Layers::default();
    let mut hits = HitCount::default();
    let start = Instant::now();
    let mut i = 0u64;
    while i < 4 || start.elapsed() < budget {
        let step = Step::request(seed, &s.graph, i);
        let wire = i % 2 == 1;
        report.attempted += 1;
        let outcome = (|| -> Result<(), String> {
            let observables = &s.observables;
            let (top, call, edges) = if wire {
                let client = s.rig.client();
                let (top, call) = layered::top_call(&engine, || step.wire(client, observables));
                t.begin(i, "wire.qaoa_step");
                let (edges, bytes) = layered_wire(t, &mut layers, &engine, &step, observables, i)?;
                layers.push("serve.response_bytes", bytes as f64);
                (top?, call, edges)
            } else {
                let (top, call) = layered::top_call(&engine, || step.inproc(&engine, observables));
                t.begin(i, "qaoa_step");
                let edges = layered_inproc(t, &mut layers, &engine, &step, observables)?;
                (top?, call, edges)
            };
            layered::finish(t, &mut layers, &mut hits, &call, wire);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            if bits(&top) != bits(&edges) {
                return Err(format!("step {i}: re-executed edges differ"));
            }
            Ok(())
        })();
        if let Err(e) = outcome {
            t.abandon();
            report.reject(e);
        }
        i += 1;
    }
    layered::report_layers(&layers, &hits, &mut report);
    if hits.ratio() != 1.0 {
        report.error(format!(
            "engine.hit_ratio is {}, not 1, on a warm workload",
            hits.ratio()
        ));
    }
    let share = report.metrics["sim.simulate_ms"] / report.metrics["trace.top_p50_ms"];
    if share < 0.5 {
        report.error(format!(
            "sim.simulate_ms is {share:.2} of a step, under half"
        ));
    }
    report
}
