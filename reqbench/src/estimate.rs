//! `estimate-8q`: the VQE energy evaluation. One caller estimates the 168
//! `vqe_expectation_sweep` observables (12 commuting groups) of UCC-(4,8)
//! at fresh parameters with 2^18 shots per group, in-process through
//! `Engine::estimate_observables` and over loopback through
//! `Client::estimate`, in alternating slices. Shots far exceed 2^8
//! amplitudes, so sampling and packing dominate and simulation is about 1%.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use quclear_circuit::Circuit;
use quclear_core::{MeasurementPlan, ShotBatch};
use quclear_engine::group_shot_seed;
use quclear_pauli::{PauliRotation, SignedPauli};
use quclear_serve::{RequestKind, ResponseBody};
use quclear_sim::StateVector;
use quclear_workloads::{vqe_expectation_sweep, Benchmark};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::harness::{self, rng_for, Rig, Sample};
use crate::layered::{self, HitCount};
use crate::oracle;
use crate::stats::Report;
use crate::trace::{Layers, Tracer};

pub const SHOTS: u64 = 1 << 18;

/// Expectations, commuting groups and shot-budget divisor of one estimate.
type Estimate = (Vec<f64>, Vec<Vec<usize>>, f64);

struct Setup {
    program: Vec<PauliRotation>,
    observables: Vec<SignedPauli>,
    axes: Vec<String>,
    observable_strings: Vec<String>,
    rig: Rig,
}

fn setup() -> Setup {
    let sweep = vqe_expectation_sweep(&Benchmark::Ucc(4, 8), 1, 0);
    let program = sweep.scenario.program;
    let observables = sweep.observables;
    let rig = Rig::start();
    // Warm the template and the measurement plan, as a VQE loop's first
    // evaluation does.
    rig.engine
        .estimate_observables(&program, &observables, 64, 0)
        .expect("warm-up estimate");
    Setup {
        axes: program.iter().map(|r| r.pauli().to_string()).collect(),
        observable_strings: observables.iter().map(ToString::to_string).collect(),
        program,
        observables,
        rig,
    }
}

/// Request `i`: fresh parameters and a fresh shot seed.
fn request(seed: u64, program: &[PauliRotation], i: u64) -> (Vec<PauliRotation>, u64) {
    let mut rng = rng_for(seed, 0, i);
    let angles = harness::reangle(program, &mut rng);
    (angles, rng.next_u64())
}

/// Executed CX per evaluation: the optimized circuit plus the mean
/// diagonalizer over the shot batches.
fn executed_cx(optimized: &Circuit, plan: &MeasurementPlan) -> f64 {
    optimized.cnot_count() as f64 + mean_diag_cx(plan)
}

fn mean_diag_cx(plan: &MeasurementPlan) -> f64 {
    let total: usize = plan
        .groups()
        .iter()
        .map(|g| g.diagonalizer().circuit().cnot_count())
        .sum();
    total as f64 / plan.num_groups().max(1) as f64
}

pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let (mut s, setup_timer) = harness::timed_setup(setup);
    s.rig.connect(1);
    let engine = std::sync::Arc::clone(&s.rig.engine);
    let (program, observables) = (&s.program, &s.observables);
    // One full-size request down each path before timing, so that both
    // threads' allocator arenas reach their steady size in a fixed order;
    // otherwise `peak_rss_mib` varied by 5 MiB between runs.
    let axes: Vec<&str> = s.axes.iter().map(String::as_str).collect();
    let obs: Vec<&str> = s.observable_strings.iter().map(String::as_str).collect();
    let angles: Vec<f64> = program.iter().map(PauliRotation::angle).collect();
    engine
        .estimate_observables(program, observables, SHOTS, 0)
        .expect("warm-up estimate");
    s.rig.clients[0]
        .estimate(&axes, &angles, &obs, SHOTS, 0)
        .expect("warm-up wire estimate");
    // Expectations by request index, for the oracle and the wire check.
    let inproc_out: Mutex<Vec<(u64, Vec<f64>)>> = Mutex::new(Vec::new());
    let wire_out: Mutex<Vec<(u64, Vec<f64>)>> = Mutex::new(Vec::new());
    let (axes, obs) = (&s.axes, &s.observable_strings);
    let (inproc, wire) = harness::interleaved(
        &mut [()],
        &mut s.rig.clients,
        budget,
        1,
        |_, _, i| {
            let (rotations, shot_seed) = request(seed, program, i);
            let start = Instant::now();
            let result = engine
                .estimate_observables(&rotations, observables, SHOTS, shot_seed)
                .map_err(|e| e.to_string())?;
            let ns = harness::ns_since(start);
            inproc_out
                .lock()
                .expect("no caller panics")
                .push((i, result.expectations));
            Ok(Sample { class: 0, ns })
        },
        |client, _, i| {
            let (rotations, shot_seed) = request(seed, program, i);
            let angles: Vec<f64> = rotations.iter().map(PauliRotation::angle).collect();
            let axes: Vec<&str> = axes.iter().map(String::as_str).collect();
            let obs: Vec<&str> = obs.iter().map(String::as_str).collect();
            let start = Instant::now();
            let (expectations, _, _) = client
                .estimate(&axes, &angles, &obs, SHOTS, shot_seed)
                .map_err(|e| e.to_string())?;
            let ns = harness::ns_since(start);
            wire_out
                .lock()
                .expect("no caller panics")
                .push((i, expectations));
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

    // Oracle: every in-process expectation against exact simulation of the
    // uncompiled ansatz; every wire answer bit-identical to in-process.
    let prep = Circuit::new(program[0].num_qubits());
    for (i, expectations) in &inproc_out {
        let (rotations, _) = request(seed, program, *i);
        let exact = oracle::exact_expectations(&prep, &rotations, observables);
        if let Err(e) = oracle::within_sampling_bound(expectations, &exact, SHOTS) {
            report.reject(format!("in-process request {i}: {e}"));
        }
    }
    for (i, expectations) in &wire_out {
        let same = match inproc_out.get(*i as usize) {
            Some((_, reference)) => bits(reference) == bits(expectations),
            None => {
                let (rotations, shot_seed) = request(seed, program, *i);
                let reference = engine
                    .estimate_observables(&rotations, observables, SHOTS, shot_seed)
                    .map(|r| r.expectations)
                    .unwrap_or_default();
                bits(&reference) == bits(expectations)
            }
        };
        if !same {
            report.reject(format!(
                "wire request {i}: expectations differ from in-process"
            ));
        }
    }

    let compiled = engine.compile(program).expect("warm compile");
    let naive = quclear_baselines::synthesize_naive(program);
    harness::report_quality(
        &[(compiled.cnot_count(), naive.cnot_count())],
        &[(compiled.entangling_depth(), naive.entangling_depth())],
        &mut report,
    );
    let plan = engine
        .measurement_plan(program, observables)
        .expect("warm plan");
    report.set("executed_cx", executed_cx(&compiled.optimized, &plan));
    report
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The engine half of an estimate, layer by layer, exactly as
/// `Engine::estimate_observables` runs it.
fn layered_estimate(
    t: &mut Tracer,
    layers: &mut Layers,
    engine: &quclear_engine::Engine,
    rotations: &[PauliRotation],
    observables: &[SignedPauli],
    shot_seed: u64,
) -> Result<Estimate, String> {
    let axes = layered::axes_of(rotations);
    let template = layered::lookup(t, engine, &axes)?;
    let plan = t.span("core.plan_memo_us", || {
        template.measurement_plan(observables)
    });
    // Side re-executions: what the first request with this observable set
    // paid before the plan was memoized.
    let absorbed = t.span("core.absorb_cold_us", || {
        template.absorption_plan().absorb(observables)
    });
    let cold = t.span("core.diagonalize_ms", || {
        MeasurementPlan::from_absorbed(&absorbed)
    });
    let same_plan = cold.num_groups() == plan.num_groups()
        && cold.groups().iter().zip(plan.groups()).all(|(a, b)| {
            a.members() == b.members() && a.diagonalizer().circuit() == b.diagonalizer().circuit()
        });
    if !same_plan {
        return Err("re-derived measurement plan differs from the memoized one".to_string());
    }
    let template = layered::lookup(t, engine, &axes)?;
    let bound = t
        .span("engine.bind_us", || template.bind_program(rotations))
        .map_err(|e| e.to_string())?;
    let base = t.span("sim.simulate_ms", || {
        StateVector::from_circuit(&bound.optimized)
    });
    let mut batches = Vec::with_capacity(plan.num_groups());
    for (g, group) in plan.groups().iter().enumerate() {
        let rotated = t.span("sim.simulate_ms", || {
            let mut rotated = base.clone();
            rotated.apply_circuit(group.diagonalizer().circuit());
            rotated
        });
        let indices = t.span("sim.sample_ms", || {
            let mut rng = StdRng::seed_from_u64(group_shot_seed(shot_seed, g));
            rotated.sample_indices(SHOTS as usize, &mut rng)
        });
        batches.push(t.span("core.pack_ms", || {
            ShotBatch::from_indices(plan.num_qubits(), &indices)
        }));
    }
    let expectations = t.span("core.readout_ms", || plan.estimate(&batches));
    layers.push("core.groups", plan.num_groups() as f64);
    layers.push("core.diag_cx", mean_diag_cx(&plan));
    layers.push("sim.amplitudes", (1u64 << plan.num_qubits()) as f64);
    layers.push("sim.shots", (SHOTS * plan.num_groups() as u64) as f64);
    let groups = plan.groups().iter().map(|g| g.members().to_vec()).collect();
    Ok((expectations, groups, plan.shot_budget_divisor()))
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
        let (rotations, shot_seed) = request(seed, &s.program, i);
        let wire = i % 2 == 1;
        report.attempted += 1;
        let outcome = (|| -> Result<(), String> {
            if wire {
                let angles: Vec<f64> = rotations.iter().map(PauliRotation::angle).collect();
                let axes_ref: Vec<&str> = s.axes.iter().map(String::as_str).collect();
                let obs_ref: Vec<&str> = s.observable_strings.iter().map(String::as_str).collect();
                let client = s.rig.client();
                let (top, call) = layered::top_call(&engine, || {
                    client.estimate(&axes_ref, &angles, &obs_ref, SHOTS, shot_seed)
                });
                let (expectations, groups, divisor) = top.map_err(|e| e.to_string())?;
                t.begin(i, "wire.estimate");
                let kind = RequestKind::Estimate {
                    program: s.axes.clone(),
                    angles,
                    observables: s.observable_strings.clone(),
                    shots: SHOTS,
                    seed: shot_seed,
                };
                let RequestKind::Estimate {
                    program,
                    angles,
                    observables,
                    ..
                } = layered::request_codec(t, i, kind)?
                else {
                    return Err("decoded another kind".to_string());
                };
                let parsed = layered::parse_program(t, &program, &angles)?;
                let observables = layered::parse_observables(t, &observables)?;
                let (e, g, d) =
                    layered_estimate(t, &mut layers, &engine, &parsed, &observables, shot_seed)?;
                let body = ResponseBody::Estimated {
                    expectations: e,
                    groups: g,
                    shot_budget_divisor: d,
                };
                let (body, bytes) = layered::response_codec(t, i, body)?;
                layered::finish(t, &mut layers, &mut hits, &call, true);
                layers.push("serve.response_bytes", bytes as f64);
                let expected = ResponseBody::Estimated {
                    expectations,
                    groups,
                    shot_budget_divisor: divisor,
                };
                if format!("{body:?}") != format!("{expected:?}") {
                    return Err(format!("request {i}: re-executed response differs"));
                }
            } else {
                let (top, call) = layered::top_call(&engine, || {
                    engine.estimate_observables(&rotations, &s.observables, SHOTS, shot_seed)
                });
                let top = top.map_err(|e| e.to_string())?;
                t.begin(i, "estimate");
                let (e, g, _) = layered_estimate(
                    t,
                    &mut layers,
                    &engine,
                    &rotations,
                    &s.observables,
                    shot_seed,
                )?;
                layered::finish(t, &mut layers, &mut hits, &call, false);
                if bits(&e) != bits(&top.expectations) || g != top.groups {
                    return Err(format!("request {i}: re-executed estimate differs"));
                }
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
    let share = (report.metrics["sim.sample_ms"] + report.metrics["core.pack_ms"])
        / report.metrics["trace.top_p50_ms"];
    if share < 0.5 {
        report.error(format!(
            "sim.sample_ms + core.pack_ms are {share:.2} of a request, under half"
        ));
    }
    report
}
