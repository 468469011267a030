//! `warm-mix`: warm-cache traffic on pre-warmed structures, two closed-loop
//! callers, in-process through `Engine` and, in alternating slices, the
//! same request sequences over two loopback connections to a
//! default-config `Server`.
//! Fingerprint, bind, parse and lift, QASM rendering and the wire codec do
//! the work; extraction does none.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use quclear_baselines::synthesize_naive;
use quclear_circuit::qasm::{from_qasm, to_qasm};
use quclear_circuit::{Circuit, Gate};
use quclear_core::{lift, lift_qasm, AbsorbedObservables, QuClearResult};
use quclear_engine::Engine;
use quclear_pauli::{PauliRotation, SignedPauli};
use quclear_serve::{CompiledSummary, RequestKind, ResponseBody};
use quclear_sim::StateVector;
use quclear_workloads::{vqe_expectation_sweep, zz_chain_qasm, Benchmark, QasmAnsatz};
use rand::RngCore;

use crate::harness::{self, rng_for, Rig, Sample};
use crate::layered::{self, HitCount};
use crate::oracle;
use crate::stats::Report;
use crate::trace::{Layers, Tracer};

/// Request kinds and how many of each a 20-request deck holds: compile of
/// UCC-(4,8), UCC-(6,12) and MaxCut-(n20, r4) at fresh angles, a sweep of
/// 8 angle sets on UCC-(4,8), `compile_qasm` of a fresh ZZ-chain text and
/// `absorb` of UCC-(4,8)'s observables. The counts put every p50 and p90
/// inside one kind's latency cluster rather than on the edge between two:
/// in-process p50 in UCC-(6,12) compiles and p90 in `compile_qasm`; over
/// the wire p50 in UCC-(4,8) compiles and p90 in UCC-(6,12) compiles.
/// Sweeps, whose latency depends on spawning their worker threads, stay at
/// one per deck so that no percentile lands on them.
const KINDS: [(&str, u64); 6] = [
    ("compile-ucc48", 6),
    ("compile-ucc612", 4),
    ("compile-maxcut20", 2),
    ("sweep-ucc48", 1),
    ("compile-qasm", 6),
    ("absorb-ucc48", 1),
];
const DECK: u64 = 20;
const SWEEP_SETS: usize = 8;
const CALLERS: usize = 2;

struct Setup {
    /// UCC-(4,8), UCC-(6,12), MaxCut-(n20, r4).
    programs: [Vec<PauliRotation>; 3],
    observables: Vec<SignedPauli>,
    rig: Rig,
}

enum Req {
    Compile(Vec<PauliRotation>),
    Sweep(Vec<Vec<f64>>),
    Qasm(QasmAnsatz),
    Absorb,
}

enum Output {
    One(QuClearResult),
    Many(Vec<QuClearResult>),
    Absorbed(Arc<AbsorbedObservables>),
}

fn setup() -> Setup {
    let programs = [
        Benchmark::Ucc(4, 8).rotations(),
        Benchmark::Ucc(6, 12).rotations(),
        Benchmark::MaxCutRegular { n: 20, degree: 4 }.rotations(),
    ];
    let observables = vqe_expectation_sweep(&Benchmark::Ucc(4, 8), 1, 0).observables;
    let s = Setup {
        programs,
        observables,
        rig: Rig::start(),
    };
    for kind in 0..KINDS.len() {
        let req = prepare_kind(&s, kind, &mut rng_for(0, 99, kind as u64));
        inproc(&s.rig.engine, &s, &req).expect("warm-up request");
    }
    s
}

/// Request `i` of `caller`: a kind drawn from the caller's shuffled deck,
/// and fresh inputs.
fn prepare(seed: u64, s: &Setup, caller: usize, i: u64) -> (usize, Req) {
    let deck: Vec<usize> = KINDS
        .iter()
        .enumerate()
        .flat_map(|(k, &(_, n))| std::iter::repeat_n(k, n as usize))
        .collect();
    let order = harness::shuffled(deck.len(), &mut rng_for(seed, 10 + caller as u64, i / DECK));
    let kind = deck[order[(i % DECK) as usize]];
    (
        kind,
        prepare_kind(s, kind, &mut rng_for(seed, 20 + caller as u64, i)),
    )
}

fn prepare_kind(s: &Setup, kind: usize, rng: &mut rand::rngs::StdRng) -> Req {
    match kind {
        0..=2 => Req::Compile(harness::reangle(&s.programs[kind], rng)),
        3 => Req::Sweep(
            (0..SWEEP_SETS)
                .map(|_| {
                    harness::reangle(&s.programs[0], rng)
                        .iter()
                        .map(PauliRotation::angle)
                        .collect()
                })
                .collect(),
        ),
        4 => Req::Qasm(zz_chain_qasm(20, 4, rng.next_u64())),
        _ => Req::Absorb,
    }
}

fn inproc(engine: &Engine, s: &Setup, req: &Req) -> Result<Output, String> {
    let e = |e: quclear_engine::EngineError| e.to_string();
    Ok(match req {
        Req::Compile(program) => Output::One(engine.compile(program).map_err(e)?),
        Req::Sweep(sets) => Output::Many(
            engine
                .sweep(&s.programs[0], sets)
                .map_err(e)?
                .into_iter()
                .collect::<Result<_, _>>()
                .map_err(e)?,
        ),
        Req::Qasm(ansatz) => Output::One(engine.compile_qasm(&ansatz.qasm).map_err(e)?),
        Req::Absorb => Output::Absorbed(
            engine
                .absorb_observables(&s.programs[0], &s.observables)
                .map_err(e)?,
        ),
    })
}

fn axes(program: &[PauliRotation]) -> Vec<String> {
    program.iter().map(|r| r.pauli().to_string()).collect()
}

fn wire_kind(s: &Setup, req: &Req) -> RequestKind {
    match req {
        Req::Compile(program) => RequestKind::Compile {
            program: axes(program),
            angles: program.iter().map(PauliRotation::angle).collect(),
        },
        Req::Sweep(sets) => RequestKind::Sweep {
            program: axes(&s.programs[0]),
            angle_sets: sets.clone(),
        },
        Req::Qasm(ansatz) => RequestKind::CompileQasm {
            qasm: ansatz.qasm.clone(),
        },
        Req::Absorb => RequestKind::Absorb {
            program: axes(&s.programs[0]),
            observables: s.observables.iter().map(ToString::to_string).collect(),
        },
    }
}

/// The response the server should send for an in-process output.
fn body(output: &Output) -> ResponseBody {
    match output {
        Output::One(result) => ResponseBody::Compiled(layered::summary(result)),
        Output::Many(results) => {
            ResponseBody::Sweep(results.iter().map(|r| Ok(layered::summary(r))).collect())
        }
        Output::Absorbed(absorbed) => absorbed_body(absorbed),
    }
}

fn absorbed_body(absorbed: &AbsorbedObservables) -> ResponseBody {
    ResponseBody::Absorbed {
        observables: absorbed.to_vec().iter().map(ToString::to_string).collect(),
        groups: absorbed.commuting_groups(),
    }
}

fn text_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// A digest of a response body, so wire answers can be checked after the
/// timed phase without keeping them. `extracted` supplies the hash of a
/// summary's extracted-Clifford text.
fn digest(body: &ResponseBody, extracted: &mut dyn FnMut(&CompiledSummary) -> u64) -> u64 {
    let mut h = DefaultHasher::new();
    let mut summary = |s: &CompiledSummary, h: &mut DefaultHasher| {
        (text_hash(&s.optimized_qasm), extracted(s)).hash(h);
        (s.num_qubits, s.cnot_count, s.gate_count).hash(h);
    };
    match body {
        ResponseBody::Compiled(s) => summary(s, &mut h),
        ResponseBody::Sweep(results) => {
            for r in results {
                match r {
                    Ok(s) => summary(s, &mut h),
                    Err(e) => (&e.kind, &e.message).hash(&mut h),
                }
            }
        }
        ResponseBody::Absorbed {
            observables,
            groups,
        } => (observables, groups).hash(&mut h),
        other => format!("{other:?}").hash(&mut h),
    }
    h.finish()
}

/// A digest of an in-process output: every gate of each result, or the
/// rewritten observables. Cheap enough to take inside the timed loop, so
/// that every output can be checked after it without keeping it.
fn output_digest(output: &Output) -> u64 {
    // FxHash-style word mixing.
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    let circuit = |mut h: u64, c: &Circuit| {
        h = mix(h, c.num_qubits() as u64);
        for gate in c.gates() {
            h = mix(h, gate.name().bytes().fold(0, |a, b| a << 8 | u64::from(b)));
            for &q in gate.qubit_list().as_slice() {
                h = mix(h, q as u64);
            }
            if let Gate::Rz { angle, .. } | Gate::Rx { angle, .. } | Gate::Ry { angle, .. } = *gate
            {
                h = mix(h, angle.to_bits());
            }
        }
        h
    };
    match output {
        Output::One(r) => circuit(circuit(0, &r.optimized), &r.extracted),
        Output::Many(rs) => rs
            .iter()
            .fold(1, |h, r| circuit(circuit(h, &r.optimized), &r.extracted)),
        Output::Absorbed(absorbed) => {
            let mut h = DefaultHasher::new();
            absorbed.to_vec().hash(&mut h);
            h.finish()
        }
    }
}

/// The digest the server's answer to `output` must have. The extracted
/// Clifford depends only on the structure, so its text is rendered and
/// hashed once per request kind.
fn expected_digest(output: &Output, kind: usize, cache: &mut [Option<u64>]) -> u64 {
    let results: Vec<&QuClearResult> = match output {
        Output::One(r) => vec![r],
        Output::Many(rs) => rs.iter().collect(),
        Output::Absorbed(absorbed) => return digest(&absorbed_body(absorbed), &mut |_| 0),
    };
    let extracted = *cache[kind].get_or_insert_with(|| text_hash(&to_qasm(&results[0].extracted)));
    let mut summaries = results.iter().map(|r| CompiledSummary {
        optimized_qasm: to_qasm(&r.optimized),
        extracted_qasm: String::new(),
        num_qubits: r.optimized.num_qubits(),
        cnot_count: r.cnot_count(),
        gate_count: r.optimized.len(),
    });
    let body = match output {
        Output::One(_) => ResponseBody::Compiled(summaries.next().expect("one result")),
        _ => ResponseBody::Sweep(summaries.map(Ok).collect()),
    };
    digest(&body, &mut |_| extracted)
}

pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let (mut s, setup_timer) = harness::timed_setup(setup);
    s.rig.connect(CALLERS);
    let engine = Arc::clone(&s.rig.engine);
    let mut clients = std::mem::take(&mut s.rig.clients);
    let s_ref = &s;
    let before = engine.stats();
    // Answers by (caller, request): a digest of each in-process output and
    // of each wire answer, and in full the first wire answer of each kind
    // on caller 0, for the simulation check.
    let inproc_digests: Mutex<Vec<(usize, u64, u64)>> = Mutex::new(Vec::new());
    let digests: Mutex<Vec<(usize, u64, u64)>> = Mutex::new(Vec::new());
    let kept: Mutex<Vec<Option<(u64, ResponseBody)>>> = Mutex::new(vec![None; KINDS.len()]);
    let (inproc_phase, wire_phase) = harness::interleaved(
        &mut [(); CALLERS],
        &mut clients,
        budget,
        DECK,
        |_, caller, i| {
            let (kind, req) = prepare(seed, s_ref, caller, i);
            let start = Instant::now();
            let output = inproc(&engine, s_ref, &req)?;
            let ns = harness::ns_since(start);
            let d = output_digest(&output);
            inproc_digests
                .lock()
                .expect("no caller panics")
                .push((caller, i, d));
            Ok(Sample { class: kind, ns })
        },
        |client, caller, i| {
            let (kind, req) = prepare(seed, s_ref, caller, i);
            let request = wire_kind(s_ref, &req);
            let start = Instant::now();
            let response = client.request(request).map_err(|e| e.to_string())?;
            let ns = harness::ns_since(start);
            let d = digest(&response, &mut |s| text_hash(&s.extracted_qasm));
            digests
                .lock()
                .expect("no caller panics")
                .push((caller, i, d));
            if caller == 0 {
                let mut kept = kept.lock().expect("no caller panics");
                if kept[kind].is_none() {
                    kept[kind] = Some((i, response));
                }
            }
            Ok(Sample { class: kind, ns })
        },
    );
    let stats = engine.stats();
    report.set("peak_rss_mib", harness::peak_rss_mib());
    setup_timer.finish(setup, &mut report);

    inproc_phase.report("", &mut report);
    wire_phase.report("wire_", &mut report);
    harness::report_geomean(&inproc_phase, KINDS.len(), &mut report);
    if stats.misses != before.misses {
        report.error(format!(
            "{} cache misses on warm traffic",
            stats.misses - before.misses
        ));
    }

    // Oracle 1: every in-process output of the two concurrent callers and
    // every wire answer equals a single-threaded recompute of the same
    // request.
    let oracle_start = Instant::now();
    check_against_recompute(
        &engine,
        &s,
        seed,
        inproc_digests.into_inner().expect("callers joined"),
        digests.into_inner().expect("callers joined"),
        &mut report,
    );
    eprintln!(
        "answers checked in {:.1} s",
        oracle_start.elapsed().as_secs_f64()
    );
    // Oracle 2: one wire answer per kind of at most 12 qubits, re-parsed
    // from its QASM and simulated against the uncompiled input.
    let oracle_start = Instant::now();
    let mut rng = rng_for(seed, 3, 0);
    for (kind, kept) in kept
        .into_inner()
        .expect("callers joined")
        .iter()
        .enumerate()
    {
        let Some((i, response)) = kept else {
            report.error(format!("no wire answer of kind {} to check", KINDS[kind].0));
            continue;
        };
        let (_, req) = prepare(seed, &s, 0, *i);
        let too_wide = match &req {
            Req::Compile(program) => program[0].num_qubits() > oracle::MAX_CHECKED_QUBITS,
            // The ZZ chain has 20 qubits.
            Req::Qasm(_) => true,
            Req::Sweep(_) | Req::Absorb => false,
        };
        if too_wide {
            continue;
        }
        if let Err(e) = simulate_check(&s, &req, response, &mut rng) {
            report.reject(format!("kind {} request {i}: {e}", KINDS[kind].0));
        }
    }
    eprintln!(
        "simulation checks took {:.1} s",
        oracle_start.elapsed().as_secs_f64()
    );
    report_quality(&engine, &s, seed, &mut report);
    report
}

/// Recomputes every request that has an in-process or a wire digest, one
/// thread per caller, and rejects each digest that differs from the
/// recompute's.
fn check_against_recompute(
    engine: &Engine,
    s: &Setup,
    seed: u64,
    inproc_digests: Vec<(usize, u64, u64)>,
    wire_digests: Vec<(usize, u64, u64)>,
    report: &mut Report,
) {
    // Per caller, request index -> (in-process digest, wire digest).
    let mut by_caller: Vec<BTreeMap<u64, [Option<u64>; 2]>> = vec![BTreeMap::new(); CALLERS];
    for (p, digests) in [inproc_digests, wire_digests].into_iter().enumerate() {
        for (caller, i, d) in digests {
            by_caller[caller].entry(i).or_default()[p] = Some(d);
        }
    }
    let rejected: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = by_caller
            .iter()
            .enumerate()
            .map(|(caller, requests)| {
                scope.spawn(move || {
                    let mut extracted = [None; KINDS.len()];
                    let mut rejected = Vec::new();
                    for (&i, &[inproc_d, wire_d]) in requests {
                        let (kind, req) = prepare(seed, s, caller, i);
                        let output = match inproc(engine, s, &req) {
                            Ok(output) => output,
                            Err(e) => {
                                rejected
                                    .push(format!("caller {caller} request {i}: recompute {e}"));
                                continue;
                            }
                        };
                        if inproc_d.is_some_and(|d| d != output_digest(&output)) {
                            rejected.push(format!(
                                "caller {caller} request {i}: in-process output differs"
                            ));
                        }
                        if wire_d
                            .is_some_and(|d| d != expected_digest(&output, kind, &mut extracted))
                        {
                            rejected
                                .push(format!("caller {caller} request {i}: wire answer differs"));
                        }
                    }
                    rejected
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("recompute threads do not panic"))
            .collect()
    });
    for why in rejected {
        report.reject(why);
    }
}

fn full_from_qasm(summary: &CompiledSummary) -> Result<Circuit, String> {
    let mut full = from_qasm(&summary.optimized_qasm).map_err(|e| e.to_string())?;
    full.append(&from_qasm(&summary.extracted_qasm).map_err(|e| e.to_string())?);
    Ok(full)
}

fn simulate_check(
    s: &Setup,
    req: &Req,
    response: &ResponseBody,
    rng: &mut rand::rngs::StdRng,
) -> Result<(), String> {
    let agrees = match (req, response) {
        (Req::Compile(program), ResponseBody::Compiled(summary)) => {
            oracle::compile_agrees(program, &full_from_qasm(summary)?, rng)
        }
        (Req::Sweep(sets), ResponseBody::Sweep(results)) => {
            let summary = results[0].as_ref().map_err(ToString::to_string)?;
            let program: Vec<PauliRotation> = s.programs[0]
                .iter()
                .zip(&sets[0])
                .map(|(r, &a)| PauliRotation::new(r.pauli().clone(), a))
                .collect();
            oracle::compile_agrees(&program, &full_from_qasm(summary)?, rng)
        }
        (Req::Absorb, ResponseBody::Absorbed { observables, .. }) => {
            // ⟨O⟩ on the full circuit equals ⟨C†OC⟩ on the optimized one.
            let compiled = quclear_core::compile(&s.programs[0], &Default::default());
            let full = StateVector::from_circuit(&compiled.full_circuit());
            let optimized = StateVector::from_circuit(&compiled.optimized);
            s.observables.iter().zip(observables).all(|(o, rewritten)| {
                rewritten.parse::<SignedPauli>().is_ok_and(|r| {
                    (full.expectation_signed(o) - optimized.expectation_signed(&r)).abs() < 1e-8
                })
            })
        }
        _ => return Err("answer of the wrong kind".to_string()),
    };
    if agrees {
        Ok(())
    } else {
        Err("simulation disagrees with the uncompiled input".to_string())
    }
}

/// Quality over the four compiled structures, and the CX they execute.
fn report_quality(engine: &Engine, s: &Setup, seed: u64, report: &mut Report) {
    let ansatz = zz_chain_qasm(20, 4, seed);
    let lifted = lift_qasm(&ansatz.qasm).expect("generated QASM parses");
    let mut cases: Vec<(QuClearResult, Vec<PauliRotation>)> = s
        .programs
        .iter()
        .map(|p| (engine.compile(p).expect("warm compile"), p.clone()))
        .collect();
    cases.push((
        engine
            .compile_qasm(&ansatz.qasm)
            .expect("warm compile_qasm"),
        lifted.rotations_with_angles(lifted.native_angles()),
    ));
    let mut cnots = Vec::new();
    let mut depths = Vec::new();
    let mut executed = 0;
    for (result, program) in &cases {
        let naive = synthesize_naive(program);
        cnots.push((result.cnot_count(), naive.cnot_count()));
        depths.push((result.entangling_depth(), naive.entangling_depth()));
        executed += result.optimized.cnot_count();
    }
    harness::report_quality(&cnots, &depths, report);
    report.set("executed_cx", executed as f64);
}

fn layered_inproc(t: &mut Tracer, engine: &Engine, s: &Setup, req: &Req) -> Result<Output, String> {
    let e = |e: quclear_engine::EngineError| e.to_string();
    Ok(match req {
        Req::Compile(program) => {
            let template = layered::lookup(t, engine, &layered::axes_of(program))?;
            Output::One(
                t.span("engine.bind_us", || template.bind_program(program))
                    .map_err(e)?,
            )
        }
        Req::Sweep(sets) => {
            let template = layered::lookup(t, engine, &layered::axes_of(&s.programs[0]))?;
            let results = sets
                .iter()
                .map(|set| t.span("engine.bind_us", || template.bind(set)).map_err(e))
                .collect::<Result<_, _>>()?;
            Output::Many(results)
        }
        Req::Qasm(ansatz) => {
            let circuit = t
                .span("circuit.parse_us", || from_qasm(&ansatz.qasm))
                .map_err(|e| e.to_string())?;
            let lifted = t.span("core.lift_us", || lift(&circuit));
            let template = layered::lookup(t, engine, lifted.axes())?;
            let bound = t
                .span("engine.bind_us", || template.bind(lifted.native_angles()))
                .map_err(e)?;
            Output::One(lifted.attach(bound))
        }
        Req::Absorb => {
            let template = layered::lookup(t, engine, &layered::axes_of(&s.programs[0]))?;
            let absorbed = t.span("core.absorb_pre_us", || {
                template.absorb_observables(&s.observables)
            });
            let cold = t.span("core.absorb_cold_us", || {
                template.absorption_plan().absorb(&s.observables)
            });
            if cold.to_vec() != absorbed.to_vec() {
                return Err("re-derived absorption differs from the memoized one".to_string());
            }
            Output::Absorbed(absorbed)
        }
    })
}

/// The server's handling of `kind`, layer by layer.
fn layered_server(
    t: &mut Tracer,
    engine: &Engine,
    kind: RequestKind,
) -> Result<ResponseBody, String> {
    let e = |e: quclear_engine::EngineError| e.to_string();
    Ok(match kind {
        RequestKind::Compile { program, angles } => {
            let rotations = layered::parse_program(t, &program, &angles)?;
            let template = layered::lookup(t, engine, &layered::axes_of(&rotations))?;
            let bound = t
                .span("engine.bind_us", || template.bind_program(&rotations))
                .map_err(e)?;
            ResponseBody::Compiled(layered::render(t, &bound))
        }
        RequestKind::Sweep {
            program,
            angle_sets,
        } => {
            let rotations = layered::parse_program(t, &program, &vec![0.0; program.len()])?;
            let template = layered::lookup(t, engine, &layered::axes_of(&rotations))?;
            let mut results = Vec::with_capacity(angle_sets.len());
            for set in &angle_sets {
                let bound = t.span("engine.bind_us", || template.bind(set)).map_err(e)?;
                results.push(Ok(layered::render(t, &bound)));
            }
            ResponseBody::Sweep(results)
        }
        RequestKind::CompileQasm { qasm } => {
            let circuit = t
                .span("circuit.parse_us", || from_qasm(&qasm))
                .map_err(|e| e.to_string())?;
            let lifted = t.span("core.lift_us", || lift(&circuit));
            let template = layered::lookup(t, engine, lifted.axes())?;
            let bound = t
                .span("engine.bind_us", || template.bind(lifted.native_angles()))
                .map_err(e)?;
            ResponseBody::Compiled(layered::render(t, &lifted.attach(bound)))
        }
        RequestKind::Absorb {
            program,
            observables,
        } => {
            let rotations = layered::parse_program(t, &program, &vec![0.0; program.len()])?;
            let observables = layered::parse_observables(t, &observables)?;
            let template = layered::lookup(t, engine, &layered::axes_of(&rotations))?;
            let absorbed = t.span("core.absorb_pre_us", || {
                template.absorb_observables(&observables)
            });
            t.span("serve.body_us", || absorbed_body(&absorbed))
        }
        other => return Err(format!("warm-mix never sends {}", other.name())),
    })
}

pub fn traced(seed: u64, budget: Duration, t: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mut s = setup();
    s.rig.connect(1);
    let engine = Arc::clone(&s.rig.engine);
    let mut layers = Layers::default();
    let mut hits = HitCount::default();
    let start = Instant::now();
    let mut i = 0u64;
    // Whole decks, alternating in-process and wire, at least one of each.
    while !i.is_multiple_of(DECK) || i < 2 * DECK || start.elapsed() < budget {
        let (kind, req) = prepare(seed, &s, 0, i);
        let wire = (i / DECK) % 2 == 1;
        report.attempted += 1;
        let outcome = (|| -> Result<(), String> {
            if wire {
                let request = wire_kind(&s, &req);
                let client = s.rig.client();
                let (top, call) = layered::top_call(&engine, || client.request(request.clone()));
                let top = top.map_err(|e| e.to_string())?;
                t.begin(i, KINDS[kind].0);
                let decoded = layered::request_codec(t, i, request)?;
                let answer = layered_server(t, &engine, decoded)?;
                let (answer, bytes) = layered::response_codec(t, i, answer)?;
                layered::finish(t, &mut layers, &mut hits, &call, true);
                layers.push("serve.response_bytes", bytes as f64);
                if answer != top {
                    return Err(format!("request {i}: re-executed response differs"));
                }
            } else {
                let (top, call) = layered::top_call(&engine, || inproc(&engine, &s, &req));
                let top = top?;
                t.begin(i, KINDS[kind].0);
                let output = layered_inproc(t, &engine, &s, &req)?;
                layered::finish(t, &mut layers, &mut hits, &call, false);
                if body(&output) != body(&top) {
                    return Err(format!("request {i}: re-executed output differs"));
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
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_digest_sees_one_changed_angle() {
        let program = Benchmark::Ucc(4, 8).rotations();
        let result = quclear_core::compile(&program, &Default::default());
        let mut gates = result.optimized.gates().to_vec();
        let k = gates
            .iter()
            .position(|g| matches!(g, Gate::Rz { .. }))
            .expect("the compiled ansatz has an Rz");
        if let Gate::Rz { angle, .. } = &mut gates[k] {
            *angle = f64::from_bits(angle.to_bits() ^ 1);
        }
        let mut changed = result.clone();
        changed.optimized = Circuit::from_gates(result.optimized.num_qubits(), gates);
        let same = output_digest(&Output::One(result.clone()));
        assert_eq!(same, output_digest(&Output::One(result)));
        assert_ne!(same, output_digest(&Output::One(changed)));
    }
}
