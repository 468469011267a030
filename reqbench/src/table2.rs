//! `table2-cold`: cold compiles of the paper's 19 Table-II programs, one
//! in-process caller, cycling every program once per cycle in seeded order.
//! Extraction and peephole do all the work; the cache, `serve` framing and
//! `sim` do none. The traced run also sends every other cycle over
//! loopback, to show what `serve` adds to a cold compile.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use quclear_baselines::synthesize_naive;
use quclear_circuit::optimize_warming;
use quclear_circuit::PeepholeCache;
use quclear_core::{extract_clifford, QuClearResult};
use quclear_pauli::PauliRotation;
use quclear_serve::{RequestKind, ResponseBody};
use quclear_workloads::Benchmark;

use crate::harness::{self, rng_for, Rig, Sample};
use crate::layered::{self, HitCount};
use crate::oracle;
use crate::stats::Report;
use crate::trace::{Layers, Tracer};

struct Setup {
    programs: Vec<Vec<PauliRotation>>,
    rig: Rig,
}

fn setup() -> Setup {
    Setup {
        programs: Benchmark::all().iter().map(Benchmark::rotations).collect(),
        rig: Rig::start(),
    }
}

/// Request `i`: which program, at which fresh angles. Every cycle of
/// `programs.len()` requests compiles each program once, in seeded order.
fn request(seed: u64, programs: &[Vec<PauliRotation>], i: u64) -> (usize, Vec<PauliRotation>) {
    let n = programs.len() as u64;
    let order = harness::shuffled(programs.len(), &mut rng_for(seed, 0, i / n));
    let p = order[(i % n) as usize];
    (p, harness::reangle(&programs[p], &mut rng_for(seed, 1, i)))
}

fn wire_program(program: &[PauliRotation]) -> (Vec<String>, Vec<f64>) {
    (
        program.iter().map(|r| r.pauli().to_string()).collect(),
        program.iter().map(PauliRotation::angle).collect(),
    )
}

/// A program compiled in-process, with the rotations it was compiled from.
type Kept = (Vec<PauliRotation>, QuClearResult);

/// The counts a wire summary reports, to compare against in-process.
fn counts(result: &QuClearResult) -> (usize, usize, usize) {
    (
        result.optimized.num_qubits(),
        result.cnot_count(),
        result.optimized.len(),
    )
}

pub fn run(seed: u64, budget: Duration) -> Report {
    let mut report = Report::default();
    let (s, setup_timer) = harness::timed_setup(setup);
    let n = s.programs.len();
    let engine = &s.rig.engine;
    // The first result of each program, kept for the oracle and the
    // quality metrics.
    let first: Mutex<Vec<Option<Kept>>> = Mutex::new(vec![None; n]);
    let programs = &s.programs;
    let inproc = harness::closed_loop(budget, n as u64, |_, _, i| {
        let (p, program) = request(seed, programs, i);
        engine.clear_cache();
        let start = Instant::now();
        let result = engine.compile(&program).map_err(|e| e.to_string())?;
        let ns = harness::ns_since(start);
        let mut first = first.lock().expect("no caller panics");
        match &first[p] {
            None => first[p] = Some((program, result)),
            Some((_, kept)) if counts(kept) != counts(&result) => {
                return Err(format!(
                    "program {p}: counts {:?} vs {:?}",
                    counts(&result),
                    counts(kept)
                ));
            }
            Some(_) => {}
        }
        Ok(Sample { class: p, ns })
    });
    let first = first.into_inner().expect("callers joined");
    report.set("peak_rss_mib", harness::peak_rss_mib());
    setup_timer.finish(setup, &mut report);

    // Program latencies span three orders of magnitude, so a pooled
    // percentile only names a program: p50 and p90 are placeholders holding
    // `geomean_ms`. The workload is in-process only, so the wire metrics
    // are placeholders holding the in-process values.
    inproc.report_throughput("", &mut report);
    harness::report_geomean(&inproc, n, &mut report);
    for (name, from) in [
        ("p50_ms", "geomean_ms"),
        ("p90_ms", "geomean_ms"),
        ("wire_p50_ms", "geomean_ms"),
        ("wire_p90_ms", "geomean_ms"),
        ("wire_rps", "rps"),
    ] {
        if let Some(&value) = report.metrics.get(from) {
            report.set(name, value);
        }
    }

    let mut cnots = Vec::new();
    let mut depths = Vec::new();
    let mut executed = 0;
    let mut rng = rng_for(seed, 2, 0);
    for (p, kept) in first.iter().enumerate() {
        let Some((program, result)) = kept else {
            report.error(format!("program {p} never compiled"));
            continue;
        };
        let naive = synthesize_naive(program);
        cnots.push((result.cnot_count(), naive.cnot_count()));
        depths.push((result.entangling_depth(), naive.entangling_depth()));
        executed += result.optimized.cnot_count();
        if result.optimized.num_qubits() <= oracle::MAX_CHECKED_QUBITS
            && !oracle::compile_agrees(program, &result.full_circuit(), &mut rng)
        {
            report.reject(format!(
                "program {p}: compiled circuit differs from its rotations"
            ));
        }
    }
    harness::report_quality(&cnots, &depths, &mut report);
    report.set("executed_cx", executed as f64);
    report
}

pub fn traced(seed: u64, budget: Duration, t: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mut s = setup();
    s.rig.connect(1);
    let n = s.programs.len() as u64;
    let engine = std::sync::Arc::clone(&s.rig.engine);
    let config = *engine.config();
    let mut layers = Layers::default();
    let mut hits = HitCount::default();
    let start = Instant::now();
    let mut i = 0u64;
    // Whole cycles, alternating in-process and wire, at least one of each.
    while !i.is_multiple_of(n) || i < 2 * n || start.elapsed() < budget {
        let (p, program) = request(seed, &s.programs, i);
        let wire = (i / n) % 2 == 1;
        report.attempted += 1;
        let outcome = (|| -> Result<(), String> {
            engine.clear_cache();
            if wire {
                let (axes, angles) = wire_program(&program);
                let axes_ref: Vec<&str> = axes.iter().map(String::as_str).collect();
                let client = s.rig.client();
                let (top, call) = layered::top_call(&engine, || client.compile(&axes_ref, &angles));
                let top = top.map_err(|e| e.to_string())?;
                t.begin(i, "wire.compile");
                let kind = layered::request_codec(
                    t,
                    i,
                    RequestKind::Compile {
                        program: axes,
                        angles,
                    },
                )?;
                let RequestKind::Compile {
                    program: axes,
                    angles,
                } = kind
                else {
                    return Err("decoded another kind".to_string());
                };
                let rotations = layered::parse_program(t, &axes, &angles)?;
                let template = layered::cold_template(t, &engine, &layered::axes_of(&rotations))?;
                let bound = t
                    .span("engine.bind_us", || template.bind_program(&rotations))
                    .map_err(|e| e.to_string())?;
                let summary = layered::render(t, &bound);
                let (body, bytes) = layered::response_codec(t, i, ResponseBody::Compiled(summary))?;
                layered::finish(t, &mut layers, &mut hits, &call, true);
                layers.push("serve.response_bytes", bytes as f64);
                if body != ResponseBody::Compiled(top) {
                    return Err(format!("program {p}: re-executed response differs"));
                }
            } else {
                let (top, call) = layered::top_call(&engine, || engine.compile(&program));
                let top = top.map_err(|e| e.to_string())?;
                t.begin(i, "compile");
                let axes = layered::axes_of(&program);
                let template = layered::cold_template(t, &engine, &axes)?;
                let bound = t
                    .span("engine.bind_us", || template.bind_program(&program))
                    .map_err(|e| e.to_string())?;
                // Side re-executions: the two stages inside the template
                // compile, timed on their own.
                let marked: Vec<PauliRotation> = axes
                    .iter()
                    .enumerate()
                    .map(|(k, a)| PauliRotation::with_signed_pauli(a.clone(), (k + 1) as f64))
                    .collect();
                let extraction = t.span("core.extract_ms", || {
                    extract_clifford(&marked, &config.extraction)
                });
                t.span("circuit.peephole_ms", || {
                    optimize_warming(
                        &extraction.optimized,
                        &config.peephole,
                        &mut PeepholeCache::new(),
                    )
                });
                layered::finish(t, &mut layers, &mut hits, &call, false);
                layers.push("core.extracted_gates", extraction.extracted.len() as f64);
                if bound.optimized != top.optimized || bound.extracted != top.extracted {
                    return Err(format!("program {p}: re-executed compile differs"));
                }
                if &extraction.extracted != template.extracted() {
                    return Err(format!("program {p}: re-executed extraction differs"));
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
    if hits.lookups == 0 || hits.hits != 0 {
        report.error(format!(
            "engine.hit_ratio is {} on cold compiles, not 0",
            hits.ratio()
        ));
    }
    report
}
