//! Layer-by-layer re-execution of requests through the crates' public
//! functions, one span per layer call, plus the engine registry deltas the
//! spans are cross-checked against.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use quclear_circuit::qasm::to_qasm;
use quclear_core::QuClearResult;
use quclear_engine::{CompiledTemplate, Engine, ProgramFingerprint, ENGINE_STAGE_METRIC};
use quclear_pauli::{PauliRotation, SignedPauli};
use quclear_serve::{
    CompiledSummary, Request, RequestKind, Response, ResponseBody, SERVE_REQUEST_METRIC,
};

use crate::stats::Report;
use crate::trace::{ns_in_unit, stage_sum_ns, Layers, Tracer};

/// Spans that time a stage a second time from scratch (what the first,
/// cold request pays) rather than as the request ran it; they are left out
/// of the stage sum.
pub const SIDE_SPANS: &[&str] = &[
    "core.extract_ms",
    "circuit.peephole_ms",
    "core.absorb_cold_us",
    "core.diagonalize_ms",
];

/// The positive axes a rotation program compiles under.
pub fn axes_of(program: &[PauliRotation]) -> Vec<SignedPauli> {
    program
        .iter()
        .map(|r| SignedPauli::positive(r.pauli().clone()))
        .collect()
}

/// Fingerprint, then the cache lookup (`Engine::template`), each a span;
/// [`finish`] subtracts the fingerprint the lookup repeats inside.
pub fn lookup(
    t: &mut Tracer,
    engine: &Engine,
    axes: &[SignedPauli],
) -> Result<Arc<CompiledTemplate>, String> {
    let fingerprint = t.span("engine.fingerprint_us", || {
        ProgramFingerprint::of_axes(axes, engine.config())
    });
    let template = t
        .span("engine.lookup_us", || engine.template(axes))
        .map_err(|e| e.to_string())?;
    if template.fingerprint() != fingerprint {
        return Err("cached template answers another fingerprint".to_string());
    }
    Ok(template)
}

/// Cold compile as a miss runs it: fingerprint, then
/// `CompiledTemplate::compile`.
pub fn cold_template(
    t: &mut Tracer,
    engine: &Engine,
    axes: &[SignedPauli],
) -> Result<CompiledTemplate, String> {
    let fingerprint = t.span("engine.fingerprint_us", || {
        ProgramFingerprint::of_axes(axes, engine.config())
    });
    let template = t
        .span("engine.template_compile_ms", || {
            CompiledTemplate::compile(axes, engine.config())
        })
        .map_err(|e| e.to_string())?;
    if template.fingerprint() != fingerprint {
        return Err("compiled template has another fingerprint".to_string());
    }
    Ok(template)
}

/// The wire summary of a compile result, rendered as the server does.
pub fn summary(result: &QuClearResult) -> CompiledSummary {
    CompiledSummary {
        optimized_qasm: to_qasm(&result.optimized),
        extracted_qasm: to_qasm(&result.extracted),
        num_qubits: result.optimized.num_qubits(),
        cnot_count: result.cnot_count(),
        gate_count: result.optimized.len(),
    }
}

/// [`summary`] as a `circuit.render_us` span.
pub fn render(t: &mut Tracer, result: &QuClearResult) -> CompiledSummary {
    t.span("circuit.render_us", || summary(result))
}

/// Encodes and decodes the request frame; returns the decoded kind.
pub fn request_codec(t: &mut Tracer, id: u64, kind: RequestKind) -> Result<RequestKind, String> {
    let request = Request { id, kind };
    let payload = t.span("serve.request_encode_us", || request.encode());
    let decoded = t
        .span("serve.request_decode_us", || Request::decode(&payload))
        .map_err(|e| e.to_string())?;
    if decoded != request {
        return Err("request changed through the codec".to_string());
    }
    Ok(decoded.kind)
}

/// Encodes and decodes the response frame; returns the decoded body and
/// the frame's size in bytes.
pub fn response_codec(
    t: &mut Tracer,
    id: u64,
    body: ResponseBody,
) -> Result<(ResponseBody, usize), String> {
    let response = Response { id, body: Ok(body) };
    let payload = t.span("serve.response_encode_us", || response.encode());
    let decoded = t
        .span("serve.response_decode_us", || Response::decode(&payload))
        .map_err(|e| e.to_string())?;
    let body = decoded.body.map_err(|e| e.to_string())?;
    Ok((body, payload.len()))
}

/// The server's parse of wire axes (and angles) into rotations.
pub fn parse_program(
    t: &mut Tracer,
    axes: &[String],
    angles: &[f64],
) -> Result<Vec<PauliRotation>, String> {
    t.span("serve.parse_us", || {
        axes.iter()
            .zip(angles)
            .map(|(axis, &angle)| {
                axis.parse::<SignedPauli>()
                    .map(|a| PauliRotation::with_signed_pauli(a, angle))
                    .map_err(|e| format!("axis {axis}: {e}"))
            })
            .collect()
    })
}

/// The server's parse of wire observables.
pub fn parse_observables(
    t: &mut Tracer,
    observables: &[String],
) -> Result<Vec<SignedPauli>, String> {
    t.span("serve.parse_us", || {
        observables
            .iter()
            .map(|o| {
                o.parse::<SignedPauli>()
                    .map_err(|e| format!("observable {o}: {e}"))
            })
            .collect()
    })
}

/// Sums of the engine's stage histograms and the server's request
/// histograms, in ns, keyed by the per-layer metric they are compared to.
pub fn registry(engine: &Engine) -> BTreeMap<&'static str, u64> {
    let snapshot = engine.metrics_snapshot();
    let mut sums = BTreeMap::new();
    for (stage, metric) in [
        ("fingerprint", "registry.fingerprint_us"),
        ("extract", "registry.extract_ms"),
        ("bind", "registry.bind_us"),
        ("peephole", "registry.peephole_us"),
        ("absorb_pre", "registry.absorb_pre_us"),
        ("absorb_post", "registry.absorb_post_us"),
        ("diagonalize", "registry.diagonalize_ms"),
    ] {
        let sum = snapshot
            .histogram(ENGINE_STAGE_METRIC, Some(("stage", stage)))
            .map_or(0, |h| h.sum());
        sums.insert(metric, sum);
    }
    let serve: u64 = snapshot
        .histogram_family(SERVE_REQUEST_METRIC)
        .iter()
        .map(|h| h.histogram().sum())
        .sum();
    sums.insert("registry.serve_request_us", serve);
    sums
}

/// One top-level call as its caller saw it, with what the registry and the
/// engine counters recorded meanwhile.
pub struct TopCall {
    pub ns: u64,
    registry: BTreeMap<&'static str, u64>,
    hits: u64,
    lookups: u64,
}

/// Runs the top-level call `f`, untraced.
pub fn top_call<T>(engine: &Engine, f: impl FnOnce() -> T) -> (T, TopCall) {
    let (registry_before, stats_before) = (registry(engine), engine.stats());
    let start = Instant::now();
    let value = f();
    let ns = start.elapsed().as_nanos() as u64;
    let stats = engine.stats();
    let registry = registry(engine)
        .into_iter()
        .map(|(name, sum)| (name, sum - registry_before.get(name).copied().unwrap_or(0)))
        .collect();
    let call = TopCall {
        ns,
        registry,
        hits: stats.hits - stats_before.hits,
        lookups: stats.lookups() - stats_before.lookups(),
    };
    (value, call)
}

/// Cache hits and lookups of the top-level calls of a traced run.
#[derive(Debug, Default)]
pub struct HitCount {
    pub hits: u64,
    pub lookups: u64,
}

impl HitCount {
    pub fn ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Closes a re-executed request and files its numbers: span totals (the
/// lookup net of the fingerprint it repeats), the top-level call's wall
/// time, registry and cache deltas, and what the stages leave unexplained:
/// `serve.transport_us` for a wire request, `engine.unattributed_us` for an
/// in-process one.
pub fn finish(t: &mut Tracer, layers: &mut Layers, hits: &mut HitCount, top: &TopCall, wire: bool) {
    let (layered_ns, mut totals) = t.end();
    let fingerprint = totals.get("engine.fingerprint_us").copied().unwrap_or(0);
    if let Some(lookup) = totals.get_mut("engine.lookup_us") {
        *lookup = lookup.saturating_sub(fingerprint);
    }
    layers.push_spans(&totals);
    let rest = top.ns as f64 - stage_sum_ns(&totals, SIDE_SPANS) as f64;
    layers.push(
        if wire {
            "serve.transport_us"
        } else {
            "engine.unattributed_us"
        },
        rest / 1e3,
    );
    layers.push("trace.top_p50_ms", top.ns as f64 / 1e6);
    layers.push("trace.layered_p50_ms", layered_ns as f64 / 1e6);
    for (&name, &delta) in &top.registry {
        if delta > 0 {
            layers.push(name, ns_in_unit(name, delta));
        }
    }
    hits.hits += top.hits;
    hits.lookups += top.lookups;
}

/// Files the per-layer metrics of a traced run into `report`.
pub fn report_layers(layers: &Layers, hits: &HitCount, report: &mut Report) {
    for (name, _) in crate::PER_LAYER.iter().chain(crate::UNLISTED) {
        report.set(name, layers.median(name));
    }
    report.set("engine.hit_ratio", hits.ratio());
    report.set("trace.requests", layers.count("trace.top_p50_ms") as f64);
}
