//! Request-level benchmark of the QuCLEAR service.
//!
//! ```text
//! cargo run --release --offline --manifest-path reqbench/Cargo.toml -- \
//!     --workload <table2-cold|warm-mix|estimate-8q|qaoa-15q> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! re-executes every request layer by layer and prints the per-layer
//! metrics. The last line of standard output is the JSON result; the exit
//! code is non-zero when any output was wrong. See `reqbench/README.md`.

mod estimate;
mod harness;
mod layered;
mod oracle;
mod qaoa;
mod stats;
mod table2;
mod trace;
mod warm_mix;

use std::process::ExitCode;
use std::time::Duration;

/// Metrics of an untraced run: every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("rps", "1/s"),
    ("wire_p50_ms", "ms"),
    ("wire_p90_ms", "ms"),
    ("wire_rps", "1/s"),
    ("geomean_ms", "ms"),
    ("cnot_ratio", "ratio"),
    ("depth_ratio", "ratio"),
    ("executed_cx", "count"),
    ("peak_rss_mib", "MiB"),
];

/// Metrics of a traced run: per-request medians of the re-executed stages
/// (0 where a workload does not cross that layer), registry deltas, and
/// the traced run's own wall times.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.request_encode_us", "us"),
    ("serve.request_decode_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.body_us", "us"),
    ("serve.response_encode_us", "us"),
    ("serve.response_decode_us", "us"),
    ("serve.response_bytes", "count"),
    ("serve.transport_us", "us"),
    ("engine.fingerprint_us", "us"),
    ("engine.lookup_us", "us"),
    ("engine.bind_us", "us"),
    ("engine.template_compile_ms", "ms"),
    ("engine.hit_ratio", "ratio"),
    ("engine.unattributed_us", "us"),
    ("core.extract_ms", "ms"),
    ("core.extracted_gates", "count"),
    ("core.lift_us", "us"),
    ("core.absorb_pre_us", "us"),
    ("core.absorb_cold_us", "us"),
    ("core.diag_cx", "count"),
    ("core.absorber_us", "us"),
    ("core.pack_ms", "ms"),
    ("core.readout_ms", "ms"),
    ("core.absorb_post_us", "us"),
    ("circuit.peephole_ms", "ms"),
    ("circuit.render_us", "us"),
    ("circuit.parse_us", "us"),
    ("sim.simulate_ms", "ms"),
    ("sim.sample_ms", "ms"),
    ("sim.amplitudes", "count"),
    ("sim.shots", "count"),
    ("registry.fingerprint_us", "us"),
    ("registry.extract_ms", "ms"),
    ("registry.bind_us", "us"),
    ("registry.peephole_us", "us"),
    ("registry.absorb_pre_us", "us"),
    ("registry.absorb_post_us", "us"),
    ("registry.serve_request_us", "us"),
    ("trace.top_p50_ms", "ms"),
    ("trace.layered_p50_ms", "ms"),
    ("trace.requests", "count"),
];

/// Per-layer metrics of the measurement plan, which only `estimate-8q`
/// builds. A traced run prints them, but its result line leaves them out:
/// `BENCHMARK.json` does not list `estimate-8q`, and on the listed
/// workloads they would be 0 by construction.
pub const UNLISTED: &[(&str, &str)] = &[
    ("core.plan_memo_us", "us"),
    ("core.diagonalize_ms", "ms"),
    ("core.groups", "count"),
    ("registry.diagonalize_ms", "ms"),
];

/// The workloads. `BENCHMARK.json` lists all but `estimate-8q`, whose
/// latency tail is not steady enough on a shared host (see
/// `reqbench/README.md`).
pub const WORKLOADS: &[&str] = &["table2-cold", "warm-mix", "estimate-8q", "qaoa-15q"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("reqbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let (mut report, declared) = if args.trace {
        let mut tracer = trace::Tracer::new();
        let report = match args.workload.as_str() {
            "table2-cold" => table2::traced(args.seed, budget, &mut tracer),
            "warm-mix" => warm_mix::traced(args.seed, budget, &mut tracer),
            "estimate-8q" => estimate::traced(args.seed, budget, &mut tracer),
            _ => qaoa::traced(args.seed, budget, &mut tracer),
        };
        harness::write_spans(&args.workload, args.seed, &tracer);
        (report, PER_LAYER)
    } else {
        let report = match args.workload.as_str() {
            "table2-cold" => table2::run(args.seed, budget),
            "warm-mix" => warm_mix::run(args.seed, budget),
            "estimate-8q" => estimate::run(args.seed, budget),
            _ => qaoa::run(args.seed, budget),
        };
        (report, END_TO_END)
    };
    let unlisted = report.take(UNLISTED);
    let line = report.result_line(declared);
    println!(
        "{} seed={} trace={} attempted={} failed={} failed_frac={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        stats::failed_frac(report.attempted, report.failed)
    );
    for (name, unit) in declared {
        if let Some(value) = report.metrics.get(*name) {
            println!("  {name:<28} {value:>14.6} {unit}");
        }
    }
    for (name, unit) in UNLISTED {
        if let Some(value) = unlisted.get(*name) {
            println!("  {name:<28} {value:>14.6} {unit} (not in the result line)");
        }
    }
    for error in &report.errors {
        println!("  ERROR {error}");
    }
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Report;

    /// Runs every workload briefly, untraced and traced, and checks that
    /// each emits exactly the declared metric set with correct outputs.
    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        type Run = fn(u64, Duration) -> Report;
        type Traced = fn(u64, Duration, &mut trace::Tracer) -> Report;
        let workloads: [(&str, Run, Traced); 4] = [
            ("table2-cold", table2::run, table2::traced),
            ("warm-mix", warm_mix::run, warm_mix::traced),
            ("estimate-8q", estimate::run, estimate::traced),
            ("qaoa-15q", qaoa::run, qaoa::traced),
        ];
        assert_eq!(workloads.map(|(name, _, _)| name), WORKLOADS);
        for (name, run, traced) in workloads {
            let mut report = run(1, Duration::ZERO);
            report.result_line(END_TO_END);
            assert!(report.correct(), "{name}: {:?}", report.errors);
            assert_eq!(report.metrics.len(), END_TO_END.len(), "{name}");
            assert!(
                report.metrics.values().all(|&v| v > 0.0),
                "{name}: an end-to-end metric is 0: {:?}",
                report.metrics
            );
            let mut report = traced(1, Duration::ZERO, &mut trace::Tracer::new());
            let unlisted = report.take(UNLISTED);
            assert_eq!(unlisted.len(), UNLISTED.len(), "{name} traced");
            report.result_line(PER_LAYER);
            assert!(report.correct(), "{name} traced: {:?}", report.errors);
            assert_eq!(report.metrics.len(), PER_LAYER.len(), "{name} traced");
        }
    }
}
