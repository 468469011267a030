//! Closed-loop drivers, set-up timing, the loopback rig and process facts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use quclear_engine::Engine;
use quclear_pauli::PauliRotation;
use quclear_serve::{Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{self, Report};
use crate::trace::Tracer;

/// Set-up is repeated this many times before a run's timed phase and as
/// many times after it.
pub const SETUP_REPEATS: usize = 7;

/// Fewest requests a timed phase measures, so that p90 has ten samples
/// beyond it.
pub const MIN_REQUESTS: u64 = 100;

/// Deterministic generator for input `index` of `stream` under `seed`.
pub fn rng_for(seed: u64, stream: u64, index: u64) -> StdRng {
    let mut z = seed
        ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)
        ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// `program`'s axes with fresh angles drawn from `rng` in `[-π, π)`.
pub fn reangle(program: &[PauliRotation], rng: &mut StdRng) -> Vec<PauliRotation> {
    program
        .iter()
        .map(|r| {
            let angle = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
            PauliRotation::new(r.pauli().clone(), angle)
        })
        .collect()
}

/// A seeded permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// An engine behind a default-config loopback server, plus connected
/// clients. Dropping it closes the clients and stops the server.
pub struct Rig {
    pub engine: Arc<Engine>,
    pub clients: Vec<Client>,
    server: Option<Server>,
}

impl Rig {
    pub fn start() -> Rig {
        let engine = Arc::new(Engine::default());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), ServerConfig::default())
            .expect("binding a loopback port");
        Rig {
            engine,
            clients: Vec::new(),
            server: Some(server),
        }
    }

    /// Opens `connections` clients. Kept out of the timed set-up: the
    /// server's accept loop polls, so the first accept waits up to one
    /// poll interval at random, which would make `setup_s` bimodal.
    pub fn connect(&mut self, connections: usize) {
        let addr = self
            .server
            .as_ref()
            .expect("server runs until drop")
            .local_addr();
        for _ in 0..connections {
            let mut client = Client::connect(addr).expect("connecting over loopback");
            client.health().expect("server answers health");
            self.clients.push(client);
        }
    }

    pub fn client(&mut self) -> &mut Client {
        &mut self.clients[0]
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times; returns the last result and the
/// timer that [`SetupTimer::finish`] completes after the timed phase.
/// Earlier results are dropped untimed.
pub fn timed_setup<T>(setup: impl FnMut() -> T) -> (T, SetupTimer) {
    let (kept, before) = setup_times(setup);
    (kept, SetupTimer { before })
}

/// Set-up times taken before a run's timed phase.
pub struct SetupTimer {
    before: Vec<f64>,
}

impl SetupTimer {
    /// Repeats `setup` [`SETUP_REPEATS`] more times and sets `setup_s` to the
    /// mean of the median set-up time before the timed phase and the median
    /// after it. The host's speed switches between states lasting seconds,
    /// so two moments a run apart keep one state from deciding the figure.
    pub fn finish<T>(self, setup: impl FnMut() -> T, report: &mut Report) {
        let (_, after) = setup_times(setup);
        report.set(
            "setup_s",
            (stats::median(&self.before) + stats::median(&after)) / 2.0,
        );
    }
}

fn setup_times<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let value = setup();
        times.push(start.elapsed().as_secs_f64());
        drop(kept.replace(value));
    }
    eprintln!("set-up times (s): {times:?}");
    (kept.expect("at least one set-up"), times)
}

/// One completed request: its class (program or request kind) and latency.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: usize,
    pub ns: u64,
}

/// The requests of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Length of one slice of [`interleaved`].
pub const SLICE: Duration = Duration::from_millis(500);

/// Runs the in-process and the wire phase in alternating slices until
/// `budget` has passed and each phase has [`MIN_REQUESTS`] requests, so
/// both sample the same stretch of machine noise. Within a slice each phase
/// is a closed loop: every caller sends its next request when the previous
/// one returns, and stops at a multiple of `unit` of its requests. Both
/// phases walk the same per-caller request sequence.
pub fn interleaved<A: Send, B: Send>(
    inproc: &mut [A],
    wire: &mut [B],
    budget: Duration,
    unit: u64,
    inproc_step: impl Fn(&mut A, usize, u64) -> Result<Sample, String> + Sync,
    wire_step: impl Fn(&mut B, usize, u64) -> Result<Sample, String> + Sync,
) -> (Phase, Phase) {
    assert_eq!(inproc.len(), wire.len(), "each caller runs both phases");
    let barrier = Barrier::new(inproc.len());
    let phases = Mutex::new([Phase::default(), Phase::default()]);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (caller, (a, b)) in inproc.iter_mut().zip(wire.iter_mut()).enumerate() {
            let (barrier, phases, stop) = (&barrier, &phases, &stop);
            let (inproc_step, wire_step) = (&inproc_step, &wire_step);
            scope.spawn(move || {
                let mut next = [0u64; 2];
                // Both phases in turn, every caller in step; the last to
                // finish a slice closes its wall time.
                while !stop.load(Ordering::SeqCst) {
                    for p in 0..2 {
                        let slice_start = Instant::now();
                        let local = if p == 0 {
                            slice(a, caller, &mut next[p], unit, SLICE, inproc_step)
                        } else {
                            slice(b, caller, &mut next[p], unit, SLICE, wire_step)
                        };
                        phases.lock().expect("no caller panics holding the phases")[p].merge(local);
                        if barrier.wait().is_leader() {
                            let mut phases =
                                phases.lock().expect("no caller panics holding the phases");
                            phases[p].wall_s += slice_start.elapsed().as_secs_f64();
                            if p == 1 {
                                let enough = phases.iter().all(|ph| ph.attempted >= MIN_REQUESTS);
                                stop.store(enough && start.elapsed() >= budget, Ordering::SeqCst);
                            }
                        }
                        barrier.wait();
                    }
                }
            });
        }
    });
    let [a, b] = phases.into_inner().expect("callers joined");
    (a, b)
}

/// One closed-loop caller running a single phase until `budget` has
/// passed and it has [`MIN_REQUESTS`] requests, stopping at a multiple of
/// `unit` of them.
pub fn closed_loop(
    budget: Duration,
    unit: u64,
    step: impl Fn(&mut (), usize, u64) -> Result<Sample, String>,
) -> Phase {
    let start = Instant::now();
    let mut phase = slice(&mut (), 0, &mut 0, unit, budget, &step);
    let mut next = phase.attempted;
    while phase.attempted < MIN_REQUESTS {
        phase.merge(slice(&mut (), 0, &mut next, unit, Duration::ZERO, &step));
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase
}

/// One caller's requests in one slice, continuing its sequence at `next`
/// and stopping at a multiple of `unit` once `length` has passed.
fn slice<C>(
    state: &mut C,
    caller: usize,
    next: &mut u64,
    unit: u64,
    length: Duration,
    step: &impl Fn(&mut C, usize, u64) -> Result<Sample, String>,
) -> Phase {
    let start = Instant::now();
    let mut local = Phase::default();
    let first = *next;
    let mut i = first;
    while i == first || !i.is_multiple_of(unit) || start.elapsed() < length {
        local.attempted += 1;
        match step(state, caller, i) {
            Ok(sample) => local.samples.push(sample),
            Err(e) => {
                local.failed += 1;
                local
                    .errors
                    .push(format!("caller {caller} request {i}: {e}"));
            }
        }
        i += 1;
    }
    *next = i;
    local
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }

    /// `statistic` of the latencies of each class `0..classes`, in ms.
    fn per_class(&self, classes: usize, statistic: fn(&[f64]) -> f64) -> Vec<f64> {
        (0..classes)
            .map(|c| {
                let ms: Vec<f64> = self
                    .samples
                    .iter()
                    .filter(|s| s.class == c)
                    .map(|s| s.ns as f64 / 1e6)
                    .collect();
                statistic(&ms)
            })
            .collect()
    }

    /// Adds this phase's p50, p90 and throughput under `prefix` and its
    /// request accounting to `report`.
    pub fn report(&self, prefix: &str, report: &mut Report) {
        self.report_throughput(prefix, report);
        let mut ms: Vec<f64> = self.samples.iter().map(|s| s.ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        for (q, name) in [(0.5, "p50_ms"), (0.9, "p90_ms")] {
            match stats::quantile(&ms, q) {
                Ok(v) => report.set(&format!("{prefix}{name}"), v),
                Err(e) => report.error(format!("{prefix}{name}: {e}")),
            }
        }
    }

    /// Adds this phase's throughput under `prefix` and its request
    /// accounting to `report`.
    pub fn report_throughput(&self, prefix: &str, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        for e in &self.errors {
            report.error(e.clone());
        }
        let classes = self.samples.iter().map(|s| s.class + 1).max().unwrap_or(0);
        let medians: Vec<String> = self
            .per_class(classes, stats::median)
            .iter()
            .map(|m| format!("{m:.3}"))
            .collect();
        eprintln!("{prefix}class medians (ms): {}", medians.join(" "));
        report.set(
            &format!("{prefix}rps"),
            self.samples.len() as f64 / self.wall_s,
        );
    }
}

/// Sets `geomean_ms`: the geometric mean over the in-process phase's
/// classes of each class's trimmed mean latency. A mean rather than a
/// median, because the host alternates between a fast and a slow state: a
/// class median jumps between the two when their shares cross one half,
/// while a mean moves in proportion to the shares.
pub fn report_geomean(phase: &Phase, classes: usize, report: &mut Report) {
    match stats::geomean(&phase.per_class(classes, stats::trimmed_mean)) {
        Ok(v) => report.set("geomean_ms", v),
        Err(e) => report.error(format!("geomean_ms: {e}")),
    }
}

/// Sets `cnot_ratio` and `depth_ratio`: geometric means over `programs` of
/// QuCLEAR's count over the naive synthesis's, as `(ours, naive)` pairs.
pub fn report_quality(cnots: &[(usize, usize)], depths: &[(usize, usize)], report: &mut Report) {
    for (name, pairs) in [("cnot_ratio", cnots), ("depth_ratio", depths)] {
        let ratios: Vec<f64> = pairs.iter().map(|&(a, b)| a as f64 / b as f64).collect();
        match stats::geomean(&ratios) {
            Ok(v) => report.set(name, v),
            Err(e) => report.error(format!("{name}: {e}")),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where a traced run writes its spans, relative to the checkout root.
pub const SPAN_DIR: &str = "reqbench/spans";

pub fn write_spans(workload: &str, seed: u64, tracer: &Tracer) {
    let path = format!("{SPAN_DIR}/{workload}-seed{seed}.jsonl");
    let written =
        std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    if let Err(e) = written {
        eprintln!("reqbench: could not write {path}: {e}");
    }
}

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}
