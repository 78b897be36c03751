//! The repository's benchmark: the Figure 8 suite simulation and the
//! `parrot-serve` daemon, measured end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-digest
//! perfbench --compare <traced-run.json> <traced-run.json>
//! ```
//!
//! A run prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric when
//! untraced, every per-layer metric when traced. See README.md.

mod compare;
mod inputs;
mod reference;
mod serve;
mod stats;
mod suite;
mod tracer;

use stats::{Metric, Outcome};
use std::path::PathBuf;

/// The seed the README's reference figures and the pinned digest use.
const DEFAULT_SEED: u64 = 42;

/// Where traced runs write their spans, relative to the repository root.
pub const OUT_DIR: &str = ".bench_build/perfbench-out";

/// Reported by every untraced run.
const END_TO_END: &[&str] = &["setup_s", "round_s", "rate_per_s", "peak_rss_mb"];

/// Reported by every traced run; a layer a workload does not exercise
/// reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("parrot.compile.verify_s", "s"),
    ("parrot.compile.observe_s", "s"),
    ("parrot.compile.topology_search_s", "s"),
    ("ann.search.s_per_candidate", "s"),
    ("benchmarks.build_app_s", "s"),
    ("ir.interp.insts_per_s", "1/s"),
    ("ir.interp.share", "ratio"),
    ("uarch.core.insts_per_s", "1/s"),
    ("uarch.core.cycles_per_s", "1/s"),
    ("uarch.ideal.insts_per_s", "1/s"),
    ("uarch.core.stall_cycles", "count"),
    ("npu.sim.cycles_per_s", "1/s"),
    ("npu.sim.invocations", "count"),
    ("energy.model_s", "s"),
    ("sim.precise_s", "s"),
    ("sim.npu_s", "s"),
    ("sim.ideal_s", "s"),
    ("sim.insts_per_s", "1/s"),
    ("serve.client.send_s", "s"),
    ("serve.proto.decode_s", "s"),
    ("serve.engine.queue_wait_s.p50", "s"),
    ("serve.engine.queue_wait_s.p99", "s"),
    ("serve.engine.batch_occupancy", "lanes"),
    ("serve.engine.flushes", "count"),
    ("serve.engine.fairness", "ratio"),
    ("serve.daemon.cpu_s_per_request", "s"),
    ("npu.batch.ns_per_invocation.lanes1", "ns"),
    ("npu.batch.ns_per_invocation.lanes16", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("latency.p50_s", "s"),
    ("latency.tail_s", "s"),
];

const USAGE: &str = "usage: perfbench --workload <suite-sim|serve-interactive|serve-bulk> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-digest\n       \
perfbench --compare <traced-run.json> <traced-run.json>";

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Args {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().unwrap_or_else(|_| fail("bad --seed")),
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| fail("bad --seconds"));
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace takes 0 or 1"),
                };
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    parsed
}

/// Orders the metrics as the benchmark declares them and fills idle
/// layers with 0; a missing end-to-end metric is a bug.
fn complete(mut outcome: Outcome, trace: bool) -> Outcome {
    let mut metrics = Vec::new();
    if trace {
        for &(name, unit) in PER_LAYER {
            let m = outcome.metrics.iter().find(|m| m.name == name);
            metrics.push(m.cloned().unwrap_or_else(|| Metric::new(name, 0.0, unit)));
        }
    } else {
        for &name in END_TO_END {
            match outcome.metrics.iter().find(|m| m.name == name) {
                Some(m) => metrics.push(m.clone()),
                None => panic!("workload did not report {name}"),
            }
        }
    }
    outcome.metrics = metrics;
    outcome
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("--write-digest") => {
            if let Err(e) = suite::write_digest(DEFAULT_SEED) {
                fail(&e);
            }
            println!("wrote {}", suite::DIGEST_PATH);
            return;
        }
        Some("--compare") => {
            let files: Vec<String> = args.skip(1).collect();
            if files.len() != 2 {
                fail("--compare takes two traced-run files");
            }
            if let Err(e) = compare::print(&files[0], &files[1]) {
                fail(&e);
            }
            return;
        }
        _ => {}
    }
    let args = parse(args);
    let result = match args.workload.as_str() {
        "suite-sim" => suite::run(args.seed, args.seconds, args.trace, DEFAULT_SEED),
        "serve-interactive" | "serve-bulk" => {
            serve::run(&args.workload, args.seed, args.seconds, args.trace)
        }
        "" => fail("--workload is required"),
        other => fail(&format!("unknown workload {other}")),
    };
    let (outcome, tracer) = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    });
    let outcome = complete(outcome, args.trace);
    if args.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("{}-seed{}.json", args.workload, args.seed));
        match tracer.write(&path, &args.workload, args.seed, &outcome.metrics) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    println!("{}", outcome.to_json());
}
