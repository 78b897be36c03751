//! `suite-sim`: the Figure 8 simulations of the six Table 1 programs.
//!
//! Set-up compiles the six regions with the `--fast` compile parameters
//! on one search thread and builds the precise and transformed apps at
//! the `--fast` input scale. A round is 18 cycle-level simulations in a
//! fixed order — per benchmark `run_timed` on the precise app (the
//! sweep's `sim_cpu`), `run_timed` on the transformed app (`sim_npu`)
//! and `run_timed_ideal` on it (`sim_ideal`) — followed by the energy
//! model over their statistics. A run is a whole number of rounds.

use crate::stats::{median, peak_rss_mb, Metric, Outcome};
use crate::tracer::Tracer;
use crate::{inputs, reference};
use benchmarks::{all_benchmarks, runner, App, AppVariant, Benchmark, Scale};
use energy::EnergyModel;
use harness::hash::KeyHasher;
use harness::sweep::DEFAULT_ROOT_SEED;
use parrot::{CompiledRegion, ParrotCompiler};
use std::time::Instant;
use uarch::{CoreConfig, SimStats};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where the pinned digest of the default seed's simulated statistics
/// lives, relative to the repository root.
pub const DIGEST_PATH: &str = "perfbench/digest/suite-sim.txt";

/// The `--fast` evaluation scale of the experiment binaries
/// (`bench::cli::Options::scale` with `--fast`), pinned here so the
/// benchmark's inputs change only when the benchmark does.
pub fn fast_scale() -> Scale {
    Scale {
        image_dim: 96,
        fft_points: 1024,
        ik_pairs: 2_000,
        tri_pairs: 2_000,
        kmeans_iters: 1,
        kmeans_k: 6,
    }
}

/// One benchmark, compiled, with both of its apps built.
struct Entry {
    bench: Box<dyn Benchmark>,
    name: &'static str,
    compiled: CompiledRegion,
    precise: App,
    npu: App,
}

/// Compile-phase seconds summed over the six regions, plus app building.
#[derive(Default)]
struct SetupTimes {
    total_s: f64,
    verify_s: f64,
    observe_s: f64,
    search_s: f64,
    candidates: usize,
    build_app_s: f64,
}

fn setup(
    seed: u64,
    scale: &Scale,
    tracer: &mut Tracer,
) -> Result<(Vec<Entry>, SetupTimes), String> {
    let t0 = Instant::now();
    let mut times = SetupTimes::default();
    let mut entries = Vec::new();
    for bench in all_benchmarks() {
        let name = bench.name();
        let compiled = tracer.span("parrot.compile", name, |tracer| {
            let mut params = bench::suite::compile_params(true);
            // The search seed is the experiment harness's default, not the
            // run's: another seed selects other topologies, and with them
            // another amount of simulation work per round.
            params.search.seed = ann::seed::mix_str(DEFAULT_ROOT_SEED, &format!("search/{name}"));
            params.search.threads = 1;
            let training = bench.training_inputs(scale);
            let compiled = ParrotCompiler::new(params)
                .compile(&bench.region(), &training)
                .map_err(|e| format!("{name}: compile failed: {e}"))?;
            for phase in compiled.phases() {
                let secs = phase.elapsed_us as f64 / 1e6;
                let span = match phase.name.as_str() {
                    "verify" => {
                        times.verify_s += secs;
                        "parrot.compile.verify"
                    }
                    "observe" => {
                        times.observe_s += secs;
                        "parrot.compile.observe"
                    }
                    "topology_search" => {
                        times.search_s += secs;
                        "ann.search"
                    }
                    "dataset" => "parrot.compile.dataset",
                    _ => "parrot.compile.codegen",
                };
                tracer.record(span, name, secs);
            }
            times.candidates += compiled.search_outcome().all_candidates.len();
            Ok::<_, String>(compiled)
        })?;
        let t = Instant::now();
        let (mut precise, mut npu) = tracer.span("benchmarks.build_app", name, |_| {
            (
                bench.build_app(&AppVariant::Precise, scale),
                bench.build_app(&AppVariant::Npu(&compiled), scale),
            )
        });
        inputs::seed(name, &mut precise.memory, seed, scale);
        inputs::seed(name, &mut npu.memory, seed, scale);
        times.build_app_s += t.elapsed().as_secs_f64();
        entries.push(Entry {
            bench,
            name,
            compiled,
            precise,
            npu,
        });
    }
    times.total_s = t0.elapsed().as_secs_f64();
    Ok((entries, times))
}

/// Statistics and final memory of one simulation.
struct Sim {
    stats: SimStats,
    npu: Option<npu::NpuStats>,
    memory: Vec<f32>,
    secs: f64,
}

/// One benchmark's three simulations in a round.
struct Trio {
    precise: Sim,
    npu: Sim,
    ideal: Sim,
}

struct Round {
    secs: f64,
    trios: Vec<Trio>,
    energy_s: f64,
}

fn timed(
    tracer: &mut Tracer,
    span: &'static str,
    subject: &'static str,
    f: impl FnOnce() -> Result<(runner::RunOutput, SimStats, Option<npu::NpuStats>), approx_ir::IrError>,
) -> Result<Sim, String> {
    let t = Instant::now();
    let (out, stats, npu) = tracer
        .span(span, subject, |_| f())
        .map_err(|e| format!("{subject}: {span} failed: {e}"))?;
    Ok(Sim {
        stats,
        npu,
        memory: out.memory,
        secs: t.elapsed().as_secs_f64(),
    })
}

fn round(entries: &[Entry], tracer: &mut Tracer, model: &EnergyModel) -> Result<Round, String> {
    let t0 = Instant::now();
    let mut trios = Vec::with_capacity(entries.len());
    let mut energy_s = 0.0;
    let cfg = CoreConfig::penryn_like;
    for e in entries {
        let npu_variant = AppVariant::Npu(&e.compiled);
        let precise = timed(tracer, "sim.precise", e.name, || {
            runner::run_timed(&e.precise, &AppVariant::Precise, cfg()).map(|(o, s, _)| (o, s, None))
        })?;
        let npu_sim = timed(tracer, "sim.npu", e.name, || {
            runner::run_timed(&e.npu, &npu_variant, cfg())
                .map(|(o, s, n)| (o, s, n.map(|n| n.stats)))
        })?;
        let topology = e.compiled.config().topology();
        let ideal = timed(tracer, "sim.ideal", e.name, || {
            runner::run_timed_ideal(
                &e.npu,
                &npu_variant,
                cfg(),
                topology.inputs(),
                topology.outputs(),
            )
            .map(|(o, s)| (o, s, None))
        })?;
        let t = Instant::now();
        let pj = tracer.span("energy.model", e.name, |_| {
            [
                model.system_energy(&precise.stats, None).total_pj(),
                model
                    .system_energy(&npu_sim.stats, npu_sim.npu.as_ref())
                    .total_pj(),
                model.system_energy(&ideal.stats, None).total_pj(),
            ]
        });
        energy_s += t.elapsed().as_secs_f64();
        if !pj.iter().all(|v| v.is_finite() && *v > 0.0) {
            return Err(format!("{}: energy model gave {pj:?}", e.name));
        }
        trios.push(Trio {
            precise,
            npu: npu_sim,
            ideal,
        });
    }
    Ok(Round {
        secs: t0.elapsed().as_secs_f64(),
        trios,
        energy_s,
    })
}

fn committed(r: &Round) -> u64 {
    r.trios
        .iter()
        .map(|t| t.precise.stats.committed + t.npu.stats.committed + t.ideal.stats.committed)
        .sum()
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks the first round's simulations against functional runs of the
/// same apps and against properties every simulation must have, and
/// every later round against the first. Returns the transformed apps'
/// application errors, one per benchmark.
fn check(entries: &[Entry], rounds: &[Round], scale: &Scale) -> Result<Vec<f64>, Vec<String>> {
    let first = &rounds[0];
    let mut errors = Vec::new();
    let mut app_errors = Vec::new();
    let width = CoreConfig::penryn_like().commit_width as u64;
    for r in rounds {
        for (t, f) in r.trios.iter().zip(&first.trios) {
            if t.precise.stats != f.precise.stats
                || t.npu.stats != f.npu.stats
                || t.npu.npu != f.npu.npu
                || t.ideal.stats != f.ideal.stats
            {
                errors.push("simulated statistics differ between rounds".to_string());
            }
        }
    }
    for (e, trio) in entries.iter().zip(&first.trios) {
        let name = e.name;
        let precise = match runner::run_functional(&e.precise, &AppVariant::Precise) {
            Ok(o) => o,
            Err(err) => {
                errors.push(format!("{name}: functional precise run failed: {err}"));
                continue;
            }
        };
        let npu = match runner::run_functional(&e.npu, &AppVariant::Npu(&e.compiled)) {
            Ok(o) => o,
            Err(err) => {
                errors.push(format!("{name}: functional transformed run failed: {err}"));
                continue;
            }
        };
        for (kind, sim, func) in [
            ("sim_cpu", &trio.precise, &precise),
            ("sim_npu", &trio.npu, &npu),
            ("sim_ideal", &trio.ideal, &npu),
        ] {
            if !same_bits(&sim.memory, &func.memory) {
                errors.push(format!(
                    "{name}: {kind} memory differs from the functional run"
                ));
            }
            if sim.stats.committed != func.executed {
                errors.push(format!(
                    "{name}: {kind} committed {} instructions, the interpreter executed {}",
                    sim.stats.committed, func.executed
                ));
            }
            if sim.stats.cycles == 0 || sim.stats.committed > sim.stats.cycles * width {
                errors.push(format!(
                    "{name}: {kind} IPC {:.3} exceeds the commit width {width}",
                    sim.stats.ipc()
                ));
            }
        }
        if let Err(msg) = reference::check(name, &e.precise.memory, &precise.memory, scale) {
            errors.push(format!(
                "{name}: precise outputs disagree with the native reference: {msg}"
            ));
        }
        let reference_out = e.bench.extract_outputs(&precise.memory, scale);
        let approx_out = e.bench.extract_outputs(&npu.memory, scale);
        let app_error = e.bench.app_error(&reference_out, &approx_out);
        if !app_error.is_finite() {
            errors.push(format!(
                "{name}: application error {app_error} is not finite"
            ));
        }
        app_errors.push(app_error);
    }
    if errors.is_empty() {
        Ok(app_errors)
    } else {
        Err(errors)
    }
}

/// Digest lines of the compiled networks and one round's simulated
/// statistics.
fn digest_lines(entries: &[Entry], r: &Round) -> Vec<String> {
    let mut lines = Vec::new();
    for (e, t) in entries.iter().zip(&r.trios) {
        let mut h = KeyHasher::new("weights");
        for w in e.compiled.config().encode() {
            h.update_u64(u64::from(w));
        }
        lines.push(format!("{} weights {}", e.name, h.digest()));
        for (kind, sim) in [
            ("sim_cpu", &t.precise),
            ("sim_npu", &t.npu),
            ("sim_ideal", &t.ideal),
        ] {
            let mut h = KeyHasher::new(kind);
            h.update_json(&sim.stats);
            h.update_json(&sim.npu);
            lines.push(format!("{} {kind} {}", e.name, h.digest()));
        }
    }
    lines
}

fn read_digest() -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(DIGEST_PATH).map_err(|e| format!("{DIGEST_PATH}: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::to_string)
        .collect())
}

/// Regenerates the pinned digest for `seed`.
pub fn write_digest(seed: u64) -> Result<(), String> {
    let scale = fast_scale();
    let mut tracer = Tracer::new(false);
    let (entries, _) = setup(seed, &scale, &mut tracer)?;
    let r = round(&entries, &mut tracer, &EnergyModel::default())?;
    let mut text = format!(
        "# suite-sim digest: compiled weights and SimStats/NpuStats of every\n\
         # simulation at seed {seed}. Regenerate with\n\
         # `bash perfbench/run.sh --write-digest`.\n"
    );
    for line in digest_lines(&entries, &r) {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(DIGEST_PATH, text).map_err(|e| format!("{DIGEST_PATH}: {e}"))
}

/// Runs the workload for at least `seconds` of whole rounds.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    default_seed: u64,
) -> Result<(Outcome, Tracer), String> {
    let scale = fast_scale();
    let model = EnergyModel::default();
    let mut tracer = Tracer::new(trace);
    let mut setup_s = Vec::new();
    let mut entries = Vec::new();
    let mut setup_times = SetupTimes::default();
    for _ in 0..if trace { 1 } else { SETUPS } {
        // Drop the previous set-up first so peak memory stays one set-up.
        entries.clear();
        let (e, t) = setup(seed, &scale, &mut tracer)?;
        setup_s.push(t.total_s);
        entries = e;
        setup_times = t;
    }

    // In a traced run every traced round is preceded by an untraced one,
    // so their times give the tracing overhead.
    let mut rounds: Vec<Round> = Vec::new();
    let mut untraced_s = Vec::new();
    let mut layers = LayerTimes::default();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        if trace {
            tracer.set_enabled(false);
            untraced_s.push(round(&entries, &mut tracer, &model)?.secs);
            tracer.set_enabled(true);
        }
        let mut r = round(&entries, &mut tracer, &model)?;
        if trace {
            layers.add(&entries, &mut tracer)?;
        }
        // Only the first round's memories are checked; dropping the rest
        // keeps peak memory independent of the number of rounds.
        if !rounds.is_empty() {
            for t in &mut r.trios {
                for sim in [&mut t.precise, &mut t.npu, &mut t.ideal] {
                    sim.memory = Vec::new();
                }
            }
        }
        rounds.push(r);
    }
    let measured_s: f64 = rounds.iter().map(|r| r.secs).sum();

    let mut correct = true;
    match check(&entries, &rounds, &scale) {
        Ok(app_errors) => {
            let list: Vec<String> = entries
                .iter()
                .zip(&app_errors)
                .map(|(e, err)| format!("{}={err:.6}", e.name))
                .collect();
            eprintln!(
                "suite-sim: application error of the transformed programs: {}",
                list.join(" ")
            );
        }
        Err(errors) => {
            correct = false;
            for e in errors {
                eprintln!("suite-sim check failed: {e}");
            }
        }
    }
    // The networks do not depend on the seed, so their lines are checked
    // on every run; the simulated statistics only at the default seed.
    let got: Vec<String> = digest_lines(&entries, &rounds[0])
        .into_iter()
        .filter(|l| seed == default_seed || l.contains(" weights "))
        .collect();
    match read_digest() {
        Ok(want)
            if got.iter().all(|l| want.contains(l))
                && (seed != default_seed || want.len() == got.len()) => {}
        Ok(want) => {
            correct = false;
            for line in got.iter().filter(|l| !want.contains(l)) {
                eprintln!("suite-sim digest mismatch: {line}");
            }
        }
        Err(e) => {
            correct = false;
            eprintln!("suite-sim digest unreadable: {e}");
        }
    }

    let round_s: Vec<f64> = rounds.iter().map(|r| r.secs).collect();
    // Latency is per benchmark, its three Figure 8 simulations: the wait
    // to re-simulate one benchmark. Six benchmarks are too few for a
    // percentile, so `latency.p50_s` is the median and `latency.tail_s`
    // the slowest of their median times over the rounds.
    let bench_s: Vec<f64> = (0..entries.len())
        .map(|b| {
            let times: Vec<f64> = rounds
                .iter()
                .map(|r| {
                    let t = &r.trios[b];
                    t.precise.secs + t.npu.secs + t.ideal.secs
                })
                .collect();
            median(&times)
        })
        .collect();
    let slowest = bench_s.iter().copied().fold(0.0, f64::max);
    let attempted = (rounds.len() * entries.len() * 3) as u64;
    let metrics = if trace {
        let mut m = layers.metrics(&setup_times, &rounds, &untraced_s);
        m.push(Metric::new("latency.p50_s", median(&bench_s), "s"));
        m.push(Metric::new("latency.tail_s", slowest, "s"));
        m
    } else {
        vec![
            Metric::median_of("setup_s", &setup_s, "s"),
            Metric::median_of("round_s", &round_s, "s"),
            Metric::new("rate_per_s", attempted as f64 / measured_s, "1/s"),
            Metric::new("peak_rss_mb", peak_rss_mb("self").unwrap_or(f64::NAN), "MB"),
        ]
    };
    eprintln!(
        "suite-sim: {} rounds of {} simulated instructions; round seconds {:.3?}, set-up seconds {:.3?}",
        rounds.len(),
        committed(&rounds[0]),
        round_s,
        setup_s
    );
    Ok((
        Outcome {
            correct,
            attempted,
            failed: 0,
            metrics,
        },
        tracer,
    ))
}

/// Host seconds and work of the per-layer extra runs of traced rounds.
#[derive(Default)]
struct LayerTimes {
    interp_precise_s: Vec<f64>,
    interp_npu_s: Vec<f64>,
    interp_insts: u64,
    npu_sink_s: f64,
    npu_sink_cycles: u64,
}

impl LayerTimes {
    /// Runs the functional and NPU-sink runs the per-layer split needs,
    /// once per traced round.
    fn add(&mut self, entries: &[Entry], tracer: &mut Tracer) -> Result<(), String> {
        let mut p_s = 0.0;
        let mut n_s = 0.0;
        for e in entries {
            let variant = AppVariant::Npu(&e.compiled);
            let t = Instant::now();
            let p = tracer
                .span("ir.interp", e.name, |_| {
                    runner::run_functional(&e.precise, &AppVariant::Precise)
                })
                .map_err(|err| format!("{}: functional run failed: {err}", e.name))?;
            p_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let n = tracer
                .span("ir.interp", e.name, |_| {
                    runner::run_functional(&e.npu, &variant)
                })
                .map_err(|err| format!("{}: functional run failed: {err}", e.name))?;
            n_s += t.elapsed().as_secs_f64();
            self.interp_insts += p.executed + n.executed;

            let mut sim = e
                .compiled
                .make_npu()
                .map_err(|err| format!("{}: npu configure failed: {err}", e.name))?;
            let t = Instant::now();
            tracer
                .span("npu.sim", e.name, |_| {
                    runner::run_app(&e.npu, &variant, &mut sim)
                })
                .map_err(|err| format!("{}: npu sink run failed: {err}", e.name))?;
            self.npu_sink_s += t.elapsed().as_secs_f64();
            self.npu_sink_cycles += sim.stats().total_cycles;
        }
        self.interp_precise_s.push(p_s);
        self.interp_npu_s.push(n_s);
        Ok(())
    }

    fn metrics(&self, setup: &SetupTimes, rounds: &[Round], untraced_s: &[f64]) -> Vec<Metric> {
        let n = rounds.len() as f64;
        let per_round = |f: &dyn Fn(&Trio) -> f64| -> Vec<f64> {
            rounds.iter().map(|r| r.trios.iter().map(f).sum()).collect()
        };
        let precise_s = per_round(&|t| t.precise.secs);
        let npu_s = per_round(&|t| t.npu.secs);
        let ideal_s = per_round(&|t| t.ideal.secs);
        let energy_s: Vec<f64> = rounds.iter().map(|r| r.energy_s).collect();
        let first = &rounds[0];
        let sum =
            |f: &dyn Fn(&Trio) -> u64| -> f64 { first.trios.iter().map(f).sum::<u64>() as f64 };
        let precise_insts = sum(&|t| t.precise.stats.committed);
        let precise_cycles = sum(&|t| t.precise.stats.cycles);
        let ideal_insts = sum(&|t| t.ideal.stats.committed);
        let stalls = sum(&|t| {
            [&t.precise, &t.npu, &t.ideal]
                .iter()
                .map(|s| s.stats.rob_full_stalls + s.stats.iq_full_stalls + s.stats.lsq_full_stalls)
                .sum()
        });
        let invocations = sum(&|t| t.npu.npu.map_or(0, |s| s.invocations));
        let interp_p = median(&self.interp_precise_s);
        let interp_n = median(&self.interp_npu_s);
        let round_sims: Vec<f64> = rounds.iter().map(|r| r.secs - r.energy_s).collect();
        let traced = median(&rounds.iter().map(|r| r.secs).collect::<Vec<_>>());
        vec![
            Metric::new("parrot.compile.verify_s", setup.verify_s, "s"),
            Metric::new("parrot.compile.observe_s", setup.observe_s, "s"),
            Metric::new("parrot.compile.topology_search_s", setup.search_s, "s"),
            Metric::new(
                "ann.search.s_per_candidate",
                setup.search_s / setup.candidates.max(1) as f64,
                "s",
            ),
            Metric::new("benchmarks.build_app_s", setup.build_app_s, "s"),
            Metric::new(
                "ir.interp.insts_per_s",
                self.interp_insts as f64
                    / (self.interp_precise_s.iter().sum::<f64>()
                        + self.interp_npu_s.iter().sum::<f64>()),
                "1/s",
            ),
            // The interpreter runs once per precise simulation and twice
            // per transformed app (sim_npu and sim_ideal).
            Metric::new(
                "ir.interp.share",
                (interp_p + 2.0 * interp_n) / median(&round_sims),
                "ratio",
            ),
            Metric::new(
                "uarch.core.insts_per_s",
                precise_insts / (median(&precise_s) - interp_p),
                "1/s",
            ),
            Metric::new(
                "uarch.core.cycles_per_s",
                precise_cycles / (median(&precise_s) - interp_p),
                "1/s",
            ),
            Metric::new(
                "uarch.ideal.insts_per_s",
                ideal_insts / (median(&ideal_s) - interp_n),
                "1/s",
            ),
            Metric::new("uarch.core.stall_cycles", stalls, "count"),
            Metric::new(
                "npu.sim.cycles_per_s",
                self.npu_sink_cycles as f64
                    / (self.npu_sink_s - self.interp_npu_s.iter().sum::<f64>()),
                "1/s",
            ),
            Metric::new("npu.sim.invocations", invocations, "count"),
            Metric::median_of("energy.model_s", &energy_s, "s"),
            Metric::median_of("sim.precise_s", &precise_s, "s"),
            Metric::median_of("sim.npu_s", &npu_s, "s"),
            Metric::median_of("sim.ideal_s", &ideal_s, "s"),
            Metric::new(
                "sim.insts_per_s",
                committed(first) as f64 * n / rounds.iter().map(|r| r.secs).sum::<f64>(),
                "1/s",
            ),
            Metric::new("trace.overhead_ratio", traced / median(untraced_s), "ratio"),
        ]
    }
}
