//! `serve-interactive` and `serve-bulk`: closed-loop load on the
//! `parrot-serve` daemon with its default flags and four-tenant fleet.
//!
//! The daemon runs as its own process, started from the binary next to
//! this one. Requests visit the tenants round-robin, so a round is one
//! request to every tenant; a run sends whole rounds on every
//! connection. Every NPU reply is checked bit for bit against the
//! tenant's network evaluated here through the scalar per-invocation
//! path (`NpuConfig::evaluate`), not the batched kernel the daemon uses.

use crate::stats::{median, peak_rss_mb, quantile, windowed_tail, Metric, Outcome};
use crate::tracer::Tracer;
use npu::BatchEvaluator;
use serve::fleet::{derive_fleet, request_inputs, FleetOptions};
use serve::proto::read_frame;
use serve::{Client, InvokeMode, Listen, Reply, Request, TenantSpec};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon starts timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// A request with no reply after this long counts as failed and its
/// connection carries on. It is far above either workload's p99, so
/// only a reply the daemon never sends reaches it.
const REPLY_LIMIT: Duration = Duration::from_secs(1);

/// Requests per connection that get spans in a traced run; durations
/// are kept for all of them.
const SPAN_CAP: u64 = 20_000;

/// Closed-loop shape of a workload.
struct Shape {
    connections: usize,
    /// Requests each connection keeps in flight.
    depth: usize,
}

fn shape(workload: &str) -> Shape {
    match workload {
        // One request in flight: every flush is a one-lane batch.
        "serve-interactive" => Shape {
            connections: 1,
            depth: 1,
        },
        // 2 × 64 in flight over four tenants keeps about 32 queued per
        // tenant, so flushes take full 16-lane batches.
        _ => Shape {
            connections: 2,
            depth: 64,
        },
    }
}

fn fleet_options(seed: u64) -> FleetOptions {
    FleetOptions {
        seed,
        ..FleetOptions::default()
    }
}

/// A running daemon.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: Listen,
    report: PathBuf,
}

fn daemon_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let path = exe.with_file_name("parrot-serve");
    if path.exists() {
        Ok(path)
    } else {
        Err(format!("{} not built", path.display()))
    }
}

impl Daemon {
    /// Starts the daemon and waits until every tenant has answered one
    /// request. Returns it with the seconds that took.
    fn start(seed: u64, fleet: &[TenantSpec], report: &Path) -> Result<(Daemon, f64), String> {
        let binary = daemon_binary()?;
        let t0 = Instant::now();
        let mut child = Command::new(&binary)
            .args(["--listen", "tcp:127.0.0.1:0", "--seed", &seed.to_string()])
            .arg("--json-out")
            .arg(report)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout
                .read_line(&mut line)
                .map_err(|e| format!("daemon stdout: {e}"))?
                == 0
            {
                let _ = child.wait();
                return Err("daemon exited before listening".to_string());
            }
            if let Some(a) = line.trim().strip_prefix("parrot-serve listening on ") {
                break Listen::parse(a)?;
            }
        };
        let daemon = Daemon {
            child,
            stdout,
            addr,
            report: report.to_path_buf(),
        };
        let first = daemon.first_replies(seed, fleet);
        let secs = t0.elapsed().as_secs_f64();
        if let Err(e) = first {
            daemon.stop().ok();
            return Err(e);
        }
        Ok((daemon, secs))
    }

    fn first_replies(&self, seed: u64, fleet: &[TenantSpec]) -> Result<(), String> {
        let mut client = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        for (t, tenant) in fleet.iter().enumerate() {
            client
                .send(&invoke(seed, fleet, t as u64, t))
                .map_err(|e| format!("send to {}: {e}", tenant.name))?;
        }
        for _ in fleet {
            match client.recv().map_err(|e| format!("first reply: {e}"))? {
                Reply::Outputs { .. } => {}
                other => return Err(format!("first reply was {other:?}")),
            }
        }
        Ok(())
    }

    /// User plus system CPU seconds the daemon has used.
    fn cpu_s(&self) -> Result<f64, String> {
        let pid = self.child.id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields of the line.
        let rest = &stat[stat.rfind(')').ok_or("bad /proc stat")? + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| "bad /proc stat field".to_string())
        };
        // /proc counts in USER_HZ, which is 100 on Linux.
        Ok((ticks(11)? + ticks(12)?) / 100.0)
    }

    /// Sends `Shutdown`, waits for the daemon to exit, and returns its
    /// run report.
    fn stop(mut self) -> Result<telemetry::RunReport, String> {
        let ack = Client::connect(&self.addr)
            .and_then(|mut c| c.call(&Request::Shutdown))
            .map_err(|e| format!("shutdown: {e}"));
        if !matches!(ack, Ok(Reply::ShutdownAck)) {
            let _ = self.child.kill();
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest).map_or(0, |n| n) > 0 {}
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        let json = std::fs::read_to_string(&self.report)
            .map_err(|e| format!("{}: {e}", self.report.display()))?;
        telemetry::RunReport::from_json(&json).map_err(|e| format!("daemon report: {e:?}"))
    }
}

impl Drop for Daemon {
    /// A run that fails part-way still leaves no daemon behind; after
    /// [`Daemon::stop`] the process has already exited.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tenant_of(id: u64, fleet: &[TenantSpec]) -> usize {
    (id % fleet.len() as u64) as usize
}

fn invoke(seed: u64, fleet: &[TenantSpec], id: u64, tenant: usize) -> Request {
    let n_in = fleet[tenant].config.topology().inputs();
    Request::Invoke {
        tenant: fleet[tenant].name.clone(),
        request_id: id,
        deadline_us: 0,
        mode: InvokeMode::Npu,
        inputs: request_inputs(seed, tenant, id, n_in),
    }
}

/// What one connection saw during one phase.
#[derive(Default)]
struct ConnLog {
    attempted: u64,
    /// Requests with no reply within [`REPLY_LIMIT`].
    lost: u64,
    latencies_s: Vec<f64>,
    round_s: Vec<f64>,
    send_s: Vec<f64>,
    decode_s: Vec<f64>,
    /// `(request id, outputs, precise)` of every reply, for the checks.
    replies: Vec<(u64, Vec<f32>, bool)>,
    errors: Vec<String>,
    tracer: Option<Tracer>,
}

/// Drives one connection in a closed loop until `until`, then finishes
/// the current round and waits for its replies.
fn drive(
    addr: &Listen,
    seed: u64,
    fleet: &[TenantSpec],
    depth: usize,
    until: Instant,
    traced: bool,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut tracer = Tracer::new(traced);
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("connect: {e}"));
            return log;
        }
    };
    if let Err(e) = client.set_read_timeout(Some(Duration::from_millis(20))) {
        log.errors.push(format!("read timeout: {e}"));
        return log;
    }
    let rounds = fleet.len() as u64;
    let mut sent_at: HashMap<u64, Instant> = HashMap::new();
    let mut order: VecDeque<u64> = VecDeque::new();
    let mut lost: HashSet<u64> = HashSet::new();
    let mut round_start: HashMap<u64, (Instant, usize)> = HashMap::new();
    let mut next_id = 0u64;
    loop {
        // After `until`, only the current round is finished.
        while sent_at.len() < depth && (!next_id.is_multiple_of(rounds) || Instant::now() < until) {
            let id = next_id;
            next_id += 1;
            let req = invoke(seed, fleet, id, tenant_of(id, fleet));
            tracer.set_enabled(traced && id < SPAN_CAP);
            let t = Instant::now();
            let sent = tracer.span("serve.client.send", "client", |_| client.send(&req));
            if traced {
                log.send_s.push(t.elapsed().as_secs_f64());
            }
            if let Err(e) = sent {
                log.errors.push(format!("send {id}: {e}"));
                return log;
            }
            log.attempted += 1;
            sent_at.insert(id, t);
            order.push_back(id);
            if id.is_multiple_of(rounds) {
                round_start.insert(id / rounds, (t, fleet.len()));
            }
        }
        if sent_at.is_empty() {
            break;
        }
        // Requests past the limit are lost: count them and move on.
        while let Some(&id) = order.front() {
            match sent_at.get(&id) {
                None => {
                    order.pop_front();
                }
                Some(t) if t.elapsed() > REPLY_LIMIT => {
                    sent_at.remove(&id);
                    order.pop_front();
                    lost.insert(id);
                    log.lost += 1;
                    round_start.remove(&(id / rounds));
                }
                Some(_) => break,
            }
        }
        let frame = match read_frame(client.stream_mut()) {
            Ok(Some(f)) => f,
            Ok(None) => {
                log.errors.push("daemon closed the connection".to_string());
                return log;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => continue,
            Err(e) => {
                log.errors.push(format!("read: {e}"));
                return log;
            }
        };
        let t = Instant::now();
        let reply = tracer.span("serve.proto.decode", "client", |_| Reply::decode(&frame));
        let done = Instant::now();
        if traced {
            log.decode_s.push((done - t).as_secs_f64());
        }
        let (id, outputs, precise) = match reply {
            Ok(Reply::Outputs {
                request_id,
                outputs,
                precise,
                ..
            }) => (request_id, outputs, precise),
            Ok(other) => {
                log.errors.push(format!("unexpected reply {other:?}"));
                continue;
            }
            Err(e) => {
                log.errors.push(format!("undecodable reply: {e}"));
                return log;
            }
        };
        let Some(sent) = sent_at.remove(&id) else {
            if !lost.contains(&id) {
                log.errors
                    .push(format!("reply for request {id}, which is not outstanding"));
            }
            continue;
        };
        log.latencies_s.push((done - sent).as_secs_f64());
        log.replies.push((id, outputs, precise));
        let round = id / rounds;
        if let Some((start, left)) = round_start.get_mut(&round) {
            *left -= 1;
            if *left == 0 {
                log.round_s.push((done - *start).as_secs_f64());
                round_start.remove(&round);
            }
        }
    }
    log.tracer = Some(tracer);
    log
}

/// Runs every connection of `shape` for `seconds`.
fn phase(
    addr: &Listen,
    seed: u64,
    fleet: &[TenantSpec],
    shape: &Shape,
    seconds: f64,
    traced: bool,
) -> (Vec<ConnLog>, f64) {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..shape.connections)
            .map(|_| s.spawn(|| drive(addr, seed, fleet, shape.depth, until, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    (logs, t0.elapsed().as_secs_f64())
}

/// Checks every reply against the scalar evaluation of its tenant's
/// network and the unit output range.
fn check_replies(logs: &[ConnLog], seed: u64, fleet: &[TenantSpec]) -> Vec<String> {
    let mut errors: Vec<String> = logs.iter().flat_map(|l| l.errors.iter().cloned()).collect();
    // A second reply to a request is caught in `drive`: the request is no
    // longer outstanding.
    for log in logs {
        for (id, outputs, precise) in &log.replies {
            let tenant = tenant_of(*id, fleet);
            let config = &fleet[tenant].config;
            let want = config.evaluate(&request_inputs(
                seed,
                tenant,
                *id,
                config.topology().inputs(),
            ));
            let same = want.len() == outputs.len()
                && want
                    .iter()
                    .zip(outputs)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if *precise || !same {
                errors.push(format!(
                    "request {id}: reply {outputs:?} differs from {want:?}"
                ));
            }
            if outputs.iter().any(|v| !(0.0..=1.0).contains(v)) {
                errors.push(format!("request {id}: output {outputs:?} outside [0, 1]"));
            }
        }
    }
    errors.truncate(20);
    errors
}

/// Nanoseconds per invocation of the batched kernel on the fleet's
/// configs, at one and at sixteen lanes.
fn batch_kernel_ns(seed: u64, fleet: &[TenantSpec], tracer: &mut Tracer) -> (f64, f64) {
    let mut eval = BatchEvaluator::new();
    let mut out = Vec::new();
    let mut per_lanes = |lanes: usize, tracer: &mut Tracer| -> f64 {
        let inputs: Vec<Vec<f32>> = fleet
            .iter()
            .enumerate()
            .map(|(t, tenant)| {
                (0..lanes as u64)
                    .flat_map(|i| request_inputs(seed, t, i, tenant.config.topology().inputs()))
                    .collect()
            })
            .collect();
        let reps = 4000 / lanes.max(1) + 50;
        let samples: Vec<f64> = (0..15)
            .map(|_| {
                let t = Instant::now();
                tracer.span("npu.batch", "fleet", |_| {
                    for _ in 0..reps {
                        for (tenant, flat) in fleet.iter().zip(&inputs) {
                            eval.run_flat(&tenant.config, std::hint::black_box(flat), &mut out);
                            std::hint::black_box(&out);
                        }
                    }
                });
                t.elapsed().as_secs_f64() * 1e9 / (reps * lanes * fleet.len()) as f64
            })
            .collect();
        median(&samples)
    };
    (per_lanes(1, tracer), per_lanes(16, tracer))
}

pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Outcome, Tracer), String> {
    let shape = shape(workload);
    let fleet = derive_fleet(&fleet_options(seed));
    let report = PathBuf::from(crate::OUT_DIR)
        .join(format!("{workload}-daemon-{}.json", std::process::id()));
    std::fs::create_dir_all(crate::OUT_DIR).map_err(|e| format!("{}: {e}", crate::OUT_DIR))?;
    let mut tracer = Tracer::new(trace);

    let mut setup_s = Vec::new();
    let mut daemon = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let (d, secs) = tracer.span("serve.daemon.start", "daemon", |_| {
            Daemon::start(seed, &fleet, &report)
        })?;
        setup_s.push(secs);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");

    let cpu0 = daemon.cpu_s()?;
    // A traced run measures half its time untraced and half traced, so
    // the two rates give the tracing overhead.
    let (mut logs, measured_s, untraced_rate) = if trace {
        let (a, a_s) = phase(&daemon.addr, seed, &fleet, &shape, seconds / 2.0, false);
        let rate_a = a.iter().map(|l| l.replies.len()).sum::<usize>() as f64 / a_s;
        let (mut b, b_s) = phase(&daemon.addr, seed, &fleet, &shape, seconds / 2.0, true);
        b.extend(a);
        (b, b_s, Some(rate_a))
    } else {
        let (logs, secs) = phase(&daemon.addr, seed, &fleet, &shape, seconds, false);
        (logs, secs, None)
    };
    let cpu_s = daemon.cpu_s()? - cpu0;
    let rss_mb = peak_rss_mb(&daemon.child.id().to_string()).unwrap_or(f64::NAN);
    let summary = Daemon::stop(daemon)?;
    let _ = std::fs::remove_file(&report);

    let errors = check_replies(&logs, seed, &fleet);
    for e in &errors {
        eprintln!("{workload} check failed: {e}");
    }
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let lost: u64 = logs.iter().map(|l| l.lost).sum();
    if lost > 0 {
        eprintln!(
            "{workload}: {lost} of {attempted} requests got no reply within {REPLY_LIMIT:?} \
             (the daemon's submit/route race drops completions)"
        );
    }
    let replies: usize = logs.iter().map(|l| l.replies.len()).sum();
    let latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latencies_s.iter().copied())
        .collect();
    if latencies.is_empty() {
        return Err(format!("{workload}: no request completed"));
    }
    let metrics = if trace {
        let traced = &logs[..shape.connections];
        let rate_b = traced.iter().map(|l| l.replies.len()).sum::<usize>() as f64 / measured_s;
        let (lanes1, lanes16) = batch_kernel_ns(seed, &fleet, &mut tracer);
        for log in &mut logs {
            if let Some(t) = log.tracer.take() {
                tracer.absorb(t);
            }
        }
        let flat = |f: &dyn Fn(&ConnLog) -> &Vec<f64>| -> Vec<f64> {
            logs[..shape.connections]
                .iter()
                .flat_map(|l| f(l).iter().copied())
                .collect()
        };
        let wait = summary.distributions.get("serve.queue_wait_us");
        vec![
            Metric::median_of("serve.client.send_s", &flat(&|l| &l.send_s), "s"),
            Metric::median_of("serve.proto.decode_s", &flat(&|l| &l.decode_s), "s"),
            Metric::new(
                "serve.engine.queue_wait_s.p50",
                wait.map_or(0.0, |d| d.p50 / 1e6),
                "s",
            ),
            Metric::new(
                "serve.engine.queue_wait_s.p99",
                wait.map_or(0.0, |d| d.p99 / 1e6),
                "s",
            ),
            Metric::new(
                "serve.engine.batch_occupancy",
                summary.serving.batch_occupancy_mean,
                "lanes",
            ),
            Metric::new(
                "serve.engine.flushes",
                summary.serving.batches as f64,
                "count",
            ),
            Metric::new(
                "serve.engine.fairness",
                summary.serving.fairness_index,
                "ratio",
            ),
            Metric::new(
                "serve.daemon.cpu_s_per_request",
                cpu_s / replies as f64,
                "s",
            ),
            Metric::new("npu.batch.ns_per_invocation.lanes1", lanes1, "ns"),
            Metric::new("npu.batch.ns_per_invocation.lanes16", lanes16, "ns"),
            Metric::new(
                "trace.overhead_ratio",
                untraced_rate.unwrap_or(rate_b) / rate_b,
                "ratio",
            ),
            Metric::new("latency.p50_s", median(&latencies), "s"),
            Metric::new("latency.tail_s", windowed_tail(&latencies), "s"),
        ]
    } else {
        let round_s: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.round_s.iter().copied())
            .collect();
        if round_s.is_empty() {
            return Err(format!("{workload}: no round completed"));
        }
        vec![
            Metric::median_of("setup_s", &setup_s, "s"),
            Metric::median_of("round_s", &round_s, "s"),
            Metric::new("rate_per_s", replies as f64 / measured_s, "1/s"),
            Metric::new("peak_rss_mb", rss_mb, "MB"),
        ]
    };
    let q_ms: Vec<String> = [0.5, 0.9, 0.95, 0.98, 0.99, 0.999]
        .iter()
        .map(|&q| format!("p{}={:.3}", q * 100.0, quantile(&latencies, q) * 1e3))
        .collect();
    eprintln!(
        "{workload}: {replies} replies in {measured_s:.2} s, {} flushes, mean occupancy {:.2}, latency ms {}",
        summary.serving.batches,
        summary.serving.batch_occupancy_mean,
        q_ms.join(" ")
    );
    Ok((
        Outcome {
            correct: errors.is_empty(),
            attempted,
            failed: lost,
            metrics,
        },
        tracer,
    ))
}
