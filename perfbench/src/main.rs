//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Boots the system, pre-builds inputs (timed as `setup_s`), serves the
//! provider over loopback TCP, runs the open-loop phase for `--seconds`
//! at the workload's pinned rate, then a closed-loop capacity phase, then
//! checks every output. With `--trace 1` the open-loop inputs are split:
//! the first half runs untraced, the second with spans recorded, and the
//! per-layer metrics and waterfalls are printed instead of the end-to-end
//! ones. The last stdout line is the JSON result; a failed check exits
//! non-zero without it.

use p2drm_core::entities::device::CompliantDevice;
use p2drm_core::license::License;
use p2drm_core::service::{
    correlation_hint, OpCode, PlaySession, ProviderService, RequestEnvelope, Transport,
    WireRequest, WireResponse,
};
use p2drm_core::{ContentId, LicenseId};
use p2drm_net::{DrmServer, NetConfig, ServiceFn};
use p2drm_pki::cert::KeyId;
use perfbench::gate::{self, GateError, Ledger};
use perfbench::gen::{self, CrlSeen, OpenRun, Outcome};
use perfbench::layers;
use perfbench::setup::{self, Env, Expect, Request, Store};
use perfbench::spec::{
    Workload, CAPACITY_DEPTH, END_TO_END, KEY_BITS, LATE_LIMIT_MS, PER_LAYER, PRICE, WAL_SHARDS,
};
use perfbench::stats::{self, Latency};
use perfbench::sys;
use perfbench::trace::{Layer, Recorder, CURRENT};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <checkout|playback> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}-{}",
        args.workload.spec().name,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    match outcome {
        Ok(report) => {
            for line in report.text {
                println!("{line}");
            }
            println!("{}", report.json);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

struct Report {
    text: Vec<String>,
    json: String,
}

fn op_label(op: OpCode) -> &'static str {
    match op {
        OpCode::Purchase => "purchase",
        OpCode::Catalog => "catalog",
        OpCode::Download => "download",
        OpCode::CrlSync => "crl_sync",
        other => other.label(),
    }
}

/// `(slice, latency ms from the intended send)` of every completed `op`;
/// slice `k` holds requests due in `[k, k + 1)` × `slice_ns` after the
/// first.
fn latencies(reqs: &[Request], run: &OpenRun, op: OpCode, slice_ns: u64) -> Vec<(usize, f64)> {
    let first = run.intended.first().copied().unwrap_or(0);
    (0..reqs.len())
        .filter(|&i| reqs[i].op == op && run.outcomes[i].ok())
        .filter_map(|i| {
            let slice = ((run.intended[i] - first) / slice_ns) as usize;
            run.received[i].map(|r| (slice, r.saturating_sub(run.intended[i]) as f64 / 1e6))
        })
        .collect()
}

fn values(samples: &[(usize, f64)]) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

fn fmt_latency(name: &str, l: &Latency) -> String {
    format!(
        "{name}: p50 {:.4} ms, p90 {:.4} ms, p{} {:.4} ms, max {:.4} ms (n = {})",
        l.p50,
        l.p90,
        (l.tail_q * 100.0).round(),
        l.tail,
        l.max,
        l.count
    )
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Length of one slice of the open-loop window.
const SLICE: Duration = Duration::from_secs(1);
/// Rounds the capacity phase is split into; the first warms up and is
/// not counted.
const CAPACITY_ROUNDS: usize = 6;
/// Completed ops a slice needs to count towards a slice median.
const MIN_PER_SLICE: usize = 20;

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let spec = args.workload.spec();
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let n_open = (spec.rate_ops_s * args.seconds).round().max(10.0) as usize;
    let recorder = args
        .trace
        .then(|| Arc::new(Recorder::new(Instant::now(), n_open * 8)));

    let t_setup = Instant::now();
    std::fs::create_dir_all(work).map_err(|e| format!("work dir: {e}"))?;
    let mut env = setup::prepare(
        args.workload,
        &work.join("wal"),
        recorder.clone(),
        args.seed,
        n_open,
        spec.capacity_ops,
        threads,
    )?;
    let held = match args.trace {
        true => Some(layers::Held::build(&env, args.seed)?),
        false => None,
    };
    let plays = prepare_plays(&mut env, args)?;
    let setup_s = t_setup.elapsed().as_secs_f64();
    let prepared: f64 = env.steps_s.iter().map(|(_, s)| s).sum();
    env.steps_s.push(("check inputs", setup_s - prepared));
    // Peak memory counts from here on: the serving phases, not set-up's
    // transient allocations.
    let setup_rss_mb = sys::rss_mb();
    sys::reset_peak_rss().map_err(|e| format!("resetting the peak RSS: {e}"))?;

    let service = Arc::new(env.sys.wire_service(args.seed));
    let handle_cost = Arc::new(HandleCost::new(Vec::with_capacity(
        env.open.len() + spec.capacity_ops + 64,
    )));
    let server = {
        let service = service.clone();
        let rec = recorder.clone();
        let cost = handle_cost.clone();
        // The server's threads inherit the scheduling policy of the thread
        // that spawns them: started from an idle-policy thread, they yield
        // a core to the generator whenever it has a send due, so the
        // generator's own scheduling delay stays out of the latencies.
        std::thread::spawn(move || {
            sys::lower_priority();
            DrmServer::bind(
                "127.0.0.1:0",
                ServiceFn(move |req: &[u8]| handle(&service, rec.as_deref(), &cost, req)),
                NetConfig {
                    workers: threads,
                    // Room for every request the generator's connections
                    // can have dispatched at once, so a stall shows as
                    // latency rather than as shed requests.
                    queue_depth: threads * NetConfig::default().max_pipeline,
                    ..NetConfig::default()
                },
            )
        })
        .join()
        .map_err(|_| "server start panicked".to_string())?
        .map_err(|e| format!("bind: {e}"))?
    };
    let addr = server.local_addr();
    warm_up(addr, &env, spec.side)?;

    let ledger_before = (
        env.sys.provider.license_count() as u64,
        env.sys.mint.deposited_total(),
    );
    let provider = env.sys.provider.clone();
    let store: &Store = provider.store();
    let items = env.items.clone();
    let open = std::mem::take(&mut env.open);
    let capacity = std::mem::take(&mut env.capacity);

    // Open loop. A traced run measures the first half untraced and the
    // second half traced, so tracing overhead is read within one process.
    let lead_in = Duration::from_millis(20);
    let schedule = gen::poisson_schedule(
        open.len(),
        spec.rate_ops_s,
        lead_in,
        &mut setup::rng_for(args.seed, 5),
    );
    let split = if args.trace {
        open.len() / 2
    } else {
        open.len()
    };
    let (reqs_a, reqs_b) = open.split_at(split);
    let slice_ns = SLICE.as_nanos() as u64;
    let slice_of = |t: u64| ((t - schedule[0]) / slice_ns) as usize;
    let marks: Vec<usize> = (0..split)
        .filter(|&i| i == 0 || slice_of(schedule[i]) != slice_of(schedule[i - 1]))
        .collect();
    let run_a = gen::open_loop(addr, threads, reqs_a, &schedule[..split], &marks, &items)
        .map_err(|e| e.to_string())?;
    let counters = || args.trace.then(|| layers::Counters::read(&env.sys, store));
    let after_a = counters();
    let traced = match (&recorder, reqs_b.is_empty()) {
        (Some(rec), false) => {
            rec.set_on(true);
            let base = schedule[split] - lead_in.as_nanos() as u64;
            let shifted: Vec<u64> = schedule[split..].iter().map(|t| t - base).collect();
            let run_b = gen::open_loop(addr, threads, reqs_b, &shifted, &[], &items)
                .map_err(|e| e.to_string())?;
            rec.set_on(false);
            let offset = rec.ns(run_b.epoch);
            Some((run_b, offset))
        }
        _ => None,
    };
    let after_open = counters();

    // Closed-loop capacity on fresh inputs, in rounds.
    let mut cap_outcomes = Vec::with_capacity(capacity.len());
    let mut cap_rates = Vec::with_capacity(CAPACITY_ROUNDS);
    let mut cap_crls = Vec::new();
    for chunk in capacity.chunks(capacity.len().div_ceil(CAPACITY_ROUNDS).max(1)) {
        let round = gen::capacity(addr, threads, chunk, &items).map_err(|e| e.to_string())?;
        let ok = round.outcomes.iter().filter(|o| o.ok()).count();
        cap_rates.push(ok as f64 / round.wall.as_secs_f64());
        cap_outcomes.extend(round.outcomes);
        cap_crls.push(round.crls);
    }
    let net = server.metrics();

    // Correctness gate.
    let mut outcomes: Vec<(&Request, &Outcome)> = reqs_a.iter().zip(&run_a.outcomes).collect();
    let mut seen: Vec<&CrlSeen> = cap_crls.iter().collect();
    seen.push(&run_a.crls);
    if let Some((run_b, _)) = &traced {
        outcomes.extend(reqs_b.iter().zip(&run_b.outcomes));
        seen.push(&run_b.crls);
    }
    outcomes.extend(capacity.iter().zip(&cap_outcomes));
    let checked =
        check_outputs(&env, &outcomes, &seen, ledger_before).map_err(|e| e.to_string())?;
    check_plays(&mut env, plays, &outcomes, addr, args.seed).map_err(|e| e.to_string())?;

    // Per-layer metrics need the live provider: compute them before the
    // recovery check shuts it down.
    let mut text = Vec::new();
    let mut layer_metrics: Vec<(String, f64)> = Vec::new();
    if let (Some(held), Some((run_b, offset)), Some(rec), Some(before), Some(after)) =
        (&held, &traced, &recorder, &after_a, &after_open)
    {
        let spans = rec.take();
        let untraced: Vec<(OpCode, Vec<f64>)> = [spec.lead, spec.side]
            .into_iter()
            .map(|op| (op, values(&latencies(reqs_a, &run_a, op, slice_ns))))
            .collect();
        let out = layers::analyze(layers::Inputs {
            env: &env,
            held,
            reqs: reqs_b,
            run: run_b,
            offset_ns: *offset,
            spans: &spans,
            before,
            after,
            untraced: &untraced,
            net: &net,
            lead: spec.lead,
            side: spec.side,
            span_dump: &PathBuf::from(".perfbench_out")
                .join(format!("spans-{}-{}.tsv", spec.name, args.seed)),
        })?;
        text = out.text;
        layer_metrics = out.metrics;
    }
    drop(server);
    drop(service);
    drop(provider);
    let crl_at_start = checked.crl_at_start;
    let env_steps = env.steps_s.clone();
    check_recovery(env, work, &checked)?;

    // End-to-end figures, from the untraced phase only.
    let lead = latencies(reqs_a, &run_a, spec.lead, slice_ns);
    let side = latencies(reqs_a, &run_a, spec.side, slice_ns);
    let (lead_all, side_all) = (
        Latency::of(&values(&lead)).ok_or("no lead op completed")?,
        Latency::of(&values(&side)).ok_or("no side op completed")?,
    );
    let ms = |ns: &[u64]| ns.iter().map(|&t| t as f64 / 1e6).collect::<Vec<_>>();
    let late = stats::lateness(&ms(&run_a.intended), &ms(&run_a.sent));
    let late_all = Latency::of(&late).ok_or("no sends")?;
    if !stats::schedule_kept(&late, LATE_LIMIT_MS) {
        return Err(format!(
            "invalid run: the generator fell behind (late p{} {:.3} ms > {LATE_LIMIT_MS} ms)",
            (late_all.tail_q * 100.0).round(),
            late_all.tail
        ));
    }
    let attempted = outcomes.len();
    let failed = outcomes.iter().filter(|(_, o)| !o.ok()).count();

    let mut head = vec![
        format!(
            "perfbench {} seed {} trace {} | commit {} | nproc {threads} | {} | {KEY_BITS}-bit keys | \
             WAL SyncEach x{WAL_SHARDS} shards | CRL {crl_at_start} ids at start | \
             pinned rate {} ops/s",
            spec.name,
            args.seed,
            u8::from(args.trace),
            git_commit(),
            env!("PERFBENCH_RUSTC"),
            spec.rate_ops_s
        ),
        format!("why: {}", spec.why),
        format!(
            "set-up steps (s): {}",
            env_steps
                .iter()
                .map(|(n, t)| format!("{n} {t:.3}"))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        format!(
            "open loop: {} requests over {:.3} s on {threads} connections, {} slices of {:?}; \
             capacity: {} requests in {CAPACITY_ROUNDS} rounds, depth {CAPACITY_DEPTH} x {threads}",
            reqs_a.len(),
            run_a.wall.as_secs_f64(),
            marks.len(),
            SLICE,
            capacity.len(),
        ),
        fmt_latency(&format!("{}_ms (lead)", op_label(spec.lead)), &lead_all),
        fmt_latency(&format!("{}_ms (side)", op_label(spec.side)), &side_all),
        fmt_latency("gen.late_ms", &late_all),
        format!(
            "capacity rounds (ops/s, first one warms up): {}",
            cap_rates.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>().join(" ")
        ),
        format!(
            "error_ratio: {:.6} ({failed} of {attempted}; busy sheds {}, decode errors {})",
            failed as f64 / attempted.max(1) as f64,
            net.busy_rejections,
            net.decode_errors
        ),
    ];
    head.append(&mut text);
    let metrics: Vec<(String, f64, String)> = if args.trace {
        layer_metrics.insert(0, ("gen.late_p99_ms".into(), late_all.tail));
        if let Some((n, _)) = layer_metrics
            .iter()
            .find(|(n, _)| !PER_LAYER.iter().any(|l| l.name == n))
        {
            return Err(format!("per-layer metric {n} missing from the spec"));
        }
        head.push(
            "layer map (metric -> end-to-end metric it should move, on which workloads):".into(),
        );
        let mut out = Vec::with_capacity(PER_LAYER.len());
        for l in PER_LAYER {
            head.push(format!("  {} -> {} ({})", l.name, l.moves, l.on));
            let (_, v) = layer_metrics
                .iter()
                .find(|(n, _)| n == l.name)
                .ok_or_else(|| format!("per-layer metric {} not computed", l.name))?;
            out.push((l.name.to_string(), *v, l.unit.to_string()));
        }
        out
    } else {
        // Each figure is the median over the window's 1-second slices
        // (over the measured rounds for capacity), so a burst of host
        // noise in a minority of slices leaves it unchanged. Slices with
        // fewer than `MIN_PER_SLICE` completions, such as a short last
        // one, are skipped.
        let lead_slices = stats::per_slice(&lead, MIN_PER_SLICE, |l| l.p50);
        let side_slices = stats::per_slice(&side, MIN_PER_SLICE, |l| l.p50);
        let mut done_per_slice = vec![0usize; marks.len()];
        for (i, o) in run_a.outcomes.iter().enumerate() {
            if o.ok() {
                done_per_slice[slice_of(schedule[i])] += 1;
            }
        }
        let cpu_slices: Vec<f64> = run_a
            .cpu_marks
            .windows(2)
            .zip(&done_per_slice)
            .filter(|(_, &n)| n >= MIN_PER_SLICE)
            .map(|(w, &n)| (w[1] - w[0]) / n as f64)
            .collect();
        // Worker CPU and handle wall time per request of each op, from
        // the service wrapper.
        let first_corr = reqs_a.first().map_or(0, |r| r.corr);
        let (mut lead_cpu, mut side_cpu, mut lead_wall) = (Vec::new(), Vec::new(), Vec::new());
        for &(corr, cpu_ns, wall_ns) in handle_cost
            .lock()
            .expect("handle cost sink poisoned by a panicking worker")
            .iter()
        {
            let Some(i) = corr.checked_sub(first_corr).map(|i| i as usize) else {
                continue;
            };
            let Some(req) = reqs_a.get(i) else { continue };
            let slice = slice_of(schedule[i]);
            match req.op {
                op if op == spec.lead => {
                    lead_cpu.push((slice, cpu_ns as f64 / 1e3));
                    lead_wall.push((slice, wall_ns as f64 / 1e6));
                }
                op if op == spec.side => side_cpu.push((slice, cpu_ns as f64 / 1e3)),
                _ => {}
            }
        }
        let lead_cpu_slices = stats::per_slice(&lead_cpu, MIN_PER_SLICE, |l| l.p50);
        let side_cpu_slices = stats::per_slice(&side_cpu, MIN_PER_SLICE, |l| l.p50);
        let lead_wall_slices = stats::per_slice(&lead_wall, MIN_PER_SLICE, |l| l.p50);
        head.push(format!("lead p50 by slice (ms): {}", show(&lead_slices)));
        head.push(format!("side p50 by slice (ms): {}", show(&side_slices)));
        head.push(format!("cpu per op by slice (ms): {}", show(&cpu_slices)));
        head.push(format!(
            "lead handle wall p50 by slice (ms): {}",
            show(&lead_wall_slices)
        ));
        head.push(format!(
            "lead worker CPU p50 by slice (us): {}",
            show(&lead_cpu_slices)
        ));
        head.push(format!(
            "side worker CPU p50 by slice (us): {}",
            show(&side_cpu_slices)
        ));
        let med = |v: &[f64], what: &str| {
            stats::median(v).ok_or_else(|| format!("no {what} slice with enough samples"))
        };
        head.push(format!("lead_p50_ms = {} ms", med(&lead_slices, "lead")?));
        head.push(format!("side_p50_ms = {} ms", med(&side_slices, "side")?));
        head.push(format!(
            "capacity_ops_s = {} 1/s",
            med(&cap_rates[1..], "capacity")?
        ));
        head.push(format!(
            "side_cpu_us = {} us",
            med(&side_cpu_slices, "side CPU")?
        ));
        let values = [
            setup_s,
            med(&lead_wall_slices, "lead handle")?,
            med(&lead_cpu_slices, "lead CPU")?,
            med(&cpu_slices, "CPU")?,
            sys::peak_rss_mb(),
        ];
        head.push(format!(
            "setup_rss_mb = {setup_rss_mb} MB (RSS when serving starts)"
        ));
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n.to_string(), v, u.to_string()))
            .collect()
    };
    for (n, v, u) in &metrics {
        head.push(format!("{n} = {v} {u}"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let json = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(Report { text: head, json })
}

/// Values at 4 decimals, space-separated.
fn show(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The service wrapper: times each request's handle (wall and thread
/// CPU clock) and, in the traced half, sets the thread's current
/// correlation id for the store wrapper and records the handle span.
fn handle(
    service: &ProviderService<Store>,
    rec: Option<&Recorder>,
    cost: &HandleCost,
    req: &[u8],
) -> Vec<u8> {
    let corr = correlation_hint(req);
    let traced = rec.filter(|r| r.is_on());
    if traced.is_some() {
        CURRENT.with(|c| c.set(corr));
    }
    let cpu0 = sys::thread_cpu_ns();
    let start = Instant::now();
    let out = service.handle(req);
    let end = Instant::now();
    let cpu = sys::thread_cpu_ns().saturating_sub(cpu0);
    if let Some(rec) = traced {
        CURRENT.with(|c| c.set(0));
        let what = req
            .get(1)
            .and_then(|&b| OpCode::from_byte(b))
            .map_or("error", op_label);
        rec.record(corr, Layer::Service, what, start, end);
    }
    let wall = end.saturating_duration_since(start).as_nanos() as u64;
    cost.lock()
        .expect("handle cost sink poisoned by a panicking worker")
        .push((corr, cpu, wall));
    out
}

/// `(correlation id, worker CPU ns, wall ns)` of every request the
/// server handled, timed around `ProviderService::handle`.
type HandleCost = std::sync::Mutex<Vec<(u64, u64, u64)>>;

/// Sends a few read-only side requests so connections, caches and lazy
/// set-up are warm before timing. Uses correlation ids above every
/// pre-built request.
fn warm_up(addr: std::net::SocketAddr, env: &Env, side: OpCode) -> Result<(), String> {
    let t = p2drm_net::TcpTransport::connect(addr).map_err(|e| format!("warm-up: {e}"))?;
    let base = (env.open.len() + env.capacity.len()) as u64 + 1_000;
    let side = env
        .open
        .iter()
        .find(|r| r.op == side)
        .ok_or("no side request to warm up with")?;
    for i in 0..32u64 {
        let mut bytes = side.bytes.clone();
        bytes[2..10].copy_from_slice(&(base + i).to_le_bytes());
        t.roundtrip(base + i, &bytes)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

/// The device and licenses the post-run play check uses.
struct Plays {
    device: CompliantDevice,
    /// `playback` only: licenses bought in set-up, with their item.
    bought: Vec<(License, usize)>,
}

/// Licenses played after the run, per workload.
const PLAY_SAMPLE: usize = 3;

fn prepare_plays(env: &mut Env, args: &Args) -> Result<Plays, String> {
    let mut rng = setup::rng_for(args.seed, 6);
    let device = env
        .sys
        .register_device(&mut rng)
        .map_err(|e| format!("device: {e}"))?;
    let mut bought = Vec::new();
    if args.workload == Workload::Playback {
        let buyer = &mut env.agents[0].buyer;
        env.sys.fund(buyer, PLAY_SAMPLE as u64 * PRICE);
        for item in 0..PLAY_SAMPLE {
            let license = env
                .sys
                .purchase(buyer, env.items[item].meta.id, &mut rng)
                .map_err(|e| format!("set-up purchase for play check: {e}"))?;
            bought.push((license, item));
        }
    }
    Ok(Plays { device, bought })
}

/// What the output checks established, for the recovery check.
struct Checked {
    active: Vec<LicenseId>,
    crl_at_start: usize,
}

/// Every license verifies and is bound to the right pseudonym, counts
/// reconcile with the mint and the store, and the CRL holds exactly the
/// pre-filled ids (also every CRL synced on the wire verifies and holds
/// exactly them).
fn check_outputs(
    env: &Env,
    outcomes: &[(&Request, &Outcome)],
    seen: &[&CrlSeen],
    before: (u64, u64),
) -> Result<Checked, GateError> {
    let provider = &env.sys.provider;
    let key = provider.public_key();
    let mut active = Vec::new();
    let mut purchases = 0u64;
    for (req, outcome) in outcomes {
        let Outcome::License(license) = outcome else {
            continue;
        };
        let Expect::Purchase {
            content, pseudonym, ..
        } = &req.expect
        else {
            return Err(GateError("license in reply to a non-issuing op".into()));
        };
        purchases += 1;
        gate::check_license(license, key, content)?;
        if KeyId::of_rsa(&license.body.holder) != *pseudonym {
            return Err(GateError(format!(
                "license {} bound to another key",
                license.id()
            )));
        }
        active.push(license.id());
    }
    gate::reconcile(&Ledger {
        licenses_before: before.0,
        licenses_after: provider.license_count() as u64,
        deposited_before: before.1,
        deposited_after: env.sys.mint.deposited_total(),
        purchases,
        price: PRICE,
    })?;
    gate::check_crl(
        &provider.signed_license_crl(env.sys.now()),
        key,
        &env.crl_prefill,
    )?;
    for crl in seen.iter().filter_map(|s| s.latest.as_ref()) {
        gate::check_crl(crl, key, &env.crl_prefill)?;
    }
    Ok(Checked {
        active,
        crl_at_start: env.crl_prefill.len(),
    })
}

/// Plays a sample of the run's licenses on a device: the card↔device
/// rounds run locally, the download goes over the wire, and the
/// decrypted bytes must be the published payload.
fn check_plays(
    env: &mut Env,
    mut plays: Plays,
    outcomes: &[(&Request, &Outcome)],
    addr: std::net::SocketAddr,
    seed: u64,
) -> Result<(), GateError> {
    let mut rng = setup::rng_for(seed, 7);
    let now = env.sys.now();
    let item_of = |content: &ContentId| env.items.iter().position(|i| i.meta.id == *content);
    // (license, item, owner builder)
    let mut sample: Vec<(License, usize, usize)> = Vec::new();
    for (req, outcome) in outcomes {
        if sample.len() == PLAY_SAMPLE {
            break;
        }
        let (
            Outcome::License(license),
            Expect::Purchase {
                content,
                pseudonym,
                owner,
            },
        ) = (outcome, &req.expect)
        else {
            continue;
        };
        env.agents[*owner]
            .buyer
            .add_license((**license).clone(), *pseudonym);
        let item = item_of(content).ok_or(GateError("unknown item".into()))?;
        sample.push(((**license).clone(), item, *owner));
    }
    for (license, item) in plays.bought.drain(..) {
        sample.push((license, item, 0));
    }
    if sample.is_empty() {
        return Err(GateError("no license to play".into()));
    }
    let transport = p2drm_net::TcpTransport::connect(addr)
        .map_err(|e| GateError(format!("play check: {e}")))?;
    let mut corr = u64::MAX / 2;
    for (license, item, owner) in sample {
        let user = &env.agents[owner].buyer;
        let (session, request) =
            PlaySession::begin(user, &mut plays.device, &license, now, &mut rng)
                .map_err(|e| GateError(format!("play of {}: {e}", license.id())))?;
        corr += 1;
        let bytes = RequestEnvelope {
            correlation_id: corr,
            body: WireRequest::Download(request),
        }
        .to_bytes();
        let reply = transport
            .roundtrip(corr, &bytes)
            .map_err(|e| GateError(format!("play download: {e}")))?;
        let resp = match gate::decode_reply(OpCode::Download, corr, &reply)? {
            WireResponse::Download(r) => r,
            other => {
                return Err(GateError(format!(
                    "play download answered {}",
                    other.label()
                )))
            }
        };
        let plain = session
            .finish(&mut plays.device, &resp)
            .map_err(|e| GateError(format!("play finish: {e}")))?;
        if plain != env.items[item].payload {
            return Err(GateError(format!(
                "play of {} yields other bytes",
                license.id()
            )));
        }
    }
    Ok(())
}

/// Shuts the provider down, reopens its WAL directory, resumes a provider
/// over it with the same keys, and checks every acknowledged license
/// survived.
fn check_recovery(env: Env, work: &Path, checked: &Checked) -> Result<(), String> {
    let identity = setup::Identity::of(&env.sys)?;
    drop(env);
    let resumed = identity.resume(&work.join("wal"), None)?;
    gate::check_recovered(|id| resumed.license_status(id), &checked.active)
        .map_err(|e| e.to_string())
}
