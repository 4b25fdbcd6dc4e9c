//! `servebench`: the end-to-end serving benchmark for `pdac-serve`.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload chat_pdac --seed 1 --seconds 45 --trace 0
//! ```
//!
//! Builds the workload's model and backend, drives a `TokenServer` with
//! the workload's seeded requests from a single-threaded load generator
//! in rounds of about eight seconds, checks the served outputs and prints
//! one JSON object as the last line of standard output. `--trace 0` reports the
//! end-to-end metrics (medians over rounds); `--trace 1` also replays the
//! first round through the timing wrapper and reports the per-layer
//! metrics. See `servebench/README.md`.

mod loadgen;
mod report;
mod timing;
mod workload;

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pdac_nn::{ExactGemm, GemmBackend, KvStats, TransformerModel};
use pdac_power::meter::EnergyMeter;
use pdac_power::{ArchConfig, DriverKind, EnergyModel, OpClass, OpTrace, PowerModel, TechParams};
use pdac_serve::{Completion, Request, TokenServer};

use report::{mean, num, quantile, Fnv, Metric};
use timing::{Kind, TimedGemm};
use workload::{Backend, Planned, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// GEMM worker threads when `PDAC_THREADS` is unset. One: on a host of a
/// few shared vCPUs a second GEMM thread adds no throughput at these
/// shapes, and every parallel call then waits for the slower of two
/// threads, which makes step times follow the host's other load.
const DEFAULT_THREADS: &str = "1";
/// Target length of one round, in seconds. A run is `seconds / ROUND_S`
/// rounds (at least one), each a fresh server with its own requests;
/// end-to-end metrics are medians over rounds, so a slow phase of a
/// shared host shorter than half the run moves the reported value little.
const ROUND_S: f64 = 8.0;
/// Round seeds are `seed · ROUND_SEED_STRIDE + r`, so the rounds of
/// different seeds never share requests.
const ROUND_SEED_STRIDE: u64 = 64;
/// Served requests replayed alone at batch 1, by position in the plan.
/// Not the first request: it is first in every batch it joins, so it
/// would miss a fault that only touches later batch rows.
const REPLAY_AT: [f64; 2] = [0.5, 1.0];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 45,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {} outside 1..=60", args.seconds));
    }
    Ok(args)
}

fn energy_model(driver: DriverKind) -> EnergyModel {
    EnergyModel::new(PowerModel::new(
        ArchConfig::lt_b(),
        TechParams::calibrated(),
        driver,
    ))
}

/// What one timed run of the load generator left behind.
struct Served {
    run: loadgen::Run,
    cpu_s: f64,
    /// Meter counts over the timed window.
    counts: OpTrace,
    /// Tokens fed through the model in the window (prompt + generated).
    fed: u64,
    kv: (Option<KvStats>, Option<KvStats>),
    kv_deferred: u64,
    /// `nn.gemm.weight_cache.{hit,miss}` over the window (traced run).
    cache: (u64, u64),
}

fn counter(snapshot: &pdac_telemetry::Snapshot, name: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Everything a timed run needs, built once per process.
struct Bench<'a> {
    spec: &'a Spec,
    model: &'a TransformerModel,
    /// The workload's backend, as built by its constructor.
    bare: &'a dyn GemmBackend,
    meter: &'a EnergyMeter,
    deadline: Duration,
}

/// One round's requests and the seed they were drawn from.
struct Round {
    seed: u64,
    plan: Vec<Planned>,
}

/// One timed round on a fresh server. Shared-prefix workloads first
/// serve their primers through the bare backend, so every round starts
/// with the system prompts cached. With `timed`, the window runs through the
/// timing wrapper and samples the server every step.
fn serve(b: &Bench<'_>, round: &Round, timed: Option<&TimedGemm<'_>>) -> Served {
    let mut server = workload::server(b.spec, b.model);
    for r in workload::primers(b.spec, round.seed) {
        server.admit(r);
    }
    server.run(b.bare);
    server.take_completions();
    let plan = round.plan.clone();
    let kv0 = server.kv_stats();
    let fed0 = server.fed_tokens();
    let deferred0 = server.kv_deferred();
    b.meter.reset();
    if timed.is_some() {
        pdac_telemetry::reset();
    }
    let backend: &dyn GemmBackend = match timed {
        Some(t) => t,
        None => b.bare,
    };
    let cpu0 = report::cpu_seconds();
    let run = loadgen::drive(&mut server, backend, plan, b.deadline, timed.is_some());
    let cpu_s = report::cpu_seconds() - cpu0;
    let snapshot = pdac_telemetry::snapshot();
    Served {
        run,
        cpu_s,
        counts: b.meter.counts(),
        fed: server.fed_tokens() - fed0,
        kv: (kv0, server.kv_stats()),
        kv_deferred: server.kv_deferred() - deferred0,
        cache: (
            counter(&snapshot, "nn.gemm.weight_cache.hit"),
            counter(&snapshot, "nn.gemm.weight_cache.miss"),
        ),
    }
}

/// Completions by request id.
fn by_id(completions: &[Completion]) -> HashMap<u64, &Completion> {
    completions.iter().map(|c| (c.id, c)).collect()
}

/// Per-request outcome of a run: time to first token and inter-token
/// gaps for every request that retired with all its tokens finite.
struct Latency {
    ttft_ms: Vec<f64>,
    itl_ms: Vec<f64>,
    failed: usize,
    tokens: u64,
}

fn latency(plan: &[Planned], served: &Served) -> Latency {
    let run = &served.run;
    let done = by_id(&run.completions);
    let mut out = Latency {
        ttft_ms: Vec::new(),
        itl_ms: Vec::new(),
        failed: 0,
        tokens: 0,
    };
    for p in plan {
        let n = p.request.max_new_tokens;
        let times = done.get(&p.request.id).and_then(|c| {
            let finite = c.hidden.iter().flatten().all(|v| v.is_finite());
            let steps = loadgen::token_steps(c, n, run.step0)?;
            (finite && steps.end <= run.ends.len()).then(|| &run.ends[steps])
        });
        let Some(times) = times else {
            out.failed += 1;
            continue;
        };
        out.tokens += n as u64;
        out.ttft_ms.push((times[0] - p.due_s) * 1e3);
        out.itl_ms
            .extend(times.windows(2).map(|w| (w[1] - w[0]) * 1e3));
    }
    out
}

/// FNV-1a over every served hidden state, in request-id order.
fn digest(completions: &[Completion]) -> u64 {
    let mut sorted: Vec<&Completion> = completions.iter().collect();
    sorted.sort_by_key(|c| c.id);
    let mut h = Fnv::default();
    for c in sorted {
        h.word(c.id);
        h.word(c.hidden.len() as u64);
        for v in c.hidden.iter().flatten() {
            h.word(v.to_bits());
        }
    }
    h.0
}

/// Serves `requests` on a fresh flat server of batch cap `batch` and
/// returns their completions.
fn replay(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    batch: usize,
    requests: Vec<Request>,
) -> Vec<Completion> {
    let mut server = TokenServer::new(model, batch);
    for r in requests {
        server.admit(r);
    }
    server.run(backend);
    server.take_completions()
}

/// The scheduling identity: a sample of served requests, replayed one
/// at a time through a flat batch-1 server and the same backend, must
/// reproduce the served bits exactly.
fn solo_replays_match(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    plan: &[Planned],
    served: &[Completion],
) -> bool {
    let done = by_id(served);
    let mut picks: Vec<usize> = REPLAY_AT
        .iter()
        .map(|f| ((plan.len() as f64 * f) as usize).min(plan.len() - 1))
        .collect();
    picks.dedup();
    picks.into_iter().all(|i| {
        let request = plan[i].request.clone();
        let id = request.id;
        let solo = replay(model, backend, 1, vec![request]);
        match (done.get(&id), solo.first()) {
            (Some(c), Some(s)) => {
                c.hidden.len() == s.hidden.len()
                    && c.hidden
                        .iter()
                        .flatten()
                        .zip(s.hidden.iter().flatten())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            _ => false,
        }
    })
}

/// Mean relative Frobenius error of each request's first generated
/// hidden state against an exact-backend replay of its prompt.
fn first_token_rel_err(model: &TransformerModel, plan: &[Planned], served: &[Completion]) -> f64 {
    let prompts: Vec<Request> = plan
        .iter()
        .map(|p| Request {
            max_new_tokens: 1,
            ..p.request.clone()
        })
        .collect();
    let exact = replay(model, &ExactGemm, 16, prompts);
    let exact = by_id(&exact);
    let served = by_id(served);
    let errs: Vec<f64> = plan
        .iter()
        .filter_map(|p| {
            let id = p.request.id;
            let got = served.get(&id)?.hidden.first()?;
            let want = exact.get(&id)?.hidden.first()?;
            let diff: f64 = got.iter().zip(want).map(|(a, b)| (a - b).powi(2)).sum();
            let norm: f64 = want.iter().map(|b| b * b).sum();
            Some((diff / norm).sqrt())
        })
        .collect();
    if errs.len() == plan.len() {
        mean(&errs)
    } else {
        f64::NAN
    }
}

fn join<T: ToString>(items: impl Iterator<Item = T>) -> String {
    items.map(|x| x.to_string()).collect::<Vec<_>>().join(", ")
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics of one round, in `BENCHMARK.json` order
/// (`setup_s` and `peak_rss_mb` are per process and added by the caller).
fn round_metrics(served: &Served, lat: &Latency) -> Vec<Metric> {
    let tokens = lat.tokens as f64;
    let j_pdac = energy_model(DriverKind::PhotonicDac)
        .energy(&served.counts, 8)
        .total_j();
    let j_edac = energy_model(DriverKind::ElectricalDac)
        .energy(&served.counts, 8)
        .total_j();
    vec![
        m("tokens_per_s", "tok/s", tokens / served.run.wall_s),
        m("ttft_p50_ms", "ms", quantile(&lat.ttft_ms, 0.5)),
        m("ttft_p90_ms", "ms", quantile(&lat.ttft_ms, 0.9)),
        m("itl_p50_ms", "ms", quantile(&lat.itl_ms, 0.5)),
        m("itl_p99_ms", "ms", quantile(&lat.itl_ms, 0.99)),
        m("cpu_ms_per_token", "ms", served.cpu_s * 1e3 / tokens),
        m("j_per_token", "J", j_pdac / tokens),
        m("pdac_over_edac_j", "ratio", j_pdac / j_edac),
    ]
}

/// `setup_s`, the median over rounds of each round metric, and
/// `peak_rss_mb`.
fn end_to_end(setup_s: f64, rounds: &[Vec<Metric>]) -> Vec<Metric> {
    let mut out = vec![m("setup_s", "s", setup_s)];
    for (i, first) in rounds[0].iter().enumerate() {
        let values: Vec<f64> = rounds.iter().map(|r| r[i].value).collect();
        out.push(m(first.name, first.unit, quantile(&values, 0.5)));
    }
    out.push(m("peak_rss_mb", "MB", report::peak_rss_mb()));
    out
}

/// Physical KV bytes per logical token held by in-flight sequences,
/// averaged over the traced run's steps. A sequence retiring at step `f`
/// with context `C = prompt + generated - 1` held `C - (f - j)` tokens
/// after step `j`; it was in flight from the first step after which it
/// had left the (FIFO) queue.
fn bytes_per_live_token(plan: &[Planned], served: &Served) -> f64 {
    let run = &served.run;
    let Some(s) = &run.samples else {
        return f64::NAN;
    };
    let steps = run.ends.len();
    let entered: Vec<usize> = (0..steps)
        .map(|j| s.sent_before[j] - s.pending[j])
        .collect();
    let mut tokens = vec![0.0f64; steps];
    let done = by_id(&run.completions);
    for (i, p) in plan.iter().enumerate() {
        let Some(c) = done.get(&p.request.id) else {
            continue;
        };
        let Some(f) = c
            .finished_step
            .checked_sub(run.step0)
            .and_then(|f| usize::try_from(f).ok())
        else {
            continue;
        };
        let context = (p.request.prompt.len() + p.request.max_new_tokens - 1) as f64;
        let enter = entered.partition_point(|&e| e <= i);
        for (j, t) in tokens.iter_mut().enumerate().take(f.min(steps)).skip(enter) {
            *t += context - (f - j) as f64;
        }
    }
    let bytes: f64 =
        s.kv.iter()
            .map(|k| k.map_or(0.0, |k| k.live_bytes as f64))
            .sum();
    bytes / tokens.iter().sum::<f64>()
}

fn per_layer(
    plan: &[Planned],
    untraced: &Served,
    traced: &Served,
    timed: &TimedGemm<'_>,
    lat: &Latency,
    failed_frac: f64,
    first_err: f64,
) -> Vec<Metric> {
    let run = &traced.run;
    let s = run.samples.as_ref().expect("traced run samples");
    let tokens = lat.tokens as f64;
    let n = plan.len() as f64;
    let late_ms: Vec<f64> = plan
        .iter()
        .zip(&run.sent_at)
        .map(|(p, t)| (t - p.due_s) * 1e3)
        .collect();
    let step_ms: Vec<f64> = run.step_s.iter().map(|x| x * 1e3).collect();
    let step_total_ms: f64 = step_ms.iter().sum();
    let w = timed.stats(Kind::Weight);
    let a = timed.stats(Kind::Attn);
    let gemm_ms = (w.ns + a.ns) as f64 * 1e-6;
    let untraced_ms: f64 = untraced.run.step_s.iter().sum::<f64>() * 1e3;
    let untraced_tokens: f64 = untraced
        .run
        .completions
        .iter()
        .map(|c| c.hidden.len() as f64)
        .sum();
    let (kv0, kv1) = traced.kv;
    let kv_delta = |f: fn(&KvStats) -> u64| match (kv0, kv1) {
        (Some(a), Some(b)) => (f(&b) - f(&a)) as f64,
        _ => 0.0,
    };
    let prompt_tokens: f64 = plan.iter().map(|p| p.request.prompt.len() as f64).sum();
    let live_peak =
        s.kv.iter()
            .map(|k| k.map_or(0.0, |k| k.live_bytes as f64))
            .fold(0.0, f64::max);
    let (hits, misses) = traced.cache;
    let energy = energy_model(DriverKind::PhotonicDac).energy(&traced.counts, 8);
    let attn_j = energy
        .class(OpClass::Attention)
        .map_or(0.0, |c| c.total_j());
    vec![
        m("loadgen.late_p99_ms", "ms", quantile(&late_ms, 0.99)),
        m("loadgen.idle_frac", "frac", run.idle_s / run.wall_s),
        m("serve.step.p50_ms", "ms", quantile(&step_ms, 0.5)),
        m("serve.step.p99_ms", "ms", quantile(&step_ms, 0.99)),
        m(
            "serve.step.busy_frac",
            "frac",
            step_total_ms / 1e3 / run.wall_s,
        ),
        m("serve.step.ms_per_token", "ms", step_total_ms / tokens),
        m(
            "serve.step.non_gemm_ms_per_token",
            "ms",
            (step_total_ms - gemm_ms) / tokens,
        ),
        m(
            "serve.admit.us_per_req",
            "us",
            s.admit.as_secs_f64() * 1e6 / n,
        ),
        m(
            "serve.batch.mean",
            "seqs",
            traced.fed as f64 / run.ends.len() as f64,
        ),
        m(
            "serve.queue.mean",
            "reqs",
            mean(&s.pending.iter().map(|&p| p as f64).collect::<Vec<_>>()),
        ),
        m("serve.kv_deferred", "count", traced.kv_deferred as f64),
        m("nn.gemm.weight.calls", "count", w.calls as f64),
        m(
            "nn.gemm.weight.rows_mean",
            "rows",
            w.rows as f64 / w.calls as f64,
        ),
        m(
            "nn.gemm.weight.ms_per_token",
            "ms",
            w.ns as f64 * 1e-6 / tokens,
        ),
        m(
            "nn.gemm.weight.ns_per_mac",
            "ns",
            w.ns as f64 / w.macs as f64,
        ),
        m("nn.gemm.attn.calls", "count", a.calls as f64),
        m(
            "nn.gemm.attn.ms_per_token",
            "ms",
            a.ns as f64 * 1e-6 / tokens,
        ),
        m("nn.gemm.attn.ns_per_mac", "ns", a.ns as f64 / a.macs as f64),
        m(
            "nn.gemm.bytes_per_token",
            "B",
            (w.bytes + a.bytes) as f64 / tokens,
        ),
        m("nn.gemm.share", "frac", gemm_ms / step_total_ms),
        m(
            "nn.prepared.hit_frac",
            "frac",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        ),
        m("nn.prepared.misses_after_warmup", "count", misses as f64),
        m(
            "nn.paged.prefix_hit_frac",
            "frac",
            kv_delta(|k| k.shared_tokens) / prompt_tokens,
        ),
        m("nn.paged.live_bytes_peak", "B", live_peak),
        m(
            "nn.paged.bytes_per_live_token",
            "B",
            if kv1.is_some() {
                bytes_per_live_token(plan, traced)
            } else {
                0.0
            },
        ),
        m(
            "nn.paged.evicted_pages",
            "count",
            kv_delta(|k| k.evicted_pages),
        ),
        m(
            "nn.paged.over_budget_pages",
            "count",
            kv_delta(|k| k.over_budget_pages),
        ),
        m(
            "power.macs_per_token",
            "count",
            traced.counts.total_macs() as f64 / tokens,
        ),
        m("power.attention_j_frac", "frac", attn_j / energy.total_j()),
        m(
            "trace.overhead_frac",
            "frac",
            (step_total_ms / tokens) / (untraced_ms / untraced_tokens) - 1.0,
        ),
        m("failed_frac", "frac", failed_frac),
        m("first_token_rel_err", "frac", first_err),
    ]
}

fn main() -> ExitCode {
    let threads_env = std::env::var("PDAC_THREADS").ok();
    if threads_env.is_none() {
        // Still single threaded: nothing has read the variable yet.
        std::env::set_var("PDAC_THREADS", DEFAULT_THREADS);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <name> --seed <n> --seconds <1-60> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::by_name(&args.workload) else {
        let names: Vec<&str> = workload::all().iter().map(|s| s.name).collect();
        eprintln!(
            "servebench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let round_count = ((args.seconds as f64 / ROUND_S).round() as u64).max(1);
    let round_s = args.seconds as f64 / round_count as f64;
    // A round that cannot finish its requests in this long counts the rest
    // as failed, so a stalled server cannot hang the benchmark.
    let deadline = Duration::from_secs_f64(3.0 * round_s + 5.0);
    let host0 = report::host_cpu();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let model = workload::model();
        let backend = workload::backend(spec.backend);
        replay(&model, &*backend, spec.batch, workload::warmup(&spec));
        setups.push(t.elapsed().as_secs_f64());
        built = Some((model, backend));
    }
    let (model, backend) = built.expect("at least one set-up");
    let setup_s = quantile(&setups, 0.5);

    let meter =
        pdac_power::meter::install(EnergyMeter::new(energy_model(DriverKind::PhotonicDac), 8));
    let bench = Bench {
        spec: &spec,
        model: &model,
        bare: &*backend,
        meter: &meter,
        deadline,
    };
    let rounds: Vec<Round> = (0..round_count)
        .map(|r| {
            let seed = args.seed.wrapping_mul(ROUND_SEED_STRIDE).wrapping_add(r);
            Round {
                seed,
                plan: workload::requests(&spec, seed, round_s),
            }
        })
        .collect();
    let mut served = Vec::with_capacity(rounds.len());
    let mut lats = Vec::with_capacity(rounds.len());
    for round in &rounds {
        let s = serve(&bench, round, None);
        lats.push(latency(&round.plan, &s));
        served.push(s);
    }
    let attempted: usize = rounds.iter().map(|r| r.plan.len()).sum();
    let failed: usize = lats.iter().map(|l| l.failed).sum();
    let mut h = Fnv::default();
    for s in &served {
        h.word(digest(&s.run.completions));
    }
    let served_digest = h.0;
    let mut checks = vec![
        ("all_retired_finite", failed == 0),
        (
            "solo_replay_bit_identical",
            solo_replays_match(
                &model,
                &*backend,
                &rounds[0].plan,
                &served[0].run.completions,
            ),
        ),
    ];
    let per_round: Vec<Vec<Metric>> = served
        .iter()
        .zip(&lats)
        .map(|(s, l)| round_metrics(s, l))
        .collect();
    let e2e = end_to_end(setup_s, &per_round);

    // The traced run replays round 0 through the timing wrapper.
    let mut layers = Vec::new();
    if args.trace {
        pdac_telemetry::enable();
        pdac_telemetry::set_tracing(false);
        let timed = TimedGemm::new(&*backend);
        let traced = serve(&bench, &rounds[0], Some(&timed));
        pdac_telemetry::disable();
        checks.push((
            "traced_digest_matches",
            digest(&traced.run.completions) == digest(&served[0].run.completions),
        ));
        let first_err = if spec.backend == Backend::Exact {
            // Served through the exact backend: the replay is the served
            // result itself (batch ≡ solo, checked above).
            0.0
        } else {
            first_token_rel_err(&model, &rounds[0].plan, &served[0].run.completions)
        };
        checks.push(("first_token_rel_err_finite", first_err.is_finite()));
        let traced_lat = latency(&rounds[0].plan, &traced);
        layers = per_layer(
            &rounds[0].plan,
            &served[0],
            &traced,
            &timed,
            &traced_lat,
            failed as f64 / attempted as f64,
            first_err,
        );
    }
    let reported = if args.trace { &layers } else { &e2e };
    checks.push((
        "metrics_finite",
        reported.iter().all(|x| x.value.is_finite()),
    ));
    let correct = checks.iter().all(|(_, ok)| *ok);

    let host1 = report::host_cpu();
    let steal = (host1.0 - host0.0) as f64 / (host1.1 - host0.1).max(1) as f64;
    let tokens: u64 = lats.iter().map(|l| l.tokens).sum();
    let steps: usize = served.iter().map(|s| s.run.ends.len()).sum();
    println!(
        "servebench {} seed {} seconds {} trace {}: {} rounds, {} requests, {} tokens, {} steps, digest {:016x}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        round_count,
        attempted,
        tokens,
        steps,
        served_digest
    );
    print!("{}", report::table(&e2e));
    print!("{}", report::table(&layers));
    for (name, ok) in &checks {
        println!("  check {name:<34} {}", if *ok { "ok" } else { "FAILED" });
    }
    let checks_json: Vec<String> = checks
        .iter()
        .map(|(n, ok)| format!("\"{n}\": {ok}"))
        .collect();
    println!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"rounds\": {}, \"requests\": {}, \"tokens\": {}, \"ttft_samples_per_round\": [{}], \
         \"itl_samples_per_round\": [{}], \
         \"setup_samples_s\": [{}], \"digest\": \"{:016x}\", \"checks\": {{{}}}, \
         \"provenance\": {}, \"end_to_end\": {}, \"per_layer\": {}}}}}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        round_count,
        attempted,
        tokens,
        join(lats.iter().map(|l| l.ttft_ms.len())),
        join(lats.iter().map(|l| l.itl_ms.len())),
        setups
            .iter()
            .map(|x| num(*x))
            .collect::<Vec<_>>()
            .join(", "),
        served_digest,
        checks_json.join(", "),
        report::provenance(steal, threads_env.as_deref()),
        report::metrics_json(&e2e),
        report::metrics_json(&layers),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        attempted,
        failed,
        report::metrics_json(reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
