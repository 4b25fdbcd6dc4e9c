//! The named workloads: model shape, backend, server configuration and
//! the seeded request stream. The program only ever sees the generated
//! requests.

use pdac_core::{IdealDac, PDac};
use pdac_math::SplitMix64;
use pdac_nn::{
    AnalogGemm, ExactGemm, GemmBackend, PagedConfig, TransformerConfig, TransformerModel,
};
use pdac_serve::{Request, TokenServer};

/// Hidden width of every workload's model (the `BENCH_decode.json` shape).
pub const HIDDEN: usize = 256;
/// Encoder layers.
pub const LAYERS: usize = 4;
/// Attention heads.
pub const HEADS: usize = 4;
/// KV page size of the paged workloads, in tokens.
const BLOCK: usize = 16;

/// Which GEMM backend serves the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// P-DAC 8-bit `AnalogGemm` (physical drive path, f64 route).
    Pdac,
    /// The exact f64 reference.
    Exact,
    /// `AnalogGemm<IdealDac>` 8-bit: the i8×i8→i32 integer route.
    Ideal,
}

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Open loop: Poisson arrivals at `per_s` requests per second over the
    /// run window, sent on schedule whatever the server's state.
    Poisson { per_s: f64 },
    /// Offline batch: `per_s × seconds` requests per round, all due at
    /// t = 0.
    Offline { per_s: f64 },
}

/// Where the server keeps K/V rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kv {
    /// Per-request flat caches (`TokenServer::new`).
    Flat,
    /// The shared paged cache (`TokenServer::new_paged`), with an optional
    /// byte budget.
    Paged { budget_bytes: Option<usize> },
}

/// A shared system prompt that a share of the prompts start with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedPrefix {
    /// Distinct system prompts.
    pub count: usize,
    /// Tokens in each.
    pub tokens: usize,
}

/// One named workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub backend: Backend,
    pub batch: usize,
    pub kv: Kv,
    pub arrivals: Arrivals,
    /// Prompt length range in tokens, inclusive (shared prefix included).
    pub prompt: (usize, usize),
    /// Generated-token range, inclusive.
    pub output: (usize, usize),
    pub prefix: Option<SharedPrefix>,
}

/// Bytes of one KV page: K and V rows of `BLOCK` tokens for one layer.
const PAGE_BYTES: usize = 2 * BLOCK * HIDDEN * std::mem::size_of::<f64>();

/// `rag_exact`'s KV budget, in pages per layer. The server publishes
/// every full prompt block, each request's unshared tail included, and
/// LRU-evicts them under the budget. The budget holds the 4 system
/// prompts (8 blocks each), a full batch of 8 tails (7 blocks each at the
/// longest prompt and output) and the published tails of the last 32
/// retired requests (6 blocks each). A system prompt is then evicted only
/// if none of the last ~40 requests used it ((3/4)^40 ≈ 1e-5), so the
/// prefix hit rate does not depend on arrival timing.
const RAG_BUDGET_PAGES: usize = 4 * 8 + 8 * 7 + 32 * 6;

/// Every workload the benchmark can run. `BENCHMARK.json` lists
/// `chat_pdac` and `batch_ideal`; `rag_exact` runs by name (see README).
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "chat_pdac",
            backend: Backend::Pdac,
            batch: 8,
            kv: Kv::Paged { budget_bytes: None },
            arrivals: Arrivals::Poisson { per_s: 2.0 },
            prompt: (4, 16),
            output: (16, 48),
            prefix: None,
        },
        Spec {
            name: "rag_exact",
            backend: Backend::Exact,
            batch: 8,
            kv: Kv::Paged {
                budget_bytes: Some(RAG_BUDGET_PAGES * LAYERS * PAGE_BYTES),
            },
            arrivals: Arrivals::Poisson { per_s: 6.0 },
            prompt: (160, 224),
            output: (4, 12),
            prefix: Some(SharedPrefix {
                count: 4,
                tokens: 128,
            }),
        },
        Spec {
            name: "batch_ideal",
            backend: Backend::Ideal,
            batch: 16,
            kv: Kv::Flat,
            arrivals: Arrivals::Offline { per_s: 10.0 },
            prompt: (16, 64),
            output: (16, 64),
            prefix: None,
        },
    ]
}

/// The workload named `name`.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

/// The model every workload serves: hidden 256, 4 layers, 4 heads, ff×4,
/// seed 42.
pub fn model() -> TransformerModel {
    let config = TransformerConfig {
        name: "servebench".into(),
        layers: LAYERS,
        hidden: HIDDEN,
        heads: HEADS,
        ff_mult: 4,
        seq_len: 256,
    };
    TransformerModel::random(config, 4, 42)
}

/// Builds the workload's backend.
pub fn backend(kind: Backend) -> Box<dyn GemmBackend> {
    match kind {
        Backend::Pdac => Box::new(AnalogGemm::new(
            PDac::with_optimal_approx(8).expect("8-bit P-DAC"),
            "pdac-8b",
        )),
        Backend::Exact => Box::new(ExactGemm),
        Backend::Ideal => Box::new(AnalogGemm::new(
            IdealDac::new(8).expect("8-bit ideal DAC"),
            "ideal-8b",
        )),
    }
}

/// A server configured for `spec`.
pub fn server<'m>(spec: &Spec, model: &'m TransformerModel) -> TokenServer<'m> {
    match spec.kv {
        Kv::Flat => TokenServer::new(model, spec.batch),
        Kv::Paged { budget_bytes } => {
            let mut config = PagedConfig::new(BLOCK);
            config.budget_bytes = budget_bytes;
            TokenServer::new_paged(model, spec.batch, config)
        }
    }
}

/// One generated request and when it is due, in seconds from the start
/// of the run.
#[derive(Debug, Clone)]
pub struct Planned {
    pub due_s: f64,
    pub request: Request,
}

/// Salts that give the system prompts and primer tokens streams of their
/// own, independent of the request count.
const SYSTEM_SALT: u64 = 0x5357_5354_454d_0001;
const PRIMER_SALT: u64 = 0x5052_494d_4552_0002;

fn token(rng: &mut SplitMix64) -> Vec<f64> {
    (0..HIDDEN).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
}

/// Stratified draws over `lo..=hi`: one uniform draw in each of `n`
/// equal strata, shuffled. The multiset of lengths stays close to the
/// range's shape for every seed, so run-to-run spread reflects the
/// system rather than how long a seed's requests happened to be.
fn stratified(rng: &mut SplitMix64, n: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
    let span = (hi - lo + 1) as f64;
    let mut v: Vec<usize> = (0..n)
        .map(|i| lo + (((i as f64 + rng.gen_f64()) / n as f64) * span) as usize)
        .map(|x| x.min(hi))
        .collect();
    shuffle(rng, &mut v);
    v
}

/// [`stratified`] over every `block` consecutive requests: each
/// batch-sized stretch of the stream, and so each wave of an offline
/// batch, holds the same spread of lengths whatever the seed.
fn stratified_blocks(
    rng: &mut SplitMix64,
    n: usize,
    block: usize,
    range: (usize, usize),
) -> Vec<usize> {
    (0..n)
        .step_by(block)
        .flat_map(|start| stratified(rng, block.min(n - start), range))
        .collect()
}

fn shuffle<T>(rng: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range_usize(0, i));
    }
}

/// The request count a run of `seconds` sends.
fn request_count(spec: &Spec, seconds: f64) -> usize {
    let per_s = match spec.arrivals {
        Arrivals::Poisson { per_s } | Arrivals::Offline { per_s } => per_s,
    };
    ((per_s * seconds).round() as usize).max(1)
}

/// The seeded request stream of one run, in due order. Open-loop
/// arrivals are Poisson: exponential gaps at the workload's rate. The
/// gaps are stratified like the lengths (one exponential quantile per
/// stratum, shuffled), so every seed sends the same gap distribution in
/// a different order and the run spans close to `seconds`.
pub fn requests(spec: &Spec, seed: u64, seconds: f64) -> Vec<Planned> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let n = request_count(spec, seconds);
    let due: Vec<f64> = match spec.arrivals {
        Arrivals::Poisson { per_s } => {
            let mut gaps: Vec<f64> = (0..n)
                .map(|i| -(1.0 - (i as f64 + rng.gen_f64()) / n as f64).ln() / per_s)
                .collect();
            shuffle(&mut rng, &mut gaps);
            gaps.iter()
                .scan(0.0, |t, g| {
                    *t += g;
                    Some(*t)
                })
                .collect()
        }
        Arrivals::Offline { .. } => vec![0.0; n],
    };
    let prompts = stratified_blocks(&mut rng, n, spec.batch, spec.prompt);
    let outputs = stratified_blocks(&mut rng, n, spec.batch, spec.output);
    let systems = system_prompts(spec, seed);
    (0..n)
        .map(|i| {
            let mut prompt = Vec::with_capacity(prompts[i]);
            if !systems.is_empty() {
                prompt.extend_from_slice(&systems[rng.gen_range_usize(0, systems.len() - 1)]);
            }
            while prompt.len() < prompts[i] {
                prompt.push(token(&mut rng));
            }
            Planned {
                due_s: due[i],
                request: Request {
                    id: i as u64,
                    prompt,
                    max_new_tokens: outputs[i],
                },
            }
        })
        .collect()
}

/// The workload's system prompts, from their own stream of `seed`.
fn system_prompts(spec: &Spec, seed: u64) -> Vec<Vec<Vec<f64>>> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ SYSTEM_SALT);
    spec.prefix.map_or_else(Vec::new, |p| {
        (0..p.count)
            .map(|_| (0..p.tokens).map(|_| token(&mut rng)).collect())
            .collect()
    })
}

/// Requests that bring a fresh server of `spec` to its steady state
/// before timing: one request per system prompt, one token past it, so
/// each system prompt is published to the prefix cache. Empty for
/// workloads without shared prefixes.
pub fn primers(spec: &Spec, seed: u64) -> Vec<Request> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ PRIMER_SALT);
    system_prompts(spec, seed)
        .into_iter()
        .zip(0u64..)
        .map(|(mut prompt, i)| {
            prompt.push(token(&mut rng));
            Request {
                id: u64::MAX - i,
                prompt,
                max_new_tokens: 1,
            }
        })
        .collect()
}

/// A short warm-up stream for a throwaway server: a full batch of 2-token
/// prompts generating 2 tokens each, so every weight GEMM runs at batch
/// size > 1 and lazily built packs and converted weights exist before
/// timing.
pub fn warmup(spec: &Spec) -> Vec<Request> {
    let mut rng = SplitMix64::seed_from_u64(7);
    (0..spec.batch as u64)
        .map(|id| Request {
            id,
            prompt: vec![token(&mut rng), token(&mut rng)],
            max_new_tokens: 2,
        })
        .collect()
}
