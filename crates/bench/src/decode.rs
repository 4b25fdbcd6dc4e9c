//! The decode-bench harness shared by `decode_engine`, `kv_paged`,
//! `trace_overhead`, `sentinel_overhead` and `energy_ledger`: strict
//! knobs, the run shape, seeded prompts, the batched feedback-decode
//! loop, interleaved pairing and the one `BENCH_*.json` writer, which
//! stamps [`provenance`] into every document.

use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

use pdac_core::pdac::PDac;
use pdac_math::rng::SplitMix64;
use pdac_math::Mat;
use pdac_nn::TransformerModel;
use pdac_nn::{AnalogGemm, ExactGemm, GemmBackend, PagedConfig, PagedKvCache, TransformerConfig};
use pdac_telemetry::Json;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Strict knobs named `{prefix}_{key}`, read through a lookup (`None` =
/// unset): a set but malformed value is an error naming the variable and
/// the value, never the silent default.
pub struct Knobs(&'static str, Lookup);
type Lookup = Box<dyn Fn(&str) -> Option<String>>;

/// A knob's value type: a non-negative number.
pub trait KnobValue: FromStr + PartialOrd + Default {}
impl<T: FromStr + PartialOrd + Default> KnobValue for T {}

fn non_negative<T: KnobValue>(v: &str) -> Option<T> {
    v.trim().parse().ok().filter(|v| *v >= T::default())
}

impl Knobs {
    /// Knobs under `prefix` read through `lookup`.
    pub fn new(prefix: &'static str, lookup: impl Fn(&str) -> Option<String> + 'static) -> Self {
        Self(prefix, Box::new(lookup))
    }

    /// Knobs under `prefix` read from the process environment.
    pub fn env(prefix: &'static str) -> Self {
        let var = |n: &str| std::env::var_os(n).map(|v| v.to_string_lossy().into());
        Self::new(prefix, var)
    }

    fn raw(&self, key: &str) -> Option<(String, String)> {
        let name = format!("{}_{key}", self.0);
        (self.1)(&name).map(|raw| (name, raw))
    }

    /// One value (`None` when unset).
    pub fn opt<T: KnobValue>(&self, key: &str) -> Result<Option<T>, String> {
        let Some((name, raw)) = self.raw(key) else {
            return Ok(None);
        };
        let kind = std::any::type_name::<T>();
        let err = || format!("{name}={raw:?} is not a non-negative {kind}");
        non_negative(&raw).map(Some).ok_or_else(err)
    }

    /// One value (`default` when unset).
    pub fn get<T: KnobValue>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// Comma-separated values (`default` when unset).
    pub fn list<T: KnobValue>(&self, key: &str, default: Vec<T>) -> Result<Vec<T>, String> {
        let Some((name, raw)) = self.raw(key) else {
            return Ok(default);
        };
        let kind = std::any::type_name::<T>();
        let err = || format!("{name}={raw:?} is not a list of non-negative {kind}");
        let parsed: Option<Vec<T>> = raw.split(',').map(non_negative).collect();
        parsed.ok_or_else(err)
    }

    /// Comma-separated picks from `known` (all of it when unset).
    pub fn pick(&self, key: &str, known: &[&'static str]) -> Result<Vec<&'static str>, String> {
        let Some((name, raw)) = self.raw(key) else {
            return Ok(known.to_vec());
        };
        let picked: Vec<&str> = raw.split(',').map(str::trim).collect();
        let keep = |k: &&str| picked.contains(k);
        match picked.iter().find(|p| !known.contains(p)) {
            Some(bad) => Err(format!("{name}={raw:?} names {bad:?}, not {known:?}")),
            None => Ok(known.iter().copied().filter(keep).collect()),
        }
    }
}

/// Prints a knob error and exits 2.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2)
    })
}

/// Model shape and decode length of one bench run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeShape {
    /// Model width.
    pub hidden: usize,
    /// Transformer layers.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Prompt tokens per sequence.
    pub prompt: usize,
    /// Generated (feedback) tokens per sequence.
    pub gen: usize,
}

impl DecodeShape {
    /// `[hidden, layers, heads, prompt, gen]` as a shape.
    pub const fn of([hidden, layers, heads, prompt, gen]: [usize; 5]) -> Self {
        Self {
            hidden,
            layers,
            heads,
            prompt,
            gen,
        }
    }

    /// This shape overridden by `_HIDDEN`/`_LAYERS`/`_HEADS`/`_PROMPT`/`_TOKENS`.
    pub fn with_knobs(self, k: &Knobs) -> Result<Self, String> {
        let keys = ["HIDDEN", "LAYERS", "HEADS", "PROMPT", "TOKENS"];
        let mut dims = self.dims();
        for (d, key) in dims.iter_mut().zip(keys) {
            *d = k.get(key, *d)?;
        }
        Ok(Self::of(dims))
    }

    fn dims(&self) -> [usize; 5] {
        [self.hidden, self.layers, self.heads, self.prompt, self.gen]
    }

    /// The seed-42 random model of this shape (ff×4).
    pub fn model(&self, name: &str) -> TransformerModel {
        let config = TransformerConfig {
            name: name.to_string(),
            layers: self.layers,
            hidden: self.hidden,
            heads: self.heads,
            ff_mult: 4,
            seq_len: self.prompt + self.gen,
        };
        config.validate().expect("valid bench config");
        TransformerModel::random(config, 4, 42)
    }

    /// A `BENCH_*.json` document: the bench name, this shape and
    /// `results`.
    pub fn doc(&self, bench: &str, results: Vec<Json>) -> Vec<(String, Json)> {
        let keys = ["hidden", "layers", "heads", "prompt", "generated"];
        let dims = keys.iter().zip(self.dims());
        let mut doc = vec![("bench".into(), Json::Str(bench.into()))];
        doc.extend(dims.map(|(k, v)| ((*k).into(), Json::Int(v as u64))));
        doc.push(("results".into(), Json::Arr(results)));
        doc
    }
}

/// The backends the decode sweeps know.
pub const BACKENDS: [&str; 2] = ["exact", "pdac"];

/// The backend labelled `label` (one of [`BACKENDS`]).
pub fn backend(label: &str) -> Box<dyn GemmBackend> {
    let pdac = || PDac::with_optimal_approx(8).expect("8-bit P-DAC");
    match label {
        "exact" => Box::new(ExactGemm),
        _ => Box::new(AnalogGemm::new(pdac(), "pdac-8b")),
    }
}

/// `len` seeded `s × hidden` prompt steps; the first `shared` give every
/// sequence the same row (a shared prompt prefix).
pub fn prompt_tokens(hidden: usize, s: usize, len: usize, shared: usize, seed: u64) -> Vec<Mat> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..len)
        .map(|t| {
            if t < shared {
                let row: Vec<f64> = (0..hidden).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
                Mat::from_fn(s, hidden, |_, c| row[c])
            } else {
                Mat::from_fn(s, hidden, |_, _| rng.gen_range_f64(-1.0, 1.0))
            }
        })
        .collect()
}

/// Decodes `tokens`, then `gen` [`pdac_serve::feedback_embedding`]
/// steps, through every slot of `cache`; returns the last hidden rows.
pub fn feed(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    cache: &mut PagedKvCache,
    tokens: &[Mat],
    gen: usize,
) -> Mat {
    let (s, hidden) = (cache.slots(), model.config().hidden);
    let mut last = Mat::zeros(s, hidden);
    for tok in tokens {
        last = model.decode_batch(tok, cache, backend);
    }
    for _ in 0..gen {
        let next = (0..s).flat_map(|r| pdac_serve::feedback_embedding(last.row_slice(r)));
        let next = Mat::from_rows(s, hidden, next.collect()).expect("feedback batch");
        last = model.decode_batch(&next, cache, backend);
    }
    last
}

/// Times [`feed`] on a fresh `config` cache; returns seconds, the last
/// hidden rows and the cache's backing bytes.
pub fn decode_run(
    model: &TransformerModel,
    backend: &dyn GemmBackend,
    prompt: &[Mat],
    gen: usize,
    config: PagedConfig,
) -> (f64, Mat, usize) {
    let mut cache = PagedKvCache::new(model, prompt[0].rows(), config);
    let (secs, last) = timed(|| feed(model, backend, &mut cache, prompt, gen));
    (secs, last, cache.allocator().backing_bytes())
}

/// Seconds of [`decode_run`] on the default cache config.
pub fn decode_secs(m: &TransformerModel, b: &dyn GemmBackend, prompt: &[Mat], gen: usize) -> f64 {
    decode_run(m, b, prompt, gen, PagedConfig::default()).0
}

/// Runs `f` once; returns its wall seconds and its value.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// `reps` rounds of `run(side)` over `0..sides`; returns each side's
/// times. Odd rounds run in reverse, so a clock ramp inside a round does
/// not bias every round the same way.
pub fn interleave(reps: usize, sides: usize, mut run: impl FnMut(usize) -> f64) -> Vec<Vec<f64>> {
    let mut times = vec![Vec::with_capacity(reps); sides];
    for rep in 0..reps {
        for i in 0..sides {
            let side = if rep % 2 == 0 { i } else { sides - 1 - i };
            times[side].push(run(side));
        }
    }
    times
}

/// The fastest time (best-of-N).
pub fn best(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `count / secs`, guarded against a zero denominator.
pub fn per(count: f64, secs: f64) -> f64 {
    count / secs.max(1e-12)
}

/// Per-trial paired cost `1 − off/on`, unclamped.
pub fn paired_costs(on: &[f64], off: &[f64]) -> Vec<f64> {
    on.iter().zip(off).map(|(&m, &o)| 1.0 - per(o, m)).collect()
}

/// Trace's and sentinel's gated overhead: the smallest paired cost,
/// clamped at 0. A real cost taxes every trial, the quietest included.
pub fn paired_overhead(on: &[f64], off: &[f64]) -> f64 {
    best(&paired_costs(on, off)).max(0.0)
}

/// The energy meter's gated overhead: best off vs best on, clamped at 0.
pub fn best_overhead(on: &[f64], off: &[f64]) -> f64 {
    (1.0 - per(best(off), best(on))).max(0.0)
}

/// `paired_cost_{min,median,max}` of [`paired_costs`], beside a gated
/// overhead; no `bench_gate` pattern matches these names.
pub fn spread_fields(on: &[f64], off: &[f64]) -> Vec<(String, Json)> {
    let mut c = paired_costs(on, off);
    c.sort_by(f64::total_cmp);
    let n = c.len().max(1);
    let at = |i: usize| c.get(i).copied().unwrap_or(f64::NAN);
    let median = (at((n - 1) / 2) + at(n / 2)) / 2.0;
    let spread = [("min", at(0)), ("median", median), ("max", at(n - 1))];
    spread
        .map(|(k, v)| (format!("paired_cost_{k}"), Json::Num(v)))
        .to_vec()
}

/// One printed record per mode of an overhead sweep (`times[0]` = off):
/// best-run tokens/s and, for the first `gated` modes, the paired
/// overhead (keyed `bench`) with its spread.
pub fn overhead_records(
    bench: &str,
    modes: &[&str],
    gated: usize,
    times: &[Vec<f64>],
    tokens: f64,
    batch: usize,
) -> Vec<Json> {
    let records = modes.iter().zip(times).enumerate().map(|(i, (mode, t))| {
        let (tps, overhead) = (per(tokens, best(t)), paired_overhead(t, &times[0]));
        println!(
            "{bench}/{mode}: {tps:>9.1} tok/s (overhead {:.2}% vs off)",
            overhead * 100.0
        );
        let mut fields = vec![
            ("mode".into(), Json::Str((*mode).into())),
            ("batch".into(), Json::Int(batch as u64)),
            ("elapsed_s".into(), Json::Num(best(t))),
            ("tokens_per_s".into(), Json::Num(tps)),
        ];
        if i < gated {
            fields.push((bench.into(), Json::Num(overhead)));
            fields.extend(spread_fields(t, &times[0]));
        }
        Json::Obj(fields)
    });
    records.collect()
}

/// Where the numbers were made, in servebench's field names.
pub fn provenance() -> Json {
    #[cfg(target_arch = "x86_64")]
    let vnni = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni");
    #[cfg(not(target_arch = "x86_64"))]
    let vnni = false;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let threads = pdac_math::gemm::default_threads() as u64;
    let threads_env = std::env::var("PDAC_THREADS").map_or(Json::Null, Json::Str);
    let rev = git_rev(&Path::new(ROOT).join(".git"));
    Json::Obj(vec![
        ("nproc".into(), Json::Int(nproc)),
        ("pdac_threads".into(), Json::Int(threads)),
        ("pdac_threads_env".into(), threads_env),
        ("avx512_vnni".into(), Json::Bool(vnni)),
        // pdac-bench builds every crate with its `telemetry` feature.
        ("telemetry".into(), Json::Bool(true)),
        ("git_rev".into(), Json::Str(rev)),
    ])
}

/// The commit `git_dir`'s HEAD is at, read without running git.
fn git_rev(git_dir: &Path) -> String {
    let read = |p: &str| std::fs::read_to_string(git_dir.join(p)).ok();
    let head = read("HEAD").unwrap_or_else(|| "none".into());
    let Some(r) = head.trim().strip_prefix("ref: ") else {
        return head.trim().into();
    };
    let packed = || {
        read("packed-refs")?
            .lines()
            .find(|l| l.ends_with(r))
            .map(str::to_string)
    };
    let rev = read(r).or_else(packed).unwrap_or_default();
    rev.split_whitespace().next().unwrap_or("none").into()
}

/// Writes `fields` and a top-level `provenance` (outside the gated
/// `results`) to `PDAC_BENCH_OUT`, else to `file` at the repo root.
pub fn write_bench(file: &str, mut fields: Vec<(String, Json)>) {
    fields.push(("provenance".into(), provenance()));
    let out = std::env::var_os("PDAC_BENCH_OUT");
    let path = out.map_or_else(|| Path::new(ROOT).join(file), PathBuf::from);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).expect("create bench output dir");
    }
    std::fs::write(&path, Json::Obj(fields).render() + "\n").expect("write bench json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(set: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'static {
        let set: Vec<(String, String)> = set
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        move |name: &str| set.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    }

    fn knobs(set: &[(&str, &str)]) -> Knobs {
        Knobs::new("PDAC_BENCH_DECODE", lookup(set))
    }

    #[test]
    fn unset_knobs_keep_their_defaults() {
        let k = knobs(&[]);
        let shape = DecodeShape {
            hidden: 256,
            layers: 4,
            heads: 4,
            prompt: 8,
            gen: 24,
        };
        assert_eq!(shape.with_knobs(&k), Ok(shape));
        assert_eq!(
            k.list("BATCHES", vec![1usize, 4, 8, 16]),
            Ok(vec![1, 4, 8, 16])
        );
        assert_eq!(k.opt::<f64>("FLOOR"), Ok(None));
        assert_eq!(k.pick("BACKENDS", &BACKENDS), Ok(BACKENDS.to_vec()));
        let k = knobs(&[
            ("PDAC_BENCH_DECODE_HIDDEN", "64"),
            ("PDAC_BENCH_DECODE_BATCHES", "1, 4"),
            ("PDAC_BENCH_DECODE_FLOOR", "1.0"),
            ("PDAC_BENCH_DECODE_BACKENDS", "pdac"),
        ]);
        assert_eq!(shape.with_knobs(&k).map(|s| s.hidden), Ok(64));
        assert_eq!(k.list("BATCHES", vec![8usize]), Ok(vec![1, 4]));
        assert_eq!(k.opt::<f64>("FLOOR"), Ok(Some(1.0)));
        assert_eq!(k.pick("BACKENDS", &BACKENDS), Ok(vec!["pdac"]));
    }

    #[test]
    fn malformed_knobs_name_variable_and_value() {
        for bad in ["abc", "1,0", "-5"] {
            let set = [
                ("PDAC_BENCH_DECODE_REPS", bad),
                ("PDAC_BENCH_DECODE_FLOOR", bad),
                ("PDAC_BENCH_DECODE_BATCHES", bad),
            ];
            let k = knobs(&set);
            for err in [
                k.get("REPS", 1usize).expect_err(bad),
                k.opt::<f64>("FLOOR").map(|_| ()).expect_err(bad),
            ] {
                assert!(
                    err.contains("PDAC_BENCH_DECODE_") && err.contains(bad),
                    "{err}"
                );
            }
            if bad != "1,0" {
                let err = k.list("BATCHES", vec![1usize]).expect_err(bad);
                assert!(
                    err.contains("PDAC_BENCH_DECODE_BATCHES") && err.contains(bad),
                    "{err}"
                );
            }
        }
        for bad in ["1,x", "1,,4", "4,", ""] {
            let set = [("PDAC_BENCH_DECODE_BATCHES", bad)];
            let err = knobs(&set).list("BATCHES", vec![1usize]).expect_err(bad);
            assert!(err.contains("PDAC_BENCH_DECODE_BATCHES"), "{err}");
        }
        let set = [("PDAC_BENCH_DECODE_BACKENDS", "exact,pdca")];
        let err = knobs(&set).pick("BACKENDS", &BACKENDS).expect_err("typo");
        assert!(
            err.contains("PDAC_BENCH_DECODE_BACKENDS") && err.contains("pdca"),
            "{err}"
        );
        let gate = Knobs::new("PDAC_GATE", lookup(&[("PDAC_GATE_TOL", "0,35")]));
        assert!(gate
            .opt::<f64>("TOL")
            .expect_err("comma")
            .contains("PDAC_GATE_TOL"));
    }

    #[test]
    fn interleave_alternates_order_and_keeps_sides_apart() {
        let mut calls = Vec::new();
        let times = interleave(3, 2, |side| {
            calls.push(side);
            (10 * side + calls.len()) as f64
        });
        assert_eq!(calls, [0, 1, 1, 0, 0, 1]);
        assert_eq!(times, [vec![1.0, 4.0, 5.0], vec![12.0, 13.0, 16.0]]);
        let mut calls = Vec::new();
        interleave(2, 3, |side| {
            calls.push(side);
            1.0
        });
        assert_eq!(calls, [0, 1, 2, 2, 1, 0]);
    }

    /// The harness statistics reproduce the per-bench formulas they
    /// replaced, bit for bit.
    #[test]
    fn pairing_matches_the_old_per_bench_formulas() {
        let off = [0.0200, 0.0190, 0.0210, 0.0195, 0.0230];
        let on = [0.0204, 0.0189, 0.0219, 0.0199, 0.0229];
        // decode_engine / kv_paged: best-of-N each side, tokens/s ratio.
        let tokens = 96.0;
        let (mut b, mut s) = (f64::INFINITY, f64::INFINITY);
        for (&x, &y) in on.iter().zip(&off) {
            b = b.min(x);
            s = s.min(y);
        }
        let old = (tokens / b.max(1e-12)) / (tokens / s.max(1e-12)).max(1e-12);
        let new = per(per(tokens, best(&on)), per(tokens, best(&off)));
        assert_eq!(old.to_bits(), new.to_bits());
        // trace / sentinel: clamped per-trial paired minimum.
        let old = on
            .iter()
            .zip(&off)
            .map(|(&m, &o)| (1.0 - o / m.max(1e-12)).max(0.0))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(old.to_bits(), paired_overhead(&on, &off).to_bits());
        assert_eq!(paired_overhead(&off, &off), 0.0);
        // energy_ledger: best off over best on, clamped.
        let old = (1.0 - s / b.max(1e-12)).max(0.0);
        assert_eq!(old.to_bits(), best_overhead(&on, &off).to_bits());
        // The spread is unclamped: a faster on-trial reads negative.
        let spread = Json::Obj(spread_fields(&on, &off));
        let costs = paired_costs(&on, &off);
        let get = |k: &str| spread.get(k).and_then(Json::as_f64).expect(k);
        assert_eq!(get("paired_cost_min"), costs[1]);
        assert!(get("paired_cost_min") < 0.0);
        assert_eq!(get("paired_cost_median"), costs[0]);
        assert_eq!(get("paired_cost_max"), costs[2]);
    }

    #[test]
    fn shared_rows_and_draw_order() {
        let plain = prompt_tokens(4, 3, 2, 0, 7);
        let shared = prompt_tokens(4, 3, 2, 1, 7);
        assert_eq!(shared[0].row(0), shared[0].row(2));
        assert_ne!(plain[0].row(0), plain[0].row(2));
        // Unshared steps draw s × hidden values each, row-major.
        let mut rng = SplitMix64::seed_from_u64(7);
        let first: Vec<f64> = (0..4).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
        assert_eq!(plain[0].row(0), first);
    }

    #[test]
    fn provenance_fields_and_git_rev() {
        let prov = provenance();
        for key in [
            "nproc",
            "pdac_threads",
            "pdac_threads_env",
            "avx512_vnni",
            "telemetry",
        ] {
            assert!(prov.get(key).is_some(), "{key}");
        }
        let rev = prov.get("git_rev").and_then(Json::as_str).expect("git_rev");
        assert!(rev == "none" || rev.len() >= 7, "{rev}");
        assert_eq!(git_rev(Path::new("/nonexistent/.git")), "none");
    }
}
