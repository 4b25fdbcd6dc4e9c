//! The single-threaded load generator: sends each request when it is
//! due, steps the server whenever it has work, and stamps the end of
//! every step. Token times are reconstructed from those stamps and the
//! completions, without spans in the program.

use std::time::{Duration, Instant};

use pdac_nn::{GemmBackend, KvStats};
use pdac_serve::{Completion, TokenServer};

use crate::workload::Planned;

/// Per-step samples taken only by the traced run.
#[derive(Debug, Default)]
pub struct Samples {
    /// `pending()` after each step.
    pub pending: Vec<usize>,
    /// `kv_stats()` after each step (paged servers).
    pub kv: Vec<Option<KvStats>>,
    /// Requests sent before each step began.
    pub sent_before: Vec<usize>,
    /// Wall time spent inside `admit`.
    pub admit: Duration,
}

/// What one run of the load generator observed.
#[derive(Debug)]
pub struct Run {
    /// Completions in retirement order.
    pub completions: Vec<Completion>,
    /// `steps()` when the run began; step `step0 + i` ended at `ends[i]`.
    pub step0: u64,
    /// End of each step, seconds from the start of the run.
    pub ends: Vec<f64>,
    /// Duration of each step, seconds.
    pub step_s: Vec<f64>,
    /// When each request was sent, seconds from the start (NaN if never).
    pub sent_at: Vec<f64>,
    /// Seconds spent sleeping for the next arrival.
    pub idle_s: f64,
    /// Seconds from the start to the end of the last step.
    pub wall_s: f64,
    pub samples: Option<Samples>,
}

/// Sends `plan` to `server` on schedule and steps it through `backend`
/// until every request has retired or `deadline` passes. Each request is
/// sent at its due time or, when a step is running then, right after it.
pub fn drive(
    server: &mut TokenServer<'_>,
    backend: &dyn GemmBackend,
    plan: Vec<Planned>,
    deadline: Duration,
    sample: bool,
) -> Run {
    let n = plan.len();
    let due: Vec<f64> = plan.iter().map(|p| p.due_s).collect();
    let mut to_send = plan.into_iter().map(|p| p.request);
    let mut run = Run {
        completions: Vec::with_capacity(n),
        step0: server.steps(),
        ends: Vec::new(),
        step_s: Vec::new(),
        sent_at: vec![f64::NAN; n],
        idle_s: 0.0,
        wall_s: 0.0,
        samples: sample.then(Samples::default),
    };
    let mut sent = 0;
    let t0 = Instant::now();
    loop {
        let now = t0.elapsed();
        if now > deadline {
            break;
        }
        while sent < n && due[sent] <= now.as_secs_f64() {
            let request = to_send.next().expect("one request per due time");
            let a0 = Instant::now();
            server.admit(request);
            if let Some(s) = &mut run.samples {
                s.admit += a0.elapsed();
            }
            run.sent_at[sent] = t0.elapsed().as_secs_f64();
            sent += 1;
        }
        if server.is_idle() {
            if sent == n {
                break;
            }
            let wait = due[sent] - t0.elapsed().as_secs_f64();
            if wait > 0.0 {
                let z = Instant::now();
                std::thread::sleep(Duration::from_secs_f64(wait));
                run.idle_s += z.elapsed().as_secs_f64();
            }
            continue;
        }
        let before = server.steps();
        let s0 = t0.elapsed().as_secs_f64();
        server.step(backend);
        let end = t0.elapsed().as_secs_f64();
        if server.steps() > before {
            run.ends.push(end);
            run.step_s.push(end - s0);
            if let Some(s) = &mut run.samples {
                s.pending.push(server.pending());
                s.kv.push(server.kv_stats());
                s.sent_before.push(sent);
            }
        }
        run.completions.extend(server.take_completions());
    }
    run.wall_s = run.ends.last().copied().unwrap_or(0.0);
    run
}

/// The step (counted from `step0`) on which each of a completion's
/// `max_new_tokens` tokens was produced. Every active sequence advances
/// exactly one token per step, so the tokens occupy the `max_new_tokens`
/// steps ending at `finished_step`. `None` if the completion holds fewer
/// tokens or retired before `step0`.
pub fn token_steps(
    c: &Completion,
    max_new_tokens: usize,
    step0: u64,
) -> Option<std::ops::Range<usize>> {
    if c.hidden.len() != max_new_tokens || max_new_tokens == 0 {
        return None;
    }
    let first = (c.finished_step + 1).checked_sub(max_new_tokens as u64)?;
    let first = usize::try_from(first.checked_sub(step0)?).ok()?;
    Some(first..first + max_new_tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_math::SplitMix64;
    use pdac_nn::{ExactGemm, TransformerConfig, TransformerModel};
    use pdac_serve::Request;

    /// Oracle: step the server one step at a time, recording how many
    /// tokens each step produced (`generated_tokens()` deltas). The
    /// reconstruction must place exactly that many tokens on each step.
    #[test]
    fn token_steps_match_a_step_by_step_oracle() {
        let model = TransformerModel::random(TransformerConfig::tiny(), 4, 42);
        let hidden = model.config().hidden;
        for (case, batch) in [1usize, 2, 3, 5].into_iter().enumerate() {
            let mut rng = SplitMix64::seed_from_u64(case as u64);
            let mut server = TokenServer::new(&model, batch);
            // A few steps before the window, so step0 > 0.
            server.admit(Request {
                id: 999,
                prompt: vec![vec![0.1; hidden]],
                max_new_tokens: 2,
            });
            server.run(&ExactGemm);
            server.take_completions();
            let step0 = server.steps();
            let mut budgets = std::collections::HashMap::new();
            let mut per_step = Vec::new();
            let mut done = Vec::new();
            let mut next_id = 0u64;
            for round in 0..40 {
                // Admit between steps at irregular times.
                if round % 3 != 2 && next_id < 12 {
                    let p = rng.gen_range_usize(0, 4);
                    let m = rng.gen_range_usize(1, 6);
                    budgets.insert(next_id, m);
                    server.admit(Request {
                        id: next_id,
                        prompt: (0..p)
                            .map(|_| (0..hidden).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect())
                            .collect(),
                        max_new_tokens: m,
                    });
                    next_id += 1;
                }
                let before_steps = server.steps();
                let before_tokens = server.generated_tokens();
                server.step(&ExactGemm);
                if server.steps() > before_steps {
                    per_step.push(server.generated_tokens() - before_tokens);
                }
                done.extend(server.take_completions());
            }
            while !server.is_idle() {
                let before_tokens = server.generated_tokens();
                server.step(&ExactGemm);
                per_step.push(server.generated_tokens() - before_tokens);
                done.extend(server.take_completions());
            }
            assert_eq!(done.len(), next_id as usize, "case {case}");
            let mut rebuilt = vec![0u64; per_step.len()];
            for c in &done {
                let steps = token_steps(c, budgets[&c.id], step0).expect("reconstructable");
                for s in steps {
                    rebuilt[s] += 1;
                }
            }
            assert_eq!(rebuilt, per_step, "case {case} (batch {batch})");
        }
    }

    #[test]
    fn token_steps_rejects_short_or_early_completions() {
        let c = Completion {
            id: 0,
            prompt_tokens: 1,
            hidden: vec![vec![0.0]; 3],
            finished_step: 5,
            energy_j: 0.0,
            kv_pages: 0,
        };
        assert_eq!(token_steps(&c, 3, 0), Some(3..6));
        assert_eq!(token_steps(&c, 3, 3), Some(0..3));
        assert_eq!(token_steps(&c, 4, 0), None);
        assert_eq!(token_steps(&c, 3, 4), None);
    }
}
