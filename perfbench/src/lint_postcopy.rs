//! `lint-postcopy`: the default `rh-lint postcopy` proof (2 domains × 3
//! pages, 15,187 states, 94,155 transitions) on one worker. One op is one
//! whole exhaustive exploration. Its traced run, and `host-reboot`'s,
//! also explore the 3-domain proof once (595,052 states, 5,540,914
//! transitions) and take the `lint.*` rows from it.
//!
//! Why: the `rh-lint` state explorer runs in no other workload, and the
//! default post-copy proof is the slowest one `scripts/verify.sh` runs.
//! It is not in `BENCHMARK.json`: on a shared 2-CPU machine its op time
//! moved by 20–27 % between sets of runs of the same code (at either
//! size), more than the largest bound the benchmark may set. The proofs
//! have no random input, so the seed does not change them.

use std::time::Instant;

use rh_lint::explore::Options;
use rh_lint::postcopy::{self, Exploration, PostcopyConfig};

use crate::harness::{ensure, peak_rss_bytes, ratio, start_rss_bytes, Traced, Workload};

/// Streaming domains in the timed proof (the CLI default).
pub const DOMAINS: u32 = 2;

/// The timed proof's exact state and transition counts.
pub const EXPECTED: (u64, u64) = (15_187, 94_155);

/// Streaming domains in the traced run's scale proof.
pub const SCALE_DOMAINS: u32 = 3;

/// The scale proof's exact state and transition counts.
pub const SCALE_EXPECTED: (u64, u64) = (595_052, 5_540_914);

/// One proof: the model's shape and the counts it must give.
#[derive(Debug, Clone)]
pub struct Proof {
    cfg: PostcopyConfig,
    expected: Option<(u64, u64)>,
}

impl Proof {
    /// The default post-copy proof widened to `domains` domains; when
    /// given, `expected` pins its (states, transitions).
    pub fn new(domains: u32, expected: Option<(u64, u64)>) -> Proof {
        Proof {
            cfg: PostcopyConfig {
                domains,
                ..PostcopyConfig::default()
            },
            expected,
        }
    }

    /// Explores every interleaving on one worker and checks the result.
    ///
    /// # Errors
    ///
    /// An invalid config, a violation, or counts other than expected.
    pub fn explore(&self) -> Result<Exploration, String> {
        let run = postcopy::explore(&self.cfg, &Options::default())?;
        check_proof(&run, self.expected)?;
        Ok(run)
    }
}

/// The workload state: the timed proof and the traced run's scale proof.
#[derive(Debug)]
pub struct LintPostcopy {
    proof: Proof,
    scale: Proof,
}

impl LintPostcopy {
    /// Times `proof`; the traced run also explores `scale` once.
    pub fn new(proof: Proof, scale: Proof) -> LintPostcopy {
        LintPostcopy { proof, scale }
    }
}

/// The proof must pass and, when `expected` is given, visit exactly
/// that many (states, transitions).
///
/// # Errors
///
/// A message naming the violation or the differing counts.
pub fn check_proof(run: &Exploration, expected: Option<(u64, u64)>) -> Result<(), String> {
    if let Some(v) = &run.violation {
        return Err(format!("proof failed: {} {}", v.invariant, v.detail));
    }
    if let Some((states, transitions)) = expected {
        ensure(
            run.states == states && run.transitions == transitions,
            || {
                format!(
                    "explored {} states / {} transitions, expected {states} / {transitions}",
                    run.states, run.transitions
                )
            },
        )?;
    }
    Ok(())
}

impl Workload for LintPostcopy {
    fn op(&mut self, _index: u64) -> Result<u64, String> {
        Ok(self.proof.explore()?.transitions)
    }

    fn traced(&mut self, _first: u64, count: u64) -> Result<Traced, String> {
        let (mut op_ns, mut explore_ns) = (0.0, 0.0);
        for _ in 0..count {
            let op = Instant::now();
            let run = postcopy::explore(&self.proof.cfg, &Options::default())?;
            explore_ns += op.elapsed().as_secs_f64() * 1e9;
            check_proof(&run, self.proof.expected)?;
            op_ns += op.elapsed().as_secs_f64() * 1e9;
        }
        let n = count as f64;
        let mut t = Traced {
            op_ns,
            ..Traced::default()
        };
        scale_probe(&self.scale, &mut t)?;
        t.share("lint.share", explore_ns / n, op_ns / n);
        Ok(t)
    }
}

/// Explores `scale` once, checks it, and records the `lint.*` rows:
/// its exact state and transition counts, states per host-second, and
/// this process's peak memory growth per state.
///
/// # Errors
///
/// A failed or miscounted proof.
pub fn scale_probe(scale: &Proof, t: &mut Traced) -> Result<(), String> {
    let start = Instant::now();
    let run = scale.explore()?;
    let seconds = start.elapsed().as_secs_f64();
    let grown = peak_rss_bytes().saturating_sub(start_rss_bytes());
    t.set("lint.states", run.states as f64);
    t.set("lint.transitions", run.transitions as f64);
    t.set("lint.states_per_s", ratio(run.states as f64, seconds));
    t.set(
        "lint.bytes_per_state",
        ratio(grown as f64, run.states as f64),
    );
    Ok(())
}
