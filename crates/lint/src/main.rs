//! The `rh-lint` command-line entry point.
//!
//! ```text
//! rh-lint [--check] [--json]      lint the workspace against the baseline
//! rh-lint --update-baseline       ratchet the baseline to current counts
//! rh-lint protocol [--domains N] [--exec-bytes N] [--buggy] [--json]
//!                  [--faults [--unsafe-recovery]]
//!                  [--jobs N] [--max-states N] [--no-reduce]
//! rh-lint fleet    [--hosts N] [--max-down N] [--crashes N]
//!                  [--driver serial|wave|buggy-overlap]
//!                  [--jobs N] [--max-states N] [--json]
//! rh-lint postcopy [--domains N] [--pages N] [--working-set N] [--buggy]
//!                  [--no-torn] [--jobs N] [--max-states N] [--no-reduce]
//!                  [--json]
//! rh-lint balloon  [--domains N] [--pages N] [--buggy] [--buggy-deflate]
//!                  [--jobs N] [--max-states N] [--no-reduce] [--json]
//! ```
//!
//! `--jobs 0` runs one worker per available CPU, as in every `rh-bench`
//! binary.
//!
//! Exit codes: 0 clean, 1 findings/violations, 2 usage or internal error.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use rh_lint::balloon::{self, BalloonConfig};
use rh_lint::diagnostics::violation_json;
use rh_lint::explore::{Options as ExploreOptions, Run};
use rh_lint::fleet::{self, DriverKind, FleetConfig};
use rh_lint::postcopy::{self, PostcopyConfig};
use rh_lint::protocol::{self, ProtocolConfig};
use rh_lint::walk::find_workspace_root;
use rh_lint::{lint_workspace, update_baseline};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("protocol") => run_protocol(&args[1..]),
        Some("fleet") => run_fleet(&args[1..]),
        Some("postcopy") => run_postcopy(&args[1..]),
        Some("balloon") => run_balloon(&args[1..]),
        _ => run_lint(&args),
    };
    match result {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("rh-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    find_workspace_root(&cwd).ok_or_else(|| {
        "no workspace root (Cargo.toml with [workspace]) above the current directory".to_string()
    })
}

fn run_lint(args: &[String]) -> Result<bool, String> {
    let mut json = false;
    let mut update = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--update-baseline" => update = true,
            "--check" => {}
            other => {
                return Err(format!(
                    "unknown argument `{other}` (see crates/lint/src/main.rs)"
                ))
            }
        }
    }
    let root = workspace_root()?;
    let outcome = if update {
        let o = update_baseline(&root)?;
        eprintln!(
            "baseline updated: {} finding(s) across {} file(s)",
            o.report.diagnostics.len(),
            o.files_scanned
        );
        o
    } else {
        lint_workspace(&root)?
    };
    if json {
        println!("{}", outcome.regressed_diagnostics().to_json());
    } else if outcome.passed() {
        println!(
            "rh-lint: clean — {} file(s), {} baseline-covered finding(s), 0 new",
            outcome.files_scanned,
            outcome.report.diagnostics.len()
        );
        for imp in &outcome.comparison.improvements {
            println!(
                "  ratchet hint: {} in {} is down to {} (baseline {}) — run --update-baseline",
                imp.rule, imp.file, imp.current, imp.baseline
            );
        }
    } else {
        let regressed = outcome.regressed_diagnostics();
        print!("{}", regressed.render_table());
        println!();
        for r in &outcome.comparison.regressions {
            println!(
                "FAIL {} in {}: {} finding(s), baseline {}",
                r.rule, r.file, r.current, r.baseline
            );
        }
        println!(
            "\nfix the new violation(s), add a `// lint:allow(rule): reason`, or — for \
             pre-existing debt only — re-baseline with --update-baseline"
        );
    }
    Ok(outcome.passed())
}

fn run_protocol(args: &[String]) -> Result<bool, String> {
    let mut cfg = ProtocolConfig::default();
    let flags = parse_model_args(args, "protocol", true, |flag, value| {
        match flag {
            "--domains" => cfg.domains = value.u32(flag)?,
            "--exec-bytes" => cfg.exec_bytes = value.num(flag)?,
            "--buggy" => cfg.buggy_reload = true,
            "--faults" => cfg.faults = true,
            "--unsafe-recovery" => cfg.unsafe_recovery = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if cfg.domains == 0 || cfg.domains > 12 {
        return Err(
            "--domains must be in 1..=12 (use --no-reduce only on small configs)".to_string(),
        );
    }
    if cfg.unsafe_recovery && !cfg.faults {
        return Err("--unsafe-recovery only makes sense with --faults".to_string());
    }
    let run = protocol::explore(&cfg, &flags.opts)?;
    let mode = flags.mode();
    let i5 = if cfg.faults {
        ", I5 recovery-validation"
    } else {
        ""
    };
    Ok(flags.report(
        &run,
        &Summary {
            json_config: format!("\"domains\":{},\"reduction\":\"{mode}\"", cfg.domains),
            json_completed: "completed_runs",
            text_config: format!("protocol: {} domain(s)", cfg.domains),
            text_completed: "completed run(s)",
            tag: mode.into(),
            holds: format!(
                "I1 frozen-frames-reserved, I2 digest-preservation, \
                 I3 exec-state-bounded, I4 p2m-survives{i5}"
            ),
        },
    ))
}

fn run_fleet(args: &[String]) -> Result<bool, String> {
    let mut cfg = FleetConfig::default();
    let flags = parse_model_args(args, "fleet", false, |flag, value| {
        match flag {
            "--hosts" => cfg.hosts = value.u32(flag)?,
            "--max-down" => cfg.max_down = value.u32(flag)?,
            "--crashes" => cfg.max_crashes = value.u32(flag)?,
            "--driver" => cfg.driver = DriverKind::parse(value.text(flag)?)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if cfg.hosts == 0 || cfg.hosts > 8 {
        return Err("--hosts must be in 1..=8 (the fleet model is explored raw)".to_string());
    }
    let run = fleet::explore(&cfg, &flags.opts)?;
    let driver = cfg.driver;
    Ok(flags.report(
        &run,
        &Summary {
            json_config: format!(
                "\"hosts\":{},\"max_down\":{},\"crashes\":{},\"driver\":\"{driver}\"",
                cfg.hosts, cfg.max_down, cfg.max_crashes
            ),
            json_completed: "completed_campaigns",
            text_config: format!(
                "fleet: {} host(s), max-down {}, {} crash(es)",
                cfg.hosts, cfg.max_down, cfg.max_crashes
            ),
            text_completed: "completed campaign(s)",
            tag: driver.to_string(),
            holds: format!(
                "I6 capacity-floor (>= {} serving), I7 single-recovery",
                cfg.hosts.saturating_sub(cfg.max_down)
            ),
        },
    ))
}

fn run_postcopy(args: &[String]) -> Result<bool, String> {
    let mut cfg = PostcopyConfig::default();
    let flags = parse_model_args(args, "postcopy", true, |flag, value| {
        match flag {
            "--domains" => cfg.domains = value.u32(flag)?,
            "--pages" => cfg.pages = value.u32(flag)?,
            "--working-set" => cfg.working_set = value.u32(flag)?,
            "--buggy" => cfg.buggy_serve = true,
            "--no-torn" => cfg.torn_reads = false,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let run = postcopy::explore(&cfg, &flags.opts)?;
    let mode = flags.mode();
    Ok(flags.report(
        &run,
        &Summary {
            json_config: format!(
                "\"domains\":{},\"pages\":{},\"working_set\":{},\"reduction\":\"{mode}\"",
                cfg.domains, cfg.pages, cfg.working_set
            ),
            json_completed: "completed_streams",
            text_config: format!(
                "postcopy: {} domain(s), {} page(s) ({} resident at resume)",
                cfg.domains, cfg.pages, cfg.working_set
            ),
            text_completed: "completed stream-in(s)",
            tag: mode.into(),
            holds: "P1 validated-before-serve, P2 validated-content-intact".to_string(),
        },
    ))
}

fn run_balloon(args: &[String]) -> Result<bool, String> {
    let mut cfg = BalloonConfig::default();
    let flags = parse_model_args(args, "balloon", true, |flag, value| {
        match flag {
            "--domains" => cfg.domains = value.u32(flag)?,
            "--pages" => cfg.pages = value.u32(flag)?,
            "--buggy" => cfg.buggy_reclaim = true,
            "--buggy-deflate" => cfg.buggy_deflate = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let run = balloon::explore(&cfg, &flags.opts)?;
    let mode = flags.mode();
    Ok(flags.report(
        &run,
        &Summary {
            json_config: format!(
                "\"domains\":{},\"pages\":{},\"reduction\":\"{mode}\"",
                cfg.domains, cfg.pages
            ),
            json_completed: "completed_rounds",
            text_config: format!(
                "balloon: {} domain(s), {} page(s) each",
                cfg.domains, cfg.pages
            ),
            text_completed: "completed rejuvenation round(s)",
            tag: mode.into(),
            holds: "I8 frozen-frames-fenced, I9 validated-before-map".to_string(),
        },
    ))
}

/// The flags every model subcommand shares: `--jobs`, `--max-states`,
/// `--json`, and `--no-reduce` where the model has a reduction.
struct ModelFlags {
    opts: ExploreOptions,
    json: bool,
}

/// The value after a model-specific flag, taken only when the flag asks.
struct FlagValue<'a> {
    arg: Option<&'a String>,
    taken: bool,
}

impl<'a> FlagValue<'a> {
    fn text(&mut self, flag: &str) -> Result<&'a str, String> {
        self.taken = true;
        self.arg
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    fn num(&mut self, flag: &str) -> Result<u64, String> {
        let arg = self.text(flag)?;
        arg.parse().map_err(|e| format!("{flag} {arg}: {e}"))
    }

    fn u32(&mut self, flag: &str) -> Result<u32, String> {
        let n = self.num(flag)?;
        u32::try_from(n).map_err(|_| format!("{flag} {n}: too large"))
    }
}

/// Parses a model subcommand's arguments in order. Shared flags are
/// handled here; every other flag goes to `own`, which returns
/// `Ok(false)` for a flag it does not know.
fn parse_model_args(
    args: &[String],
    model: &str,
    reducible: bool,
    mut own: impl FnMut(&str, &mut FlagValue<'_>) -> Result<bool, String>,
) -> Result<ModelFlags, String> {
    let mut flags = ModelFlags {
        opts: ExploreOptions::default(),
        json: false,
    };
    let mut i = 0;
    while i < args.len() {
        let mut value = FlagValue {
            arg: args.get(i + 1),
            taken: false,
        };
        match args[i].as_str() {
            "--jobs" => flags.opts.jobs = rh_sim::pool::parse_jobs(value.text("--jobs")?)?,
            "--max-states" => flags.opts.max_states = Some(value.num("--max-states")?),
            "--json" => flags.json = true,
            "--no-reduce" if reducible => flags.opts.reduce = false,
            other => {
                if !own(other, &mut value)? {
                    return Err(format!("unknown {model} argument `{other}`"));
                }
            }
        }
        i += if value.taken { 2 } else { 1 };
    }
    Ok(flags)
}

/// How one model's result reads: its configuration and goal-count names
/// in the JSON object and on the summary line, and what a pass proves.
struct Summary {
    json_config: String,
    json_completed: &'static str,
    text_config: String,
    text_completed: &'static str,
    tag: String,
    holds: String,
}

impl ModelFlags {
    fn mode(&self) -> &'static str {
        if self.opts.reduce {
            "symmetry+por"
        } else {
            "raw"
        }
    }

    /// Prints `run` as one JSON object, or as the summary line followed by
    /// the violation or the invariants that hold. Returns whether it passed.
    fn report<E>(&self, run: &Run<E>, s: &Summary) -> bool {
        if self.json {
            let violation = match &run.violation {
                None => "null".to_string(),
                Some(v) => violation_json(&v.invariant, &v.detail, &v.trace),
            };
            println!(
                "{{{},\"states\":{},\"transitions\":{},\"{}\":{},\"violation\":{violation}}}",
                s.json_config, run.states, run.transitions, s.json_completed, run.completed
            );
        } else {
            println!(
                "{}, {} state(s), {} transition(s), {} {} [{}]",
                s.text_config, run.states, run.transitions, run.completed, s.text_completed, s.tag
            );
            match &run.violation {
                None => println!("all interleavings satisfy {}", s.holds),
                Some(v) => print!("{v}"),
            }
        }
        run.passed()
    }
}
