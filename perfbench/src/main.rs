//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its metrics, one per line, then the
//! result object as the last line of standard output. Exits 1 when any
//! op failed its check and 2 on a usage or set-up error.
//!
//! `--workload all` runs every workload in turn, each in its own child
//! process with the same flags, and exits 1 if any of them failed.

use std::process::{exit, Command};

use rh_perfbench::harness::{start_rss_bytes, Args};
use rh_perfbench::{run, WORKLOADS};

fn main() {
    start_rss_bytes();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]"
            );
            exit(2);
        }
    };
    if args.workload == "all" {
        exit(run_all(&argv));
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(&args) {
        Ok(result) => {
            for line in &result.lines {
                println!("{line}");
            }
            println!("{}", result.to_json());
            if !result.correct() {
                exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            exit(2);
        }
    }
}

/// Runs each workload in a child process with the same flags; returns
/// the exit code (0 only if every child succeeded).
fn run_all(argv: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for name in WORKLOADS {
        let mut child_args = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        let status = Command::new(&exe)
            .arg("--workload")
            .arg(name)
            .args(&child_args)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {name} failed ({s})");
                code = 1;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {name}: {e}");
                code = 2;
            }
        }
    }
    code
}
