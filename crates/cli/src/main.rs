//! `qosr` — plan end-to-end multi-resource reservations from JSON
//! scenario files, replay traces, and run live-telemetry simulations.
//!
//! ```text
//! qosr validate <scenario.json>
//! qosr plan <scenario.json> [--planner basic|tradeoff|random|dag] [--seed N]
//! qosr dot <scenario.json>
//! qosr trace <trace.jsonl>
//! qosr report <trace.jsonl>
//! qosr metrics [--rate R] [--horizon H] [--metrics-addr HOST:PORT]
//! qosr top [--rates A,B,C] [--horizon H] [--metrics-addr HOST:PORT]
//! qosr serve [--addr HOST:PORT] [--world bench|paper]
//! qosr load [--addr HOST:PORT] [--rate R] [--duration S]
//! ```

use qosr_cli::commands::{dot, explain, parse_planner, plan, validate};
use qosr_cli::live::{self, LiveOptions};
use qosr_cli::load::{self, LoadOptions};
use qosr_cli::report::{report, trace};
use qosr_cli::run::{self, RunOptions};
use qosr_cli::serve::{self, ServeOptions, WorldKind};
use qosr_core::Planner;
use qosr_sim::PlannerKind;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  qosr validate <scenario.json>
  qosr plan <scenario.json> [--planner basic|tradeoff|random|dag] [--seed N] [--avail name=value]...
  qosr explain <scenario.json> [--avail name=value]...
  qosr dot <scenario.json>
  qosr trace <trace.jsonl>
  qosr report <trace.jsonl>
  qosr metrics [--planner basic|tradeoff|random] [--seed N] [--rate R] [--horizon H]
               [--batch N] [--sample P] [--metrics-addr HOST:PORT]
  qosr top     [--planner basic|tradeoff|random] [--seed N] [--rates A,B,C] [--horizon H]
               [--batch N] [--sample P] [--metrics-addr HOST:PORT]
  qosr run <file.scenario.json> [--trace out.jsonl] [--trace-requests] [--json]
  qosr run --validate <file.scenario.json>
  qosr run --list [dir]
  qosr serve [--addr HOST:PORT] [--world bench|paper] [--world-seed N] [--capacity LO,HI]
             [--max-batch N] [--max-replans N] [--seed N]
             [--addr-file FILE] [--metrics-addr HOST:PORT]
             [--slo-p99-ms MS] [--slo-max-rejection R] [--slo-max-degraded R]
             [--flight-capacity N] [--flight-dump FILE]
  qosr load  [--addr HOST:PORT] [--rate R] [--duration S] [--connections N] [--seed N]
             [--service I] [--domain I] [--scale X] [--out FILE] [--json] [--shutdown]
             [--attrib]
  qosr flight [--addr HOST:PORT] [--out FILE]
  qosr slo    [--addr HOST:PORT]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command: Option<String> = None;
    let mut file: Option<PathBuf> = None;
    let mut planner: Option<Planner> = None;
    let mut seed = 0u64;
    let mut overrides: Vec<(String, f64)> = Vec::new();
    let mut live = LiveOptions::default();
    let mut run_opts = RunOptions::default();
    let mut run_validate = false;
    let mut run_list = false;
    let mut serve_opts = ServeOptions::default();
    let mut load_opts = LoadOptions::default();

    macro_rules! flag_value {
        ($args:expr, $i:expr, $parse:expr, $what:expr) => {{
            $i += 1;
            match $args.get($i).and_then($parse) {
                Some(v) => v,
                None => {
                    eprintln!("invalid {} value\n{USAGE}", $what);
                    return ExitCode::FAILURE;
                }
            }
        }};
    }

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--planner" => {
                planner = Some(flag_value!(args, i, |s| parse_planner(s), "--planner"));
            }
            "--avail" => {
                let kv = flag_value!(
                    args,
                    i,
                    |s: &String| {
                        let (name, value) = s.split_once('=')?;
                        Some((name.to_owned(), value.parse().ok()?))
                    },
                    "--avail (expected name=value)"
                );
                overrides.push(kv);
            }
            "--seed" => {
                seed = flag_value!(args, i, |s: &String| s.parse().ok(), "--seed");
                live.seed = seed;
                serve_opts.seed = seed;
                load_opts.seed = seed;
            }
            "--rate" => {
                live.rate = flag_value!(args, i, |s: &String| s.parse().ok(), "--rate");
                load_opts.rate = live.rate;
            }
            "--rates" => {
                live.rates = flag_value!(
                    args,
                    i,
                    |s: &String| s
                        .split(',')
                        .map(|r| r.trim().parse().ok())
                        .collect::<Option<Vec<f64>>>()
                        .filter(|v| !v.is_empty()),
                    "--rates (expected A,B,C)"
                );
            }
            "--horizon" => {
                live.horizon = flag_value!(args, i, |s: &String| s.parse().ok(), "--horizon");
            }
            "--batch" => {
                live.batch = Some(flag_value!(args, i, |s: &String| s.parse().ok(), "--batch"));
            }
            "--sample" => {
                live.sample = flag_value!(args, i, |s: &String| s.parse().ok(), "--sample");
            }
            "--validate" => run_validate = true,
            "--list" => run_list = true,
            "--json" => {
                run_opts.json = true;
                load_opts.json = true;
            }
            "--addr" => {
                let addr: String = flag_value!(args, i, |s: &String| Some(s.clone()), "--addr");
                serve_opts.addr = addr.clone();
                load_opts.addr = addr;
            }
            "--world" => {
                serve_opts.world =
                    flag_value!(args, i, |s: &String| WorldKind::parse(s), "--world");
            }
            "--world-seed" => {
                serve_opts.world_seed =
                    flag_value!(args, i, |s: &String| s.parse().ok(), "--world-seed");
            }
            "--capacity" => {
                serve_opts.capacity = flag_value!(
                    args,
                    i,
                    |s: &String| {
                        let (lo, hi) = s.split_once(',')?;
                        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
                    },
                    "--capacity (expected LO,HI)"
                );
            }
            "--max-batch" => {
                serve_opts.max_batch =
                    flag_value!(args, i, |s: &String| s.parse().ok(), "--max-batch");
            }
            "--max-replans" => {
                serve_opts.max_replans =
                    flag_value!(args, i, |s: &String| s.parse().ok(), "--max-replans");
            }
            "--addr-file" => {
                serve_opts.addr_file = Some(PathBuf::from(flag_value!(
                    args,
                    i,
                    |s: &String| Some(s.clone()),
                    "--addr-file"
                )));
            }
            "--duration" => {
                load_opts.duration =
                    flag_value!(args, i, |s: &String| s.parse().ok(), "--duration");
            }
            "--connections" => {
                load_opts.connections =
                    flag_value!(args, i, |s: &String| s.parse().ok(), "--connections");
            }
            "--service" => {
                load_opts.service = flag_value!(args, i, |s: &String| s.parse().ok(), "--service");
            }
            "--domain" => {
                load_opts.domain = flag_value!(args, i, |s: &String| s.parse().ok(), "--domain");
            }
            "--scale" => {
                load_opts.scale = flag_value!(args, i, |s: &String| s.parse().ok(), "--scale");
            }
            "--out" => {
                load_opts.out = Some(PathBuf::from(flag_value!(
                    args,
                    i,
                    |s: &String| Some(s.clone()),
                    "--out"
                )));
            }
            "--shutdown" => load_opts.shutdown = true,
            "--attrib" => load_opts.attrib = true,
            "--trace-requests" => run_opts.trace_requests = true,
            "--slo-p99-ms" => {
                let ms: f64 = flag_value!(
                    args,
                    i,
                    |s: &String| s.parse::<f64>().ok().filter(|v| *v > 0.0),
                    "--slo-p99-ms"
                );
                serve_opts.slo.p99_establish_ns = (ms * 1.0e6) as u64;
            }
            "--slo-max-rejection" => {
                serve_opts.slo.max_rejection_rate =
                    flag_value!(args, i, |s: &String| s.parse().ok(), "--slo-max-rejection");
            }
            "--slo-max-degraded" => {
                serve_opts.slo.max_degraded_rate =
                    flag_value!(args, i, |s: &String| s.parse().ok(), "--slo-max-degraded");
            }
            "--flight-capacity" => {
                serve_opts.flight_capacity =
                    flag_value!(args, i, |s: &String| s.parse().ok(), "--flight-capacity");
            }
            "--flight-dump" => {
                serve_opts.flight_dump = Some(PathBuf::from(flag_value!(
                    args,
                    i,
                    |s: &String| Some(s.clone()),
                    "--flight-dump"
                )));
            }
            "--trace" => {
                run_opts.trace = Some(PathBuf::from(flag_value!(
                    args,
                    i,
                    |s: &String| Some(s.clone()),
                    "--trace"
                )));
            }
            "--metrics-addr" => {
                let addr: String =
                    flag_value!(args, i, |s: &String| Some(s.clone()), "--metrics-addr");
                live.metrics_addr = Some(addr.clone());
                serve_opts.metrics_addr = Some(addr);
            }
            word if !word.starts_with('-') => {
                if command.is_none() {
                    command = Some(word.to_owned());
                } else if file.is_none() {
                    file = Some(word.into());
                } else {
                    eprintln!("unexpected argument {word:?}\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
            other => {
                eprintln!("unknown flag {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let Some(command) = command else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };

    // The live-telemetry subcommands simulate the paper's chain services,
    // where the DAG heuristic has nothing to do: refuse it rather than
    // run something else.
    if let ("metrics" | "top", Some(p)) = (command.as_str(), planner) {
        live.planner = match p {
            Planner::Basic => PlannerKind::Basic,
            Planner::Tradeoff => PlannerKind::Tradeoff,
            Planner::Random => PlannerKind::Random,
            Planner::Dag => {
                eprintln!("error: {command} --planner accepts basic, tradeoff or random\n{USAGE}");
                return ExitCode::FAILURE;
            }
        };
    }

    // The live-telemetry subcommands run the built-in paper environment
    // and take no scenario file.
    let result = match (command.as_str(), &file) {
        // `run` handles its own file-vs-no-file cases: `--list` defaults
        // to the shipped `scenarios/` directory.
        ("run", maybe_file) => {
            if run_list {
                let dir = maybe_file.clone().unwrap_or_else(|| "scenarios".into());
                run::list(&dir)
            } else if let Some(file) = maybe_file {
                if run_validate {
                    run::validate_only(file)
                } else {
                    run::run(file, &run_opts)
                }
            } else {
                eprintln!("run needs a scenario file\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        ("metrics", None) => live::metrics(&live),
        ("top", None) => live::top(&live, |line| println!("{line}")),
        ("serve", None) => serve::serve(&serve_opts),
        ("load", None) => load::run_load(&load_opts).and_then(|report| {
            if let Some(path) = &load_opts.out {
                let file = std::fs::File::create(path)?;
                serde_json::to_writer_pretty(std::io::BufWriter::new(file), &report)?;
            }
            if load_opts.json {
                Ok(serde_json::to_string_pretty(&report)? + "\n")
            } else {
                Ok(load::render_report(&report))
            }
        }),
        ("flight", None) => qosr_cli::client::flight(&load_opts.addr, load_opts.out.as_ref()),
        ("slo", None) => qosr_cli::client::slo(&load_opts.addr),
        ("metrics" | "top" | "serve" | "load" | "flight" | "slo", Some(_)) => {
            eprintln!("{command} takes no file argument\n{USAGE}");
            return ExitCode::FAILURE;
        }
        (_, None) => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
        (cmd, Some(file)) => match cmd {
            "validate" => validate(file),
            "plan" => plan(file, planner.unwrap_or_default(), seed, &overrides),
            "explain" => explain(file, &overrides),
            "dot" => dot(file),
            "trace" => trace(file),
            "report" => report(file),
            other => {
                eprintln!("unknown command {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        },
    };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
