//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro fig2|fig3|fig4      temporal diagrams of the three scenarios
//! repro table2|table3|table4|table5
//! repro online-rta          §7 on-line response-time validation
//! repro multi               multi-server tables (PS+SS and DS+SS+PS systems)
//! repro edf                 the EDF column family: FP vs EDF executions of
//!                           identical systems + FP-RTA / EDF-dbf verdicts
//! repro overload            admission/overload sweep: load 0.5x -> 4x across
//!                           AcceptAll / DeadlinePredictive / ValueDensity,
//!                           both engines
//! repro faults              fault-containment sweep: injected cost overruns,
//!                           arrival noise and mid-horizon mode changes over
//!                           byte-identical 2x overload traffic, both engines
//! repro observe             probe-instrumented reproduction: per-set metrics
//!                           summaries (decision/dispatch/admission counters,
//!                           virtual-time response and backlog quantiles) for
//!                           every paper table; bit-identical at any --workers
//! repro all                 everything above but multi/edf/observe (default)
//! repro quick               all tables with 3 systems per set (fast smoke run)
//! ```
//!
//! Tables are reproduced on a worker pool sized to the hardware's available
//! parallelism; pass `--workers N` (e.g. `repro all --workers 1`) to pin the
//! pool size. The printed numbers are bit-identical for any worker count.
//!
//! Scheduling knobs: `--edf` stamps every generated system with
//! `SchedulingPolicy::Edf` (both engines dispatch by absolute deadline) and
//! `--discipline fifo|edd` selects the servers' queue-service discipline
//! (FIFO-with-skip vs deadline-ordered).
//!
//! `observe` extras: `--quick` observes 3 systems per set instead of the
//! paper's 10 (the CI determinism smoke uses it), and `--trace-out <path>`
//! additionally records Figure 4's Scenario Three on the execution engine
//! and writes the schedule as Chrome trace-event JSON — open the file in
//! `chrome://tracing` or Perfetto to see the named task/handler tracks.

use rt_experiments::{
    available_workers, chrome_trace_for_scenario, default_online_rta, observe_table,
    reproduce_edf_table, reproduce_faults_table, reproduce_overload_table,
    reproduce_table_with_workers, run_scenario, side_by_side, PaperTable, Scenario, TableConfig,
};
use rt_model::{QueueDiscipline, SchedulingPolicy};

fn print_scenario(scenario: Scenario) {
    let report = run_scenario(scenario);
    println!(
        "=== Figure {} (scenario {:?}) ===",
        report.scenario.figure(),
        report.scenario
    );
    println!("--- execution (task-server framework) ---");
    println!("{}", report.execution_gantt);
    println!("--- simulation (literature-exact polling server) ---");
    println!("{}", report.simulation_gantt);
    for outcome in &report.execution.outcomes {
        match outcome.response_time() {
            Some(response) => println!(
                "{}: released {} served, response {}",
                outcome.event, outcome.release, response
            ),
            None => println!(
                "{}: released {} {}",
                outcome.event,
                outcome.release,
                if outcome.is_interrupted() {
                    "interrupted"
                } else {
                    "unserved"
                }
            ),
        }
    }
    println!();
}

fn print_table(table: PaperTable, config: &TableConfig, workers: usize) {
    let reproduced = reproduce_table_with_workers(table, config, workers);
    println!("{}", side_by_side(table, &reproduced));
}

fn print_online_rta() {
    let report = default_online_rta();
    println!("=== §7 on-line response-time computation (equation 5) ===");
    println!("{:>10} {:>12} {:>12}", "release", "predicted", "measured");
    for p in &report.predictions {
        println!(
            "{:>10} {:>12} {:>12}",
            p.release.to_string(),
            p.predicted.to_string(),
            p.measured.map_or("unserved".to_string(), |m| m.to_string())
        );
    }
    println!(
        "exact matches: {}/{}",
        report.exact_matches,
        report.predictions.len()
    );
    println!();
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: repro [fig2|fig3|fig4|table2|table3|table4|table5|online-rta|multi|edf|overload|faults|observe|quick|all] \
         [--workers N] [--edf] [--discipline fifo|edd] [--quick] [--trace-out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut command = None;
    let mut workers = available_workers();
    let mut scheduling = SchedulingPolicy::FixedPriority;
    let mut discipline = QueueDiscipline::FifoSkip;
    let mut quick_flag = false;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--workers" {
            workers = args
                .next()
                .and_then(|n| n.parse().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| {
                    eprintln!("--workers needs a positive integer");
                    usage_and_exit()
                });
        } else if arg == "--edf" {
            scheduling = SchedulingPolicy::Edf;
        } else if arg == "--quick" {
            quick_flag = true;
        } else if arg == "--trace-out" {
            trace_out = Some(args.next().unwrap_or_else(|| {
                eprintln!("--trace-out needs a file path");
                usage_and_exit()
            }));
        } else if arg == "--discipline" {
            discipline = match args.next().as_deref() {
                Some("fifo") => QueueDiscipline::FifoSkip,
                Some("edd") | Some("deadline") => QueueDiscipline::DeadlineOrdered,
                other => {
                    eprintln!("--discipline needs `fifo` or `edd`, got {other:?}");
                    usage_and_exit()
                }
            };
        } else if command.is_none() {
            command = Some(arg);
        } else {
            eprintln!("unexpected argument `{arg}`");
            usage_and_exit();
        }
    }
    let command = command.unwrap_or_else(|| "all".to_string());
    let full = TableConfig {
        scheduling,
        discipline,
        ..TableConfig::default()
    };
    let quick = TableConfig {
        systems_per_set: 3,
        seed: 1983,
        scheduling,
        discipline,
    };
    match command.as_str() {
        "fig2" => print_scenario(Scenario::One),
        "fig3" => print_scenario(Scenario::Two),
        "fig4" => print_scenario(Scenario::Three),
        "table2" => print_table(PaperTable::Table2PsSimulation, &full, workers),
        "table3" => print_table(PaperTable::Table3PsExecution, &full, workers),
        "table4" => print_table(PaperTable::Table4DsSimulation, &full, workers),
        "table5" => print_table(PaperTable::Table5DsExecution, &full, workers),
        "online-rta" => print_online_rta(),
        "edf" => {
            let table = reproduce_edf_table(&full, workers);
            println!("{table}");
        }
        "overload" => {
            let table = reproduce_overload_table(&full, workers);
            println!("{table}");
        }
        "faults" => {
            let table = reproduce_faults_table(&full, workers);
            println!("{table}");
        }
        "observe" => {
            let config = if quick_flag { &quick } else { &full };
            for table in PaperTable::all() {
                println!("{}", observe_table(table, config, workers));
            }
            if let Some(path) = &trace_out {
                let json = chrome_trace_for_scenario(Scenario::Three);
                if let Err(error) = std::fs::write(path, &json) {
                    eprintln!("cannot write {path}: {error}");
                    std::process::exit(1);
                }
                // stderr, so stdout stays byte-comparable across --workers
                // runs that export to different paths (the CI smoke diffs it).
                eprintln!("wrote Chrome trace of Scenario Three to {path}");
            }
        }
        "multi" => {
            use rt_experiments::reproduce_multi_server_table;
            use rt_experiments::EvaluationMode;
            use rt_model::ServerPolicyKind::{Deferrable, Polling, Sporadic};
            for policies in [
                &[Polling, Sporadic][..],
                &[Deferrable, Sporadic, Polling][..],
            ] {
                for mode in [EvaluationMode::Simulation, EvaluationMode::Execution] {
                    let table = reproduce_multi_server_table(policies, mode, &full, workers);
                    println!("{table}");
                }
            }
        }
        "quick" => {
            for table in PaperTable::all() {
                print_table(table, &quick, workers);
            }
        }
        "all" => {
            for scenario in [Scenario::One, Scenario::Two, Scenario::Three] {
                print_scenario(scenario);
            }
            for table in PaperTable::all() {
                print_table(table, &full, workers);
            }
            print_online_rta();
        }
        other => {
            eprintln!("unknown command `{other}`");
            usage_and_exit();
        }
    }
}
