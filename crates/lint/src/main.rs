//! rt-lint CLI: `cargo run -p rt-lint -- [--deny-warnings] [--root PATH]
//! [--list-regions] [--quiet]`.
//!
//! Exit-code semantics mirror rustc's `-D warnings`: without
//! `--deny-warnings` every finding is reported and the exit code is 0;
//! with it, any finding makes the process exit 1 — the mode CI runs in.

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: Option<PathBuf>,
    deny: bool,
    list_regions: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        deny: false,
        list_regions: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--deny-warnings" => args.deny = true,
            "--list-regions" => args.list_regions = true,
            "--quiet" => args.quiet = true,
            "--root" => {
                let value = it.next().ok_or("--root needs a path argument")?;
                args.root = Some(PathBuf::from(value));
            }
            "--help" | "-h" => {
                println!(
                    "rt-lint: workspace static-analysis pass\n\n\
                     USAGE: rt-lint [--deny-warnings] [--root PATH] [--list-regions] [--quiet]\n\n\
                     Lints: time-arith, determinism, zero-alloc, panic, unsafe, suppression,\n\
                     unread-pub."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("rt-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.clone().or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| rt_lint::walk::find_workspace_root(&cwd))
    }) {
        Some(root) => root,
        None => {
            eprintln!("rt-lint: no workspace root found (run inside the repo or pass --root)");
            return ExitCode::from(2);
        }
    };

    let started = std::time::Instant::now();
    let report = match rt_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("rt-lint: walking {} failed: {err}", root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();

    if args.list_regions {
        for (path, region) in &report.regions {
            println!(
                "{path}:{}: zero-alloc region `{}` (lines {}..={})",
                region.marker_line, region.fn_name, region.first_line, region.last_line
            );
        }
        return ExitCode::SUCCESS;
    }

    if !args.quiet {
        for finding in &report.findings {
            println!("{}", finding.render());
        }
    }
    let findings = report.findings.len();
    if !args.quiet || findings > 0 {
        println!(
            "rt-lint: {findings} finding(s) across {} files, {} zero-alloc regions, in {:.0?}",
            report.files_scanned,
            report.regions.len(),
            elapsed
        );
    }
    if args.deny && findings > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
