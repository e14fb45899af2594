//! `repro` — regenerate the paper's tables and figures, and time the
//! kernels and the service paths. `repro --help` lists the experiments;
//! the list, the dispatch and `all` all come from
//! `hmh_bench::experiments::EXPERIMENTS`.

use std::collections::HashSet;
use std::fmt::Write as _;

use hmh_bench::experiments::{Config, Experiment, Run, EXPERIMENTS};
use hmh_bench::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment: Option<String> = None;
    let mut cfg = Config::default();
    let mut csv_dir: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trials" => {
                i += 1;
                cfg.trials = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--trials needs a positive integer"));
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--quick" => cfg.quick = true,
            "--csv" => {
                i += 1;
                csv_dir =
                    Some(args.get(i).cloned().unwrap_or_else(|| die("--csv needs a directory")));
            }
            "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_string());
            }
            other => die(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    let Some(experiment) = experiment else {
        eprint!("{}", usage());
        std::process::exit(2);
    };
    let selected: Vec<&Experiment> = if experiment == "all" {
        EXPERIMENTS.iter().filter(|e| matches!(e.run, Run::Paper(_))).collect()
    } else {
        match EXPERIMENTS.iter().find(|e| e.name == experiment) {
            Some(e) => vec![e],
            None => die(&format!("unknown experiment {experiment:?}\n{}", usage())),
        }
    };

    let mut used_slugs = HashSet::new();
    let mut emit = |table: &Table| {
        println!("{}", table.render());
        if let Some(dir) = &csv_dir {
            write_csv(dir, table, &mut used_slugs);
        }
    };
    for e in selected {
        match e.run {
            Run::Paper(run) => run(&cfg).iter().for_each(&mut emit),
            Run::Timer(bench, run) => {
                let table = run(&cfg);
                emit(&table);
                let path = match &csv_dir {
                    Some(dir) => format!("{dir}/BENCH_{bench}.json"),
                    None => format!("BENCH_{bench}.json"),
                };
                let command =
                    format!("cargo run --release -p hmh-bench --bin repro -- {}", args.join(" "));
                std::fs::write(&path, table.to_json(e.name, &command))
                    .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                eprintln!("wrote {path}");
            }
        }
    }
}

fn write_csv(dir: &str, table: &Table, used_slugs: &mut HashSet<String>) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("cannot create {dir}: {e}")));
    // Slug from the title's leading word(s); disambiguate repeats (e.g. the
    // two headline tables) with a numeric suffix.
    let base: String = table
        .title()
        .chars()
        .take_while(|c| *c != ':')
        .map(|c| if c.is_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    let mut slug = base.clone();
    let mut n = 2;
    while !used_slugs.insert(slug.clone()) {
        slug = format!("{base}_{n}");
        n += 1;
    }
    let path = format!("{dir}/{slug}.csv");
    std::fs::write(&path, table.to_csv())
        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    eprintln!("wrote {path}");
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}

fn usage() -> String {
    let mut out =
        String::from("usage: repro <experiment> [--trials N] [--seed S] [--quick] [--csv DIR]\n");
    let section = |out: &mut String, heading: &str, timers: bool| {
        let _ = writeln!(out, "\n{heading}");
        for e in EXPERIMENTS.iter().filter(|e| matches!(e.run, Run::Timer(..)) == timers) {
            let _ = writeln!(out, "  {:<12} {}", e.name, e.about);
        }
    };
    section(&mut out, "paper experiments (deterministic; `all` runs every one):", false);
    out.push_str("  all          every paper experiment above\n");
    section(&mut out, "timers (each also writes BENCH_<name>.json; run by name only):", true);
    out
}
