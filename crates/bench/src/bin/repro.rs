//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--trials N] [--seed S] [--quick] [--csv DIR]
//!
//! experiments:
//!   fig6         Figure 6 (256-byte sketches, J = 1/3 error vs cardinality)
//!   headline     Abstract/§5 claim (64 KiB, J = 0.01 at n = 10^19)
//!   collisions   Lemma 4 / Algorithm 5 / Theorem 1 collision accounting
//!   variance     Theorem 2 collision variance
//!   approx       Algorithm 6 vs Algorithm 5 accuracy
//!   ie-vs-hmh    §1.3 HLL inclusion-exclusion / joint-MLE vs HyperMinHash
//!   cnf-ie       CNF strategies: k-way registers vs inclusion-exclusion
//!   bbit         §1.3-1.4 b-bit MinHash accuracy and non-composability
//!   space-sweep  byte budget × r trade-off surface
//!   cardinality  Algorithm 3 decade sweep with estimator ablations
//!   all          everything above
//! ```

use hmh_bench::experiments::{
    approx, bbit, cardinality, cnf_ie, collisions, fig6, headline, ie_vs_hmh, ingest, route,
    space_sweep, variance, Config,
};
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
                print!("{}", USAGE);
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
        eprint!("{}", USAGE);
        std::process::exit(2);
    };

    let tables = run_experiment(&experiment, &cfg);
    let mut used_slugs = std::collections::HashSet::new();
    for table in &tables {
        println!("{}", table.render());
        if let Some(dir) = &csv_dir {
            write_csv(dir, table, &mut used_slugs);
        }
    }
    // The ingest sweep also publishes its machine-readable artifact.
    if let Some(table) = tables.iter().find(|t| t.title().starts_with("Parallel ingest throughput"))
    {
        let path = match &csv_dir {
            Some(dir) => format!("{dir}/BENCH_ingest.json"),
            None => "BENCH_ingest.json".to_string(),
        };
        std::fs::write(&path, ingest::to_json(table))
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    // ... and the routing-tier overhead sweep publishes its own.
    if let Some(table) = tables.iter().find(|t| t.title().starts_with("Routed vs direct")) {
        let path = match &csv_dir {
            Some(dir) => format!("{dir}/BENCH_route.json"),
            None => "BENCH_route.json".to_string(),
        };
        std::fs::write(&path, route::to_json(table))
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

fn run_experiment(name: &str, cfg: &Config) -> Vec<Table> {
    match name {
        "fig6" => vec![fig6::run(cfg)],
        "headline" => headline::run(cfg),
        "collisions" => vec![collisions::run(cfg)],
        "variance" => vec![variance::run(cfg)],
        "approx" => vec![approx::run(cfg)],
        "ie-vs-hmh" => vec![ie_vs_hmh::run(cfg)],
        "cnf-ie" => vec![cnf_ie::run(cfg)],
        "bbit" => bbit::run(cfg),
        "space-sweep" => vec![space_sweep::run(cfg)],
        "cardinality" => vec![cardinality::run(cfg)],
        "ingest" => vec![ingest::run(cfg)],
        "route" => vec![route::run(cfg)],
        "all" => {
            let mut out = vec![fig6::run(cfg)];
            out.extend(headline::run(cfg));
            out.push(collisions::run(cfg));
            out.push(variance::run(cfg));
            out.push(approx::run(cfg));
            out.push(ie_vs_hmh::run(cfg));
            out.push(cnf_ie::run(cfg));
            out.extend(bbit::run(cfg));
            out.push(space_sweep::run(cfg));
            out.push(cardinality::run(cfg));
            out.push(ingest::run(cfg));
            out.push(route::run(cfg));
            out
        }
        other => die(&format!("unknown experiment {other:?}\n{USAGE}")),
    }
}

fn write_csv(dir: &str, table: &Table, used_slugs: &mut std::collections::HashSet<String>) {
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

const USAGE: &str = "\
usage: repro <experiment> [--trials N] [--seed S] [--quick] [--csv DIR]

experiments:
  fig6         Figure 6 (256-byte sketches, J = 1/3 error vs cardinality)
  headline     Abstract/S5 claim (64 KiB, J = 0.01 at n = 10^19)
  collisions   Lemma 4 / Algorithm 5 / Theorem 1 collision accounting
  variance     Theorem 2 collision variance
  approx       Algorithm 6 vs Algorithm 5 accuracy
  ie-vs-hmh    S1.3 HLL inclusion-exclusion / joint-MLE vs HyperMinHash
  cnf-ie       CNF strategies: k-way registers vs inclusion-exclusion
  bbit         S1.3-1.4 b-bit MinHash accuracy and non-composability
  space-sweep  byte budget x r trade-off surface
  cardinality  Algorithm 3 decade sweep with estimator ablations
  ingest       parallel sharded ingest throughput vs. a sequential build
               (also writes BENCH_ingest.json)
  route        routed vs direct PUT/CARD overhead over a live 2-group
               cluster (also writes BENCH_route.json)
  all          everything above
";
