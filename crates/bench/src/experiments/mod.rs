//! One module per experiment; each exposes `run(&Config) -> Table` (or a
//! small set of tables), and [`EXPERIMENTS`] lists them all under their
//! `repro` names. EXPERIMENTS.md at the workspace root records the
//! paper's claims next to measured outputs of the paper experiments.

pub mod approx;
pub mod bbit;
pub mod cardinality;
pub mod cnf_ie;
pub mod collisions;
pub mod fig6;
pub mod headline;
pub mod ie_vs_hmh;
pub mod ingest;
pub mod kernels;
pub mod route;
pub mod space_sweep;
pub mod variance;

use crate::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How an experiment runs, and what it publishes.
#[derive(Debug, Clone, Copy)]
pub enum Run {
    /// A paper experiment: deterministic in the [`Config`], so its tables
    /// regenerate `results/` byte for byte.
    Paper(fn(&Config) -> Vec<Table>),
    /// A timer: its one table varies run to run and is published as
    /// `BENCH_<name>.json`, under the name given here.
    Timer(&'static str, fn(&Config) -> Table),
}

/// One `repro` subcommand.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The subcommand name.
    pub name: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
    /// What it runs.
    pub run: Run,
}

/// Every experiment, in `repro all` and usage order. `repro all` runs
/// exactly the [`Run::Paper`] entries; the timers run only by name.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig6",
        about: "Figure 6 (256-byte sketches, J = 1/3 error vs cardinality)",
        run: Run::Paper(|cfg| vec![fig6::run(cfg)]),
    },
    Experiment {
        name: "headline",
        about: "Abstract/S5 claim (64 KiB, J = 0.01 at n = 10^19)",
        run: Run::Paper(headline::run),
    },
    Experiment {
        name: "collisions",
        about: "Lemma 4 / Algorithm 5 / Theorem 1 collision accounting",
        run: Run::Paper(|cfg| vec![collisions::run(cfg)]),
    },
    Experiment {
        name: "variance",
        about: "Theorem 2 collision variance",
        run: Run::Paper(|cfg| vec![variance::run(cfg)]),
    },
    Experiment {
        name: "approx",
        about: "Algorithm 6 vs Algorithm 5 accuracy",
        run: Run::Paper(|cfg| vec![approx::run(cfg)]),
    },
    Experiment {
        name: "ie-vs-hmh",
        about: "S1.3 HLL inclusion-exclusion / joint-MLE vs HyperMinHash",
        run: Run::Paper(|cfg| vec![ie_vs_hmh::run(cfg)]),
    },
    Experiment {
        name: "cnf-ie",
        about: "CNF strategies: k-way registers vs inclusion-exclusion",
        run: Run::Paper(|cfg| vec![cnf_ie::run(cfg)]),
    },
    Experiment {
        name: "bbit",
        about: "S1.3-1.4 b-bit MinHash accuracy and non-composability",
        run: Run::Paper(bbit::run),
    },
    Experiment {
        name: "space-sweep",
        about: "byte budget x r trade-off surface",
        run: Run::Paper(|cfg| vec![space_sweep::run(cfg)]),
    },
    Experiment {
        name: "cardinality",
        about: "Algorithm 3 decade sweep with estimator ablations",
        run: Run::Paper(|cfg| vec![cardinality::run(cfg)]),
    },
    Experiment {
        name: "kernels",
        about: "ns/op of the sketch kernels and the baselines, checked first",
        run: Run::Timer("core", kernels::run),
    },
    Experiment {
        name: "ingest",
        about: "parallel sharded ingest throughput vs. a sequential build",
        run: Run::Timer("ingest", ingest::run),
    },
    Experiment {
        name: "route",
        about: "routed vs direct PUT/CARD overhead over a live 2-group cluster",
        run: Run::Timer("route", route::run),
    },
];

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Trials per data point.
    pub trials: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Scale factor ≤ 1.0 shrinks sweeps for smoke tests.
    pub quick: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self { trials: 40, seed: 0xA5E0, quick: false }
    }
}

impl Config {
    /// A fast configuration for integration tests.
    pub fn smoke() -> Self {
        Self { trials: 8, seed: 0xA5E0, quick: true }
    }

    /// Deterministic RNG for a data point.
    pub fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}
