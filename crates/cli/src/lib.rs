//! `hmh` — a command-line tool for HyperMinHash sketches.
//!
//! Builds sketches from line-oriented data (one set element per line),
//! stores them in the compact binary format (`hmh-core::format`), and
//! answers the paper's query repertoire from the sketches alone:
//!
//! ```text
//! hmh sketch -p 12 -q 6 -r 10 -o day1.hmh access-day1.log
//! hmh sketch -p 12 -q 6 -r 10 -o day2.hmh access-day2.log
//! hmh card day1.hmh day2.hmh
//! hmh jaccard day1.hmh day2.hmh
//! hmh union -o both.hmh day1.hmh day2.hmh
//! hmh query '(a | b) & c' a=day1.hmh b=day2.hmh c=day3.hmh
//! ```
//!
//! All command logic lives in [`run`] (taking the output stream as a
//! parameter) so the test suite drives the real code paths; the binary is
//! a thin wrapper.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use hmh_cnf::{eval, SketchCatalog};
use hmh_core::format::{decode, encode};
use hmh_core::{HmhParams, HyperMinHash};
use hmh_hash::{HashAlgorithm, RandomOracle};
use std::io::{BufRead, Write};
use std::path::Path;

/// CLI failure: a message and a suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code to use.
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        Self { message: message.into(), code: 2 }
    }

    fn runtime(message: impl Into<String>) -> Self {
        Self { message: message.into(), code: 1 }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
usage: hmh <command> [options]

commands:
  sketch  [-p P] [-q Q] [-r R] [--seed S] [--alg A] -o OUT [FILE]
          build a sketch from lines of FILE (or stdin); A in
          murmur3|sha1|xxpair|splitmix (default murmur3)
  info    FILE...             print parameters and occupancy
  card    FILE...             print cardinality estimates
  union   -o OUT FILE...      merge sketches losslessly
  jaccard A B                 Jaccard index of two sketches
  intersect A B               intersection cardinality of two sketches
  query   EXPR NAME=FILE...   CNF query, e.g. '(a | b) & c'
  store   DIR OP [ARG...]     crash-safe named sketch store; OP is one of
            put NAME FILE     store sketch FILE under NAME
            get NAME OUT      extract sketch NAME to file OUT
            list              list stored sketches with estimates
            remove NAME       remove a sketch (durable tombstone)
            compact           rewrite the snapshot, reset the log
            fsck [--json]     report on-disk health (salvage scan) with
                              per-record corruption spans; exits 0
                              clean, 1 salvaged, 2 unrecoverable
            scrub             re-verify every committed record's
                              checksum, repair from surviving copies,
                              quarantine the rest; exits 0 clean, 1 when
                              repair or quarantine work was done, 2
                              unrecoverable
  serve   DIR [--addr A] [--workers N] [--queue-depth N]
              [--peer ADDR]... [--sync-interval-ms N]
          serve the store at DIR over TCP (default 127.0.0.1:7700);
          holds the store lock until a client sends shutdown. Each
          --peer names another replica; the daemon then runs periodic
          anti-entropy (digest exchange + lossless merge pull) against
          its peers and reports per-peer health
  client  ADDR[,ADDR...] [--budget-ms B] OP [ARG...]
          talk to a running daemon; several comma-separated addresses
          form an ordered failover list (BUSY, timeouts and refusals
          rotate to the next replica). --budget-ms stamps a deadline
          budget on the request: servers refuse it typed (EXPIRED)
          instead of serving it late. OP is one of
            put NAME FILE / merge NAME FILE / get NAME OUT
            batch NAME FILE [-p P] [-q Q] [-r R] [--seed S] [--alg A]
                              ingest lines of FILE into NAME server-side
            card NAME / jaccard A B / list / health / shutdown
            scrub [--status]  trigger a full scrub pass on the server
                              (--status only reads the counters) and
                              list the quarantined names
  route   OP [ARG...]         consistent-hash routing tier; OP is one of
            serve RING [--addr A] [--workers N] [--queue-depth N]
                              route the cluster described by ring file
                              RING (default 127.0.0.1:7800); clients
                              talk to the router exactly as to a daemon
            owner RING NAME...
                              print the replica group owning each NAME
            rebalance OLD NEW
                              move sketches from ring file OLD to ring
                              file NEW (copy, verify, release); safe to
                              re-run after a crash or SIGKILL
  loadgen OP ADDR [flags]     seeded load generator for a daemon or a
          router; OP is one of
            run ADDR [--seed S] [--connections N] [--duty-ms D]
                     [--rate OPS_PER_SEC] [--budget-ms B] [--keys K]
                     [--pipeline P]
                     [--mix put=20,card=70,jaccard=9,list=1]
                              one load phase: closed loop, or an
                              open-loop schedule when --rate is set;
                              --pipeline keeps P frames in flight per
                              connection; prints goodput, p50/p99 and
                              the outcome taxonomy (ok/busy/expired/...)
            sweep ADDR [--seed S] [--connections N] [--duty-ms D]
                       [--budget-ms B] [--keys K] [--band F]
                       [--pipeline P] [--min-speedup R] [--json FILE]
                              closed-loop peak, then 1x/2x/4x offered
                              overload; fails unless goodput at 4x
                              stays >= F of peak (default 0.7) with
                              typed rejections; with --pipeline P > 1,
                              5 serial/pipelined calibration pairs price
                              pipelining and --min-speedup fails unless
                              their median ratio >= R; --json writes
                              the BENCH_serve.json artifact
";

/// Run the CLI with pre-split arguments (no program name), writing results
/// to `out`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::usage(USAGE));
    };
    match command.as_str() {
        "sketch" => cmd_sketch(rest, out),
        "info" => cmd_info(rest, out),
        "card" => cmd_card(rest, out),
        "union" => cmd_union(rest, out),
        "jaccard" => cmd_pairwise(rest, out, Pairwise::Jaccard),
        "intersect" => cmd_pairwise(rest, out, Pairwise::Intersect),
        "query" => cmd_query(rest, out),
        "store" => cmd_store(rest, out),
        "serve" => cmd_serve(rest, out),
        "client" => cmd_client(rest, out),
        "route" => cmd_route(rest, out),
        "loadgen" => cmd_loadgen(rest, out),
        "--help" | "-h" | "help" => {
            write_out(out, USAGE)?;
            Ok(())
        }
        other => Err(CliError::usage(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

fn write_out(out: &mut dyn Write, text: impl AsRef<str>) -> Result<(), CliError> {
    out.write_all(text.as_ref().as_bytes())
        .map_err(|e| CliError::runtime(format!("write failed: {e}")))
}

fn load(path: &str) -> Result<HyperMinHash, CliError> {
    let bytes =
        std::fs::read(path).map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    decode(&bytes).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

fn save(path: &str, sketch: &HyperMinHash) -> Result<(), CliError> {
    // Write-temp + fsync + rename: a crash (or failed/short write) mid-save
    // must never replace an existing sketch file with a torn one.
    hmh_store::atomic_write_file(Path::new(path), &encode(sketch))
        .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))
}

/// The value following a flag at `args[i]`.
fn need(args: &[String], i: usize, flag: &str) -> Result<String, CliError> {
    args.get(i).cloned().ok_or_else(|| CliError::usage(format!("{flag} needs a value")))
}

/// Apply one of the connection front-end flags `serve` and `route serve`
/// share (`--addr`, `--workers`, `--queue-depth`) found at `args[*i]`,
/// advancing `*i` to its value. `Ok(false)` for any other argument.
fn front_flag(
    args: &[String],
    i: &mut usize,
    addr: &mut String,
    front: &mut hmh_serve::FrontOptions,
) -> Result<bool, CliError> {
    let flag = args[*i].as_str();
    let slot = match flag {
        "--addr" => {
            *i += 1;
            *addr = need(args, *i, flag)?;
            return Ok(true);
        }
        "--workers" => &mut front.workers,
        "--queue-depth" => &mut front.queue_depth,
        _ => return Ok(false),
    };
    *i += 1;
    *slot = need(args, *i, flag)?.parse().map_err(|e| CliError::usage(format!("{flag}: {e}")))?;
    Ok(true)
}

fn parse_algorithm(name: &str) -> Result<HashAlgorithm, CliError> {
    Ok(match name {
        "murmur3" => HashAlgorithm::Murmur3,
        "sha1" => HashAlgorithm::Sha1,
        "xxpair" => HashAlgorithm::XxPair,
        "splitmix" => HashAlgorithm::SplitMix,
        other => return Err(CliError::usage(format!("unknown algorithm {other:?}"))),
    })
}

/// Parse the shared sketch-configuration flags (`-p/-q/-r/--seed/--alg`)
/// with the same defaults as `sketch`, for operations that create a
/// sketch elsewhere (the daemon's batched ingest).
fn parse_sketch_config(args: &[String]) -> Result<(HmhParams, RandomOracle), CliError> {
    let (mut p, mut q, mut r) = (12u32, 6u32, 10u32);
    let mut seed = 0u64;
    let mut algorithm = HashAlgorithm::Murmur3;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-p" => {
                i += 1;
                p = need(args, i, "-p")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("-p: {e}")))?;
            }
            "-q" => {
                i += 1;
                q = need(args, i, "-q")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("-q: {e}")))?;
            }
            "-r" => {
                i += 1;
                r = need(args, i, "-r")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("-r: {e}")))?;
            }
            "--seed" => {
                i += 1;
                seed = need(args, i, "--seed")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("--seed: {e}")))?;
            }
            "--alg" => {
                i += 1;
                algorithm = parse_algorithm(&need(args, i, "--alg")?)?;
            }
            other => return Err(CliError::usage(format!("unexpected argument {other:?}"))),
        }
        i += 1;
    }
    let params =
        HmhParams::new(p, q, r).map_err(|e| CliError::usage(format!("bad parameters: {e}")))?;
    Ok((params, RandomOracle::new(algorithm, seed)))
}

fn cmd_sketch(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (mut p, mut q, mut r) = (12u32, 6u32, 10u32);
    let mut seed = 0u64;
    let mut algorithm = HashAlgorithm::Murmur3;
    let mut output: Option<String> = None;
    let mut input: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-p" => {
                i += 1;
                p = need(args, i, "-p")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("-p: {e}")))?;
            }
            "-q" => {
                i += 1;
                q = need(args, i, "-q")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("-q: {e}")))?;
            }
            "-r" => {
                i += 1;
                r = need(args, i, "-r")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("-r: {e}")))?;
            }
            "--seed" => {
                i += 1;
                seed = need(args, i, "--seed")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("--seed: {e}")))?;
            }
            "--alg" => {
                i += 1;
                algorithm = parse_algorithm(&need(args, i, "--alg")?)?;
            }
            "-o" => {
                i += 1;
                output = Some(need(args, i, "-o")?);
            }
            other if !other.starts_with('-') && input.is_none() => {
                input = Some(other.to_string());
            }
            other => return Err(CliError::usage(format!("unexpected argument {other:?}"))),
        }
        i += 1;
    }
    let output = output.ok_or_else(|| CliError::usage("sketch needs -o OUT"))?;
    let params =
        HmhParams::new(p, q, r).map_err(|e| CliError::usage(format!("bad parameters: {e}")))?;
    let mut sketch = HyperMinHash::with_oracle(params, RandomOracle::new(algorithm, seed));

    let mut lines = 0u64;
    let mut feed = |reader: &mut dyn BufRead| -> Result<(), CliError> {
        for line in reader.lines() {
            let line = line.map_err(|e| CliError::runtime(format!("read failed: {e}")))?;
            let item = line.trim();
            if !item.is_empty() {
                sketch.insert(&item);
                lines += 1;
            }
        }
        Ok(())
    };
    match &input {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| CliError::runtime(format!("cannot open {path}: {e}")))?;
            feed(&mut std::io::BufReader::new(file))?;
        }
        None => feed(&mut std::io::stdin().lock())?,
    }
    save(&output, &sketch)?;
    write_out(
        out,
        format!(
            "{output}: {params}, {} lines consumed, {} buckets occupied, estimate {:.0}\n",
            lines,
            sketch.occupied(),
            sketch.cardinality()
        ),
    )
}

fn cmd_info(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    if args.is_empty() {
        return Err(CliError::usage("info needs at least one sketch file"));
    }
    for path in args {
        let s = load(path)?;
        let params = s.params();
        write_out(
            out,
            format!(
                "{path}: {params}, {} bytes, oracle {:?}/seed {}, {}/{} buckets occupied\n",
                params.byte_size(),
                s.oracle().algorithm(),
                s.oracle().seed(),
                s.occupied(),
                params.num_buckets()
            ),
        )?;
    }
    Ok(())
}

fn cmd_card(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    if args.is_empty() {
        return Err(CliError::usage("card needs at least one sketch file"));
    }
    for path in args {
        let s = load(path)?;
        write_out(out, format!("{path}: {:.0}\n", s.cardinality()))?;
    }
    Ok(())
}

fn cmd_union(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut output: Option<String> = None;
    let mut inputs: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "-o" {
            i += 1;
            output = Some(args.get(i).cloned().ok_or_else(|| CliError::usage("-o needs a value"))?);
        } else {
            inputs.push(&args[i]);
        }
        i += 1;
    }
    let output = output.ok_or_else(|| CliError::usage("union needs -o OUT"))?;
    let [first, rest @ ..] = inputs.as_slice() else {
        return Err(CliError::usage("union needs at least one input sketch"));
    };
    let mut acc = load(first)?;
    for path in rest {
        let next = load(path)?;
        acc.merge(&next).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    }
    save(&output, &acc)?;
    write_out(
        out,
        format!(
            "{output}: union of {} sketches, estimate {:.0}\n",
            inputs.len(),
            acc.cardinality()
        ),
    )
}

enum Pairwise {
    Jaccard,
    Intersect,
}

fn cmd_pairwise(args: &[String], out: &mut dyn Write, kind: Pairwise) -> Result<(), CliError> {
    let [a, b] = args else {
        return Err(CliError::usage("expected exactly two sketch files"));
    };
    let (sa, sb) = (load(a)?, load(b)?);
    match kind {
        Pairwise::Jaccard => {
            let j = sa.jaccard(&sb).map_err(|e| CliError::runtime(e.to_string()))?;
            write_out(
                out,
                format!(
                    "jaccard {:.6} (raw {:.6}, {} of {} buckets matching)\n",
                    j.estimate, j.raw, j.matching, j.occupied
                ),
            )
        }
        Pairwise::Intersect => {
            let est = sa.intersection(&sb).map_err(|e| CliError::runtime(e.to_string()))?;
            write_out(
                out,
                format!(
                    "intersection {:.0} (jaccard {:.6}, union {:.0})\n",
                    est.intersection, est.jaccard, est.union
                ),
            )
        }
    }
}

fn cmd_query(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [expr, bindings @ ..] = args else {
        return Err(CliError::usage("query needs an expression and NAME=FILE bindings"));
    };
    if bindings.is_empty() {
        return Err(CliError::usage("query needs at least one NAME=FILE binding"));
    }
    let mut catalog: Option<SketchCatalog> = None;
    for binding in bindings {
        let Some((name, path)) = binding.split_once('=') else {
            return Err(CliError::usage(format!("binding {binding:?} is not NAME=FILE")));
        };
        let sketch = load(path)?;
        let cat = catalog.get_or_insert_with(|| SketchCatalog::new(sketch.params()));
        cat.adopt(name, sketch).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    }
    let catalog = catalog.expect("bindings checked non-empty");
    let answer =
        eval::query(&catalog, expr).map_err(|e| CliError::runtime(format!("query failed: {e}")))?;
    write_out(
        out,
        format!(
            "count {:.0} (jaccard {:.6}, clause union {:.0})\n",
            answer.count, answer.jaccard, answer.union
        ),
    )
}

fn cmd_store(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [dir, op, rest @ ..] = args else {
        return Err(CliError::usage("store needs DIR and an operation\n(see `hmh help`)"));
    };
    // fsck and scrub reserve exit code 2 for "unrecoverable": a store
    // that cannot even open (I/O failure, or another process — a daemon
    // or CLI — holds the lock). Other ops use the generic failure code.
    // They also open with auto-heal off: fsck is read-only by contract
    // (the corrupt spans must still be on disk for it to report), and
    // scrub does its own detection and healing — letting the open
    // compact first would leave both nothing to find.
    let diagnostic = op == "fsck" || op == "scrub";
    let open_code = if diagnostic { 2 } else { 1 };
    let options =
        hmh_store::StoreOptions { auto_heal: !diagnostic, ..hmh_store::StoreOptions::default() };
    let mut store = hmh_store::SketchStore::open_opts(dir, options).map_err(|e| CliError {
        message: format!("cannot open store {dir}: {e}"),
        code: open_code,
    })?;
    let opened = store.recovery_report().clone();
    match (op.as_str(), rest) {
        ("put", [name, file]) => {
            let sketch = load(file)?;
            store.put(name, &sketch).map_err(|e| CliError::runtime(format!("put {name}: {e}")))?;
            write_out(out, format!("{dir}: stored {name} ({})\n", sketch.params()))
        }
        ("get", [name, output]) => {
            let sketch = store
                .get(name)
                .map_err(|e| CliError::runtime(format!("get {name}: {e}")))?
                .ok_or_else(|| CliError::runtime(format!("no sketch named {name:?} in {dir}")))?;
            save(output, &sketch)?;
            write_out(
                out,
                format!("{output}: {} (estimate {:.0})\n", sketch.params(), sketch.cardinality()),
            )
        }
        ("list", []) => {
            for name in store.names().map(str::to_string).collect::<Vec<_>>() {
                let sketch = store
                    .get(&name)
                    .map_err(|e| CliError::runtime(format!("{name}: {e}")))?
                    .expect("listed names exist");
                write_out(
                    out,
                    format!("{name}: {}, estimate {:.0}\n", sketch.params(), sketch.cardinality()),
                )?;
            }
            write_out(out, format!("{} sketches\n", store.len()))
        }
        ("remove", [name]) => {
            let removed =
                store.remove(name).map_err(|e| CliError::runtime(format!("remove {name}: {e}")))?;
            if !removed {
                return Err(CliError::runtime(format!("no sketch named {name:?} in {dir}")));
            }
            write_out(out, format!("{dir}: removed {name}\n"))
        }
        ("compact", []) => {
            store.compact().map_err(|e| CliError::runtime(format!("compact: {e}")))?;
            write_out(out, format!("{dir}: compacted to {} sketches\n", store.len()))
        }
        ("fsck", rest) => {
            let json = match rest {
                [] => false,
                [flag] if flag == "--json" => true,
                _ => return Err(CliError::usage("fsck takes at most --json")),
            };
            let detail = store
                .fsck_detail()
                .map_err(|e| CliError { message: format!("fsck: {e}"), code: 2 })?;
            let now = &detail.report;
            // "Salvaged" means recovery had to do work anywhere along the
            // way: the open found damage (quarantine or a torn tail), or
            // the disk is dirty right now.
            let salvaged = !opened.is_clean() || !now.is_clean();
            if json {
                write_out(
                    out,
                    format!(
                        "{{\"dir\":{},\"open\":{},\"disk\":{},\"spans\":[{}],\"status\":\"{}\"}}\n",
                        json_string(dir),
                        json_report(&opened),
                        json_report(now),
                        detail.spans.iter().map(json_span).collect::<Vec<_>>().join(","),
                        if salvaged { "salvaged" } else { "clean" },
                    ),
                )?;
            } else {
                write_out(
                    out,
                    format!(
                        "{dir}: open recovered {} record(s), quarantined {} region(s), torn tail: {}\n\
                         {dir}: on disk now: {} record(s), {} corrupt region(s), torn tail: {} — {}\n",
                        opened.recovered,
                        opened.quarantined,
                        opened.truncated_tail,
                        now.recovered,
                        now.quarantined,
                        now.truncated_tail,
                        if now.is_clean() { "clean" } else { "DIRTY" },
                    ),
                )?;
                for finding in &detail.spans {
                    let span = &finding.span;
                    let name = span.name.as_deref().unwrap_or("<unattributed>");
                    write_out(
                        out,
                        format!(
                            "{dir}: corrupt span in {} at offset {}, {} byte(s), record {name}, \
                             checksum expected {:#018x} actual {:#018x}\n",
                            finding.file, span.offset, span.len, span.expected, span.actual,
                        ),
                    )?;
                }
            }
            if salvaged {
                // Report already written; the code tells scripts what
                // happened: 1 = recovered with salvage work done.
                return Err(CliError { message: format!("{dir}: salvage was needed"), code: 1 });
            }
            Ok(())
        }
        ("scrub", []) => {
            // One full offline pass: every committed record's checksum
            // re-verified. Corruption with a surviving valid copy is
            // repaired in place (the in-memory map is authoritative);
            // corruption without one is fenced in quarantine. The exit
            // code is the contract scripts script against: 0 = every
            // record verified clean, 1 = repair or quarantine work was
            // done, 2 = the scrub itself could not run.
            let pass = store
                .scrub_full(hmh_store::SCRUB_SLICE_BYTES)
                .map_err(|e| CliError { message: format!("scrub: {e}"), code: 2 })?;
            let fenced = store.quarantined_page("", usize::MAX);
            // "Repaired" for display means spans this pass rewrote from
            // a surviving copy — not spans whose record is fenced (the
            // store's cumulative counter can attribute those to the
            // open-time fence instead and would double-count them here).
            let repaired = pass
                .findings
                .iter()
                .filter(|f| match f.span.name.as_deref() {
                    Some(name) => !fenced.iter().any(|q| q == name),
                    None => true,
                })
                .count();
            write_out(
                out,
                format!(
                    "{dir}: scrubbed {} record(s), {} corrupt span(s) found, \
                     {} repaired, {} quarantined\n",
                    pass.records,
                    pass.findings.len(),
                    repaired,
                    fenced.len(),
                ),
            )?;
            for finding in &pass.findings {
                let span = &finding.span;
                let name = span.name.as_deref().unwrap_or("<unattributed>");
                write_out(
                    out,
                    format!(
                        "{dir}: corrupt span in {} at offset {}, {} byte(s), record {name}\n",
                        finding.file, span.offset, span.len,
                    ),
                )?;
            }
            for name in &fenced {
                write_out(out, format!("{dir}: quarantined {name}\n"))?;
            }
            let worked = !pass.findings.is_empty() || !fenced.is_empty() || !opened.is_clean();
            if worked {
                return Err(CliError {
                    message: format!("{dir}: scrub found corruption"),
                    code: 1,
                });
            }
            Ok(())
        }
        (op, _) => Err(CliError::usage(format!(
            "bad store operation {op:?} (or wrong arguments)\n(see `hmh help`)"
        ))),
    }
}

/// One fsck corruption span as a JSON object.
fn json_span(finding: &hmh_store::ScrubFinding) -> String {
    let span = &finding.span;
    let name = span.name.as_ref().map_or_else(|| "null".to_string(), |n| json_string(n));
    format!(
        "{{\"file\":{},\"offset\":{},\"length\":{},\"name\":{name},\
         \"checksum_expected\":{},\"checksum_actual\":{}}}",
        json_string(finding.file),
        span.offset,
        span.len,
        span.expected,
        span.actual,
    )
}

fn json_report(r: &hmh_store::RecoveryReport) -> String {
    format!(
        "{{\"recovered\":{},\"quarantined\":{},\"truncated_tail\":{}}}",
        r.recovered, r.quarantined, r.truncated_tail
    )
}

fn json_string(s: &str) -> String {
    let mut escaped = String::with_capacity(s.len() + 2);
    escaped.push('"');
    for c in s.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
            c => escaped.push(c),
        }
    }
    escaped.push('"');
    escaped
}

/// Resolve one `HOST:PORT` argument to a socket address.
fn resolve_addr(addr: &str) -> Result<std::net::SocketAddr, CliError> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .map_err(|e| CliError::usage(format!("bad address {addr:?}: {e}")))?
        .next()
        .ok_or_else(|| CliError::usage(format!("address {addr:?} resolves to nothing")))
}

fn cmd_serve(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [dir, rest @ ..] = args else {
        return Err(CliError::usage("serve needs a store DIR"));
    };
    let mut addr = "127.0.0.1:7700".to_string();
    let mut opts = hmh_serve::ServeOptions::default();
    let mut peers: Vec<std::net::SocketAddr> = Vec::new();
    let mut sync_interval = std::time::Duration::from_secs(1);
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--peer" => {
                i += 1;
                peers.push(resolve_addr(&need(rest, i, "--peer")?)?);
            }
            "--sync-interval-ms" => {
                i += 1;
                let ms: u64 = need(rest, i, "--sync-interval-ms")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("--sync-interval-ms: {e}")))?;
                sync_interval = std::time::Duration::from_millis(ms.max(1));
            }
            other => {
                if !front_flag(rest, &mut i, &mut addr, &mut opts.front)? {
                    return Err(CliError::usage(format!("unexpected argument {other:?}")));
                }
            }
        }
        i += 1;
    }
    let handle = hmh_serve::serve(dir, addr.as_str(), opts)
        .map_err(|e| CliError::runtime(format!("serve: {e}")))?;
    // With peers configured, run the anti-entropy engine alongside the
    // daemon. The jitter seed folds in the bound port so co-hosted
    // replicas started the same instant still decorrelate their rounds.
    let engine = if peers.is_empty() {
        None
    } else {
        let replica_opts = hmh_replica::ReplicaOptions {
            interval: sync_interval,
            jitter_seed: u64::from(handle.addr().port()) ^ (u64::from(std::process::id()) << 16),
            // Anti-entropy is repair traffic: give it a shared retry
            // budget so its rounds yield (visible as HEALTH
            // retry_budget_exhausted) instead of competing with
            // client traffic when peers are struggling.
            retry_budget: Some(std::sync::Arc::new(hmh_serve::RetryBudget::default())),
            ..hmh_replica::ReplicaOptions::default()
        };
        Some(
            hmh_replica::AntiEntropy::spawn(
                handle.addr(),
                &peers,
                handle.replication(),
                replica_opts,
            )
            .map_err(|e| CliError::runtime(format!("replication engine: {e}")))?,
        )
    };
    // The "listening on" line is the readiness signal scripts (and the
    // chaos harness) wait for; flush so it lands before we block.
    write_out(out, format!("listening on {}\n", handle.addr()))?;
    out.flush().map_err(|e| CliError::runtime(format!("write failed: {e}")))?;
    // Block until a client's SHUTDOWN drains the pool. No signal handler:
    // std has none, and SIGKILL-robustness is the store's salvage scan's
    // job, not the process's.
    while !handle.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    if let Some(engine) = engine {
        engine.stop();
    }
    handle.join();
    // Best effort: whoever was reading our stdout may be long gone by
    // now (`hmh serve | head -1`), and a vanished log pipe must not turn
    // a clean drain into a failing exit status.
    let _ = write_out(out, "shutdown complete\n");
    Ok(())
}

fn cmd_client(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    // `--budget-ms B` may appear between the address and the operation;
    // strip it before positional matching.
    let mut budget: Option<std::time::Duration> = None;
    let mut positional: Vec<String> = Vec::with_capacity(args.len());
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--budget-ms" {
            i += 1;
            let ms: u64 = args
                .get(i)
                .ok_or_else(|| CliError::usage("--budget-ms needs a value"))?
                .parse()
                .map_err(|e| CliError::usage(format!("--budget-ms: {e}")))?;
            if ms == 0 || ms > u64::from(hmh_serve::MAX_BUDGET_MS) {
                return Err(CliError::usage(format!(
                    "--budget-ms must be in 1..={}",
                    hmh_serve::MAX_BUDGET_MS
                )));
            }
            budget = Some(std::time::Duration::from_millis(ms));
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }
    let [addr_list, op, rest @ ..] = positional.as_slice() else {
        return Err(CliError::usage("client needs ADDR and an operation\n(see `hmh help`)"));
    };
    // One address talks to one daemon; a comma-separated list is an
    // ordered failover ring (a single entry is just a ring of one).
    let addrs = addr_list
        .split(',')
        .filter(|part| !part.is_empty())
        .map(resolve_addr)
        .collect::<Result<Vec<_>, _>>()?;
    if addrs.is_empty() {
        return Err(CliError::usage("client needs at least one address"));
    }
    let addr = addrs[0];
    let mut client = hmh_serve::FailoverClient::with_options(
        &addrs,
        hmh_serve::ClientOptions { op_budget: budget, ..hmh_serve::ClientOptions::default() },
        hmh_serve::FailoverClient::default_attempts(addrs.len()),
    );
    let fail = |op: &str, e: hmh_serve::ClientError| CliError::runtime(format!("{op}: {e}"));
    match (op.as_str(), rest) {
        ("put", [name, file]) => {
            let sketch = load(file)?;
            client.call(|c| c.put(name, &sketch)).map_err(|e| fail("put", e))?;
            write_out(out, format!("{addr}: stored {name} ({})\n", sketch.params()))
        }
        ("merge", [name, file]) => {
            let sketch = load(file)?;
            client.call(|c| c.merge(name, &sketch)).map_err(|e| fail("merge", e))?;
            write_out(out, format!("{addr}: merged into {name}\n"))
        }
        ("batch", [name, file, flags @ ..]) => {
            let (params, oracle) = parse_sketch_config(flags)?;
            let content = std::fs::read_to_string(file)
                .map_err(|e| CliError::runtime(format!("cannot read {file}: {e}")))?;
            // Same item discipline as `sketch`: trimmed, non-empty lines.
            // A string and its bytes hash identically, so batch-ingesting
            // a file server-side equals sketching it locally.
            let items: Vec<&[u8]> = content
                .lines()
                .map(str::trim)
                .filter(|line| !line.is_empty())
                .map(str::as_bytes)
                .collect();
            client
                .call(|c| c.batch_put(name, params, oracle, &items))
                .map_err(|e| fail("batch", e))?;
            write_out(
                out,
                format!("{addr}: ingested {} items into {name} ({params})\n", items.len()),
            )
        }
        ("get", [name, output]) => {
            let sketch = client.call(|c| c.get(name)).map_err(|e| fail("get", e))?;
            save(output, &sketch)?;
            write_out(
                out,
                format!("{output}: {} (estimate {:.0})\n", sketch.params(), sketch.cardinality()),
            )
        }
        ("card", [name]) => {
            let estimate = client.call(|c| c.card(name)).map_err(|e| fail("card", e))?;
            write_out(out, format!("{name}: {estimate:.0}\n"))
        }
        ("jaccard", [a, b]) => {
            let estimate = client.call(|c| c.jaccard(a, b)).map_err(|e| fail("jaccard", e))?;
            write_out(out, format!("jaccard {estimate:.6}\n"))
        }
        ("list", []) => {
            let names = client.call(hmh_serve::Client::list).map_err(|e| fail("list", e))?;
            for name in &names {
                write_out(out, format!("{name}\n"))?;
            }
            write_out(out, format!("{} sketches\n", names.len()))
        }
        ("health", []) => {
            let h = client.call(hmh_serve::Client::health).map_err(|e| fail("health", e))?;
            write_out(out, render_health(&h))
        }
        ("scrub", rest) if rest.is_empty() || rest == ["--status".to_string()] => {
            // Bare `scrub` triggers one full synchronous pass server-side;
            // `--status` only reads the counters and the quarantine page
            // (safe against a read-only daemon, which refuses the trigger).
            let trigger = rest.is_empty();
            let report = client.call(|c| c.scrub(trigger, "")).map_err(|e| fail("scrub", e))?;
            write_out(
                out,
                format!(
                    "scrub_rounds: {}\nrecords_scrubbed: {}\ncorrupt_found: {}\n\
                     repaired: {}\nquarantined: {}\nlast_scrub: {}\n",
                    report.rounds,
                    report.records,
                    report.corrupt_found,
                    report.repaired,
                    report.quarantined,
                    scrub_age(report.last_scrub_age_ms),
                ),
            )?;
            for name in &report.names {
                write_out(out, format!("quarantined {name}\n"))?;
            }
            Ok(())
        }
        ("shutdown", []) => {
            client.shutdown().map_err(|e| fail("shutdown", e))?;
            write_out(out, format!("{addr}: shutdown requested\n"))
        }
        (op, _) => Err(CliError::usage(format!(
            "bad client operation {op:?} (or wrong arguments)\n(see `hmh help`)"
        ))),
    }
}

/// The `client ADDR health` text: one `label: value` line per HEALTH
/// scalar in wire order (a capacity joins the next row's line as
/// `gauge/capacity`), then the peer count and one line per peer.
fn render_health(h: &hmh_serve::Health) -> String {
    use hmh_serve::proto::Scalar;
    let mut text = String::new();
    let mut capacity = None;
    for (label, _, value) in h.clone().scalars() {
        let shown = match &value {
            Scalar::Capacity(_) => {
                capacity = Some(value.get());
                continue;
            }
            Scalar::Bool(b) => b.to_string(),
            Scalar::AgeMs(ms) => scrub_age(**ms),
            Scalar::U32(_) | Scalar::U64(_) => value.get().to_string(),
        };
        let bound = capacity.take().map(|c| format!("/{c}")).unwrap_or_default();
        text.push_str(&format!("{label}: {shown}{bound}\n"));
    }
    text.push_str(&format!("peers: {}\n", h.peers.len()));
    for peer in &h.peers {
        let age = if peer.last_sync_age == u64::MAX {
            "never synced".to_string()
        } else {
            format!("last sync {} round(s) ago", peer.last_sync_age)
        };
        text.push_str(&format!(
            "peer {}: {}, {age}, {} mismatch(es) repaired\n",
            peer.addr, peer.state, peer.mismatches
        ));
    }
    text
}

/// Render a `last_scrub_age_ms` wire value: `u64::MAX` is the sentinel
/// for "no pass has completed yet" (on a routing tier, "on at least one
/// shard").
fn scrub_age(age_ms: u64) -> String {
    if age_ms == u64::MAX {
        "never completed".to_string()
    } else {
        format!("{age_ms} ms ago")
    }
}

/// Load and build a ring from a committed ring-config file.
fn load_ring(path: &str) -> Result<hmh_route::Ring, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    let config = hmh_route::RingConfig::from_text(&text)
        .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
    hmh_route::Ring::build(config).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

fn cmd_route(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some((op, rest)) = args.split_first() else {
        return Err(CliError::usage("route needs an operation\n(see `hmh help`)"));
    };
    match (op.as_str(), rest) {
        ("serve", [ring_file, flags @ ..]) => {
            let ring = load_ring(ring_file)?;
            let mut addr = "127.0.0.1:7800".to_string();
            let mut opts = hmh_route::RouteOptions::default();
            let mut i = 0;
            while i < flags.len() {
                if !front_flag(flags, &mut i, &mut addr, &mut opts.front)? {
                    let other = &flags[i];
                    return Err(CliError::usage(format!("unexpected argument {other:?}")));
                }
                i += 1;
            }
            let epoch = ring.epoch();
            let groups = ring.group_count();
            let handle = hmh_route::route(ring, addr.as_str(), opts)
                .map_err(|e| CliError::runtime(format!("route serve: {e}")))?;
            // Same readiness contract as `hmh serve`: scripts wait for
            // this line, so flush it before blocking.
            write_out(
                out,
                format!("listening on {} (epoch {epoch}, {groups} groups)\n", handle.addr()),
            )?;
            out.flush().map_err(|e| CliError::runtime(format!("write failed: {e}")))?;
            while !handle.is_finished() {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            handle.join();
            let _ = write_out(out, "shutdown complete\n");
            Ok(())
        }
        ("owner", [ring_file, names @ ..]) if !names.is_empty() => {
            let ring = load_ring(ring_file)?;
            for name in names {
                let group = ring.owner(name);
                let addrs: Vec<String> = group.replicas.iter().map(ToString::to_string).collect();
                write_out(out, format!("{name}: {} ({})\n", group.id, addrs.join(",")))?;
            }
            Ok(())
        }
        ("rebalance", [old_file, new_file]) => {
            let old_ring = load_ring(old_file)?;
            let new_ring = load_ring(new_file)?;
            let report =
                hmh_route::rebalance(&old_ring, &new_ring, &hmh_route::RebalanceOptions::default())
                    .map_err(|e| CliError::runtime(format!("rebalance: {e}")))?;
            write_out(
                out,
                format!(
                    "rebalanced epoch {} -> {}: {} moved, {} handoffs, {} vanished\n",
                    old_ring.epoch(),
                    new_ring.epoch(),
                    report.moved,
                    report.handoffs,
                    report.vanished
                ),
            )
        }
        (op, _) => Err(CliError::usage(format!(
            "bad route operation {op:?} (or wrong arguments)\n(see `hmh help`)"
        ))),
    }
}

/// Parse the flags shared by `loadgen run` and `loadgen sweep` into a
/// base [`hmh_loadgen::LoadOptions`], plus the flags only one of them
/// understands (returned raw for the caller to interpret).
struct LoadgenFlags {
    base: hmh_loadgen::LoadOptions,
    rate: Option<f64>,
    band: f64,
    min_speedup: Option<f64>,
    json: Option<String>,
}

fn parse_loadgen_flags(args: &[String]) -> Result<LoadgenFlags, CliError> {
    let mut flags = LoadgenFlags {
        base: hmh_loadgen::LoadOptions::default(),
        rate: None,
        band: 0.7,
        min_speedup: None,
        json: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                flags.base.seed = need(args, i, "--seed")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("--seed: {e}")))?;
            }
            "--connections" => {
                i += 1;
                flags.base.connections = need(args, i, "--connections")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("--connections: {e}")))?;
            }
            "--duty-ms" => {
                i += 1;
                let ms: u64 = need(args, i, "--duty-ms")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("--duty-ms: {e}")))?;
                flags.base.duty = std::time::Duration::from_millis(ms.max(1));
            }
            "--keys" => {
                i += 1;
                flags.base.keys = need(args, i, "--keys")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("--keys: {e}")))?;
            }
            "--budget-ms" => {
                i += 1;
                let ms: u64 = need(args, i, "--budget-ms")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("--budget-ms: {e}")))?;
                flags.base.budget = Some(std::time::Duration::from_millis(ms.max(1)));
            }
            "--rate" => {
                i += 1;
                flags.rate = Some(
                    need(args, i, "--rate")?
                        .parse()
                        .map_err(|e| CliError::usage(format!("--rate: {e}")))?,
                );
            }
            "--band" => {
                i += 1;
                flags.band = need(args, i, "--band")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("--band: {e}")))?;
            }
            "--pipeline" => {
                i += 1;
                flags.base.pipeline = need(args, i, "--pipeline")?
                    .parse()
                    .map_err(|e| CliError::usage(format!("--pipeline: {e}")))?;
            }
            "--min-speedup" => {
                i += 1;
                flags.min_speedup = Some(
                    need(args, i, "--min-speedup")?
                        .parse()
                        .map_err(|e| CliError::usage(format!("--min-speedup: {e}")))?,
                );
            }
            "--json" => {
                i += 1;
                flags.json = Some(need(args, i, "--json")?);
            }
            "--mix" => {
                i += 1;
                flags.base.mix = parse_mix(&need(args, i, "--mix")?)?;
            }
            other => return Err(CliError::usage(format!("unexpected argument {other:?}"))),
        }
        i += 1;
    }
    Ok(flags)
}

/// Parse `put=20,card=70,jaccard=9,list=1`; omitted ops get weight 0.
fn parse_mix(spec: &str) -> Result<hmh_loadgen::Mix, CliError> {
    let mut mix = hmh_loadgen::Mix { put: 0, card: 0, jaccard: 0, list: 0 };
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (op, weight) = part
            .split_once('=')
            .ok_or_else(|| CliError::usage(format!("--mix entry {part:?} is not OP=WEIGHT")))?;
        let weight: u32 =
            weight.parse().map_err(|e| CliError::usage(format!("--mix {op}: {e}")))?;
        match op {
            "put" => mix.put = weight,
            "card" => mix.card = weight,
            "jaccard" => mix.jaccard = weight,
            "list" => mix.list = weight,
            other => return Err(CliError::usage(format!("--mix knows no op {other:?}"))),
        }
    }
    Ok(mix)
}

fn report_lines(tag: &str, r: &hmh_loadgen::Report) -> String {
    format!(
        "{tag}: {:.1} ops/sec goodput, p50 {}us, p99 {}us\n\
         {tag} outcomes: {} attempted, {} ok, {} busy, {} expired, \
         {} retry_exhausted, {} unavailable, {} typed_other, {} transport\n",
        r.goodput(),
        r.p50_us(),
        r.p99_us(),
        r.attempted,
        r.ok,
        r.busy,
        r.expired,
        r.retry_exhausted,
        r.unavailable,
        r.typed_other,
        r.transport,
    )
}

fn cmd_loadgen(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let [op, addr, rest @ ..] = args else {
        return Err(CliError::usage("loadgen needs an operation and ADDR\n(see `hmh help`)"));
    };
    let addr = resolve_addr(addr)?;
    let flags = parse_loadgen_flags(rest)?;
    match op.as_str() {
        "run" => {
            if flags.json.is_some() || flags.band != 0.7 || flags.min_speedup.is_some() {
                return Err(CliError::usage(
                    "--json/--band/--min-speedup apply to `loadgen sweep` only",
                ));
            }
            let mut opts = flags.base;
            if let Some(rate) = flags.rate {
                if rate <= 0.0 {
                    return Err(CliError::usage("--rate must be positive"));
                }
                opts.pacing = hmh_loadgen::Pacing::Open { ops_per_sec: rate };
            }
            let report = hmh_loadgen::run(addr, &opts)
                .map_err(|e| CliError::runtime(format!("run: {e}")))?;
            write_out(out, report_lines("phase", &report))
        }
        "sweep" => {
            if flags.rate.is_some() {
                return Err(CliError::usage("--rate applies to `loadgen run` only"));
            }
            if flags.min_speedup.is_some() && flags.base.pipeline <= 1 {
                return Err(CliError::usage("--min-speedup needs --pipeline > 1"));
            }
            let opts = hmh_loadgen::SweepOptions {
                base: flags.base,
                ..hmh_loadgen::SweepOptions::default()
            };
            let sweep = hmh_loadgen::sweep(addr, &opts)
                .map_err(|e| CliError::runtime(format!("sweep: {e}")))?;
            write_out(out, report_lines("peak", &sweep.peak))?;
            if let Some(pipelined) = &sweep.peak_pipelined {
                write_out(
                    out,
                    report_lines(&format!("peak(pipeline={})", sweep.pipeline_depth), pipelined),
                )?;
                write_out(
                    out,
                    format!(
                        "pipeline speedup: {:.2}x over the serial peak (median of {:.2?})\n",
                        sweep.pipeline_speedup().unwrap_or(0.0),
                        sweep.pair_speedups
                    ),
                )?;
            }
            for row in &sweep.rows {
                let ratio = row.report.goodput() / sweep.peak_goodput().max(1e-9);
                write_out(
                    out,
                    format!(
                        "{}x offered ({:.1} ops/sec over {} connections): {:.1}% of peak\n",
                        row.multiplier,
                        row.offered_ops_per_sec,
                        row.connections,
                        ratio * 100.0
                    ),
                )?;
                write_out(out, report_lines(&format!("{}x", row.multiplier), &row.report))?;
            }
            if let Some(path) = &flags.json {
                hmh_store::atomic_write_file(Path::new(path), sweep.to_json().as_bytes())
                    .map_err(|e| CliError::runtime(format!("cannot write {path}: {e}")))?;
                write_out(out, format!("wrote {path}\n"))?;
            }
            if let Some(min) = flags.min_speedup {
                let speedup = sweep.pipeline_speedup().unwrap_or(0.0);
                if speedup < min {
                    return Err(CliError::runtime(format!(
                        "pipelining underdelivered: {speedup:.2}x over the serial peak \
                         (contract: >= {min:.2}x)"
                    )));
                }
            }
            hmh_loadgen::degradation_ok(&sweep, flags.band)
                .map_err(|why| CliError::runtime(format!("degradation contract failed: {why}")))?;
            write_out(
                out,
                format!(
                    "degradation contract holds: >= {:.0}% of peak goodput under {}x overload\n",
                    flags.band * 100.0,
                    sweep.rows.last().map_or(0, |r| r.multiplier)
                ),
            )
        }
        other => Err(CliError::usage(format!(
            "bad loadgen operation {other:?} (or wrong arguments)\n(see `hmh help`)"
        ))),
    }
}

/// Test helper: run with string args against a buffer, returning output.
pub fn run_to_string(args: &[&str]) -> Result<String, CliError> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut buf = Vec::new();
    run(&args, &mut buf)?;
    Ok(String::from_utf8(buf).expect("utf8 output"))
}

/// Test helper: write `lines` to `path` as a line-per-item data file.
pub fn write_lines(path: &Path, lines: impl IntoIterator<Item = String>) -> std::io::Result<()> {
    let mut content = String::new();
    for l in lines {
        content.push_str(&l);
        content.push('\n');
    }
    // hmh-lint: allow(durability) — report/CSV output, not sketch state; a torn report is regenerated by rerunning the command
    std::fs::write(path, content)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A HEALTH snapshot with every scalar distinct, built through the
    /// scalar table (row `i` holds `i + 1`, a boolean row `i % 3 != 0`), with
    /// the scrub age and two peers supplied by the caller.
    fn fixed_health(last_scrub_age_ms: u64) -> hmh_serve::Health {
        use hmh_serve::{proto::Scalar, PeerHealth, PeerState};
        let mut h = hmh_serve::Health::default();
        for (i, (_, _, mut value)) in (0u64..).zip(h.scalars()) {
            match value {
                Scalar::Bool(_) => value.set(i % 3),
                Scalar::AgeMs(_) => value.set(last_scrub_age_ms),
                _ => value.set(i + 1),
            }
        }
        h.peers = vec![
            PeerHealth {
                addr: "10.0.0.1:7000".into(),
                state: PeerState::Suspect,
                last_sync_age: 3,
                mismatches: 12,
            },
            PeerHealth {
                addr: "g2".into(),
                state: PeerState::Down,
                last_sync_age: u64::MAX,
                mismatches: 0,
            },
        ];
        h
    }

    #[test]
    fn health_text_is_pinned() {
        // Captured from the printer that listed every field by hand; the
        // CI drills grep this text.
        let never = "\
read_only: false
workers: 2
queue: 4/3
active: 5
shed: 6
served: 7
sketches: 8
store_clean: true
quarantined: 10
truncated_tail: true
replication_rounds: 12
route_epoch: 13
route_handoffs: 14
expired: 15
retry_budget_exhausted: 16
breaker_open: 17
scrub_rounds: 18
records_scrubbed: 19
corrupt_found: 20
repaired: 21
scrub_quarantined: 22
last_scrub: never completed
peers: 2
peer 10.0.0.1:7000: suspect, last sync 3 round(s) ago, 12 mismatch(es) repaired
peer g2: down, never synced, 0 mismatch(es) repaired
";
        assert_eq!(render_health(&fixed_health(u64::MAX)), never);
        let recent = never.replace("last_scrub: never completed", "last_scrub: 1500 ms ago");
        assert_eq!(render_health(&fixed_health(1500)), recent);
    }

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("hmh-cli-test-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn path(&self, name: &str) -> String {
            self.0.join(name).to_string_lossy().into_owned()
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn build(dir: &TempDir, name: &str, lo: u64, hi: u64) -> String {
        let data = dir.path(&format!("{name}.txt"));
        write_lines(Path::new(&data), (lo..hi).map(|i| format!("user-{i}"))).unwrap();
        let out = dir.path(&format!("{name}.hmh"));
        run_to_string(&["sketch", "-p", "11", "-q", "6", "-r", "10", "-o", &out, &data]).unwrap();
        out
    }

    #[test]
    fn sketch_card_jaccard_end_to_end() {
        let dir = TempDir::new("e2e");
        let a = build(&dir, "a", 0, 30_000);
        let b = build(&dir, "b", 15_000, 45_000);

        let card = run_to_string(&["card", &a]).unwrap();
        let estimate: f64 = card.split_whitespace().last().unwrap().parse().unwrap();
        assert!((estimate / 30_000.0 - 1.0).abs() < 0.08, "{card}");

        let j = run_to_string(&["jaccard", &a, &b]).unwrap();
        let value: f64 = j.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((value - 1.0 / 3.0).abs() < 0.05, "{j}");

        let i = run_to_string(&["intersect", &a, &b]).unwrap();
        let value: f64 = i.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((value / 15_000.0 - 1.0).abs() < 0.15, "{i}");
    }

    #[test]
    fn union_and_query() {
        let dir = TempDir::new("union");
        let a = build(&dir, "a", 0, 10_000);
        let b = build(&dir, "b", 5_000, 15_000);
        let c = build(&dir, "c", 8_000, 20_000);

        let merged = dir.path("ab.hmh");
        run_to_string(&["union", "-o", &merged, &a, &b]).unwrap();
        let card = run_to_string(&["card", &merged]).unwrap();
        let estimate: f64 = card.split_whitespace().last().unwrap().parse().unwrap();
        assert!((estimate / 15_000.0 - 1.0).abs() < 0.08, "{card}");

        // (a | b) & c = [8k, 15k) → 7k.
        let q = run_to_string(&[
            "query",
            "(a | b) & c",
            &format!("a={a}"),
            &format!("b={b}"),
            &format!("c={c}"),
        ])
        .unwrap();
        let count: f64 = q.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((count / 7_000.0 - 1.0).abs() < 0.2, "{q}");
    }

    #[test]
    fn info_reports_parameters() {
        let dir = TempDir::new("info");
        let a = build(&dir, "a", 0, 100);
        let info = run_to_string(&["info", &a]).unwrap();
        assert!(info.contains("HmhParams(p=11, q=6, r=10)"), "{info}");
        assert!(info.contains("Murmur3"), "{info}");
    }

    #[test]
    fn blank_and_duplicate_lines() {
        let dir = TempDir::new("blank");
        let data = dir.path("d.txt");
        std::fs::write(&data, "x\n\n  \nx\ny\nx\n").unwrap();
        let out = dir.path("d.hmh");
        let msg =
            run_to_string(&["sketch", "-p", "8", "-q", "4", "-r", "4", "-o", &out, &data]).unwrap();
        assert!(msg.contains("4 lines consumed"), "{msg}");
        let card = run_to_string(&["card", &out]).unwrap();
        let estimate: f64 = card.split_whitespace().last().unwrap().parse().unwrap();
        assert!((1.0..=3.0).contains(&estimate), "two distinct items: {card}");
    }

    #[test]
    fn incompatible_sketches_fail_cleanly() {
        let dir = TempDir::new("mismatch");
        let a = build(&dir, "a", 0, 100);
        let data = dir.path("other.txt");
        write_lines(Path::new(&data), (0..100).map(|i| format!("user-{i}"))).unwrap();
        let other = dir.path("other.hmh");
        run_to_string(&["sketch", "-p", "9", "-q", "6", "-r", "10", "-o", &other, &data]).unwrap();
        let err = run_to_string(&["jaccard", &a, &other]).unwrap_err();
        assert!(err.message.contains("mismatch"), "{err:?}");
        assert_eq!(err.code, 1);
    }

    #[test]
    fn usage_errors() {
        assert_eq!(run_to_string(&[]).unwrap_err().code, 2);
        assert_eq!(run_to_string(&["frobnicate"]).unwrap_err().code, 2);
        assert_eq!(run_to_string(&["sketch"]).unwrap_err().code, 2, "missing -o");
        assert_eq!(run_to_string(&["jaccard", "only-one"]).unwrap_err().code, 2);
        assert_eq!(run_to_string(&["query", "a & b"]).unwrap_err().code, 2, "no bindings");
        assert!(run_to_string(&["card", "/no/such/file.hmh"]).is_err());
        assert!(run_to_string(&["help"]).unwrap().contains("usage"));
    }

    #[test]
    fn store_subcommand_end_to_end() {
        let dir = TempDir::new("store");
        let a = build(&dir, "a", 0, 5_000);
        let sdir = dir.path("sketchdb");

        run_to_string(&["store", &sdir, "put", "daily", &a]).unwrap();
        let list = run_to_string(&["store", &sdir, "list"]).unwrap();
        assert!(list.contains("daily") && list.contains("1 sketches"), "{list}");

        let restored = dir.path("restored.hmh");
        run_to_string(&["store", &sdir, "get", "daily", &restored]).unwrap();
        assert_eq!(
            std::fs::read(&restored).unwrap(),
            std::fs::read(&a).unwrap(),
            "round-trip through the store is bit-identical"
        );

        run_to_string(&["store", &sdir, "compact"]).unwrap();
        assert!(run_to_string(&["store", &sdir, "fsck"]).unwrap().contains("clean"));

        run_to_string(&["store", &sdir, "remove", "daily"]).unwrap();
        assert!(run_to_string(&["store", &sdir, "list"]).unwrap().contains("0 sketches"));
        assert!(run_to_string(&["store", &sdir, "get", "daily", &restored]).is_err());
        assert_eq!(run_to_string(&["store", &sdir, "frob"]).unwrap_err().code, 2);
        assert_eq!(run_to_string(&["store", &sdir]).unwrap_err().code, 2);
    }

    /// Like [`run_to_string`] but keeps whatever was written even when
    /// the command fails — fsck writes its report *and* exits non-zero.
    fn run_capture(args: &[&str]) -> (Result<(), CliError>, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let result = run(&args, &mut buf);
        (result, String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn store_fsck_reports_corruption_and_heals() {
        let dir = TempDir::new("store-fsck");
        let a = build(&dir, "a", 0, 1_000);
        let sdir = dir.path("sketchdb");
        run_to_string(&["store", &sdir, "put", "daily", &a]).unwrap();

        // Garbage appended to the WAL (e.g. a torn write from a crashed
        // writer): fsck reports it without touching the disk, so the
        // evidence survives the diagnosis.
        let wal = std::path::Path::new(&sdir).join(hmh_store::WAL_FILE);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(b"\xde\xad garbage \xbe\xef");
        std::fs::write(&wal, bytes).unwrap();

        let (result, fsck) = run_capture(&["store", &sdir, "fsck"]);
        assert_eq!(result.unwrap_err().code, 1, "salvage work done → exit 1");
        assert!(fsck.contains("quarantined 1 region(s)"), "{fsck}");
        assert!(fsck.contains("DIRTY"), "fsck never mutates: {fsck}");
        let list = run_to_string(&["store", &sdir, "list"]).unwrap();
        assert!(list.contains("daily"), "intact record survived: {list}");

        // A regular open (here: `list`) auto-heals, so the next fsck
        // finds a clean disk and exits 0.
        let healed = run_to_string(&["store", &sdir, "fsck"]).unwrap();
        assert!(healed.contains("clean"), "regular open auto-healed: {healed}");
    }

    #[test]
    fn store_fsck_json_and_exit_code_contract() {
        let dir = TempDir::new("fsck-json");
        let a = build(&dir, "a", 0, 500);
        let sdir = dir.path("sketchdb");
        run_to_string(&["store", &sdir, "put", "daily", &a]).unwrap();

        // Clean store: exit 0, status "clean", well-formed report JSON.
        let json = run_to_string(&["store", &sdir, "fsck", "--json"]).unwrap();
        assert!(json.contains("\"status\":\"clean\""), "{json}");
        assert!(json.contains("\"open\":{\"recovered\":"), "report objects present: {json}");

        // A clean store reports an empty span array.
        assert!(json.contains("\"spans\":[]"), "{json}");

        // Corrupt the WAL: exit 1 ("salvaged"), report still written.
        let wal = std::path::Path::new(&sdir).join(hmh_store::WAL_FILE);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(b"torn!");
        std::fs::write(&wal, bytes).unwrap();
        let (result, json) = run_capture(&["store", &sdir, "fsck", "--json"]);
        assert_eq!(result.unwrap_err().code, 1);
        assert!(json.contains("\"status\":\"salvaged\""), "{json}");

        // A store that cannot open at all: exit 2 ("unrecoverable").
        let (result, _) = run_capture(&["store", "/proc/definitely/not/a/dir", "fsck"]);
        assert_eq!(result.unwrap_err().code, 2);

        // Unknown flag is a usage error, not a silent fallback.
        assert_eq!(run_to_string(&["store", &sdir, "fsck", "--frob"]).unwrap_err().code, 2);
    }

    #[test]
    fn store_scrub_exit_contract_and_quarantine() {
        let dir = TempDir::new("store-scrub");
        let a = build(&dir, "a", 0, 1_000);
        let sdir = dir.path("sketchdb");
        run_to_string(&["store", &sdir, "put", "daily", &a]).unwrap();

        // Clean store: scrub verifies every record and exits 0.
        let clean = run_to_string(&["store", &sdir, "scrub"]).unwrap();
        assert!(clean.contains("0 corrupt span(s)"), "{clean}");
        assert!(clean.contains("0 quarantined"), "{clean}");

        // Flip a payload byte of the committed record (12 bytes from the
        // end: past the 8-byte checksum trailer, inside the payload).
        let wal = std::path::Path::new(&sdir).join(hmh_store::WAL_FILE);
        let mut bytes = std::fs::read(&wal).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0x01;
        std::fs::write(&wal, bytes).unwrap();

        // fsck --json carries the per-record span detail and never
        // mutates: the corrupt bytes are still on disk afterwards.
        let (result, json) = run_capture(&["store", &sdir, "fsck", "--json"]);
        assert_eq!(result.unwrap_err().code, 1);
        assert!(json.contains("\"spans\":[{\"file\":"), "{json}");
        assert!(json.contains("\"name\":\"daily\""), "{json}");
        assert!(json.contains("\"checksum_expected\":"), "{json}");

        // No valid copy survives, so scrub fences the name and reports
        // the work: exit 1, the span found, the name listed.
        let (result, report) = run_capture(&["store", &sdir, "scrub"]);
        assert_eq!(result.unwrap_err().code, 1, "quarantine work done → exit 1");
        assert!(report.contains("1 corrupt span(s) found"), "{report}");
        assert!(report.contains("quarantined daily"), "{report}");

        // Scrub healed the disk (corrupt bytes compacted away), but the
        // fence persists until a valid write releases it.
        let (result, json) = run_capture(&["store", &sdir, "fsck", "--json"]);
        assert!(result.is_ok(), "scrub left a clean disk: {json}");
        assert!(json.contains("\"spans\":[]"), "{json}");

        // A fresh valid write releases the fence; compaction clears the
        // corrupt span off disk; scrub then exits 0 again.
        run_to_string(&["store", &sdir, "put", "daily", &a]).unwrap();
        run_to_string(&["store", &sdir, "compact"]).unwrap();
        let healed = run_to_string(&["store", &sdir, "scrub"]).unwrap();
        assert!(healed.contains("0 quarantined"), "{healed}");

        // Wrong arguments are a usage error, not a silent fallback.
        assert_eq!(run_to_string(&["store", &sdir, "scrub", "--frob"]).unwrap_err().code, 2);
    }

    #[test]
    fn store_commands_fail_fast_when_locked() {
        let dir = TempDir::new("locked");
        let a = build(&dir, "a", 0, 500);
        let sdir = dir.path("sketchdb");
        run_to_string(&["store", &sdir, "put", "daily", &a]).unwrap();

        // Simulate a concurrent writer (a daemon, say) holding the lock.
        let _holder = hmh_store::SketchStore::open(&sdir).unwrap();
        let err = run_to_string(&["store", &sdir, "list"]).unwrap_err();
        assert!(err.message.contains("locked"), "clear message: {}", err.message);
        assert!(
            err.message.contains(&std::process::id().to_string()),
            "names the holder: {}",
            err.message
        );
        // fsck's contract maps "cannot open" to exit 2.
        assert_eq!(run_to_string(&["store", &sdir, "fsck"]).unwrap_err().code, 2);
    }

    #[test]
    fn serve_and_client_round_trip() {
        let dir = TempDir::new("serve");
        let a = build(&dir, "a", 0, 20_000);
        let b = build(&dir, "b", 10_000, 30_000);
        let sdir = dir.path("servedb");

        // Start the daemon in-process on an OS-assigned port.
        let handle = hmh_serve::serve(
            &sdir,
            "127.0.0.1:0",
            hmh_serve::ServeOptions {
                front: hmh_serve::FrontOptions { workers: 2, ..Default::default() },
                ..hmh_serve::ServeOptions::default()
            },
        )
        .unwrap();
        let addr = handle.addr().to_string();

        run_to_string(&["client", &addr, "put", "a", &a]).unwrap();
        run_to_string(&["client", &addr, "merge", "union", &a]).unwrap();
        run_to_string(&["client", &addr, "merge", "union", &b]).unwrap();

        let card = run_to_string(&["client", &addr, "card", "union"]).unwrap();
        let estimate: f64 = card.split_whitespace().last().unwrap().parse().unwrap();
        assert!((estimate / 30_000.0 - 1.0).abs() < 0.1, "{card}");

        let j = run_to_string(&["client", &addr, "jaccard", "a", "union"]).unwrap();
        let value: f64 = j.split_whitespace().last().unwrap().parse().unwrap();
        assert!((value - 2.0 / 3.0).abs() < 0.08, "{j}");

        let restored = dir.path("restored.hmh");
        run_to_string(&["client", &addr, "get", "a", &restored]).unwrap();
        assert_eq!(std::fs::read(&restored).unwrap(), std::fs::read(&a).unwrap());

        let list = run_to_string(&["client", &addr, "list"]).unwrap();
        assert!(list.contains("2 sketches"), "{list}");

        let health = run_to_string(&["client", &addr, "health"]).unwrap();
        assert!(health.contains("read_only: false"), "{health}");
        assert!(health.contains("store_clean: true"), "{health}");
        assert!(health.contains("corrupt_found: 0"), "{health}");
        assert!(health.contains("scrub_quarantined: 0"), "{health}");

        // A triggered scrub verifies both records and reports clean; the
        // pure status query then sees the completed pass.
        let scrub = run_to_string(&["client", &addr, "scrub"]).unwrap();
        assert!(scrub.contains("corrupt_found: 0"), "{scrub}");
        assert!(scrub.contains("quarantined: 0"), "{scrub}");
        assert!(!scrub.contains("never completed"), "{scrub}");
        let status = run_to_string(&["client", &addr, "scrub", "--status"]).unwrap();
        assert!(status.contains("ms ago"), "{status}");
        assert_eq!(run_to_string(&["client", &addr, "scrub", "--frob"]).unwrap_err().code, 2);

        let missing = run_to_string(&["client", &addr, "card", "nope"]).unwrap_err();
        assert!(missing.message.contains("nope"), "{missing:?}");
        assert_eq!(run_to_string(&["client", &addr, "frob"]).unwrap_err().code, 2);
        assert_eq!(run_to_string(&["client", "not an addr", "list"]).unwrap_err().code, 2);

        run_to_string(&["client", &addr, "shutdown"]).unwrap();
        handle.join();
        // The daemon released the lock; direct store access works again.
        assert!(run_to_string(&["store", &sdir, "list"]).unwrap().contains("2 sketches"));
    }

    /// A `Write` sink shareable with the thread running `hmh route
    /// serve`, so the test can watch for the readiness line.
    #[derive(Clone)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn route_commands_drive_a_sharded_cluster() {
        let dir = TempDir::new("route");
        let a = build(&dir, "a", 0, 20_000);

        // Two single-replica shard daemons.
        let opts = || hmh_serve::ServeOptions {
            front: hmh_serve::FrontOptions { workers: 2, ..Default::default() },
            ..hmh_serve::ServeOptions::default()
        };
        let n1 = hmh_serve::serve(dir.path("shard1"), "127.0.0.1:0", opts()).unwrap();
        let n2 = hmh_serve::serve(dir.path("shard2"), "127.0.0.1:0", opts()).unwrap();
        let ring1 = dir.path("ring1.txt");
        std::fs::write(
            &ring1,
            format!(
                "hmh-ring v1\nepoch 1\nvnodes 64\ngroup g1 {}\ngroup g2 {}\n",
                n1.addr(),
                n2.addr()
            ),
        )
        .unwrap();

        // `route owner` answers from the committed config alone.
        let owners = run_to_string(&["route", "owner", &ring1, "alpha", "beta"]).unwrap();
        assert!(owners.contains("alpha: g") && owners.contains("beta: g"), "{owners}");

        // `route serve` in a thread; wait for the readiness line.
        let buf = SharedBuf(std::sync::Arc::default());
        let thread_buf = buf.clone();
        let ring_arg = ring1.clone();
        let router = std::thread::spawn(move || {
            let args: Vec<String> = ["route", "serve", &ring_arg, "--addr", "127.0.0.1:0"]
                .iter()
                .map(ToString::to_string)
                .collect();
            let mut sink = thread_buf;
            run(&args, &mut sink).unwrap();
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
            if let Some(line) = text.lines().find(|l| l.starts_with("listening on ")) {
                assert!(line.contains("(epoch 1, 2 groups)"), "{line}");
                break line["listening on ".len()..].split(' ').next().unwrap().to_string();
            }
            assert!(std::time::Instant::now() < deadline, "router never became ready: {text}");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        // The ordinary client workflow, pointed at the router.
        for name in ["alpha", "beta", "gamma", "delta"] {
            run_to_string(&["client", &addr, "put", name, &a]).unwrap();
        }
        let card = run_to_string(&["client", &addr, "card", "alpha"]).unwrap();
        let estimate: f64 = card.split_whitespace().last().unwrap().parse().unwrap();
        assert!((estimate / 20_000.0 - 1.0).abs() < 0.1, "{card}");
        assert!(run_to_string(&["client", &addr, "list"]).unwrap().contains("4 sketches"));
        let health = run_to_string(&["client", &addr, "health"]).unwrap();
        assert!(health.contains("route_epoch: 1"), "{health}");
        assert!(health.contains("route_handoffs: 0"), "{health}");

        // Grow the cluster: third group, epoch 2, CLI-driven rebalance.
        let n3 = hmh_serve::serve(dir.path("shard3"), "127.0.0.1:0", opts()).unwrap();
        let ring2 = dir.path("ring2.txt");
        std::fs::write(
            &ring2,
            format!(
                "hmh-ring v1\nepoch 2\nvnodes 64\ngroup g1 {}\ngroup g2 {}\ngroup g3 {}\n",
                n1.addr(),
                n2.addr(),
                n3.addr()
            ),
        )
        .unwrap();
        let report = run_to_string(&["route", "rebalance", &ring1, &ring2]).unwrap();
        assert!(report.contains("rebalanced epoch 1 -> 2"), "{report}");
        // Re-running is a no-op, not corruption.
        let replay = run_to_string(&["route", "rebalance", &ring1, &ring2]).unwrap();
        assert!(replay.contains("0 moved"), "{replay}");
        // Every name still lives somewhere exactly once.
        let held: usize = [n1.addr(), n2.addr(), n3.addr()]
            .iter()
            .map(|a| {
                let listing = run_to_string(&["client", &a.to_string(), "list"]).unwrap();
                listing.lines().filter(|l| !l.ends_with("sketches")).count()
            })
            .sum();
        assert_eq!(held, 4, "rebalance lost or duplicated a sketch");

        // Routed SHUTDOWN stops the router, never the shards.
        run_to_string(&["client", &addr, "shutdown"]).unwrap();
        router.join().unwrap();
        assert!(!n1.is_finished() && !n2.is_finished(), "shutdown must not reach the shards");

        // Typed usage errors for the new surface.
        assert_eq!(run_to_string(&["route", "frob"]).unwrap_err().code, 2);
        assert_eq!(run_to_string(&["route", "owner", &ring1]).unwrap_err().code, 2);
        assert!(run_to_string(&["route", "serve", &dir.path("nope.txt")])
            .unwrap_err()
            .message
            .contains("cannot read"));

        for node in [n1, n2, n3] {
            node.shutdown();
            node.join();
        }
    }

    #[test]
    fn client_batch_ingests_lines_server_side() {
        let dir = TempDir::new("batch");
        // Local reference: `sketch` over the data file.
        let local = build(&dir, "ref", 0, 5_000);
        let data = dir.path("ref.txt");
        let sdir = dir.path("servedb");

        let handle = hmh_serve::serve(
            &sdir,
            "127.0.0.1:0",
            hmh_serve::ServeOptions {
                front: hmh_serve::FrontOptions { workers: 2, ..Default::default() },
                ..hmh_serve::ServeOptions::default()
            },
        )
        .unwrap();
        let addr = handle.addr().to_string();

        // Server-side ingest of the same lines with the same parameters
        // must produce the identical sketch, byte for byte.
        let msg = run_to_string(&[
            "client", &addr, "batch", "ev", &data, "-p", "11", "-q", "6", "-r", "10",
        ])
        .unwrap();
        assert!(msg.contains("5000 items"), "{msg}");
        let fetched = dir.path("fetched.hmh");
        run_to_string(&["client", &addr, "get", "ev", &fetched]).unwrap();
        assert_eq!(
            std::fs::read(&fetched).unwrap(),
            std::fs::read(&local).unwrap(),
            "server-side batch ingest must equal a local sequential build"
        );

        // A second batch with conflicting parameters is refused.
        let err = run_to_string(&["client", &addr, "batch", "ev", &data, "-p", "8"]).unwrap_err();
        assert!(err.message.contains("batch"), "{err:?}");

        run_to_string(&["client", &addr, "shutdown"]).unwrap();
        handle.join();
    }

    #[test]
    fn failed_save_never_corrupts_existing_sketch() {
        use hmh_store::{atomic_write, FaultPlan, FaultyIo, FileBackend};

        let dir = TempDir::new("atomic-save");
        let a = build(&dir, "a", 0, 2_000);
        let b = build(&dir, "b", 0, 3_000);
        let before = std::fs::read(&a).unwrap();
        let replacement = std::fs::read(&b).unwrap();
        assert_ne!(before, replacement);

        // Drive the exact write path `save` uses through a fault-injecting
        // backend. Whatever faults fire — short writes included — the
        // target file must hold either the old bytes or the new bytes,
        // complete and decodable, never a torn mixture.
        for seed in 0..60u64 {
            let mut io = FaultyIo::new(FileBackend, FaultPlan::new(seed, 200));
            let result = atomic_write(&mut io, Path::new(&a), &replacement);
            let now = std::fs::read(&a).unwrap();
            if result.is_ok() {
                assert_eq!(now, replacement, "seed {seed}");
            } else {
                assert!(now == before || now == replacement, "seed {seed}: torn file");
            }
            assert!(decode(&now).is_ok(), "seed {seed}: file must stay decodable");
            std::fs::write(&a, &before).unwrap();
        }
    }

    #[test]
    fn corrupt_file_reports_format_error() {
        let dir = TempDir::new("corrupt");
        let path = dir.path("bad.hmh");
        std::fs::write(&path, b"not a sketch at all").unwrap();
        let err = run_to_string(&["card", &path]).unwrap_err();
        assert!(err.message.contains("magic") || err.message.contains("truncated"), "{err:?}");
    }
}
