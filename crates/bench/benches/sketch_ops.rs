//! Per-operation throughput of the sketches: insert, union, Jaccard,
//! cardinality — HyperMinHash vs the baselines at matched 256-byte /
//! 64-KiB budgets — plus the packed-word-vs-tuple comparison ablation
//! from Appendix A.1.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hmh_core::{HmhParams, HyperMinHash};
use hmh_hash::{HashAlgorithm, RandomOracle};
use hmh_hll::HyperLogLog;
use hmh_minhash::{BottomK, KHashMinHash, KPartitionMinHash};

fn bench_insert(c: &mut Criterion) {
    let n = 10_000u64;
    let mut group = c.benchmark_group("insert_10k");
    group.throughput(Throughput::Elements(n));

    group.bench_function("hyperminhash_fig6", |b| {
        b.iter(|| {
            let mut s = HyperMinHash::new(HmhParams::figure6());
            for i in 0..n {
                s.insert(black_box(&i));
            }
            s
        })
    });
    group.bench_function("hyperminhash_headline", |b| {
        b.iter(|| {
            let mut s = HyperMinHash::new(HmhParams::headline());
            for i in 0..n {
                s.insert(black_box(&i));
            }
            s
        })
    });
    group.bench_function("hyperminhash_splitmix_oracle", |b| {
        b.iter(|| {
            let oracle = RandomOracle::new(HashAlgorithm::SplitMix, 0);
            let mut s = HyperMinHash::with_oracle(HmhParams::figure6(), oracle);
            for i in 0..n {
                s.insert(black_box(&i));
            }
            s
        })
    });
    group.bench_function("hyperminhash_sha1_oracle", |b| {
        b.iter(|| {
            let oracle = RandomOracle::new(HashAlgorithm::Sha1, 0);
            let mut s = HyperMinHash::with_oracle(HmhParams::figure6(), oracle);
            for i in 0..n {
                s.insert(black_box(&i));
            }
            s
        })
    });
    group.bench_function("hyperloglog_p12", |b| {
        b.iter(|| {
            let mut s = HyperLogLog::new(12);
            for i in 0..n {
                s.insert(black_box(&i));
            }
            s
        })
    });
    group.bench_function("kpartition_256x8", |b| {
        b.iter(|| {
            let mut s = KPartitionMinHash::new(8, 8, RandomOracle::default());
            for i in 0..n {
                s.insert(black_box(&i));
            }
            s
        })
    });
    group.bench_function("bottomk_1024", |b| {
        b.iter(|| {
            let mut s = BottomK::new(1024, RandomOracle::default());
            for i in 0..n {
                s.insert(black_box(&i));
            }
            s
        })
    });
    group.bench_function("khash_256", |b| {
        b.iter(|| {
            let mut s = KHashMinHash::new(256, RandomOracle::default());
            for i in 0..n {
                s.insert(black_box(&i));
            }
            s
        })
    });
    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("queries");
    for params in [HmhParams::figure6(), HmhParams::headline()] {
        let a = HyperMinHash::from_items(params, 0..100_000u64);
        let b = HyperMinHash::from_items(params, 50_000..150_000u64);
        group.bench_with_input(BenchmarkId::new("union", params.to_string()), &params, |bch, _| {
            bch.iter(|| black_box(&a).union(black_box(&b)).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("jaccard_approx_corrected", params.to_string()),
            &params,
            |bch, _| bch.iter(|| black_box(&a).jaccard(black_box(&b)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("cardinality", params.to_string()),
            &params,
            |bch, _| bch.iter(|| black_box(&a).cardinality()),
        );
    }
    group.finish();
}

/// Appendix A.1 ablation: packed single-word register compare vs unpacked
/// tuple compare for the Jaccard bucket scan.
fn bench_packed_vs_tuple(c: &mut Criterion) {
    let params = HmhParams::headline();
    let a = HyperMinHash::from_items(params, 0..200_000u64);
    let b = HyperMinHash::from_items(params, 100_000..300_000u64);
    let words_a: Vec<u32> = a.words().collect();
    let words_b: Vec<u32> = b.words().collect();
    let tuples_a: Vec<(u32, u32)> =
        (0..params.num_buckets()).map(|i| a.register(i).unwrap_or((0, 0))).collect();
    let tuples_b: Vec<(u32, u32)> =
        (0..params.num_buckets()).map(|i| b.register(i).unwrap_or((0, 0))).collect();

    let mut group = c.benchmark_group("jaccard_scan");
    group.throughput(Throughput::Elements(params.num_buckets() as u64));
    group.bench_function("packed_word", |bch| {
        bch.iter(|| {
            let mut matching = 0usize;
            let mut occupied = 0usize;
            for (&wa, &wb) in words_a.iter().zip(&words_b) {
                if wa != 0 || wb != 0 {
                    occupied += 1;
                    if wa == wb {
                        matching += 1;
                    }
                }
            }
            black_box((matching, occupied))
        })
    });
    group.bench_function("tuple_compare", |bch| {
        bch.iter(|| {
            let mut matching = 0usize;
            let mut occupied = 0usize;
            for (&ta, &tb) in tuples_a.iter().zip(&tuples_b) {
                if ta != (0, 0) || tb != (0, 0) {
                    occupied += 1;
                    if ta.0 == tb.0 && ta.1 == tb.1 {
                        matching += 1;
                    }
                }
            }
            black_box((matching, occupied))
        })
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_insert, bench_queries, bench_packed_vs_tuple
);
criterion_main!(benches);
