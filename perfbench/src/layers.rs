//! The per-layer metrics of a traced run. Every traced run reports every
//! one of them; a layer a workload does not exercise reports 0.

use std::collections::BTreeMap;

use crate::plan::Kind;
use crate::report::{ratio, Metrics};
use crate::trace::{layer, Trace};

/// Layers an op's round trip splits into; `serve` is the round trip's
/// own self time, the transport.
const LAYERS: [&str; 4] = ["proto", "core", "store", "serve"];

/// Per-layer metrics, as `(name, unit)`, in report order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("hash.item_ns", "ns"),
        ("core.insert_ns", "ns"),
        ("core.decode_us", "us"),
        ("core.card_us", "us"),
        ("core.jaccard_us", "us"),
        ("core.merge_us", "us"),
        ("core.encode_us", "us"),
        ("store.append_us", "us"),
        ("store.fsync_us", "us"),
        ("store.fsyncs_per_write", "count"),
        ("store.bytes_per_write", "B"),
        ("store.scrub_records", "count"),
        ("serve.rtt_us", "us"),
        ("serve.proto_us", "us"),
        ("serve.transport_us", "us"),
        ("serve.wait_us", "us"),
        ("serve.served", "count"),
        ("serve.shed", "count"),
        ("serve.expired", "count"),
        ("route.hop_us", "us"),
        ("route.fetch_us", "us"),
        ("route.cross_shard_share", "ratio"),
        ("route.ring_lookup_ns", "ns"),
        ("trace.overhead_us", "us"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for kind in Kind::ALL {
        for metric in [
            "serve.rtt_us",
            "serve.proto_us",
            "serve.transport_us",
            "serve.wait_us",
            "core.self_us",
            "store.self_us",
        ] {
            out.push((format!("{metric}.{}", kind.name()), "us"));
        }
    }
    for kind in [Kind::Card, Kind::Merge, Kind::Jaccard] {
        out.push((format!("route.hop_us.{}", kind.name()), "us"));
    }
    out
}

/// Values by name; unset metrics report 0.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(names().iter().any(|(n, _)| *n == name), "unlisted metric {name}");
        self.0.insert(name, value);
    }

    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in names() {
            let value = self.0.get(&name).copied().unwrap_or(0.0);
            m.add(name, value, unit);
        }
        m
    }

    /// Mean self time, in µs, of the spans of each core call, and the
    /// per-item cost of hashing and of inserting beyond hashing.
    pub fn set_core(&mut self, trace: &Trace, self_ns: &[i64], items: u64) {
        let mut by_name: BTreeMap<&str, (i64, u64)> = BTreeMap::new();
        for (span, &ns) in trace.spans.iter().zip(self_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0 += ns;
            entry.1 += 1;
        }
        let mean_us =
            |name: &str| by_name.get(name).map_or(0.0, |&(ns, n)| ratio(ns as f64, n as f64) / 1e3);
        let per_item =
            |name: &str| by_name.get(name).map_or(0.0, |&(ns, _)| ratio(ns as f64, items as f64));
        self.set("hash.item_ns", per_item("hash.digest"));
        self.set("core.insert_ns", per_item("core.insert_batch"));
        self.set("core.decode_us", mean_us("core.decode"));
        self.set("core.card_us", mean_us("core.cardinality"));
        self.set("core.jaccard_us", mean_us("core.jaccard"));
        self.set("core.merge_us", mean_us("core.merge"));
        self.set("core.encode_us", mean_us("core.encode"));
    }

    /// Split every op's round trip into layer self times, per op kind
    /// (`kinds[op]`), and check that they add up to the round trip.
    pub fn set_round_trips(
        &mut self,
        trace: &Trace,
        self_ns: &[i64],
        kinds: &[Kind],
    ) -> Result<(), String> {
        let mut ops = [0u64; Kind::ALL.len()];
        let mut rtt = [0i64; Kind::ALL.len()];
        let mut layers = [[0i64; LAYERS.len()]; Kind::ALL.len()];
        for (span, &ns) in trace.spans.iter().zip(self_ns) {
            let k = kinds[span.op].index();
            let l = LAYERS
                .iter()
                .position(|&l| l == layer(span.name))
                .ok_or_else(|| format!("span {} belongs to no layer", span.name))?;
            layers[k][l] += ns;
            if span.parent.is_none() {
                ops[k] += 1;
                rtt[k] += span.ns();
            }
        }
        for kind in Kind::ALL {
            let k = kind.index();
            let total: i64 = layers[k].iter().sum();
            if total != rtt[k] {
                return Err(format!(
                    "{}: self times add to {total} ns, not {}",
                    kind.name(),
                    rtt[k]
                ));
            }
            let mean = |ns: i64| ratio(ns as f64, ops[k] as f64) / 1e3;
            let name = kind.name();
            self.set(format!("serve.rtt_us.{name}"), mean(rtt[k]));
            self.set(format!("serve.proto_us.{name}"), mean(layers[k][0]));
            self.set(format!("core.self_us.{name}"), mean(layers[k][1]));
            self.set(format!("store.self_us.{name}"), mean(layers[k][2]));
            self.set(format!("serve.transport_us.{name}"), mean(layers[k][3]));
        }
        let n: u64 = ops.iter().sum();
        let all = |l: usize| ratio(layers.iter().map(|k| k[l]).sum::<i64>() as f64, n as f64) / 1e3;
        self.set("serve.rtt_us", ratio(rtt.iter().sum::<i64>() as f64, n as f64) / 1e3);
        self.set("serve.proto_us", all(0));
        self.set("serve.transport_us", all(3));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    /// `(name, unit)` of each entry after `section` in BENCHMARK.json.
    fn listed(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{section}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            entry[at..at + entry[at..].find('"').expect("closed string")].to_string()
        };
        body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
    }

    #[test]
    fn benchmark_json_lists_every_per_layer_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<(String, String)> =
            super::names().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(listed(&json, "per_layer"), names);
    }
}
