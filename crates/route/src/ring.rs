//! The consistent-hash ring: sketch names → replica groups.
//!
//! Ring points are xxHash64 values of `"{group-id}/{vnode}"` under a
//! fixed seed; a name is owned by the group whose ring point is the
//! successor (with wraparound) of the name's own hash. Everything is
//! derived deterministically from the committed [`RingConfig`] — two
//! processes parsing the same config file build byte-identical rings
//! and therefore agree on every ownership decision without
//! coordination. That determinism is what makes rebalance a *local*
//! computation: old ring, new ring, diff the owners.
//!
//! Vnodes (virtual nodes) scatter each group around the ring so that
//! adding or removing one group moves only ≈1/N of the keyspace, and
//! only between the affected group and its successors — names never
//! migrate between two groups that are both present in the old and new
//! rings. The ring property suite (`tests/ring_props.rs`) pins both
//! bounds across seeds.

use std::collections::BTreeMap;
use std::fmt;
use std::net::SocketAddr;

use hmh_hash::xxhash::xxh64;

/// Seed for ring-point and name hashing. Fixed forever: changing it
/// would silently move every name to a new owner.
pub const RING_SEED: u64 = 0x484d_5231_5249_4e47; // "HMR1RING"

/// Maximum replica groups in one ring.
pub const MAX_GROUPS: usize = 64;

/// Maximum replicas in one group.
pub const MAX_GROUP_REPLICAS: usize = 8;

/// Maximum vnodes per group. Lookup is O(log(groups × vnodes)); the cap
/// keeps ring construction and serialization bounded.
pub const MAX_VNODES: u32 = 1024;

/// Default vnodes per group: enough that a 2→3 group change moves close
/// to the ideal 1/3 of names (see the property suite's tolerance).
pub const DEFAULT_VNODES: u32 = 128;

/// Maximum byte length of a group id.
pub const MAX_GROUP_ID_LEN: usize = 64;

/// One replica group: an id (stable across config changes — renaming a
/// group IS a remove-plus-add and moves its names) and the addresses of
/// its replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupConfig {
    /// Stable group identifier; hashes onto the ring.
    pub id: String,
    /// Replica addresses, tried in order by the failover client.
    pub replicas: Vec<SocketAddr>,
}

/// The committed ring configuration: what operators edit and what every
/// router derives its ring from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingConfig {
    /// Monotone configuration epoch; a router serving epoch E refuses
    /// to silently mix state with epoch E' ≠ E.
    pub epoch: u64,
    /// Vnodes per group.
    pub vnodes: u32,
    /// The replica groups.
    pub groups: Vec<GroupConfig>,
}

/// Why a ring configuration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// No groups configured.
    Empty,
    /// More than [`MAX_GROUPS`] groups.
    TooManyGroups(usize),
    /// A group id is empty, too long, or contains whitespace.
    BadGroupId(String),
    /// Two groups share an id.
    DuplicateGroup(String),
    /// A group has no replicas or more than [`MAX_GROUP_REPLICAS`].
    BadReplicaCount {
        /// The offending group.
        group: String,
        /// Its replica count.
        count: usize,
    },
    /// Vnodes outside `1..=MAX_VNODES`.
    BadVnodes(u32),
    /// The serialized form failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong there.
        detail: String,
    },
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::Empty => write!(f, "ring config has no groups"),
            RingError::TooManyGroups(n) => {
                write!(f, "{n} groups exceeds the maximum of {MAX_GROUPS}")
            }
            RingError::BadGroupId(id) => write!(
                f,
                "group id {id:?} is empty, longer than {MAX_GROUP_ID_LEN} bytes, \
                 or contains whitespace"
            ),
            RingError::DuplicateGroup(id) => write!(f, "group id {id:?} appears twice"),
            RingError::BadReplicaCount { group, count } => {
                write!(f, "group {group:?} has {count} replicas; need 1..={MAX_GROUP_REPLICAS}")
            }
            RingError::BadVnodes(v) => write!(f, "vnodes {v} outside 1..={MAX_VNODES}"),
            RingError::Parse { line, detail } => write!(f, "ring config line {line}: {detail}"),
        }
    }
}

impl std::error::Error for RingError {}

impl RingConfig {
    /// Validate structural invariants: group count and id shape, replica
    /// counts, vnode bounds, uniqueness.
    pub fn validate(&self) -> Result<(), RingError> {
        if self.groups.is_empty() {
            return Err(RingError::Empty);
        }
        if self.groups.len() > MAX_GROUPS {
            return Err(RingError::TooManyGroups(self.groups.len()));
        }
        if self.vnodes == 0 || self.vnodes > MAX_VNODES {
            return Err(RingError::BadVnodes(self.vnodes));
        }
        let mut seen = std::collections::BTreeSet::new();
        for group in &self.groups {
            if group.id.is_empty()
                || group.id.len() > MAX_GROUP_ID_LEN
                || group.id.chars().any(char::is_whitespace)
            {
                return Err(RingError::BadGroupId(group.id.clone()));
            }
            if !seen.insert(group.id.as_str()) {
                return Err(RingError::DuplicateGroup(group.id.clone()));
            }
            if group.replicas.is_empty() || group.replicas.len() > MAX_GROUP_REPLICAS {
                return Err(RingError::BadReplicaCount {
                    group: group.id.clone(),
                    count: group.replicas.len(),
                });
            }
        }
        Ok(())
    }

    /// Serialize to the committed text form:
    ///
    /// ```text
    /// hmh-ring v1
    /// epoch 3
    /// vnodes 128
    /// group east 10.0.0.7:7700,10.0.0.8:7700
    /// group west 10.0.1.7:7700
    /// ```
    ///
    /// Line-oriented so ring changes diff cleanly in review — an epoch
    /// bump plus one `group` line is the whole story of a rebalance.
    pub fn to_text(&self) -> String {
        let mut out = format!("hmh-ring v1\nepoch {}\nvnodes {}\n", self.epoch, self.vnodes);
        for group in &self.groups {
            let addrs: Vec<String> = group.replicas.iter().map(SocketAddr::to_string).collect();
            out.push_str(&format!("group {} {}\n", group.id, addrs.join(",")));
        }
        out
    }

    /// Parse the committed text form (see [`RingConfig::to_text`]).
    /// Blank lines and `#` comments are ignored; the result is
    /// validated before it is returned.
    pub fn from_text(text: &str) -> Result<Self, RingError> {
        let parse_err = |line: usize, detail: String| RingError::Parse { line, detail };
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

        let (line, header) = lines.next().ok_or_else(|| parse_err(1, "empty config".into()))?;
        if header != "hmh-ring v1" {
            return Err(parse_err(line, format!("bad header {header:?}; want \"hmh-ring v1\"")));
        }
        let mut epoch = None;
        let mut vnodes = None;
        let mut groups = Vec::new();
        for (line, l) in lines {
            let (key, rest) = l
                .split_once(' ')
                .ok_or_else(|| parse_err(line, format!("bad line {l:?}; want \"key value\"")))?;
            match key {
                "epoch" => {
                    let v = rest
                        .parse::<u64>()
                        .map_err(|e| parse_err(line, format!("bad epoch {rest:?}: {e}")))?;
                    if epoch.replace(v).is_some() {
                        return Err(parse_err(line, "duplicate epoch line".into()));
                    }
                }
                "vnodes" => {
                    let v = rest
                        .parse::<u32>()
                        .map_err(|e| parse_err(line, format!("bad vnodes {rest:?}: {e}")))?;
                    if vnodes.replace(v).is_some() {
                        return Err(parse_err(line, "duplicate vnodes line".into()));
                    }
                }
                "group" => {
                    let (id, addrs) = rest.split_once(' ').ok_or_else(|| {
                        parse_err(line, format!("bad group line {rest:?}; want \"id addr,…\""))
                    })?;
                    let replicas = addrs
                        .split(',')
                        .map(|a| {
                            a.trim().parse::<SocketAddr>().map_err(|e| {
                                parse_err(line, format!("bad replica address {a:?}: {e}"))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    groups.push(GroupConfig { id: id.to_string(), replicas });
                }
                other => return Err(parse_err(line, format!("unknown key {other:?}"))),
            }
        }
        let config = Self {
            epoch: epoch.ok_or_else(|| parse_err(0, "missing epoch line".into()))?,
            vnodes: vnodes.unwrap_or(DEFAULT_VNODES),
            groups,
        };
        config.validate()?;
        Ok(config)
    }
}

/// The built ring: a sorted map of ring points to group indexes, ready
/// for O(log n) successor lookup. Construction is pure arithmetic over
/// the config — no I/O, no randomness — so every holder of the same
/// config agrees on every answer.
#[derive(Debug, Clone)]
pub struct Ring {
    config: RingConfig,
    /// Ring point → index into `config.groups`.
    points: BTreeMap<u64, usize>,
}

impl Ring {
    /// Build the ring from a validated config.
    pub fn build(config: RingConfig) -> Result<Self, RingError> {
        config.validate()?;
        let mut points: BTreeMap<u64, usize> = BTreeMap::new();
        for (index, group) in config.groups.iter().enumerate() {
            for vnode in 0..config.vnodes {
                let key = format!("{}/{vnode}", group.id);
                let point = xxh64(key.as_bytes(), RING_SEED);
                // Collisions across 64-bit points are vanishingly rare
                // but must still be deterministic: the lexicographically
                // smaller group id wins, independent of insertion order.
                match points.get(&point) {
                    Some(&held) if config.groups[held].id <= group.id => {}
                    _ => {
                        points.insert(point, index);
                    }
                }
            }
        }
        Ok(Self { config, points })
    }

    /// The configuration this ring was built from.
    pub fn config(&self) -> &RingConfig {
        &self.config
    }

    /// The configuration epoch.
    pub fn epoch(&self) -> u64 {
        self.config.epoch
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.config.groups.len()
    }

    /// The groups, in config order.
    pub fn groups(&self) -> &[GroupConfig] {
        &self.config.groups
    }

    /// The group that owns `name`: successor-with-wraparound of the
    /// name's hash among the ring points.
    pub fn owner(&self, name: &str) -> &GroupConfig {
        let index = self.owner_index(name);
        &self.config.groups[index]
    }

    /// Index (into [`Ring::groups`]) of the group that owns `name`.
    pub fn owner_index(&self, name: &str) -> usize {
        let hash = xxh64(name.as_bytes(), RING_SEED);
        let successor = self
            .points
            .range(hash..)
            .next()
            .or_else(|| self.points.iter().next())
            .expect("invariant: a validated config has ≥ 1 group, so ≥ 1 ring point");
        *successor.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn two_groups() -> RingConfig {
        RingConfig {
            epoch: 1,
            vnodes: 64,
            groups: vec![
                GroupConfig { id: "east".into(), replicas: vec![addr(7700), addr(7701)] },
                GroupConfig { id: "west".into(), replicas: vec![addr(7710)] },
            ],
        }
    }

    #[test]
    fn text_round_trip_is_identity() {
        let config = two_groups();
        let text = config.to_text();
        assert_eq!(RingConfig::from_text(&text).unwrap(), config);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# cluster ring\nhmh-ring v1\n\nepoch 9\n# two groups\nvnodes 16\n\
                    group a 127.0.0.1:1\ngroup b 127.0.0.1:2\n";
        let config = RingConfig::from_text(text).unwrap();
        assert_eq!(config.epoch, 9);
        assert_eq!(config.vnodes, 16);
        assert_eq!(config.groups.len(), 2);
    }

    #[test]
    fn vnodes_default_when_omitted() {
        let text = "hmh-ring v1\nepoch 1\ngroup a 127.0.0.1:1\n";
        assert_eq!(RingConfig::from_text(text).unwrap().vnodes, DEFAULT_VNODES);
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let cases: &[(&str, &str)] = &[
            ("", "empty config"),
            ("hms-ring v9\nepoch 1\ngroup a 127.0.0.1:1\n", "bad header"),
            ("hmh-ring v1\ngroup a 127.0.0.1:1\n", "missing epoch"),
            ("hmh-ring v1\nepoch x\ngroup a 127.0.0.1:1\n", "bad epoch"),
            ("hmh-ring v1\nepoch 1\nepoch 2\ngroup a 127.0.0.1:1\n", "duplicate epoch"),
            ("hmh-ring v1\nepoch 1\nvnodes 0\ngroup a 127.0.0.1:1\n", "vnodes 0"),
            ("hmh-ring v1\nepoch 1\ngroup a not-an-addr\n", "bad replica address"),
            ("hmh-ring v1\nepoch 1\nshard a 127.0.0.1:1\n", "unknown key"),
            ("hmh-ring v1\nepoch 1\n", "no groups"),
            ("hmh-ring v1\nepoch 1\ngroup a 127.0.0.1:1\ngroup a 127.0.0.1:2\n", "dup group"),
        ];
        for (text, why) in cases {
            assert!(RingConfig::from_text(text).is_err(), "{why}: {text:?}");
        }
    }

    #[test]
    fn validate_rejects_structural_breakage() {
        let mut config = two_groups();
        config.groups[0].id = "has space".into();
        assert!(matches!(config.validate(), Err(RingError::BadGroupId(_))));

        let mut config = two_groups();
        config.groups[1].replicas.clear();
        assert!(matches!(config.validate(), Err(RingError::BadReplicaCount { .. })));

        let mut config = two_groups();
        config.vnodes = MAX_VNODES + 1;
        assert!(matches!(config.validate(), Err(RingError::BadVnodes(_))));
    }

    #[test]
    fn every_name_has_exactly_one_owner() {
        let ring = Ring::build(two_groups()).unwrap();
        for i in 0..1000 {
            let name = format!("sketch-{i}");
            let index = ring.owner_index(&name);
            assert!(index < ring.group_count());
            assert_eq!(ring.owner(&name).id, ring.groups()[index].id);
        }
    }

    #[test]
    fn ownership_is_reasonably_balanced() {
        let ring = Ring::build(two_groups()).unwrap();
        let mut counts = [0usize; 2];
        for i in 0..10_000 {
            counts[ring.owner_index(&format!("key-{i}"))] += 1;
        }
        for (index, &count) in counts.iter().enumerate() {
            assert!(
                (2_500..=7_500).contains(&count),
                "group {index} owns {count} of 10000 names — wildly unbalanced"
            );
        }
    }

    #[test]
    fn epoch_does_not_affect_ownership() {
        // Ownership depends only on group ids and vnodes: bumping the
        // epoch without touching membership moves nothing.
        let ring_a = Ring::build(two_groups()).unwrap();
        let mut bumped = two_groups();
        bumped.epoch = 99;
        let ring_b = Ring::build(bumped).unwrap();
        for i in 0..1000 {
            let name = format!("stable-{i}");
            assert_eq!(ring_a.owner(&name).id, ring_b.owner(&name).id);
        }
    }

    #[test]
    fn replica_addresses_do_not_affect_ownership() {
        // Replacing a failed replica must not move names.
        let ring_a = Ring::build(two_groups()).unwrap();
        let mut swapped = two_groups();
        swapped.groups[0].replicas = vec![addr(9999)];
        let ring_b = Ring::build(swapped).unwrap();
        for i in 0..1000 {
            let name = format!("pinned-{i}");
            assert_eq!(ring_a.owner(&name).id, ring_b.owner(&name).id);
        }
    }
}
