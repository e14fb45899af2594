//! Record framing and the salvage recovery scan.
//!
//! The store's files are sequences of self-delimiting, self-checking
//! records (little-endian):
//!
//! ```text
//! offset      size  field
//! 0           4     record magic  "HMR1"
//! 4           1     record kind (1 = put, 2 = tombstone)
//! 5           2     name length N (u16 LE)
//! 7           4     payload length M (u32 LE)
//! 11          N     name (UTF-8)
//! 11+N        M     payload (an `HMH1` encoded sketch; empty for tombstones)
//! 11+N+M      8     xxHash64 of bytes [0, 11+N+M) with seed RECORD_SEED
//! ```
//!
//! The framing is designed for *salvage*: every record both announces its
//! own length and carries a checksum over everything before the checksum,
//! so a reader that loses framing (torn tail, flipped bits, garbage from
//! a partially overwritten region) can re-synchronize by scanning forward
//! for the next magic and validating the candidate record end-to-end. A
//! false-positive magic inside payload bytes is harmless: its checksum
//! fails and the scan moves on.

use hmh_hash::xxhash::xxh64;

/// Magic bytes opening every record.
pub const RECORD_MAGIC: [u8; 4] = *b"HMR1";

/// Seed of the per-record xxHash64 (distinct from the sketch format's 0).
pub const RECORD_SEED: u64 = 0x484d_5231_5345_4544; // "HMR1SEED"

/// Seed for replication digests: the per-name checksum replicas exchange
/// during anti-entropy. Deliberately distinct from [`RECORD_SEED`] so a
/// digest can never be confused with (or forged from) a log trailer.
pub const DIGEST_SEED: u64 = 0x484d_5231_4447_5354; // "HMR1DGST"

/// Fixed-size prefix before the name bytes.
pub const RECORD_HEADER: usize = 11;

/// Trailing checksum size.
pub const RECORD_TRAILER: usize = 8;

/// Maximum sketch-name length the store accepts (also bounds what the
/// salvage scan will believe from a length field).
pub const MAX_NAME_LEN: usize = 4096;

/// Maximum record payload the store accepts — the format ceiling on an
/// encoded sketch. Like [`MAX_NAME_LEN`], this caps what the salvage
/// scan will believe from a length field: a corrupt or hostile header
/// claiming a multi-gigabyte payload is rejected as corruption instead
/// of driving a matching read or allocation.
pub const MAX_PAYLOAD_LEN: usize = hmh_core::format::MAX_ENCODED_LEN;

/// What a record does to its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Bind the name to the payload.
    Put,
    /// Remove the name.
    Tombstone,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Put => 1,
            RecordKind::Tombstone => 2,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(RecordKind::Put),
            2 => Some(RecordKind::Tombstone),
            _ => None,
        }
    }
}

/// One intact record recovered from a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The sketch name the record applies to.
    pub name: String,
    /// Put or tombstone.
    pub kind: RecordKind,
    /// Encoded sketch bytes (empty for tombstones).
    pub payload: Vec<u8>,
}

/// Outcome of a salvage scan over one file (or, summed, a whole store).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact records recovered.
    pub recovered: usize,
    /// Corrupt regions skipped (each a maximal run of unparseable bytes).
    pub quarantined: usize,
    /// True when the file ends in a torn (incomplete but well-formed so
    /// far) record — the signature of a crash mid-append.
    pub truncated_tail: bool,
}

impl RecoveryReport {
    /// True when the scan saw any corruption at all.
    pub fn is_clean(&self) -> bool {
        self.quarantined == 0 && !self.truncated_tail
    }

    /// Fold another report into this one (for multi-file stores).
    pub fn absorb(&mut self, other: &RecoveryReport) {
        self.recovered += other.recovered;
        self.quarantined += other.quarantined;
        self.truncated_tail |= other.truncated_tail;
    }
}

/// Full result of salvaging one file.
#[derive(Debug, Clone, Default)]
pub struct Salvage {
    /// Intact records, in file order.
    pub records: Vec<Record>,
    /// Scan statistics.
    pub report: RecoveryReport,
    /// Byte ranges `(start, end)` of the quarantined regions.
    pub quarantined_ranges: Vec<(usize, usize)>,
    /// Per-record detail for the quarantined regions: best-effort
    /// attribution of each corrupt record (its name, where it sits, and
    /// the checksum mismatch), for fsck reporting and name-level
    /// quarantine. A region whose header is itself unreadable yields one
    /// unattributed span (`name: None`, checksums zero).
    pub corrupt_spans: Vec<CorruptSpan>,
}

/// One corrupt record (or unparseable region) located by a scan.
///
/// `name` is best-effort: it is recovered only when the record header
/// and name bytes still parse (the common single-bit-rot case). A flip
/// inside the name bytes themselves attributes the span to the wrong
/// name — the checksum cannot say *which* bytes lied — so name-level
/// consumers must treat attribution as a hint, with digest-based
/// anti-entropy as the backstop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptSpan {
    /// Byte offset of the span within its file.
    pub offset: usize,
    /// Span length in bytes.
    pub len: usize,
    /// Record name, when the header and name bytes still parse.
    pub name: Option<String>,
    /// Checksum the record trailer claims (0 when unattributed).
    pub expected: u64,
    /// Checksum the surviving bytes actually hash to (0 when unattributed).
    pub actual: u64,
}

/// Probe a corrupt region for a plausibly-framed record at `pos`: magic
/// and kind intact, lengths within caps, full record bytes present. The
/// checksum necessarily fails (that is why the region is corrupt) but
/// the mismatch pair and the name are recoverable.
fn probe_record(buf: &[u8], pos: usize, end: usize) -> Option<CorruptSpan> {
    let rest = &buf[pos..];
    if rest.len() < RECORD_HEADER || rest[..4] != RECORD_MAGIC {
        return None;
    }
    RecordKind::from_byte(rest[4])?;
    let name_len = u16::from_le_bytes([rest[5], rest[6]]) as usize;
    let payload_len = u32::from_le_bytes([rest[7], rest[8], rest[9], rest[10]]) as usize;
    if name_len > MAX_NAME_LEN || payload_len > MAX_PAYLOAD_LEN {
        return None;
    }
    let total = RECORD_HEADER + name_len + payload_len + RECORD_TRAILER;
    if rest.len() < total || pos + total > end {
        return None;
    }
    let body_end = total - RECORD_TRAILER;
    let expected = u64::from_le_bytes(
        rest[body_end..total].try_into().expect("invariant: trailer slice is 8 bytes"),
    );
    let actual = xxh64(&rest[..body_end], RECORD_SEED);
    let name = std::str::from_utf8(&rest[RECORD_HEADER..RECORD_HEADER + name_len])
        .ok()
        .map(str::to_string);
    Some(CorruptSpan { offset: pos, len: total, name, expected, actual })
}

/// Attribution cap per quarantined region: a trashed region full of
/// spurious magics must not balloon the span list.
const MAX_SPANS_PER_REGION: usize = 8;

/// Best-effort per-record detail for one quarantined region.
fn attribute_region(buf: &[u8], start: usize, end: usize) -> Vec<CorruptSpan> {
    let mut spans = Vec::new();
    let mut pos = start;
    while pos < end && spans.len() < MAX_SPANS_PER_REGION {
        match probe_record(buf, pos, end) {
            Some(span) => {
                let next = pos + span.len;
                spans.push(span);
                pos = next;
            }
            None => match find_magic(buf, pos + 1) {
                Some(hit) if hit < end => pos = hit,
                _ => break,
            },
        }
    }
    if spans.is_empty() {
        spans.push(CorruptSpan {
            offset: start,
            len: end - start,
            name: None,
            expected: 0,
            actual: 0,
        });
    }
    spans
}

/// Encode one record.
///
/// # Panics
/// If `name` exceeds [`MAX_NAME_LEN`] or `payload` exceeds `u32::MAX`
/// bytes; the store validates both before calling.
pub fn encode_record(name: &str, kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    assert!(name.len() <= MAX_NAME_LEN, "name too long");
    assert!(payload.len() <= MAX_PAYLOAD_LEN, "payload too large");
    let total = RECORD_HEADER + name.len() + payload.len() + RECORD_TRAILER;
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&RECORD_MAGIC);
    out.push(kind.to_byte());
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(payload);
    let digest = xxh64(&out, RECORD_SEED);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Why a candidate record at some offset failed to parse.
enum Reject {
    /// Bytes at the offset cannot be a record (bad magic, bad kind, bad
    /// checksum, bad name) — skip forward and re-synchronize.
    Corrupt,
    /// Bytes are a well-formed record prefix that runs past end of file —
    /// a torn tail if nothing follows.
    Incomplete,
}

/// Try to parse one record at `buf[pos..]`.
fn parse_at(buf: &[u8], pos: usize) -> Result<(Record, usize), Reject> {
    let rest = &buf[pos..];
    // Magic: a proper prefix of the magic at EOF still counts as a torn
    // record start (a crash can cut mid-magic).
    let magic_len = rest.len().min(4);
    if rest[..magic_len] != RECORD_MAGIC[..magic_len] {
        return Err(Reject::Corrupt);
    }
    if rest.len() < RECORD_HEADER {
        return Err(Reject::Incomplete);
    }
    let Some(kind) = RecordKind::from_byte(rest[4]) else {
        return Err(Reject::Corrupt);
    };
    let name_len = u16::from_le_bytes([rest[5], rest[6]]) as usize;
    let payload_len = u32::from_le_bytes([rest[7], rest[8], rest[9], rest[10]]) as usize;
    if name_len > MAX_NAME_LEN || payload_len > MAX_PAYLOAD_LEN {
        return Err(Reject::Corrupt);
    }
    let total = RECORD_HEADER + name_len + payload_len + RECORD_TRAILER;
    if rest.len() < total {
        return Err(Reject::Incomplete);
    }
    let body_end = total - RECORD_TRAILER;
    let digest = u64::from_le_bytes(
        rest[body_end..total].try_into().expect("invariant: trailer slice is 8 bytes"),
    );
    if xxh64(&rest[..body_end], RECORD_SEED) != digest {
        return Err(Reject::Corrupt);
    }
    let Ok(name) = std::str::from_utf8(&rest[RECORD_HEADER..RECORD_HEADER + name_len]) else {
        return Err(Reject::Corrupt);
    };
    let payload = rest[RECORD_HEADER + name_len..body_end].to_vec();
    Ok((Record { name: name.to_string(), kind, payload }, total))
}

/// Scan a file image, recovering every intact record and quarantining
/// everything else. Never panics, whatever the input.
pub fn salvage_scan(buf: &[u8]) -> Salvage {
    let mut out = Salvage::default();
    let mut pos = 0usize;
    while pos < buf.len() {
        match parse_at(buf, pos) {
            Ok((record, len)) => {
                out.records.push(record);
                out.report.recovered += 1;
                pos += len;
            }
            Err(reject) => {
                // Re-synchronize: find the next *valid* record. An
                // `Incomplete` here is NOT automatically a torn tail — a
                // flipped bit in a length field also makes a mid-file
                // record claim to run past EOF, with intact records
                // after it. Only an incomplete candidate with no valid
                // record anywhere behind it is a true torn tail.
                let start = pos;
                let first_incomplete = match reject {
                    Reject::Incomplete => Some(pos),
                    Reject::Corrupt => None,
                };
                let mut cursor = pos + 1;
                let mut resumed = None;
                let mut tail_torn = first_incomplete;
                while let Some(hit) = find_magic(buf, cursor) {
                    match parse_at(buf, hit) {
                        Ok(_) => {
                            resumed = Some(hit);
                            break;
                        }
                        Err(Reject::Incomplete) => {
                            tail_torn.get_or_insert(hit);
                            cursor = hit + 1;
                        }
                        Err(Reject::Corrupt) => cursor = hit + 1,
                    }
                }
                match resumed {
                    Some(hit) => {
                        out.quarantined_region(buf, start, hit);
                        pos = hit;
                    }
                    None => {
                        // Nothing valid follows. The earliest incomplete
                        // candidate marks a torn append; bytes before it
                        // (if any) are corruption.
                        match tail_torn {
                            Some(torn) => {
                                if torn > start {
                                    out.quarantined_region(buf, start, torn);
                                }
                                out.report.truncated_tail = true;
                            }
                            None => out.quarantined_region(buf, start, buf.len()),
                        }
                        break;
                    }
                }
            }
        }
    }
    out
}

impl Salvage {
    fn quarantined_region(&mut self, buf: &[u8], start: usize, end: usize) {
        self.report.quarantined += 1;
        self.quarantined_ranges.push((start, end));
        self.corrupt_spans.extend(attribute_region(buf, start, end));
    }
}

/// One step of an incremental scan over a file image — the unit the
/// online scrub verifies per paced slice. Unlike [`salvage_scan`] (which
/// walks a whole file), each call inspects exactly one record (or one
/// corrupt region) starting at `pos` and hands back where to resume, so
/// a caller can bound the work done under a lock.
#[derive(Debug, Clone)]
pub enum ScanStep {
    /// An intact record; `next` is the offset just past it.
    Record {
        /// The verified record's name.
        name: String,
        /// Put or tombstone.
        kind: RecordKind,
        /// Offset to resume scanning from.
        next: usize,
    },
    /// A corrupt region with best-effort attribution; `next` is the
    /// offset of the next *valid* record (or end of scan range).
    Corrupt {
        /// Per-record detail for the region.
        spans: Vec<CorruptSpan>,
        /// Offset to resume scanning from.
        next: usize,
    },
    /// `pos` reached the end of the scan range.
    End,
}

/// Inspect one record (or one maximal corrupt region) at `buf[pos..limit]`.
///
/// `limit` bounds what the scan believes is committed (a WAL's
/// known-good length); a record that would run past it counts as
/// corrupt, never as a torn tail — the scrub only looks at bytes that
/// were once acknowledged, so anything unreadable there is rot.
pub fn scan_step(buf: &[u8], pos: usize, limit: usize) -> ScanStep {
    let limit = limit.min(buf.len());
    if pos >= limit {
        return ScanStep::End;
    }
    let view = &buf[..limit];
    if let Ok((record, len)) = parse_at(view, pos) {
        return ScanStep::Record { name: record.name, kind: record.kind, next: pos + len };
    }
    // Corrupt (or truncated-within-limit) region: resync exactly like
    // salvage — the region ends at the next offset that parses as a
    // complete, checksum-valid record.
    let mut cursor = pos + 1;
    let mut end = limit;
    while let Some(hit) = find_magic(view, cursor) {
        if parse_at(view, hit).is_ok() {
            end = hit;
            break;
        }
        cursor = hit + 1;
    }
    ScanStep::Corrupt { spans: attribute_region(view, pos, end), next: end }
}

/// Next offset ≥ `from` where the 4 magic bytes occur (fully).
fn find_magic(buf: &[u8], from: usize) -> Option<usize> {
    if buf.len() < 4 {
        return None;
    }
    (from..=buf.len() - 4).find(|&i| buf[i..i + 4] == RECORD_MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, payload: &[u8]) -> Vec<u8> {
        encode_record(name, RecordKind::Put, payload)
    }

    #[test]
    fn encode_parse_round_trip() {
        let bytes = rec("alpha", b"payload-bytes");
        let s = salvage_scan(&bytes);
        assert!(s.report.is_clean());
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].name, "alpha");
        assert_eq!(s.records[0].payload, b"payload-bytes");
        assert_eq!(s.records[0].kind, RecordKind::Put);
    }

    #[test]
    fn tombstones_round_trip() {
        let bytes = encode_record("gone", RecordKind::Tombstone, b"");
        let s = salvage_scan(&bytes);
        assert_eq!(s.records[0].kind, RecordKind::Tombstone);
        assert!(s.records[0].payload.is_empty());
    }

    #[test]
    fn empty_file_is_clean() {
        let s = salvage_scan(&[]);
        assert!(s.report.is_clean());
        assert!(s.records.is_empty());
    }

    #[test]
    fn torn_tail_detected_at_every_cut() {
        let mut log = rec("a", &[1; 40]);
        log.extend(rec("b", &[2; 40]));
        let full = salvage_scan(&log).records.len();
        assert_eq!(full, 2);
        let first_len = rec("a", &[1; 40]).len();
        for cut in 0..log.len() {
            let s = salvage_scan(&log[..cut]);
            let expect = usize::from(cut >= first_len);
            assert_eq!(s.records.len(), expect, "cut at {cut}");
            if cut != 0 && cut != first_len {
                assert!(s.report.truncated_tail, "cut at {cut}");
            }
        }
    }

    #[test]
    fn bit_flip_quarantines_only_the_hit_record() {
        let a = rec("a", &[1; 40]);
        let b = rec("b", &[2; 40]);
        let c = rec("c", &[3; 40]);
        let mut log = a.clone();
        log.extend(&b);
        log.extend(&c);
        for bit in 0..(b.len() * 8) {
            let mut bad = log.clone();
            bad[a.len() + bit / 8] ^= 1 << (bit % 8);
            let s = salvage_scan(&bad);
            let names: Vec<&str> = s.records.iter().map(|r| r.name.as_str()).collect();
            assert!(names.contains(&"a"), "bit {bit}");
            assert!(names.contains(&"c"), "bit {bit}");
            assert!(!names.contains(&"b"), "bit {bit}: corrupt record must not survive");
            assert_eq!(s.report.quarantined, 1, "bit {bit}");
        }
    }

    #[test]
    fn garbage_between_records_is_skipped() {
        let mut log = rec("a", &[1; 20]);
        log.extend(b"############ random junk ############");
        log.extend(rec("b", &[2; 20]));
        let s = salvage_scan(&log);
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.report.quarantined, 1);
        assert_eq!(s.quarantined_ranges.len(), 1);
    }

    #[test]
    fn spurious_magic_inside_garbage_is_not_a_record() {
        let mut log = rec("a", &[1; 20]);
        let mut junk = b"junk".to_vec();
        junk.extend_from_slice(&RECORD_MAGIC);
        junk.extend(b"more junk that is not a record");
        log.extend(&junk);
        log.extend(rec("b", &[2; 20]));
        let s = salvage_scan(&log);
        let names: Vec<&str> = s.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn payload_containing_record_magic_survives() {
        // A payload that embeds the record magic must not confuse framing.
        let mut payload = vec![0u8; 10];
        payload.extend_from_slice(&RECORD_MAGIC);
        payload.extend([7u8; 10]);
        let mut log = rec("tricky", &payload);
        log.extend(rec("after", &[9; 5]));
        let s = salvage_scan(&log);
        assert!(s.report.is_clean());
        assert_eq!(s.records[0].payload, payload);
        assert_eq!(s.records[1].name, "after");
    }

    #[test]
    fn oversized_payload_length_field_rejected_not_torn() {
        // A header claiming a payload beyond the format ceiling is
        // corruption, never a torn tail: no legitimate writer can have
        // produced it, so the scan must not wait for gigabytes that will
        // never arrive (or read them as a "record" if they do).
        let mut bytes = rec("x", &[1; 8]);
        bytes[7..11].copy_from_slice(&u32::MAX.to_le_bytes());
        let s = salvage_scan(&bytes);
        assert_eq!(s.records.len(), 0);
        assert_eq!(s.report.quarantined, 1);
        assert!(!s.report.truncated_tail, "lying length is corruption, not a torn append");
    }

    #[test]
    fn adversarial_corpus_never_panics_or_overallocates() {
        // Hostile record streams: lying lengths, garbage headers,
        // truncations, magic floods. Salvage must classify every one
        // without panicking and without believing any length field it
        // cannot verify against bytes actually present.
        let good = rec("ok", &[7; 24]);
        let mut corpus: Vec<Vec<u8>> = vec![
            vec![0xff; 256],
            RECORD_MAGIC.repeat(64),
            {
                // Magic + kind, then maximal u16 name and u32 payload lengths.
                let mut b = RECORD_MAGIC.to_vec();
                b.push(1);
                b.extend_from_slice(&u16::MAX.to_le_bytes());
                b.extend_from_slice(&u32::MAX.to_le_bytes());
                b
            },
            {
                // A plausible (in-range) lying length with no body behind it,
                // mid-file: followed by a real record, it must resync.
                let mut b = RECORD_MAGIC.to_vec();
                b.push(2);
                b.extend_from_slice(&64u16.to_le_bytes());
                b.extend_from_slice(&1024u32.to_le_bytes());
                b.extend_from_slice(&good);
                b
            },
        ];
        for cut in [1, 5, 7, 11, 12] {
            corpus.push(good[..cut].to_vec());
        }
        for bytes in &corpus {
            let s = salvage_scan(bytes);
            for r in &s.records {
                assert!(r.payload.len() <= MAX_PAYLOAD_LEN);
            }
        }
        // The resync case recovers the trailing good record.
        let resync = salvage_scan(&corpus[3]);
        assert_eq!(resync.records.len(), 1);
        assert_eq!(resync.records[0].name, "ok");
    }

    #[test]
    fn oversized_name_length_field_rejected() {
        let mut bytes = rec("x", &[1; 8]);
        // Claim a name length beyond MAX_NAME_LEN; checksum also breaks,
        // but the length gate alone must prevent huge bogus reads.
        bytes[5] = 0xff;
        bytes[6] = 0xff;
        let s = salvage_scan(&bytes);
        assert_eq!(s.records.len(), 0);
        assert!(!s.report.is_clean());
    }
}
