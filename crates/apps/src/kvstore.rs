//! A rollback-protected sealed key-value store enclave.
//!
//! The canonical persistent-state discipline from the paper's §II-A4/§I:
//! on every update the enclave increments a monotonic counter and seals
//! the new counter value together with the store; on load it accepts the
//! store only if the embedded version matches the counter. Built on the
//! *migratable* primitives, the whole store survives machine migration —
//! and the attack test-suite uses it as the victim workload for the §III
//! fork and roll-back attacks.
//!
//! **Incremental staging.** The store's snapshot (version first, then
//! the entries in key order) is staged with the Migration Library as
//! its bulk container: the library seals it in
//! [`SEGMENT_LEN`]-byte segments under the MSK behind a sealed index
//! (`mig_core::library::bulk`). A write hands the library only the
//! segments it changed, found from the written keys' byte offsets in the
//! snapshot: segment 0 holds the version and is always resealed; a
//! same-length overwrite changes just the segments its entries span; a
//! write that inserts an entry or changes one's length changes the tail
//! from that entry on. A 64-byte PUT to a multi-megabyte store thus
//! seals a few KiB, and the staged bytes stay mostly identical across
//! updates, which lets the ME's dirty-page delta ship a repeat migration
//! as a few pages.
//!
//! **Loading.** [`ops::LOAD`] takes a staged container, such as the one
//! a migration delivered (`Datacenter::app_bulk_state`). The library
//! checks the index and every segment, so a segment spliced in from an
//! older container is refused; replaying a whole older container is the
//! classic rollback, refused by the version-vs-counter check.

use mig_core::harness::{AppCtx, AppLogic};
pub use mig_core::library::bulk::SEGMENT_LEN;
use sgx_sim::wire::{WireReader, WireWriter};
use sgx_sim::SgxError;
use std::collections::BTreeMap;
use std::ops::Bound::{Excluded, Included, Unbounded};
use std::ops::Range;

/// ECALL opcodes of the KV store enclave.
pub mod ops {
    /// Create the version counter (once per enclave lifetime).
    pub const INIT: u32 = 1;
    /// Put a key/value pair; returns the new version and the root of the
    /// staged container.
    pub const PUT: u32 = 2;
    /// Get a value by key.
    pub const GET: u32 = 3;
    /// Load a staged container (rollback-checked).
    pub const LOAD: u32 = 4;
    /// Read the current version (effective counter value).
    pub const VERSION: u32 = 5;
    /// Number of entries.
    pub const LEN: u32 = 6;
    /// Bulk-load deterministic entries (count, value size, fill seed):
    /// one counter bump, one staging — the multi-megabyte-state
    /// generator for the streaming-migration path.
    pub const BULK_PUT: u32 = 7;
}

/// Snapshot bytes before the first entry: counter id, version, count.
const HEADER_LEN: usize = 1 + 4 + 4;

/// A parsed snapshot: version-counter id, version, entries.
type Snapshot = (u8, u32, BTreeMap<Vec<u8>, Vec<u8>>);

/// The keys a write touched, and whether it inserted an entry or
/// changed one's length (which moves every later entry).
struct Touched {
    lo: Vec<u8>,
    hi: Vec<u8>,
    resized: bool,
}

/// The in-enclave state of the KV store.
#[derive(Default)]
pub struct KvStore {
    entries: BTreeMap<Vec<u8>, Vec<u8>>,
    version_counter: Option<u8>,
    /// Length of the snapshot the library's staged container holds, once
    /// this store staged or loaded it; until then a write restages every
    /// segment.
    staged_len: Option<usize>,
}

impl KvStore {
    /// Creates an empty store (version counter created by [`ops::INIT`]).
    #[must_use]
    pub fn new() -> Self {
        KvStore::default()
    }

    fn counter(&self) -> Result<u8, SgxError> {
        self.version_counter
            .ok_or_else(|| SgxError::Enclave("kv store not initialized".into()))
    }

    fn snapshot_bytes(&self, version: u32) -> Vec<u8> {
        let body: usize = self.entries.iter().map(entry_len).sum();
        let mut w = WireWriter::with_capacity(HEADER_LEN + body);
        w.u8(self.version_counter.unwrap_or(0));
        w.u32(version);
        w.u32(self.entries.len() as u32);
        for (key, value) in &self.entries {
            w.bytes(key);
            w.bytes(value);
        }
        w.finish()
    }

    fn parse_snapshot(bytes: &[u8]) -> Result<Snapshot, SgxError> {
        let mut r = WireReader::new(bytes);
        let counter_id = r.u8()?;
        let version = r.u32()?;
        let n = r.u32()? as usize;
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let key = r.bytes_vec()?;
            let value = r.bytes_vec()?;
            entries.insert(key, value);
        }
        r.finish()?;
        Ok((counter_id, version, entries))
    }

    /// Byte span, in the snapshot, of the entries with keys in
    /// `lo..=hi`.
    fn entry_span(&self, lo: &[u8], hi: &[u8]) -> Range<usize> {
        let before: usize = self
            .entries
            .range::<[u8], _>((Unbounded, Excluded(lo)))
            .map(entry_len)
            .sum();
        let within: usize = self
            .entries
            .range::<[u8], _>((Included(lo), Included(hi)))
            .map(entry_len)
            .sum();
        HEADER_LEN + before..HEADER_LEN + before + within
    }

    /// Serializes the store at `version` and stages it with the library,
    /// handing over only the segments the write to `touched` changed
    /// (every segment when the staged container is not this store's
    /// previous snapshot). Returns the container root.
    fn stage(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        version: u32,
        touched: Option<Touched>,
    ) -> Result<[u8; 32], SgxError> {
        let snapshot = self.snapshot_bytes(version);
        let count = snapshot.len().div_ceil(SEGMENT_LEN);
        let dirty = match (self.staged_len, touched) {
            (Some(len), Some(t)) if t.resized || len == snapshot.len() => {
                let span = self.entry_span(&t.lo, &t.hi);
                let end = if t.resized {
                    count
                } else {
                    span.end.div_ceil(SEGMENT_LEN)
                };
                span.start / SEGMENT_LEN..end
            }
            (Some(len), None) if len == snapshot.len() => 0..0,
            _ => 0..count,
        };
        let changed: Vec<(usize, &[u8])> = std::iter::once(0)
            .chain(dirty.filter(|&i| i != 0))
            .filter_map(|i| {
                let end = snapshot.len().min((i + 1) * SEGMENT_LEN);
                snapshot.get(i * SEGMENT_LEN..end).map(|seg| (i, seg))
            })
            .collect();
        let root = ctx.lib.stage_bulk_segments(ctx.env, count, &changed)?;
        self.staged_len = Some(snapshot.len());
        Ok(root)
    }
}

/// Serialized length of one entry (two length-prefixed fields).
fn entry_len((key, value): (&Vec<u8>, &Vec<u8>)) -> usize {
    8 + key.len() + value.len()
}

impl AppLogic for KvStore {
    fn handle(
        &mut self,
        ctx: &mut AppCtx<'_, '_>,
        opcode: u32,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            ops::INIT => {
                let (id, value) = ctx.lib.create_migratable_counter(ctx.env)?;
                self.version_counter = Some(id);
                let mut w = WireWriter::new();
                w.u8(id).u32(value);
                Ok(w.finish())
            }
            ops::PUT => {
                let counter = self.counter()?;
                let mut r = WireReader::new(input);
                let key = r.bytes_vec()?;
                let value = r.bytes_vec()?;
                r.finish()?;
                let resized = self
                    .entries
                    .get(&key)
                    .is_none_or(|old| old.len() != value.len());
                self.entries.insert(key.clone(), value);
                // Version discipline: bump the counter, seal the new
                // version with the store (paper §II-A4).
                let version = ctx.lib.increment_migratable_counter(ctx.env, counter)?;
                let touched = Touched {
                    lo: key.clone(),
                    hi: key,
                    resized,
                };
                let root = self.stage(ctx, version, Some(touched))?;
                let mut w = WireWriter::new();
                w.u32(version).bytes(&root);
                Ok(w.finish())
            }
            ops::BULK_PUT => {
                let counter = self.counter()?;
                let mut r = WireReader::new(input);
                let count = r.u32()?;
                let value_len = r.u32()? as usize;
                let fill = r.u8()?;
                r.finish()?;
                let mut touched: Option<Touched> = None;
                for i in 0..count {
                    let key = format!("bulk-{i:08}").into_bytes();
                    let value: Vec<u8> = (0..value_len)
                        .map(|j| fill.wrapping_add((i as usize + j) as u8))
                        .collect();
                    let resized = self
                        .entries
                        .insert(key.clone(), value)
                        .is_none_or(|old| old.len() != value_len);
                    touched = Some(match touched {
                        None => Touched {
                            lo: key.clone(),
                            hi: key,
                            resized,
                        },
                        Some(t) => Touched {
                            lo: t.lo.min(key.clone()),
                            hi: t.hi.max(key),
                            resized: t.resized || resized,
                        },
                    });
                }
                // One version bump and one staging for the whole batch.
                let version = ctx.lib.increment_migratable_counter(ctx.env, counter)?;
                self.stage(ctx, version, touched)?;
                let staged = ctx.lib.bulk_state().map_or(0, <[u8]>::len);
                let mut w = WireWriter::new();
                w.u32(version).u64(staged as u64);
                Ok(w.finish())
            }
            ops::GET => self
                .entries
                .get(input)
                .cloned()
                .ok_or_else(|| SgxError::Enclave("key not found".into())),
            ops::LOAD => {
                let opened = ctx.lib.open_bulk(input)?;
                let (counter_id, version, entries) = Self::parse_snapshot(opened.plaintext())?;
                let current = ctx.lib.read_migratable_counter(ctx.env, counter_id)?;
                if version != current {
                    return Err(SgxError::Enclave(format!(
                        "rollback detected: snapshot version {version} != counter {current}"
                    )));
                }
                let staged_len = opened.plaintext().len();
                // Re-loading the container that is already staged (the
                // one that just migrated in) stages nothing, so the next
                // outgoing delta is computed against unchanged bytes.
                ctx.lib.adopt_bulk(ctx.env, opened)?;
                self.version_counter = Some(counter_id);
                self.entries = entries;
                self.staged_len = Some(staged_len);
                Ok(vec![])
            }
            ops::VERSION => {
                let counter = self.counter()?;
                let value = ctx.lib.read_migratable_counter(ctx.env, counter)?;
                Ok(value.to_le_bytes().to_vec())
            }
            ops::LEN => Ok((self.entries.len() as u32).to_le_bytes().to_vec()),
            _ => Err(SgxError::InvalidParameter("opcode")),
        }
    }

    fn export_state(&self) -> Vec<u8> {
        self.snapshot_bytes(0)
    }

    fn import_state(&mut self, bytes: &[u8]) -> Result<(), SgxError> {
        let (counter_id, _version, entries) = Self::parse_snapshot(bytes)?;
        self.version_counter = Some(counter_id);
        self.entries = entries;
        Ok(())
    }
}

/// Encodes a PUT request.
#[must_use]
pub fn encode_put(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.bytes(key).bytes(value);
    w.finish()
}

/// Decodes a PUT response into `(version, root of the staged container)`.
///
/// # Errors
///
/// [`SgxError::Decode`] on malformed input.
pub fn decode_put_response(bytes: &[u8]) -> Result<(u32, Vec<u8>), SgxError> {
    let mut r = WireReader::new(bytes);
    let version = r.u32()?;
    let root = r.bytes_vec()?;
    r.finish()?;
    Ok((version, root))
}

/// Encodes a BULK_PUT request: `count` entries of `value_len` bytes
/// generated deterministically from `fill`.
#[must_use]
pub fn encode_bulk_put(count: u32, value_len: u32, fill: u8) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u32(count).u32(value_len).u8(fill);
    w.finish()
}

/// Decodes a BULK_PUT response into `(version, staged container length)`.
///
/// # Errors
///
/// [`SgxError::Decode`] on malformed input.
pub fn decode_bulk_put_response(bytes: &[u8]) -> Result<(u32, u64), SgxError> {
    let mut r = WireReader::new(bytes);
    let version = r.u32()?;
    let len = r.u64()?;
    r.finish()?;
    Ok((version, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trip() {
        let mut store = KvStore::new();
        store.version_counter = Some(3);
        store.entries.insert(b"a".to_vec(), b"1".to_vec());
        store.entries.insert(b"b".to_vec(), b"2".to_vec());
        let bytes = store.snapshot_bytes(9);
        let (id, version, entries) = KvStore::parse_snapshot(&bytes).unwrap();
        assert_eq!(id, 3);
        assert_eq!(version, 9);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[b"a".as_slice()], b"1");
    }

    #[test]
    fn put_request_encoding() {
        let req = encode_put(b"key", b"value");
        let mut r = WireReader::new(&req);
        assert_eq!(r.bytes().unwrap(), b"key");
        assert_eq!(r.bytes().unwrap(), b"value");
        r.finish().unwrap();
    }

    #[test]
    fn entry_span_matches_serialized_offsets() {
        let mut store = KvStore::new();
        for (k, v) in [("a", "1"), ("bb", "22"), ("c", "333"), ("d", "4")] {
            store.entries.insert(k.into(), v.into());
        }
        let bytes = store.snapshot_bytes(7);
        let span = store.entry_span(b"bb", b"c");
        let mut expected = WireWriter::new();
        expected.bytes(b"bb").bytes(b"22").bytes(b"c").bytes(b"333");
        assert_eq!(bytes[span], expected.finish()[..]);
        let first = store.entry_span(b"a", b"a");
        assert_eq!(first.start, HEADER_LEN);
    }

    #[test]
    fn malformed_snapshot_rejected() {
        assert!(KvStore::parse_snapshot(&[1, 2, 3]).is_err());
    }
}
