//! Typed read- and write-set containers shared by the top-level and
//! sub-transaction paths.
//!
//! Both paths log the same facts — "I observed write `token` of cell X" and
//! "I intend to install `value` over cell X" — but with different shapes:
//! a top-level transaction keys its read-set by cell (first read wins, later
//! reads of the same cell add no information at snapshot isolation), while a
//! sub-transaction keeps an append-only log (the same cell can be re-read in
//! a later epoch, after more submit points, with a different validation
//! cutoff). The write-set is keyed in both cases; overwriting keeps the
//! original [`WriteToken`] so the write retains one identity for the whole
//! transaction.

use std::sync::Arc;

use rtf_txbase::{new_write_token, FxHashMap, WriteToken};

use crate::cell::{CellId, VBoxCell};
use crate::value::Val;

/// Where a resolved read was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The permanent (committed) version list, at the policy's snapshot.
    Permanent,
    /// A local buffer consulted between the tentative walk and the
    /// permanent list: the top-level write-set, or the tree's root
    /// write-set in sequential-fallback mode.
    Local,
    /// A tentative entry of another sub-transaction made visible by the
    /// policy (committed-and-propagated descendant, ordered predecessor, or
    /// an adopted child write).
    Tentative,
    /// The reader's own tentative write — exempt from validation: it cannot
    /// be invalidated by anyone else and is re-confirmed by the reader's own
    /// commit.
    OwnWrite,
}

/// One observed read: which cell, which write identity was seen, where it
/// came from, and (for sub-transactions) the reader's epoch — its
/// `fork_count` at the time of the read, which determines the serialization
/// position the read must be validated at.
pub struct ReadRecord {
    /// The cell that was read.
    pub cell: Arc<VBoxCell>,
    /// Identity of the write that was observed.
    pub token: WriteToken,
    /// Where the read was served from.
    pub source: Source,
    /// Reader's submit-point count at the read (0 for top-level reads).
    pub epoch: u32,
}

/// Keyed read-set for top-level transactions: first read of a cell wins,
/// because under snapshot isolation every later read of the same cell within
/// the transaction observes the same write.
#[derive(Default)]
pub struct ReadSet {
    map: FxHashMap<CellId, ReadRecord>,
}

impl ReadSet {
    /// An empty read-set.
    pub fn new() -> ReadSet {
        ReadSet::default()
    }

    /// An empty read-set with room for `n` distinct cells.
    pub fn with_capacity(n: usize) -> ReadSet {
        ReadSet { map: FxHashMap::with_capacity_and_hasher(n, Default::default()) }
    }

    /// Records a read unless the cell was already observed.
    pub fn record(&mut self, record: ReadRecord) {
        self.map.entry(record.cell.id()).or_insert(record);
    }

    /// Whether `id` has been observed.
    pub fn contains(&self, id: CellId) -> bool {
        self.map.contains_key(&id)
    }

    /// Iterates the recorded reads (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &ReadRecord> {
        self.map.values()
    }

    /// Number of distinct cells observed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no read was recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Append-only read log for sub-transaction frames: duplicates are kept
/// because the same cell re-read in a later epoch validates at a different
/// serialization position.
#[derive(Default)]
pub struct ReadLog {
    records: Vec<ReadRecord>,
}

impl ReadLog {
    /// An empty log.
    pub fn new() -> ReadLog {
        ReadLog::default()
    }

    /// Appends one read.
    pub fn push(&mut self, record: ReadRecord) {
        self.records.push(record);
    }

    /// Iterates the log in recording order.
    pub fn iter(&self) -> impl Iterator<Item = &ReadRecord> {
        self.records.iter()
    }

    /// Number of recorded reads (including duplicates).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Moves every record out, leaving the log empty.
    pub fn drain(&mut self) -> impl Iterator<Item = ReadRecord> + '_ {
        self.records.drain(..)
    }
}

/// One buffered write: the cell, the new value, and the stable identity the
/// write will commit under.
pub struct WriteEntry {
    /// The written cell.
    pub cell: Arc<VBoxCell>,
    /// The buffered value.
    pub value: Val,
    /// Identity the write keeps across overwrites and into the permanent
    /// version list.
    pub token: WriteToken,
}

/// Keyed write-set (top-level transactions and the tree root write-set of
/// the sequential fallback). Overwrites replace the value but keep the
/// original token.
#[derive(Default)]
pub struct WriteSet {
    map: FxHashMap<CellId, WriteEntry>,
}

impl WriteSet {
    /// An empty write-set.
    pub fn new() -> WriteSet {
        WriteSet::default()
    }

    /// Buffers `value` for `cell`, minting a fresh token on the first write
    /// and keeping the existing one on overwrite.
    pub fn put(&mut self, cell: &Arc<VBoxCell>, value: Val) {
        match self.map.get_mut(&cell.id()) {
            Some(e) => e.value = value,
            None => {
                self.map.insert(
                    cell.id(),
                    WriteEntry { cell: Arc::clone(cell), value, token: new_write_token() },
                );
            }
        }
    }

    /// Inserts a fully-formed entry (explicit token), replacing any buffered
    /// write of the same cell — used when consolidating tentative writes
    /// that already own a token.
    pub fn insert(&mut self, entry: WriteEntry) {
        self.map.insert(entry.cell.id(), entry);
    }

    /// The buffered value and token for `id`, if any.
    pub fn get(&self, id: CellId) -> Option<(Val, WriteToken)> {
        self.map.get(&id).map(|e| (e.value.clone(), e.token))
    }

    /// The token of the buffered write for `id`, if any (no value clone).
    pub fn token(&self, id: CellId) -> Option<WriteToken> {
        self.map.get(&id).map(|e| e.token)
    }

    /// Whether `id` has a buffered write.
    pub fn contains(&self, id: CellId) -> bool {
        self.map.contains_key(&id)
    }

    /// Iterates the buffered writes (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &WriteEntry> {
        self.map.values()
    }

    /// Number of distinct cells written.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no write is buffered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Moves the entries out as a vector, leaving the set empty.
    pub fn into_writes(self) -> Vec<WriteEntry> {
        self.map.into_values().collect()
    }

    /// Drains the entries, leaving the set empty but reusable.
    pub fn drain(&mut self) -> impl Iterator<Item = WriteEntry> + '_ {
        self.map.drain().map(|(_, e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{downcast, erase};

    fn cell(v: u32) -> Arc<VBoxCell> {
        VBoxCell::new(erase(v))
    }

    #[test]
    fn read_set_first_read_wins() {
        let c = cell(1);
        let mut rs = ReadSet::new();
        let t1 = new_write_token();
        let t2 = new_write_token();
        rs.record(ReadRecord {
            cell: Arc::clone(&c),
            token: t1,
            source: Source::Permanent,
            epoch: 0,
        });
        rs.record(ReadRecord {
            cell: Arc::clone(&c),
            token: t2,
            source: Source::Permanent,
            epoch: 0,
        });
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.iter().next().unwrap().token, t1);
        assert!(rs.contains(c.id()));
    }

    #[test]
    fn read_log_keeps_duplicates_in_order() {
        let c = cell(1);
        let mut log = ReadLog::new();
        for epoch in 0..3 {
            log.push(ReadRecord {
                cell: Arc::clone(&c),
                token: new_write_token(),
                source: Source::Tentative,
                epoch,
            });
        }
        assert_eq!(log.len(), 3);
        let epochs: Vec<u32> = log.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, [0, 1, 2]);
    }

    #[test]
    fn write_set_overwrite_keeps_token() {
        let c = cell(0);
        let mut ws = WriteSet::new();
        ws.put(&c, erase(1u32));
        let (_, tok1) = ws.get(c.id()).unwrap();
        ws.put(&c, erase(2u32));
        let (v, tok2) = ws.get(c.id()).unwrap();
        assert_eq!(tok1, tok2, "overwrite must keep the write's identity");
        assert_eq!(*downcast::<u32>(v), 2);
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn write_set_insert_replaces_with_explicit_token() {
        let c = cell(0);
        let mut ws = WriteSet::new();
        ws.put(&c, erase(1u32));
        let tok = new_write_token();
        ws.insert(WriteEntry { cell: Arc::clone(&c), value: erase(9u32), token: tok });
        let (v, got) = ws.get(c.id()).unwrap();
        assert_eq!(got, tok);
        assert_eq!(*downcast::<u32>(v), 9);
        let writes = ws.into_writes();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].token, tok);
    }
}
