//! Durable node state for `peertrackd`: write-ahead log + snapshots.
//!
//! The daemon's contract (DESIGN.md §12) is *log events, replay
//! effects*: every inbound state mutation is appended to the WAL
//! **before** it is applied and acknowledged, and recovery replays the
//! surviving records through the identical handler code. This crate
//! owns the storage half of that contract and knows nothing about the
//! protocol — payloads are opaque bytes; `daemon::state` defines what
//! goes in them.
//!
//! A [`DataDir`] is one node's directory:
//!
//! ```text
//! data/site-3/
//! ├── snapshot.bin   # full state as of LSN S (atomic rename)
//! └── wal.log        # records with LSN > S (checksummed, torn-tail safe)
//! ```
//!
//! [`DataDir::open`] is the whole recovery story: read the snapshot
//! (loud error if corrupt), scan the WAL truncating at the first
//! invalid record, hand back `snapshot + tail`. Installing a snapshot
//! ([`DataDir::install_snapshot`]) compacts the log: after the rename
//! lands, every logged record is covered by the snapshot and the WAL
//! resets to empty. A crash *between* those two steps is benign — the
//! leftover records have LSN ≤ the snapshot's and are filtered out on
//! the next open.
//!
//! Zero dependencies (std only), like every crate in this workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod snapshot;
pub mod wal;

pub use crc::crc32;
pub use wal::{FsyncMode, Wal, WalEntry, MAX_RECORD_BYTES};

use std::io;
use std::path::{Path, PathBuf};

/// File name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// What [`DataDir::open`] recovered from disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovery {
    /// The newest valid snapshot, as `(covered_lsn, body)`.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// WAL records **after** the snapshot, in LSN order.
    pub tail: Vec<WalEntry>,
}

/// One node's open data directory: the WAL positioned for appends plus
/// the snapshot slot.
pub struct DataDir {
    dir: PathBuf,
    wal: Wal,
    mode: FsyncMode,
}

impl DataDir {
    /// Open (creating if needed) `dir` and recover its contents. The
    /// returned [`Recovery`] is everything the caller must replay to
    /// reconstruct state; the [`DataDir`] is ready for new appends.
    ///
    /// Errors are loud: an unreadable directory, a corrupt snapshot, or
    /// an un-truncatable WAL all fail the open — a node must not serve
    /// traffic on silently partial state.
    pub fn open(dir: &Path, mode: FsyncMode) -> io::Result<(DataDir, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let snapshot = snapshot::read_snapshot(dir)?;
        let snap_lsn = snapshot.as_ref().map_or(0, |(lsn, _)| *lsn);
        let (wal, entries) = Wal::open(&dir.join(WAL_FILE), mode, snap_lsn + 1)?;
        // Records at or below the snapshot LSN survive only when a crash
        // hit between snapshot rename and log reset; they are covered.
        let tail = entries.into_iter().filter(|e| e.lsn > snap_lsn).collect();
        Ok((DataDir { dir: dir.to_path_buf(), wal, mode }, Recovery { snapshot, tail }))
    }

    /// Group-commit append: write-through, fsync deferred to the next
    /// [`DataDir::sync`] (see [`Wal::append_deferred`]). Returns the
    /// record's LSN.
    pub fn append_deferred(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.wal.append_deferred(payload)
    }

    /// LSN of the most recent record (snapshot-covered or logged).
    pub fn last_lsn(&self) -> u64 {
        self.wal.last_lsn()
    }

    /// Bytes currently in the WAL file.
    pub fn wal_bytes(&self) -> io::Result<u64> {
        self.wal.size_bytes()
    }

    /// Flush batched WAL appends to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Install `body` as the snapshot of all state through the last
    /// appended record, then compact the WAL. The snapshot rename is
    /// the commit point; a crash on either side of it recovers
    /// correctly (see module docs).
    pub fn install_snapshot(&mut self, body: &[u8]) -> io::Result<()> {
        self.wal.sync()?;
        let lsn = self.wal.last_lsn();
        snapshot::write_snapshot(&self.dir, lsn, body, self.mode != FsyncMode::Never)?;
        self.wal.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptiny::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("durable-dir-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn fresh_dir_recovers_empty() {
        let dir = tmp("fresh");
        let (_, rec) = DataDir::open(&dir, FsyncMode::Never).unwrap();
        assert!(rec.snapshot.is_none() && rec.tail.is_empty());
    }

    #[test]
    fn snapshot_plus_tail_recovery() {
        let dir = tmp("snap-tail");
        {
            let (mut d, _) = DataDir::open(&dir, FsyncMode::Batch).unwrap();
            d.append_deferred(b"r1").unwrap();
            d.append_deferred(b"r2").unwrap();
            d.install_snapshot(b"state after r2").unwrap();
            d.append_deferred(b"r3").unwrap();
            d.sync().unwrap();
        }
        let (d, rec) = DataDir::open(&dir, FsyncMode::Batch).unwrap();
        assert_eq!(rec.snapshot, Some((2, b"state after r2".to_vec())));
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0], WalEntry { lsn: 3, payload: b"r3".to_vec() });
        assert_eq!(d.last_lsn(), 3);
    }

    #[test]
    fn crash_between_snapshot_and_compaction_filters_covered_records() {
        let dir = tmp("mid-compact");
        {
            let (mut d, _) = DataDir::open(&dir, FsyncMode::Never).unwrap();
            d.append_deferred(b"a").unwrap();
            d.append_deferred(b"b").unwrap();
            // Simulate the crash window: snapshot renamed in, WAL not
            // yet reset.
            snapshot::write_snapshot(&dir, d.last_lsn(), b"covers a,b", false).unwrap();
        }
        let (_, rec) = DataDir::open(&dir, FsyncMode::Never).unwrap();
        assert_eq!(rec.snapshot, Some((2, b"covers a,b".to_vec())));
        assert!(rec.tail.is_empty(), "covered records filtered, not replayed twice");
    }

    #[test]
    fn corrupt_snapshot_fails_open_loudly() {
        let dir = tmp("loud");
        {
            let (mut d, _) = DataDir::open(&dir, FsyncMode::Never).unwrap();
            d.append_deferred(b"x").unwrap();
            d.install_snapshot(b"good state").unwrap();
        }
        let snap = dir.join(snapshot::SNAPSHOT_FILE);
        let mut raw = std::fs::read(&snap).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&snap, &raw).unwrap();
        assert!(DataDir::open(&dir, FsyncMode::Never).is_err());
    }

    // Group-commit contract: records are appended with `append_deferred`
    // in batches, one `sync` per batch, and the batch's acks release
    // only after its sync returns. A crash therefore happens with some
    // prefix of the file fsync-guaranteed (everything up to the last
    // sync) and an arbitrary — possibly torn — tail of unsynced bytes
    // after it. Whatever the tear, reopening must recover *every* acked
    // record; the unacked in-flight batch may truncate to any prefix,
    // but never to garbage and never out of order.
    proptiny! {
        #[test]
        fn prop_group_commit_never_loses_acked_records(
            batch_sizes in prop::collection::vec(1usize..6, 1..8),
            tail_len in 0usize..6,
            cut_seed in any::<u16>(),
        ) {
            let dir = tmp(&format!("gc-{batch_sizes:?}-{tail_len}-{cut_seed}"));
            let mut all: Vec<Vec<u8>> = Vec::new();
            let mut acked = 0usize;
            let (synced_len, full_len) = {
                let (mut d, _) = DataDir::open(&dir, FsyncMode::Batch).unwrap();
                for (b, &size) in batch_sizes.iter().enumerate() {
                    for j in 0..size {
                        let payload = vec![(b * 16 + j) as u8; 5 + j];
                        d.append_deferred(&payload).unwrap();
                        all.push(payload);
                    }
                    // The group commit: one fsync for the whole batch,
                    // after which every record in it counts as acked.
                    d.sync().unwrap();
                    acked = all.len();
                }
                let synced_len = d.wal_bytes().unwrap();
                // The in-flight batch a crash interrupts before its
                // fsync: written, never synced, never acked.
                for j in 0..tail_len {
                    let payload = vec![0xC0 + j as u8; 4 + j];
                    d.append_deferred(&payload).unwrap();
                    all.push(payload);
                }
                (synced_len, d.wal_bytes().unwrap())
            };

            // Power-cut model: bytes past the last fsync may tear at
            // any point (mid-record included); bytes before it cannot.
            let cut = synced_len + (cut_seed as u64 % (full_len - synced_len + 1));
            let wal_path = dir.join(WAL_FILE);
            let f = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
            f.set_len(cut).unwrap();
            drop(f);

            let (_, rec) = DataDir::open(&dir, FsyncMode::Batch).unwrap();
            prop_assert!(
                rec.tail.len() >= acked,
                "lost an acked record: {} recovered < {} acked",
                rec.tail.len(),
                acked
            );
            prop_assert!(rec.tail.len() <= all.len());
            for (i, e) in rec.tail.iter().enumerate() {
                prop_assert_eq!(e.lsn, i as u64 + 1);
                prop_assert_eq!(&e.payload, &all[i]);
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
