//! The write-ahead log: an append-only file of checksummed records.
//!
//! On-disk layout, repeated until end of file:
//!
//! ```text
//! ┌─────────┬─────────┬─────────┬───────────────┐
//! │ len u32 │ crc u32 │ lsn u64 │ payload bytes │
//! └─────────┴─────────┴─────────┴───────────────┘
//!            crc covers ──────────────────────▶
//! ```
//!
//! `len` counts the body (`lsn` + payload, so `len ≥ 8`); the CRC-32
//! covers the body, so a flipped bit anywhere — length, sequence number
//! or payload — fails verification. [`Wal::open`] scans the file and
//! **truncates at the first invalid record**: a torn tail from a crash
//! mid-`write` disappears, and everything before it is intact. LSNs
//! must be strictly increasing; a non-monotonic record is treated as
//! corruption like any other.
//!
//! Durability is two-layered: every [`Wal::append_deferred`] issues the
//! `write(2)` immediately (so the record survives a *process* crash in
//! either mode — the page cache belongs to the kernel, not the process),
//! while [`FsyncMode`] only controls whether the caller's
//! [`Wal::sync`] pushes it to stable storage for *power-loss*
//! durability.

use crate::crc::crc32;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Upper bound on one record's body; matches the transport's frame cap
/// so anything the daemon can receive can be logged.
pub const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// Whether `fsync` runs at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncMode {
    /// `fsync` at batch points (the group commit's [`Wal::sync`],
    /// snapshots, clean shutdown), so a record acked after its batch's
    /// sync survives power loss. Process crashes lose nothing; power
    /// loss can lose the un-synced suffix — which recovery then
    /// truncates.
    Batch,
    /// Never `fsync` (benchmarks and tests on tmpfs).
    Never,
}

impl FsyncMode {
    /// Parse a `--fsync` flag value.
    pub fn parse(s: &str) -> Result<FsyncMode, String> {
        match s {
            "batch" => Ok(FsyncMode::Batch),
            "never" => Ok(FsyncMode::Never),
            other => Err(format!("fsync mode `{other}` is not batch|never")),
        }
    }
}

/// One recovered record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalEntry {
    /// Log sequence number (strictly increasing, 1-based).
    pub lsn: u64,
    /// The record payload as appended.
    pub payload: Vec<u8>,
}

/// One record as it lies in the file: header, then body.
fn record(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let len = (8 + payload.len()) as u32;
    let mut rec = Vec::with_capacity(16 + payload.len());
    rec.extend_from_slice(&len.to_be_bytes());
    rec.extend_from_slice(&[0; 4]); // crc placeholder
    rec.extend_from_slice(&lsn.to_be_bytes());
    rec.extend_from_slice(payload);
    let crc = crc32(&rec[8..]);
    rec[4..8].copy_from_slice(&crc.to_be_bytes());
    rec
}

/// Validate a log image record by record, without touching a file:
/// the valid records and the length of the prefix they fill. The scan
/// stops at the first invalid record; when that is one no append wrote
/// — a length outside `8..=MAX_RECORD_BYTES`, or a checksummed but
/// non-increasing LSN — rather than a torn tail, it also says why.
fn scan(raw: &[u8]) -> (Vec<WalEntry>, usize, Option<String>) {
    let mut entries: Vec<WalEntry> = Vec::new();
    let mut pos = 0usize;
    while raw.len() - pos >= 8 {
        let len = u32::from_be_bytes(raw[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_be_bytes(raw[pos + 4..pos + 8].try_into().unwrap());
        if len < 8 || len > MAX_RECORD_BYTES {
            // Checked *before* `len` feeds any slice arithmetic, so a
            // record claiming near-`u32::MAX` bytes never sizes an
            // allocation.
            let why = format!(
                "record at byte {pos} claims a {len}-byte body \
                 (valid range is 8..={MAX_RECORD_BYTES})"
            );
            return (entries, pos, Some(why));
        }
        if raw.len() - pos - 8 < len {
            break; // torn tail (crash mid-write)
        }
        let body = &raw[pos + 8..pos + 8 + len];
        if crc32(body) != crc {
            break; // bit flip (anywhere in the body) or torn write
        }
        let lsn = u64::from_be_bytes(body[..8].try_into().unwrap());
        let last = entries.last().map_or(0, |e| e.lsn);
        if lsn <= last {
            let why = format!("record at byte {pos} has non-monotonic lsn {lsn} (after {last})");
            return (entries, pos, Some(why));
        }
        entries.push(WalEntry { lsn, payload: body[8..].to_vec() });
        pos += 8 + len;
    }
    (entries, pos, None)
}

/// An open write-ahead log positioned for appends.
pub struct Wal {
    file: File,
    next_lsn: u64,
    mode: FsyncMode,
    dirty: bool,
}

impl Wal {
    /// Open (creating if absent) the log at `path`, validate every
    /// record (`scan`), truncate the file at the first invalid one —
    /// saying why, unless it is a torn tail — and return
    /// the log plus the surviving entries. `min_next_lsn` lower-bounds
    /// the next LSN handed out (pass `snapshot_lsn + 1` so compacted
    /// history is never renumbered).
    pub fn open(
        path: &Path,
        mode: FsyncMode,
        min_next_lsn: u64,
    ) -> io::Result<(Wal, Vec<WalEntry>)> {
        let mut file = OpenOptions::new().read(true).write(true).create(true).open(path)?;
        let mut raw = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut raw)?;

        let (entries, valid_end, why) = scan(&raw);
        if let Some(why) = why {
            eprintln!("wal: {}: {why}; truncating log here", path.display());
        }
        if valid_end < raw.len() {
            file.set_len(valid_end as u64)?;
        }
        file.seek(SeekFrom::End(0))?;

        let last_lsn = entries.last().map_or(0, |e| e.lsn);
        let next_lsn = (last_lsn + 1).max(min_next_lsn).max(1);
        Ok((Wal { file, next_lsn, mode, dirty: false }, entries))
    }

    /// LSN the next append will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// LSN of the most recently appended (or recovered) record; 0 when
    /// the log has never held one.
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Group-commit append: the `write(2)` happens before return, but
    /// the `fsync` is *deferred* to the caller's next [`Wal::sync`] —
    /// the event loop accumulates every record drained in one wakeup,
    /// syncs once, and only then acks, so the ack-after-fsync contract
    /// holds while the fsync cost amortizes over the batch. Under
    /// [`FsyncMode::Never`] the log is never marked dirty (sync stays a
    /// no-op). Returns the LSN.
    pub fn append_deferred(&mut self, payload: &[u8]) -> io::Result<u64> {
        assert!(payload.len() <= MAX_RECORD_BYTES - 8, "record exceeds MAX_RECORD_BYTES");
        let lsn = self.next_lsn;
        self.file.write_all(&record(lsn, payload))?;
        if self.mode != FsyncMode::Never {
            self.dirty = true;
        }
        self.next_lsn += 1;
        Ok(lsn)
    }

    /// Flush batched appends to stable storage (no-op unless dirty).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            self.file.sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Compaction: drop every record (a snapshot now covers them). LSNs
    /// keep counting from where they were.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        if self.mode != FsyncMode::Never {
            self.file.sync_data()?;
        }
        self.dirty = false;
        Ok(())
    }

    /// Bytes currently in the log file.
    pub fn size_bytes(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptiny::hostile_bytes;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("durable-wal-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn always_is_not_a_mode() {
        let err = FsyncMode::parse("always").unwrap_err();
        assert!(err.contains("batch|never"), "{err}");
        assert_eq!(FsyncMode::parse("batch"), Ok(FsyncMode::Batch));
        assert_eq!(FsyncMode::parse("never"), Ok(FsyncMode::Never));
    }

    #[test]
    fn roundtrip_and_lsn_continuity() {
        let path = tmp("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, entries) = Wal::open(&path, FsyncMode::Never, 1).unwrap();
            assert!(entries.is_empty());
            assert_eq!(wal.append_deferred(b"alpha").unwrap(), 1);
            assert_eq!(wal.append_deferred(b"").unwrap(), 2);
            assert_eq!(wal.append_deferred(&[0xAB; 300]).unwrap(), 3);
        }
        let (wal, entries) = Wal::open(&path, FsyncMode::Never, 1).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0], WalEntry { lsn: 1, payload: b"alpha".to_vec() });
        assert_eq!(entries[1].payload, Vec::<u8>::new());
        assert_eq!(entries[2].payload, vec![0xAB; 300]);
        assert_eq!(wal.next_lsn(), 4);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = tmp("torn");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open(&path, FsyncMode::Never, 1).unwrap();
            wal.append_deferred(b"kept").unwrap();
            wal.append_deferred(b"also kept").unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        let mut raw = std::fs::read(&path).unwrap();
        let good_len = raw.len();
        raw.extend_from_slice(&[0x42; 11]);
        std::fs::write(&path, &raw).unwrap();

        let (_, entries) = Wal::open(&path, FsyncMode::Never, 1).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len as u64, "tail truncated");
    }

    #[test]
    fn bit_flip_truncates_from_flipped_record() {
        let path = tmp("flip");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open(&path, FsyncMode::Never, 1).unwrap();
            for i in 0..5u8 {
                wal.append_deferred(&[i; 32]).unwrap();
            }
        }
        let mut raw = std::fs::read(&path).unwrap();
        let rec_len = raw.len() / 5;
        raw[2 * rec_len + 20] ^= 0x10; // inside record 3's payload
        std::fs::write(&path, &raw).unwrap();

        let (wal, entries) = Wal::open(&path, FsyncMode::Never, 1).unwrap();
        assert_eq!(entries.len(), 2, "records after the flip are gone, before it intact");
        assert_eq!(entries[1].payload, vec![1u8; 32]);
        // New appends continue past the lost suffix's numbering.
        assert_eq!(wal.next_lsn(), 3);
    }

    /// A record whose length field claims an absurd (but `u32`-valid)
    /// body must be rejected by the cap check — keeping the records
    /// before it and truncating the file at the lie — without ever
    /// using the claimed length to slice or allocate.
    #[test]
    fn hostile_length_field_truncates_at_the_lie() {
        let path = tmp("hostile-len");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open(&path, FsyncMode::Never, 1).unwrap();
            wal.append_deferred(b"kept").unwrap();
        }
        let good_len = std::fs::metadata(&path).unwrap().len();
        // Forge a header claiming a ~4 GiB body (crc irrelevant: the
        // length check must fire first).
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&(u32::MAX - 5).to_be_bytes());
        raw.extend_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
        raw.extend_from_slice(&[0x77; 24]);
        std::fs::write(&path, &raw).unwrap();

        let (wal, entries) = Wal::open(&path, FsyncMode::Never, 1).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].payload, b"kept".to_vec());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len, "lie truncated");
        drop(wal);

        // Same for a body length below the 8-byte lsn minimum.
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&3u32.to_be_bytes());
        raw.extend_from_slice(&[0u8; 12]);
        std::fs::write(&path, &raw).unwrap();
        let (_, entries) = Wal::open(&path, FsyncMode::Never, 1).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
    }

    #[test]
    fn min_next_lsn_respected_after_reset() {
        let path = tmp("reset");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, FsyncMode::Batch, 1).unwrap();
        for _ in 0..4 {
            wal.append_deferred(b"x").unwrap();
        }
        wal.sync().unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.size_bytes().unwrap(), 0);
        assert_eq!(wal.append_deferred(b"y").unwrap(), 5, "lsn keeps counting across compaction");
        drop(wal);
        // Reopen as recovery would: snapshot covered lsn ≤ 4.
        let (wal, entries) = Wal::open(&path, FsyncMode::Batch, 5).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].lsn, 5);
        assert_eq!(wal.next_lsn(), 6);
    }

    /// The scan under hostile input — every single-byte corruption,
    /// every truncation, forged lengths, random strings — never panics,
    /// and what it keeps is a prefix of the appended records, lying
    /// exactly in the `valid_end` bytes it claims.
    #[test]
    fn scan_of_hostile_bytes_keeps_a_prefix_of_the_valid_entries() {
        let valid: Vec<WalEntry> = (1..=4u64)
            .map(|lsn| WalEntry { lsn, payload: vec![lsn as u8; 3 * lsn as usize] })
            .collect();
        let image: Vec<u8> = valid.iter().flat_map(|e| record(e.lsn, &e.payload)).collect();
        assert_eq!(scan(&image), (valid.clone(), image.len(), None));
        let check = |raw: &[u8]| {
            let (kept, valid_end, _) = scan(raw);
            assert!(valid.starts_with(&kept), "kept records that were never appended");
            let framed: Vec<u8> = kept.iter().flat_map(|e| record(e.lsn, &e.payload)).collect();
            assert_eq!(&raw[..valid_end], framed.as_slice());
        };
        for cut in 0..image.len() {
            check(&image[..cut]);
        }
        hostile_bytes(&[image], check);
    }

    #[test]
    fn non_monotonic_lsn_treated_as_corruption() {
        let path = tmp("monotonic");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open(&path, FsyncMode::Never, 1).unwrap();
            wal.append_deferred(b"one").unwrap();
        }
        // Append a structurally valid record re-using lsn 1.
        let mut rec = Vec::new();
        let body: Vec<u8> = 1u64.to_be_bytes().iter().copied().chain(*b"dup").collect();
        rec.extend_from_slice(&(body.len() as u32).to_be_bytes());
        rec.extend_from_slice(&crate::crc::crc32(&body).to_be_bytes());
        rec.extend_from_slice(&body);
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&rec);
        std::fs::write(&path, &raw).unwrap();

        let (_, entries) = Wal::open(&path, FsyncMode::Never, 1).unwrap();
        assert_eq!(entries.len(), 1, "replayed lsn rejected");
    }
}
