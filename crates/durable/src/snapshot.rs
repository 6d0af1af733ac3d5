//! Atomic state snapshots.
//!
//! A snapshot is one file, `snapshot.bin`, holding the full encoded
//! node state as of a log sequence number. It is written via the
//! classic tmp-file + `fsync` + `rename` dance, so at every instant the
//! directory holds either the old complete snapshot or the new complete
//! snapshot — never a half-written one. A crash mid-write leaves a
//! `snapshot.tmp` that recovery simply ignores.
//!
//! Unlike the WAL — whose tail may legitimately be torn and is silently
//! truncated — a snapshot that fails validation is a **loud error**:
//! the rename-based protocol cannot produce one, so its presence means
//! external corruption, and loading garbage state would silently
//! fabricate history.
//!
//! Layout: `"PTSNAP01"` magic, `lsn` u64, body length u32, CRC-32 u32,
//! body bytes. The CRC covers the `lsn` and length fields as well as
//! the body, so no header bit can flip unnoticed either.

use crate::crc::crc32_concat;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"PTSNAP01";
const HEADER_BYTES: usize = 8 + 8 + 4 + 4;

/// File name of the live snapshot inside a data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
const SNAPSHOT_TMP: &str = "snapshot.tmp";

/// Write `body` as the snapshot covering every record with LSN ≤ `lsn`,
/// atomically replacing any previous snapshot. With `sync` false the
/// `fsync`s are skipped (the [`crate::FsyncMode::Never`] path).
pub fn write_snapshot(dir: &Path, lsn: u64, body: &[u8], sync: bool) -> io::Result<()> {
    let tmp = dir.join(SNAPSHOT_TMP);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&image(lsn, body))?;
        if sync {
            f.sync_all()?;
        }
    }
    fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    if sync {
        // Persist the rename itself. Directory fsync is best-effort:
        // not every filesystem supports it, and the rename is already
        // atomic with respect to process crashes.
        if let Ok(d) = File::open(dir) {
            d.sync_all().ok();
        }
    }
    Ok(())
}

/// The file bytes of the snapshot of `body` as of `lsn`.
fn image(lsn: u64, body: &[u8]) -> Vec<u8> {
    let lsn_be = lsn.to_be_bytes();
    let len_be = (body.len() as u32).to_be_bytes();
    let crc = crc32_concat(&[&lsn_be, &len_be, body]);
    let mut buf = Vec::with_capacity(HEADER_BYTES + body.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&lsn_be);
    buf.extend_from_slice(&len_be);
    buf.extend_from_slice(&crc.to_be_bytes());
    buf.extend_from_slice(body);
    buf
}

/// Check a snapshot file's header and CRC, without touching the file:
/// `(lsn, body)`, or what is wrong with it.
fn parse(raw: &[u8]) -> Result<(u64, &[u8]), &'static str> {
    if raw.len() < HEADER_BYTES {
        return Err("shorter than header");
    }
    if &raw[..8] != MAGIC {
        return Err("bad magic");
    }
    let lsn = u64::from_be_bytes(raw[8..16].try_into().unwrap());
    let len = u32::from_be_bytes(raw[16..20].try_into().unwrap()) as usize;
    let crc = u32::from_be_bytes(raw[20..24].try_into().unwrap());
    if raw.len() - HEADER_BYTES != len {
        return Err("length field disagrees with file size");
    }
    let body = &raw[HEADER_BYTES..];
    if crc32_concat(&[&raw[8..16], &raw[16..20], body]) != crc {
        return Err("checksum mismatch");
    }
    Ok((lsn, body))
}

/// Read the snapshot, if one exists. `Ok(None)` when the file is
/// absent (a fresh data dir); `Err` — loudly — when it exists but does
/// not validate.
pub fn read_snapshot(dir: &Path) -> io::Result<Option<(u64, Vec<u8>)>> {
    let raw = match fs::read(dir.join(SNAPSHOT_FILE)) {
        Ok(raw) => raw,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    match parse(&raw) {
        Ok((lsn, body)) => Ok(Some((lsn, body.to_vec()))),
        Err(what) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot.bin is corrupt ({what}); refusing to load state"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptiny::hostile_bytes;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("durable-snap-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_and_replace() {
        let dir = tmp("roundtrip");
        assert_eq!(read_snapshot(&dir).unwrap(), None);
        write_snapshot(&dir, 7, b"state v1", true).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some((7, b"state v1".to_vec())));
        write_snapshot(&dir, 19, b"state v2 bigger", false).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some((19, b"state v2 bigger".to_vec())));
        assert!(!dir.join(SNAPSHOT_TMP).exists(), "tmp file renamed away");
    }

    #[test]
    fn leftover_tmp_is_ignored() {
        let dir = tmp("tmpfile");
        write_snapshot(&dir, 3, b"good", false).unwrap();
        // A crash mid-write leaves a garbage tmp; recovery must not care.
        std::fs::write(dir.join(SNAPSHOT_TMP), b"half-writ").unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some((3, b"good".to_vec())));
    }

    /// The parser under hostile input never panics, rejects every
    /// truncation, and accepts only an image whose CRC checks — exactly
    /// what `write_snapshot` would write for the `(lsn, body)` it
    /// returns. So a flipped bit anywhere, header or body, is an error.
    #[test]
    fn parse_of_hostile_bytes_accepts_only_checksummed_images() {
        let good = image(5, b"precious bytes");
        assert_eq!(parse(&good), Ok((5, &b"precious bytes"[..])));
        for cut in 0..good.len() {
            assert!(parse(&good[..cut]).is_err(), "truncation to {cut} went unnoticed");
        }
        hostile_bytes(&[good, image(0, b"")], |raw| {
            if let Ok((lsn, body)) = parse(raw) {
                assert_eq!(image(lsn, body), raw, "accepted an image that does not checksum");
            }
        });
    }
}
