//! Snapshot checkpoints: consistent full-map images beside the log.
//!
//! A checkpoint is the map's contents at one clock version — exactly what
//! `SkipHash::snapshot` produces without stalling writers.  On disk it is a
//! single self-validating file:
//!
//! ```text
//! image := "SKHC" version:u8(=1) at:u64le count:u64le entry* crc:u32le
//! entry := key_field value_field          (field := len:u32le bytes)
//! ```
//!
//! The trailing CRC32 covers every preceding byte, so recovery can tell a
//! complete image from a torn one with a single pass.  Writing is
//! crash-atomic: the image is built in `ckpt-<at>.tmp`, fsynced, renamed to
//! `ckpt-<at>.img`, and the directory is fsynced — a kill at any point
//! leaves either the old checkpoint set or the old set plus one new valid
//! image, never a half image under the real name.  Recovery deletes stray
//! `.tmp` files.
//!
//! A durable checkpoint at version `p` makes every WAL record with stamp
//! `<= p` redundant, which bounds both log growth and recovery time: the
//! caller then truncates sealed segments whose max stamp is `<= p` (see
//! `Wal::truncate_covered`) and deletes older images.

use std::io;
use std::path::Path;

use crate::codec::{crc32, put_field, Codec, Cursor};
use crate::storage::Storage;

const CKPT_MAGIC: &[u8; 4] = b"SKHC";
const CKPT_VERSION: u8 = 1;

/// `ckpt-<version>.img`, zero-padded so lexicographic order is numeric.
pub fn checkpoint_name(version: u64) -> String {
    format!("ckpt-{version:020}.img")
}

fn checkpoint_tmp_name(version: u64) -> String {
    format!("ckpt-{version:020}.tmp")
}

/// Parse a checkpoint image name back to its version.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".img")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// True for the temp files a crashed checkpoint writer leaves behind.
pub fn is_checkpoint_tmp(name: &str) -> bool {
    name.starts_with("ckpt-") && name.ends_with(".tmp")
}

/// Serialize `entries` as the map's image at clock version `at`.
pub fn encode_checkpoint<K: Codec, V: Codec>(entries: &[(K, V)], at: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(CKPT_MAGIC);
    buf.push(CKPT_VERSION);
    buf.extend_from_slice(&at.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (key, value) in entries {
        put_field(&mut buf, key);
        put_field(&mut buf, value);
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Decode and validate a checkpoint image.  `None` for any damage: bad
/// magic, bad CRC, torn tail, or fields that fail to decode.
pub fn decode_checkpoint<K: Codec, V: Codec>(bytes: &[u8]) -> Option<(u64, Vec<(K, V)>)> {
    if bytes.len() < 4 + 1 + 8 + 8 + 4 || &bytes[0..4] != CKPT_MAGIC || bytes[4] != CKPT_VERSION {
        return None;
    }
    let (body, crc_raw) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(crc_raw.try_into().ok()?);
    if crc32(body) != crc {
        return None;
    }
    let mut cur = Cursor::new(&body[5..]);
    let at = cur.take_u64()?;
    let count = cur.take_u64()?;
    let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
    for _ in 0..count {
        let key = K::decode(cur.take_bytes()?)?;
        let value = V::decode(cur.take_bytes()?)?;
        entries.push((key, value));
    }
    cur.finished().then_some((at, entries))
}

/// Write a durable checkpoint of `entries` at version `at` into `dir`
/// (temp file → fsync → rename → dir fsync), then delete older images.
///
/// Returns the image's file name.  Deleting older images is best-effort:
/// a failure there leaves redundant-but-valid files recovery will ignore,
/// so only the image write itself can fail the call.
pub fn write_checkpoint<K: Codec, V: Codec>(
    storage: &dyn Storage,
    dir: &Path,
    entries: &[(K, V)],
    at: u64,
) -> io::Result<String> {
    let bytes = encode_checkpoint(entries, at);
    let tmp = dir.join(checkpoint_tmp_name(at));
    let finl = dir.join(checkpoint_name(at));
    {
        let mut file = storage.create(&tmp)?;
        file.append(&bytes)?;
        file.sync()?;
    }
    storage.rename(&tmp, &finl)?;
    storage.sync_dir(dir)?;

    // The new image supersedes every older one.
    if let Ok(names) = storage.list(dir) {
        for name in names {
            if let Some(version) = parse_checkpoint_name(&name) {
                if version < at {
                    let _ = storage.remove(&dir.join(&name));
                }
            }
        }
        let _ = storage.sync_dir(dir);
    }
    Ok(checkpoint_name(at))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{MemStorage, Storage};

    #[test]
    fn names_round_trip() {
        assert_eq!(parse_checkpoint_name(&checkpoint_name(7)), Some(7));
        assert_eq!(parse_checkpoint_name("ckpt-7.img"), None);
        assert_eq!(parse_checkpoint_name("wal-000000000001.log"), None);
        assert!(is_checkpoint_tmp("ckpt-00000000000000000007.tmp"));
        assert!(!is_checkpoint_tmp(&checkpoint_name(7)));
    }

    #[test]
    fn encode_decode_round_trips() {
        let entries = vec![(1u64, "one".to_string()), (2, "two".to_string())];
        let bytes = encode_checkpoint(&entries, 99);
        let (at, decoded) = decode_checkpoint::<u64, String>(&bytes).unwrap();
        assert_eq!(at, 99);
        assert_eq!(decoded, entries);
    }

    #[test]
    fn decode_rejects_every_mutilation() {
        let entries = vec![(1u64, 10u64), (2, 20)];
        let bytes = encode_checkpoint(&entries, 5);
        // Torn at every length.
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint::<u64, u64>(&bytes[..cut]).is_none(),
                "torn image of {cut} bytes must not decode"
            );
        }
        // Single bit flip anywhere.
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 1;
            assert!(
                decode_checkpoint::<u64, u64>(&bad).is_none(),
                "bit flip at byte {byte} must not decode"
            );
        }
    }

    #[test]
    fn write_checkpoint_replaces_older_images() {
        let storage = MemStorage::new();
        let dir = Path::new("/ck");
        write_checkpoint(&storage, dir, &[(1u64, 1u64)], 10).unwrap();
        write_checkpoint(&storage, dir, &[(1u64, 2u64)], 20).unwrap();
        let names = storage.list(dir).unwrap();
        assert_eq!(names, vec![checkpoint_name(20)]);
        let bytes = storage.bytes(&dir.join(checkpoint_name(20))).unwrap();
        let (at, entries) = decode_checkpoint::<u64, u64>(&bytes).unwrap();
        assert_eq!((at, entries), (20, vec![(1, 2)]));
    }
}
