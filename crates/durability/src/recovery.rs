//! Crash recovery: newest valid checkpoint + WAL suffix replay.
//!
//! Recovery is a pure function of the bytes that survived: it never writes
//! (except to delete stray checkpoint temp files), never panics on
//! mutilated input, and returns `Result` only for real I/O failures —
//! corruption is handled by *truncating*, not by erroring, because a torn
//! tail is the expected shape of a crash.
//!
//! The procedure:
//!
//! 1. **Checkpoint.**  Scan `ckpt-*.img` newest-first; the first image
//!    that validates (magic, CRC, clean decode) seeds the state at its
//!    version `p`.  Invalid images are skipped — an older valid image
//!    plus WAL replay reconstructs the same state.
//! 2. **Log.**  Read segments in sequence order.  Within a segment, stop
//!    at the first invalid frame (torn/short/corrupt tail).  Damage in the
//!    **last** segment ends the scan: the writer only ever appends to the
//!    newest segment, so a torn tail there cuts off everything after it in
//!    commit order.  Damage in an **earlier** segment is different — it is
//!    a scar from an older crash (a kill between segment creation and its
//!    header fsync leaves a zero-byte file; a torn tail stays torn after
//!    the next process resumes in a fresh segment).  Every later segment
//!    was written by a lifetime that itself recovered on top of exactly
//!    the readable prefix of that scar, so the scan skips the damage and
//!    continues — stopping there instead would hide the later lifetimes'
//!    acknowledged commits forever.  Either way the damage is reported,
//!    and the scarred segment is registered for truncation so the next
//!    checkpoint deletes it.
//! 3. **Replay.**  Sort surviving records globally by commit stamp (group
//!    commit may interleave stamp ranges across batches and segments),
//!    drop records with stamp `<= p` (already inside the checkpoint) or
//!    `<=` the previous record's stamp (idempotence under duplicates),
//!    and apply the rest in order.
//!
//! The result contains everything the map layer needs to resume: the
//! recovered entries, the highest stamp observed (the clock must be
//! advanced past it before new commits mint stamps), and the next free
//! segment sequence number.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::checkpoint::{decode_checkpoint, is_checkpoint_tmp, parse_checkpoint_name};
use crate::codec::Codec;
use crate::storage::Storage;
use crate::wal::{decode_record, parse_segment_header, parse_segment_name, FrameIter, Op};

/// What recovery reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered<K, V> {
    /// The surviving entries, in key order.
    pub entries: Vec<(K, V)>,
    /// Version of the checkpoint that seeded the state (0 = none).
    pub checkpoint_version: u64,
    /// Highest commit stamp incorporated (checkpoint version included);
    /// the new clock must advance past this.
    pub max_stamp: u64,
    /// WAL records replayed on top of the checkpoint.
    pub records_replayed: u64,
    /// True when a torn/short/corrupt tail was truncated.
    pub truncated_tail: bool,
    /// Sequence number the next WAL segment should use.
    pub next_segment_seq: u64,
    /// Sealed segments that survive on disk, with the largest stamp each
    /// contains — seeds the new log's truncation registry.
    pub(crate) surviving_segments: Vec<crate::wal::SealedSegment>,
}

/// Recover the map image stored in `dir`.  See the module docs for the
/// procedure; an empty or absent directory recovers to the empty map.
pub fn recover<K, V>(storage: &dyn Storage, dir: &Path) -> io::Result<Recovered<K, V>>
where
    K: Codec + Ord + Clone,
    V: Codec + Clone,
{
    let names = match storage.list(dir) {
        Ok(names) => names,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };

    // A crashed checkpointer leaves `ckpt-*.tmp`; they are by definition
    // incomplete, so clear them out (best-effort).
    for name in &names {
        if is_checkpoint_tmp(name) {
            let _ = storage.remove(&dir.join(name));
        }
    }

    // Newest checkpoint that actually validates.
    let mut ckpt_versions: Vec<u64> = names
        .iter()
        .filter_map(|n| parse_checkpoint_name(n))
        .collect();
    ckpt_versions.sort_unstable();
    let mut truncated_tail = false;
    let mut checkpoint_version = 0u64;
    let mut state: BTreeMap<K, V> = BTreeMap::new();
    for &version in ckpt_versions.iter().rev() {
        let mut bytes = Vec::new();
        storage
            .open_read(&dir.join(crate::checkpoint::checkpoint_name(version)))?
            .read_to_vec(&mut bytes)?;
        match decode_checkpoint::<K, V>(&bytes) {
            Some((at, entries)) => {
                checkpoint_version = at;
                state = entries.into_iter().collect();
                break;
            }
            None => {
                // Damaged image: fall back to the next older one.
                truncated_tail = true;
            }
        }
    }

    // Collect surviving WAL records, segment by segment.
    let mut segment_seqs: Vec<u64> = names.iter().filter_map(|n| parse_segment_name(n)).collect();
    segment_seqs.sort_unstable();
    let next_segment_seq = segment_seqs.last().map_or(1, |s| s + 1);

    let mut records: Vec<(u64, Vec<Op<K, V>>)> = Vec::new();
    let mut surviving_segments = Vec::new();
    let last_seq = segment_seqs.last().copied();
    for &seq in &segment_seqs {
        let mut bytes = Vec::new();
        storage
            .open_read(&dir.join(crate::wal::segment_name(seq)))?
            .read_to_vec(&mut bytes)?;
        let mut segment_max_stamp = 0u64;
        let mut damaged = false;
        match parse_segment_header(&bytes) {
            Some((header_seq, body)) if header_seq == seq => {
                let mut frames = FrameIter::new(body);
                for payload in &mut frames {
                    match decode_record::<K, V>(payload) {
                        Some((stamp, ops)) => {
                            segment_max_stamp = segment_max_stamp.max(stamp);
                            records.push((stamp, ops));
                        }
                        None => {
                            // A CRC-valid frame that does not decode:
                            // structural damage beyond what framing can
                            // localize.  Nothing after it in this segment
                            // is trustworthy.
                            damaged = true;
                            break;
                        }
                    }
                }
                damaged |= frames.truncated();
            }
            // Header damage (including the zero-byte file a kill between
            // segment creation and its header fsync leaves behind): the
            // whole segment is unreadable.
            _ => damaged = true,
        }
        // Register the segment — readable or not — so a checkpoint that
        // covers its surviving stamps can delete the file.  Scars heal.
        surviving_segments.push(crate::wal::SealedSegment {
            seq,
            max_stamp: segment_max_stamp,
        });
        if damaged {
            truncated_tail = true;
            if Some(seq) == last_seq {
                // A torn tail in the newest segment cuts off commit order.
                break;
            }
            // Damage in an older segment is a scar from a previous crash;
            // later segments belong to later lifetimes that already
            // recovered everything readable here (see the module docs).
            // Skipping, not stopping, keeps their acknowledged commits.
        }
    }

    // Replay in global stamp order, skipping what the checkpoint already
    // covers and any duplicate stamps (idempotent apply).
    records.sort_by_key(|(stamp, _)| *stamp);
    let mut max_stamp = checkpoint_version;
    let mut replayed = 0u64;
    for (stamp, ops) in records {
        if stamp <= max_stamp {
            continue;
        }
        max_stamp = stamp;
        replayed += 1;
        for op in ops {
            match op {
                Op::Put(key, value) => {
                    state.insert(key, value);
                }
                Op::Remove(key) => {
                    state.remove(&key);
                }
            }
        }
    }

    Ok(Recovered {
        entries: state.into_iter().collect(),
        checkpoint_version,
        max_stamp,
        records_replayed: replayed,
        truncated_tail,
        next_segment_seq,
        surviving_segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::write_checkpoint;
    use crate::storage::MemStorage;
    use crate::wal::{segment_name, Wal, WalConfig};
    use std::sync::Arc;
    use std::time::Duration;

    const DIR: &str = "/rec";

    fn fast_config() -> WalConfig {
        WalConfig {
            flush_interval: Duration::from_micros(100),
            ..WalConfig::default()
        }
    }

    fn log_puts(wal: &Wal, pairs: &[(u64, u64, u64)]) {
        for &(stamp, key, value) in pairs {
            let mut buf = wal.lease();
            buf.log_put(&key, &value);
            buf.submit(stamp);
        }
        wal.sync().unwrap();
    }

    #[test]
    fn empty_directory_recovers_to_empty() {
        let storage = MemStorage::new();
        let rec = recover::<u64, u64>(&storage, Path::new(DIR)).unwrap();
        assert_eq!(rec.entries, vec![]);
        assert_eq!(rec.max_stamp, 0);
        assert_eq!(rec.next_segment_seq, 1);
        assert!(!rec.truncated_tail);
    }

    #[test]
    fn replays_wal_in_stamp_order_across_enqueue_order() {
        let storage = MemStorage::new();
        let wal = Wal::open(
            Arc::new(storage.clone()),
            Path::new(DIR),
            fast_config(),
            1,
            Vec::new(),
        )
        .unwrap();
        // Stamps submitted out of order; last write per key must win by
        // stamp, not by append position.
        log_puts(&wal, &[(3, 1, 30), (1, 1, 10), (2, 2, 20)]);
        drop(wal);
        let rec = recover::<u64, u64>(&storage, Path::new(DIR)).unwrap();
        assert_eq!(rec.entries, vec![(1, 30), (2, 20)]);
        assert_eq!(rec.max_stamp, 3);
        assert_eq!(rec.records_replayed, 3);
        assert_eq!(rec.next_segment_seq, 2);
    }

    #[test]
    fn checkpoint_bounds_replay_and_removals_apply() {
        let storage = MemStorage::new();
        let wal = Wal::open(
            Arc::new(storage.clone()),
            Path::new(DIR),
            fast_config(),
            1,
            Vec::new(),
        )
        .unwrap();
        log_puts(&wal, &[(1, 1, 10), (2, 2, 20)]);
        // Checkpoint at version 2 covers both records.
        write_checkpoint(&storage, Path::new(DIR), &[(1u64, 10u64), (2, 20)], 2).unwrap();
        // Post-checkpoint suffix: overwrite 1, remove 2, insert 3.
        let mut buf = wal.lease();
        buf.log_put(&1u64, &11u64);
        buf.submit(3);
        let mut buf = wal.lease();
        buf.log_remove(&2u64);
        buf.submit(4);
        let mut buf = wal.lease();
        buf.log_put(&3u64, &33u64);
        buf.submit(5);
        wal.sync().unwrap();
        drop(wal);
        let rec = recover::<u64, u64>(&storage, Path::new(DIR)).unwrap();
        assert_eq!(rec.checkpoint_version, 2);
        assert_eq!(rec.entries, vec![(1, 11), (3, 33)]);
        assert_eq!(rec.max_stamp, 5);
        assert_eq!(
            rec.records_replayed, 3,
            "stamps 1..=2 are inside the checkpoint"
        );
    }

    #[test]
    fn torn_tail_truncates_at_last_valid_frame() {
        let storage = MemStorage::new();
        let wal = Wal::open(
            Arc::new(storage.clone()),
            Path::new(DIR),
            fast_config(),
            1,
            Vec::new(),
        )
        .unwrap();
        log_puts(&wal, &[(1, 1, 10)]);
        log_puts(&wal, &[(2, 2, 20)]);
        drop(wal);
        // Tear mid-way through the second frame.
        let path = Path::new(DIR).join(segment_name(1));
        let bytes = storage.bytes(&path).unwrap();
        storage.put(&path, bytes[..bytes.len() - 3].to_vec());
        let rec = recover::<u64, u64>(&storage, Path::new(DIR)).unwrap();
        assert!(rec.truncated_tail);
        assert_eq!(rec.entries, vec![(1, 10)], "only the intact frame replays");
        assert_eq!(rec.max_stamp, 1);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_older_image() {
        let storage = MemStorage::new();
        let dir = Path::new(DIR);
        write_checkpoint(&storage, dir, &[(1u64, 1u64)], 5).unwrap();
        // Write a newer image, then corrupt it in place (write_checkpoint
        // would have deleted the older one, so re-create it).
        write_checkpoint(&storage, dir, &[(1u64, 2u64)], 9).unwrap();
        let old = crate::checkpoint::encode_checkpoint(&[(1u64, 1u64)], 5);
        storage.put(&dir.join(crate::checkpoint::checkpoint_name(5)), old);
        let newer = dir.join(crate::checkpoint::checkpoint_name(9));
        let mut bytes = storage.bytes(&newer).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        storage.put(&newer, bytes);
        let rec = recover::<u64, u64>(&storage, dir).unwrap();
        assert_eq!(rec.checkpoint_version, 5);
        assert_eq!(rec.entries, vec![(1, 1)]);
        assert!(rec.truncated_tail);
    }

    #[test]
    fn stray_tmp_files_are_removed() {
        let storage = MemStorage::new();
        let dir = Path::new(DIR);
        storage.put(&dir.join("ckpt-00000000000000000003.tmp"), vec![1, 2, 3]);
        let rec = recover::<u64, u64>(&storage, dir).unwrap();
        assert_eq!(rec.entries, vec![]);
        assert!(storage.list(dir).unwrap().is_empty());
    }

    #[test]
    fn damaged_mid_chain_segment_does_not_hide_later_lifetimes() {
        // The crash-campaign bug this pins: lifetime 1 dies between
        // creating segment 2 and fsyncing its header, leaving a zero-byte
        // file.  Lifetime 2 resumes in segment 3 and logs acknowledged
        // commits.  Recovery must replay BOTH lifetimes — stopping the
        // scan at the scar would hide lifetime 2's acked data forever —
        // and must register the scar so truncation can delete it.
        let storage = MemStorage::new();
        let dir = Path::new(DIR);
        let wal = Wal::open(Arc::new(storage.clone()), dir, fast_config(), 1, Vec::new()).unwrap();
        log_puts(&wal, &[(1, 1, 10)]);
        drop(wal);
        storage.put(&dir.join(segment_name(2)), Vec::new()); // the scar
        let wal = Wal::open(Arc::new(storage.clone()), dir, fast_config(), 3, Vec::new()).unwrap();
        log_puts(&wal, &[(2, 2, 20)]);
        drop(wal);
        let rec = recover::<u64, u64>(&storage, dir).unwrap();
        assert_eq!(rec.entries, vec![(1, 10), (2, 20)], "both lifetimes replay");
        assert_eq!(rec.records_replayed, 2);
        assert!(
            rec.truncated_tail,
            "the scar is damage and must be reported"
        );
        assert_eq!(rec.next_segment_seq, 4);
        assert!(
            rec.surviving_segments
                .iter()
                .any(|s| s.seq == 2 && s.max_stamp == 0),
            "the scar is registered so a checkpoint can truncate it: {:?}",
            rec.surviving_segments
        );
    }

    #[test]
    fn torn_tail_in_an_older_segment_keeps_its_prefix_and_later_segments() {
        // Same lifetime-boundary rule for a torn (rather than zero-byte)
        // scar: the readable prefix of the torn segment replays, its tail
        // does not, and the later lifetime's segment still replays.
        let storage = MemStorage::new();
        let dir = Path::new(DIR);
        let wal = Wal::open(Arc::new(storage.clone()), dir, fast_config(), 1, Vec::new()).unwrap();
        log_puts(&wal, &[(1, 1, 10)]);
        log_puts(&wal, &[(2, 2, 20)]);
        drop(wal);
        let path = dir.join(segment_name(1));
        let bytes = storage.bytes(&path).unwrap();
        storage.put(&path, bytes[..bytes.len() - 3].to_vec()); // tear frame 2
        let wal = Wal::open(Arc::new(storage.clone()), dir, fast_config(), 2, Vec::new()).unwrap();
        log_puts(&wal, &[(2, 3, 30)]); // lifetime 2 reuses the lost stamp range
        drop(wal);
        let rec = recover::<u64, u64>(&storage, dir).unwrap();
        assert_eq!(rec.entries, vec![(1, 10), (3, 30)]);
        assert!(rec.truncated_tail);
        assert_eq!(rec.max_stamp, 2);
    }

    #[test]
    fn segment_with_damaged_header_stops_recovery_conservatively() {
        let storage = MemStorage::new();
        let wal = Wal::open(
            Arc::new(storage.clone()),
            Path::new(DIR),
            fast_config(),
            1,
            Vec::new(),
        )
        .unwrap();
        log_puts(&wal, &[(1, 1, 10)]);
        drop(wal);
        let path = Path::new(DIR).join(segment_name(1));
        let mut bytes = storage.bytes(&path).unwrap();
        bytes[0] = b'X'; // magic damage
        storage.put(&path, bytes);
        let rec = recover::<u64, u64>(&storage, Path::new(DIR)).unwrap();
        assert!(rec.truncated_tail);
        assert_eq!(rec.entries, vec![]);
        // The damaged segment still counts for sequence allocation.
        assert_eq!(rec.next_segment_seq, 2);
    }
}
