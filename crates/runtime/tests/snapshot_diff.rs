//! Differential property test for incremental snapshot publication.
//!
//! Random sequences of cache mutations — admit, refresh, modify (group
//! moves, TTL-band moves, renames), delete, evict, expiry, restart and
//! change-log overruns — with publications interleaved.  After every
//! publication the merged snapshot must equal a from-scratch sorted
//! build of the cache, every row must verify, and every snapshot loaded
//! earlier must be exactly as it was when it was published.

use std::net::Ipv4Addr;
use std::sync::Arc;

use proptest::prelude::*;
use sdalloc_runtime::{
    DirectorySnapshot, SessionRow, SnapshotCadence, SnapshotHandle, SnapshotPublisher,
};
use sdalloc_sap::cache::{AnnouncementCache, CacheKey, CHANGE_LOG_FLOOR};
use sdalloc_sap::{Origin, SessionDescription};
use sdalloc_sim::{SimDuration, SimTime};

/// Cache expiry timeout of the cache under test.
const TIMEOUT: SimDuration = SimDuration::from_secs(100);

/// A row flattened to plain values: key, group, ttl, version, name.
type Flat = (CacheKey, Ipv4Addr, u8, u64, String);

/// A snapshot flattened to plain values: its rows and its group set.
type FlatSnapshot = (Vec<Flat>, Vec<Ipv4Addr>);

/// Key `i` of a 256-key space (16 origins × 16 session ids).
fn key(i: u64) -> CacheKey {
    CacheKey {
        origin: Ipv4Addr::new(10, 0, 0, 1 + (i % 16) as u8),
        session_id: (i / 16) % 16,
    }
}

fn desc(k: CacheKey, version: u64, group: u8, ttl: u8, name: &str) -> SessionDescription {
    SessionDescription {
        origin: Origin {
            username: "-".into(),
            session_id: k.session_id,
            version,
            address: k.origin,
        },
        name: name.to_string(),
        info: None,
        group: Ipv4Addr::new(224, 2, 128, group),
        ttl,
        start: 0,
        stop: 0,
        media: vec![],
    }
}

/// The description `cache` currently holds for `k`, if any.
fn held(cache: &AnnouncementCache, k: CacheKey) -> Option<SessionDescription> {
    cache.get(k.origin, k.session_id).map(|e| e.desc())
}

/// The oracle: a from-scratch sorted build of the cache's contents.
fn rebuild(cache: &AnnouncementCache) -> FlatSnapshot {
    let mut rows: Vec<Flat> = cache
        .iter()
        .map(|(k, e)| (k, e.group(), e.ttl(), e.version(), e.name().to_string()))
        .collect();
    rows.sort_by_key(|r| r.0);
    let mut groups: Vec<Ipv4Addr> = rows.iter().map(|r| r.1).collect();
    groups.sort_unstable();
    groups.dedup();
    (rows, groups)
}

fn flatten(snap: &DirectorySnapshot) -> FlatSnapshot {
    let rows = snap
        .rows()
        .map(|r| (r.key, r.group, r.ttl, r.version, r.name.to_string()))
        .collect();
    (rows, snap.groups().collect())
}

/// Announce a new version of a held session (or admit it), changing
/// what `variant` selects.
fn modify(cache: &mut AnnouncementCache, now: SimTime, k: CacheKey, variant: u64) {
    let d = match held(cache, k) {
        Some(mut d) => {
            d.origin.version += 1;
            match variant % 4 {
                0 => d.group = Ipv4Addr::new(224, 2, 128, (variant / 4 % 24) as u8),
                // Site, region, continent and world scope: band moves.
                1 => d.ttl = [15, 63, 127, 255][(variant / 4 % 4) as usize],
                2 => d.name = format!("renamed-{}", variant / 4 % 5),
                _ => {}
            }
            d
        }
        None => desc(k, 1, (variant % 24) as u8, 63, "fresh"),
    };
    cache.observe_announce(now, d);
}

/// Publish and check the new snapshot against the oracle and every
/// earlier snapshot against what it held when it was published.
fn publish_and_check(
    publisher: &mut SnapshotPublisher,
    handle: &SnapshotHandle,
    cache: &AnnouncementCache,
    now: SimTime,
    history: &mut Vec<(Arc<DirectorySnapshot>, FlatSnapshot)>,
) {
    publisher.publish_cache(now, cache);
    let snap = handle.load_slow();
    let flat = flatten(&snap);
    let expected = rebuild(cache);
    prop_assert_eq!(
        &flat,
        &expected,
        "merged snapshot differs from a full build"
    );
    prop_assert_eq!(snap.len(), expected.0.len());
    prop_assert_eq!(snap.corrupt_rows(), 0);
    for (k, group, ..) in &expected.0 {
        prop_assert!(snap
            .get(k.origin, k.session_id)
            .is_some_and(SessionRow::verify));
        prop_assert!(snap.group_in_use(*group));
    }
    for i in 0..256 {
        let k = key(i);
        let cached = cache.get(k.origin, k.session_id).is_some();
        prop_assert_eq!(snap.get(k.origin, k.session_id).is_some(), cached);
    }
    for g in 0..32u8 {
        let g = Ipv4Addr::new(224, 2, 128, g);
        prop_assert_eq!(snap.group_in_use(g), cache.group_in_use(g));
    }
    for (old, old_flat) in history.iter() {
        prop_assert_eq!(&flatten(old), old_flat, "an earlier snapshot changed");
    }
    history.push((snap, flat));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn incremental_publication_matches_a_full_build(
        ops in proptest::collection::vec((0u64..40, any::<u64>()), 1..80)
    ) {
        let mut cache = AnnouncementCache::new(TIMEOUT);
        let mut publisher = SnapshotPublisher::new(SnapshotCadence::default());
        let handle = publisher.handle();
        let mut history = Vec::new();
        let mut now = SimTime::from_secs(1);
        // Whether the next publication must fall back to a full build.
        let mut rebuild_due = true;
        let tail = [(38, 0), (0, 0), (39, 0), (0, 0)];
        for &(op, x) in ops.iter().chain(tail.iter()) {
            now = now.checked_add(SimDuration::from_secs(1 + x % 20)).expect("time");
            let k = key(x % 256);
            match op {
                0..=5 => {
                    let full_builds = publisher.stats().full_builds;
                    publish_and_check(&mut publisher, &handle, &cache, now, &mut history);
                    let expected = full_builds + u64::from(rebuild_due);
                    prop_assert_eq!(publisher.stats().full_builds, expected);
                    rebuild_due = false;
                }
                6..=13 => {
                    let d = desc(k, 1, (x / 256 % 24) as u8, 63, "admitted");
                    cache.observe_announce(now, d);
                }
                14..=19 => {
                    if let Some(d) = held(&cache, k) {
                        cache.observe_announce(now, d);
                    }
                }
                20..=29 => modify(&mut cache, now, k, x / 256),
                30..=32 => {
                    cache.observe_delete(k.origin, k.session_id);
                }
                33..=34 => {
                    cache.evict(k);
                }
                35..=37 => {
                    cache.purge_expired(now);
                }
                38 => {
                    // Enough changes that the log drops the position
                    // the publisher's cursor points at.
                    for v in 0..2 * CHANGE_LOG_FLOOR as u64 + 2 {
                        modify(&mut cache, now, k, 3 + 4 * v);
                    }
                    rebuild_due = true;
                }
                _ => {
                    cache = AnnouncementCache::new(TIMEOUT);
                    for i in 0..x % 40 {
                        cache.observe_announce(now, desc(key(x / 7 + i), 1, i as u8 % 24, 127, "again"));
                    }
                    rebuild_due = true;
                }
            }
        }
    }
}
