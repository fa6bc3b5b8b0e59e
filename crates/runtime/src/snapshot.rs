//! Immutable directory snapshots and the lock-free read path.
//!
//! The writer (an agent thread that owns its
//! [`sdalloc_sap::SessionDirectory`]) periodically *publishes* its
//! announcement cache as a [`DirectorySnapshot`] — a sorted, immutable,
//! cheaply shareable projection — with one atomic pointer swap through
//! [`crossbeam::epoch::ArcSwap`].  Query threads hold a
//! [`SnapshotReader`] and borrow the current snapshot without taking
//! any lock; superseded snapshots are reclaimed only once every pinned
//! reader has moved past them (see `vendor/crossbeam/src/epoch.rs` for
//! the safety argument).
//!
//! ## Persistent rows: publication in O(changes)
//!
//! A snapshot keeps its key-sorted rows in fixed-size copy-on-write
//! chunks (`Arc<[SessionRow]>`, at most `CHUNK_ROWS` = 32 rows each) plus
//! a top-level table of each chunk's first key; the distinct-group set
//! uses the same structure.  A publication reads the keys the cache's
//! [`sdalloc_sap::ChangeLog`] recorded since the previous one, looks up
//! each key's current state, and merges those edits into the previous
//! snapshot: only the chunks the edits land in are copied, every other
//! chunk is shared with the previous snapshot through its `Arc`.  The
//! first publication, a restarted cache, or a cursor the bounded log
//! has dropped fall back to a *full build* — the same merge applied to
//! the empty snapshot with every cached key as an edit.
//!
//! Everything a query needs is precomputed at publication so the read
//! side allocates nothing: point lookups and `group_in_use` are two
//! binary searches (first-key table, then chunk).  Each row carries an
//! FNV-1a checksum over its fields, letting stress tests prove that a
//! reader can never observe a torn or recycled row: a snapshot either
//! verifies in full or the reclamation scheme is broken.

use std::fmt::Debug;
use std::net::Ipv4Addr;
use std::sync::Arc;

use crossbeam::epoch::{ArcSwap, Guard, Reader};
use sdalloc_sap::cache::{AnnouncementCache, CacheKey, ChangeCursor};
use sdalloc_sap::SessionDirectory;
use sdalloc_sim::{SimDuration, SimTime};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Most rows (or groups) one copy-on-write chunk holds.  Every chunk
/// but the last holds at least half this many.
const CHUNK_ROWS: usize = 32;

/// Fold bytes into a running FNV-1a state without materialising a
/// buffer — the read-path verifier must not allocate.
fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One cached session, flattened out of the slab arena into a
/// self-contained row.  The name is an `Arc<str>` shared with the
/// cache's interner — building a row clones the Arc, not the text.
#[derive(Debug)]
pub struct SessionRow {
    /// The cache key (origin, session id).
    pub key: CacheKey,
    /// Allocated multicast group.
    pub group: Ipv4Addr,
    /// Announced scope TTL.
    pub ttl: u8,
    /// SDP origin version.
    pub version: u64,
    /// Session name, shared with the cache interner.
    pub name: Arc<str>,
    checksum: u64,
}

impl Clone for SessionRow {
    /// Field copies plus one refcount bump: copying a chunk clones
    /// every row in it, so this stays as cheap as it can be.
    fn clone(&self) -> SessionRow {
        SessionRow {
            name: Arc::clone(&self.name),
            ..*self
        }
    }
}

impl SessionRow {
    fn new(key: CacheKey, group: Ipv4Addr, ttl: u8, version: u64, name: Arc<str>) -> SessionRow {
        let checksum = Self::checksum_of(key, group, ttl, version, &name);
        SessionRow {
            key,
            group,
            ttl,
            version,
            name,
            checksum,
        }
    }

    fn checksum_of(key: CacheKey, group: Ipv4Addr, ttl: u8, version: u64, name: &str) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv_fold(h, &key.origin.octets());
        h = fnv_fold(h, &key.session_id.to_le_bytes());
        h = fnv_fold(h, &group.octets());
        h = fnv_fold(h, &[ttl]);
        h = fnv_fold(h, &version.to_le_bytes());
        fnv_fold(h, name.as_bytes())
    }

    /// Recompute the checksum and compare.  `false` means the reader is
    /// looking at torn or recycled memory — must never happen.
    pub fn verify(&self) -> bool {
        Self::checksum_of(self.key, self.group, self.ttl, self.version, &self.name) == self.checksum
    }
}

/// An element of a [`Chunked`] sequence: ordered by its key.
trait Sorted: Clone {
    type Key: Ord + Copy + Debug;
    fn sort_key(&self) -> Self::Key;
}

impl Sorted for SessionRow {
    type Key = CacheKey;
    fn sort_key(&self) -> CacheKey {
        self.key
    }
}

impl Sorted for Ipv4Addr {
    type Key = Ipv4Addr;
    fn sort_key(&self) -> Ipv4Addr {
        *self
    }
}

/// A persistent sorted sequence: non-empty immutable chunks in key
/// order, each shared by every snapshot that did not edit it, and the
/// first key of each chunk for the top-level binary search.
#[derive(Debug)]
struct Chunked<T: Sorted> {
    chunks: Vec<Arc<[T]>>,
    firsts: Vec<T::Key>,
    len: usize,
}

impl<T: Sorted> Chunked<T> {
    fn new() -> Chunked<T> {
        Chunked {
            chunks: Vec::new(),
            firsts: Vec::new(),
            len: 0,
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter()) // lint:allow(hot-path-scan): lazy reader-side iterator over a snapshot; the cache's announce path never calls it (the finding is a name-based `iter` resolution)
    }

    /// Zero-alloc point lookup: the last chunk starting at or below
    /// `key`, then a binary search inside it.
    fn get(&self, key: T::Key) -> Option<&T> {
        let i = self.firsts.partition_point(|f| *f <= key).checked_sub(1)?;
        let chunk = self.chunks.get(i)?;
        let j = chunk.binary_search_by_key(&key, T::sort_key).ok()?;
        chunk.get(j)
    }

    /// A new sequence with `edits` applied: `(key, Some(v))` inserts or
    /// replaces, `(key, None)` removes.  `edits` must be sorted by key
    /// without repeats.  No edits share the whole sequence; otherwise
    /// chunks no edit lands in are shared, and an edited chunk is
    /// rebuilt, together with its successor when it shrank below half
    /// a chunk.
    fn merged(this: &Arc<Chunked<T>>, edits: Vec<(T::Key, Option<T>)>) -> Arc<Chunked<T>> {
        if edits.is_empty() {
            return Arc::clone(this);
        }
        let mut out = ChunkedDraft::new(this.chunks.len());
        let mut edits = edits.into_iter().peekable();
        for (i, (chunk, &first)) in this.chunks.iter().zip(&this.firsts).enumerate() {
            // This chunk owns the edits below the next chunk's first
            // key (the last chunk owns all that remain).
            let next_first = this.firsts.get(i + 1).copied();
            let owned = |k: &T::Key| next_first.is_none_or(|n| *k < n);
            if !edits.peek().is_some_and(|(k, _)| owned(k)) {
                out.share(chunk, first);
                continue;
            }
            // Copy the unedited runs between edits wholesale.
            let mut rest: &[T] = chunk;
            while let Some((key, new)) = edits.next_if(|(k, _)| owned(k)) {
                let (run, at_key) = rest.split_at(rest.partition_point(|r| r.sort_key() < key));
                out.pending.extend_from_slice(run);
                rest = match at_key.split_first() {
                    Some((r, after)) if r.sort_key() == key => after,
                    _ => at_key,
                };
                out.pending.extend(new);
            }
            out.pending.extend_from_slice(rest);
            out.settle();
        }
        // Edits past every chunk: an empty sequence, or a full build.
        out.pending.extend(edits.filter_map(|(_, new)| new));
        out.finish()
    }
}

/// Assembles a [`Chunked`] from shared chunks and freshly merged items.
struct ChunkedDraft<T: Sorted> {
    out: Chunked<T>,
    /// Merged items not yet cut into chunks.
    pending: Vec<T>,
}

impl<T: Sorted> ChunkedDraft<T> {
    fn new(chunks: usize) -> ChunkedDraft<T> {
        ChunkedDraft {
            out: Chunked {
                chunks: Vec::with_capacity(chunks + 1),
                firsts: Vec::with_capacity(chunks + 1),
                len: 0,
            },
            pending: Vec::new(),
        }
    }

    /// Reuse an unedited chunk.  If a short run of merged items is
    /// still pending, the chunk is copied in behind it instead, so no
    /// undersized chunk is left in the middle of the sequence.
    fn share(&mut self, chunk: &Arc<[T]>, first: T::Key) {
        if self.pending.is_empty() {
            // The first key comes from the old table, so sharing never
            // touches the chunk's rows.
            self.emit(Arc::clone(chunk), first);
        } else {
            self.pending.extend(chunk.iter().cloned());
            self.settle();
        }
    }

    /// Cut the pending items into chunks once they fill half a chunk.
    fn settle(&mut self) {
        if self.pending.len() >= CHUNK_ROWS / 2 {
            self.flush();
        }
    }

    /// Cut every pending item into near-equal chunks of at most
    /// `CHUNK_ROWS` (each at least half that when there are enough).
    /// Pieces are split off the back, so each item moves once.
    fn flush(&mut self) {
        let n = self.pending.len();
        let pieces = n.div_ceil(CHUNK_ROWS);
        let mut cut: Vec<Arc<[T]>> = Vec::with_capacity(pieces);
        for p in (0..pieces).rev() {
            let size = n / pieces + usize::from(p < n % pieces);
            let at = self.pending.len().saturating_sub(size);
            cut.push(Arc::from(self.pending.split_off(at)));
        }
        for chunk in cut.into_iter().rev() {
            if let Some(first) = chunk.first().map(T::sort_key) {
                self.emit(chunk, first);
            }
        }
    }

    fn emit(&mut self, chunk: Arc<[T]>, first: T::Key) {
        self.out.firsts.push(first);
        self.out.len += chunk.len();
        self.out.chunks.push(chunk);
    }

    fn finish(mut self) -> Arc<Chunked<T>> {
        self.flush();
        Arc::new(self.out)
    }
}

/// An immutable, point-in-time projection of one directory's cache.
#[derive(Debug)]
pub struct DirectorySnapshot {
    version: u64,
    published_at: SimTime,
    /// All cached sessions, sorted by key.
    rows: Arc<Chunked<SessionRow>>,
    /// Distinct groups in use, sorted.
    groups: Arc<Chunked<Ipv4Addr>>,
}

impl DirectorySnapshot {
    /// The snapshot a publisher starts from: version 0, no rows.
    pub fn empty() -> DirectorySnapshot {
        DirectorySnapshot {
            version: 0,
            published_at: SimTime::ZERO,
            rows: Arc::new(Chunked::new()),
            groups: Arc::new(Chunked::new()),
        }
    }

    /// This snapshot with the current cache state of `keys` merged in.
    /// Writer-side only.  A row exists for a key iff `cache` holds it;
    /// each group a changed row left or joined is in the group set iff
    /// `cache.group_in_use` says so (only groups whose membership
    /// flipped become edits).
    fn merged(
        &self,
        version: u64,
        now: SimTime,
        cache: &AnnouncementCache,
        mut keys: Vec<CacheKey>,
    ) -> DirectorySnapshot {
        keys.sort_unstable();
        keys.dedup();
        let mut groups = Vec::new();
        let row_edits: Vec<(CacheKey, Option<SessionRow>)> = keys
            .into_iter()
            .map(|key| {
                if let Some(old) = self.rows.get(key) {
                    groups.push(old.group);
                }
                let row = cache.get(key.origin, key.session_id).map(|e| {
                    groups.push(e.group());
                    let name = e.name_arc().unwrap_or_else(|| Arc::from(""));
                    SessionRow::new(key, e.group(), e.ttl(), e.version(), name)
                });
                (key, row)
            })
            .collect();
        groups.sort_unstable();
        groups.dedup();
        let group_edits = groups
            .into_iter()
            .filter_map(|g| {
                let in_use = cache.group_in_use(g);
                (in_use != self.group_in_use(g)).then_some((g, in_use.then_some(g)))
            })
            .collect();
        DirectorySnapshot {
            version,
            published_at: now,
            rows: Chunked::merged(&self.rows, row_edits),
            groups: Chunked::merged(&self.groups, group_edits),
        }
    }

    /// Monotone publication counter (0 = the empty pre-first snapshot).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Writer-clock instant this snapshot was published.
    pub fn published_at(&self) -> SimTime {
        self.published_at
    }

    /// How far behind `now` this snapshot is.
    pub fn staleness(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.published_at)
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// Whether the cache was empty.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// All rows, sorted by key.  Zero-alloc iterator.
    pub fn rows(&self) -> impl Iterator<Item = &SessionRow> + '_ {
        self.rows.iter()
    }

    /// The distinct groups in use, sorted.  Zero-alloc iterator.
    pub fn groups(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.groups.iter().copied()
    }

    /// Point lookup by cache key.  Zero-alloc (binary search).
    pub fn get(&self, origin: Ipv4Addr, session_id: u64) -> Option<&SessionRow> {
        self.rows.get(CacheKey { origin, session_id })
    }

    /// Whether any cached session occupies `group`.  Zero-alloc.
    pub fn group_in_use(&self, group: Ipv4Addr) -> bool {
        self.groups.get(group).is_some()
    }

    /// Rows whose name contains `keyword` (case-sensitive substring, as
    /// sdr's browser filter).  Zero-alloc iterator.
    pub fn matching<'a>(&'a self, keyword: &'a str) -> impl Iterator<Item = &'a SessionRow> + 'a {
        self.rows.iter().filter(move |r| r.name.contains(keyword))
    }

    /// Verify every row checksum, returning the number of corrupt rows.
    /// Anything other than 0 means a reader observed torn or recycled
    /// memory.  Zero-alloc.
    pub fn corrupt_rows(&self) -> usize {
        self.rows.iter().filter(|r| !r.verify()).count()
    }
}

/// When the writer publishes a fresh snapshot.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotCadence {
    /// Publish no more often than this while updates trickle in.
    pub min_interval: SimDuration,
    /// …but never let more than this many cache updates pile up
    /// unpublished, even inside the interval.
    pub max_pending: u64,
}

impl Default for SnapshotCadence {
    fn default() -> Self {
        SnapshotCadence {
            min_interval: SimDuration::from_millis(250),
            max_pending: 50_000,
        }
    }
}

/// Writer-side publication counters (plain values; the driver mirrors
/// them into its telemetry).
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotStats {
    /// Snapshots published (== current snapshot version).
    pub published: u64,
    /// Rows in the most recent snapshot.
    pub last_rows: usize,
    /// Largest update batch folded into one publication.
    pub max_batch: u64,
    /// Publications built from the whole cache rather than merged from
    /// the change log: the first one, and one after each restart or
    /// log overrun.
    pub full_builds: u64,
}

/// The writer's half of the snapshot cell: owns the cadence policy and
/// the pending-update accounting, publishes via the epoch cell.
#[derive(Debug)]
pub struct SnapshotPublisher {
    cell: ArcSwap<DirectorySnapshot>,
    /// The writer's own reference to the latest publication: the base
    /// the next one is merged into.
    current: Arc<DirectorySnapshot>,
    /// Position in the cache's change log that `current` reflects.
    cursor: Option<ChangeCursor>,
    cadence: SnapshotCadence,
    pending: u64,
    stats: SnapshotStats,
    last_published: Option<SimTime>,
}

impl SnapshotPublisher {
    /// A publisher holding the empty snapshot.
    pub fn new(cadence: SnapshotCadence) -> SnapshotPublisher {
        let current = Arc::new(DirectorySnapshot::empty());
        SnapshotPublisher {
            cell: ArcSwap::new(Arc::clone(&current)),
            current,
            cursor: None,
            cadence,
            pending: 0,
            stats: SnapshotStats::default(),
            last_published: None,
        }
    }

    /// A cloneable handle readers hang off.
    pub fn handle(&self) -> SnapshotHandle {
        SnapshotHandle {
            cell: self.cell.clone(),
        }
    }

    /// Record that `n` cache updates landed since the last publication.
    pub fn note_updates(&mut self, n: u64) {
        self.pending = self.pending.saturating_add(n);
    }

    /// When the cadence policy next allows a publication: immediately
    /// before the first one; afterwards only while updates are pending,
    /// at the end of the interval (or at once when the backlog hit
    /// `max_pending`).  `None` = nothing to publish.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        let Some(last) = self.last_published else {
            return Some(SimTime::ZERO);
        };
        if self.pending == 0 {
            None
        } else if self.pending >= self.cadence.max_pending {
            Some(SimTime::ZERO)
        } else {
            Some(
                last.checked_add(self.cadence.min_interval)
                    .unwrap_or(SimTime::MAX),
            )
        }
    }

    /// Publish if the cadence policy says so (see [`Self::next_due`]).
    pub fn maybe_publish(&mut self, now: SimTime, dir: &SessionDirectory) -> bool {
        let due = self.next_due().is_some_and(|at| at <= now);
        if due {
            self.publish(now, dir);
        }
        due
    }

    /// Unconditional publication (used at startup and by tests).
    pub fn publish(&mut self, now: SimTime, dir: &SessionDirectory) {
        self.publish_cache(now, dir.cache());
    }

    /// Publish `cache` as of `now`: merge the keys its change log
    /// recorded since the last publication into the previous snapshot,
    /// or build from every cached key when the log cannot say what
    /// changed (first publication, a rebuilt cache, a log overrun).
    pub fn publish_cache(&mut self, now: SimTime, cache: &AnnouncementCache) {
        let version = self.stats.published + 1;
        let log = cache.changes();
        let snap = match self.cursor.and_then(|c| log.since(c)) {
            Some(keys) => self.current.merged(version, now, cache, keys.to_vec()),
            None => {
                self.stats.full_builds += 1;
                let keys = cache.iter().map(|(key, _)| key).collect();
                DirectorySnapshot::empty().merged(version, now, cache, keys)
            }
        };
        self.cursor = Some(log.head());
        self.stats.published = version;
        self.stats.last_rows = snap.len();
        self.stats.max_batch = self.stats.max_batch.max(self.pending);
        self.pending = 0;
        self.last_published = Some(now);
        self.current = Arc::new(snap);
        self.cell.store(Arc::clone(&self.current));
    }

    /// Publication counters so far.
    pub fn stats(&self) -> SnapshotStats {
        self.stats
    }

    /// Retired-but-not-yet-freed snapshots (readers may still hold them).
    pub fn retired_len(&self) -> usize {
        self.cell.retired_len()
    }
}

/// Cloneable, thread-safe entry point to a writer's snapshot cell.
#[derive(Debug, Clone)]
pub struct SnapshotHandle {
    cell: ArcSwap<DirectorySnapshot>,
}

impl SnapshotHandle {
    /// A per-thread reader.  Each query thread needs its own (the epoch
    /// pin slot is per-reader); the reader itself is `Send`.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            inner: self.cell.reader(),
        }
    }

    /// Owned copy of the current snapshot via the slow (locking) path —
    /// for one-off inspection off the hot path.
    pub fn load_slow(&self) -> Arc<DirectorySnapshot> {
        self.cell.load_full_slow()
    }
}

/// A pinned-epoch reader of one writer's snapshots.
#[derive(Debug)]
pub struct SnapshotReader {
    inner: Reader<DirectorySnapshot>,
}

impl SnapshotReader {
    /// Borrow the current snapshot without locking.  The borrow pins the
    /// reader's epoch slot; the snapshot cannot be freed while the guard
    /// lives.  Zero-alloc.
    pub fn load(&mut self) -> Guard<'_, DirectorySnapshot> {
        self.inner.load()
    }

    /// Promote to an owned `Arc` (outlives any publication).
    pub fn load_full(&mut self) -> Arc<DirectorySnapshot> {
        self.inner.load_full()
    }

    /// Whether this reader got a dedicated epoch slot (true for the
    /// first [`crossbeam::epoch::MAX_READERS`] readers per cell).
    pub fn is_lock_free(&self) -> bool {
        self.inner.is_lock_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdalloc_core::{AddrSpace, InformedRandomAllocator};
    use sdalloc_sap::{DirectoryConfig, SessionDescription};

    fn directory_with(n: usize) -> SessionDirectory {
        let mut cfg = DirectoryConfig::new(Ipv4Addr::new(10, 0, 0, 1));
        cfg.space = AddrSpace::abstract_space(256);
        let mut dir = SessionDirectory::new(cfg, Box::new(InformedRandomAllocator));
        let now = SimTime::from_secs(1);
        for i in 0..n {
            let desc = SessionDescription {
                origin: sdalloc_sap::Origin {
                    username: "-".into(),
                    session_id: 100 + i as u64,
                    version: 1,
                    address: Ipv4Addr::new(10, 0, 1, 1 + (i % 200) as u8),
                },
                name: format!("session-{i}"),
                info: None,
                group: Ipv4Addr::new(224, 2, 0, 1 + (i % 200) as u8),
                ttl: 127,
                start: 0,
                stop: 0,
                media: vec![],
            };
            dir.cache_observe_for_test(now, desc);
        }
        dir
    }

    /// One unconditional publication of `dir`, loaded back.
    fn publish_once(dir: &SessionDirectory) -> Arc<DirectorySnapshot> {
        let mut p = SnapshotPublisher::new(SnapshotCadence::default());
        p.publish(SimTime::from_secs(2), dir);
        p.handle().load_slow()
    }

    #[test]
    fn publication_is_sorted_and_queryable() {
        let dir = directory_with(20);
        let snap = publish_once(&dir);
        assert_eq!(snap.len(), 20);
        assert!(snap
            .rows()
            .zip(snap.rows().skip(1))
            .all(|(a, b)| a.key < b.key));
        assert!(snap.group_in_use(Ipv4Addr::new(224, 2, 0, 3)));
        assert!(!snap.group_in_use(Ipv4Addr::new(224, 9, 9, 9)));
        let row = snap
            .get(Ipv4Addr::new(10, 0, 1, 6), 105)
            .expect("row present");
        assert_eq!(&*row.name, "session-5");
        assert_eq!(snap.matching("session-1").count(), 11); // 1, 10..19
        assert_eq!(snap.corrupt_rows(), 0);
    }

    #[test]
    fn row_checksum_detects_mutation() {
        let dir = directory_with(1);
        let snap = publish_once(&dir);
        let mut row = snap.rows().next().expect("one row").clone();
        assert!(row.verify());
        row.ttl ^= 0xFF;
        assert!(!row.verify(), "a torn row must fail verification");
    }

    #[test]
    fn cadence_batches_publications() {
        let dir = directory_with(3);
        let mut p = SnapshotPublisher::new(SnapshotCadence {
            min_interval: SimDuration::from_millis(100),
            max_pending: 10,
        });
        // First publication is unconditional.
        assert!(p.maybe_publish(SimTime::from_millis(1), &dir));
        // No updates pending: nothing to publish.
        assert!(!p.maybe_publish(SimTime::from_millis(500), &dir));
        p.note_updates(1);
        assert!(
            p.maybe_publish(SimTime::from_millis(510), &dir),
            "interval elapsed"
        );
        // Updates inside the interval: held back…
        p.note_updates(1);
        assert!(!p.maybe_publish(SimTime::from_millis(560), &dir));
        // …until the interval elapses.
        assert!(p.maybe_publish(SimTime::from_millis(611), &dir));
        // A backlog at max_pending forces through the interval.
        p.note_updates(10);
        assert!(p.maybe_publish(SimTime::from_millis(612), &dir));
        assert_eq!(p.stats().published, 4);
        assert_eq!(p.stats().max_batch, 10);
    }

    #[test]
    fn reader_sees_latest_publication() {
        let dir = directory_with(5);
        let mut p = SnapshotPublisher::new(SnapshotCadence::default());
        let handle = p.handle();
        let mut reader = handle.reader();
        assert_eq!(reader.load().version(), 0);
        p.publish(SimTime::from_secs(1), &dir);
        let snap = reader.load();
        assert_eq!(snap.version(), 1);
        assert_eq!(snap.len(), 5);
        assert_eq!(
            snap.staleness(SimTime::from_secs(3)),
            SimDuration::from_secs(2)
        );
    }

    /// Announce session `i` of [`directory_with`] again at `version`,
    /// on `group`.
    fn modify(dir: &mut SessionDirectory, i: usize, version: u64, group: Ipv4Addr) {
        let desc = SessionDescription {
            origin: sdalloc_sap::Origin {
                username: "-".into(),
                session_id: 100 + i as u64,
                version,
                address: Ipv4Addr::new(10, 0, 1, 1 + (i % 200) as u8),
            },
            name: format!("session-{i}"),
            info: None,
            group,
            ttl: 127,
            start: 0,
            stop: 0,
            media: vec![],
        };
        dir.cache_observe_for_test(SimTime::from_secs(3), desc);
    }

    /// Structural invariants of a chunked sequence.
    fn assert_well_formed<T: Sorted>(c: &Chunked<T>) {
        assert_eq!(c.chunks.len(), c.firsts.len());
        assert_eq!(c.chunks.iter().map(|ch| ch.len()).sum::<usize>(), c.len);
        for (i, (chunk, first)) in c.chunks.iter().zip(&c.firsts).enumerate() {
            assert_eq!(chunk.first().map(Sorted::sort_key), Some(*first));
            assert!(chunk.len() <= CHUNK_ROWS);
            if i + 1 < c.chunks.len() {
                assert!(chunk.len() >= CHUNK_ROWS / 2, "undersized inner chunk");
            }
        }
        assert!(c
            .iter()
            .zip(c.iter().skip(1))
            .all(|(a, b)| a.sort_key() < b.sort_key()));
    }

    #[test]
    fn chunks_stay_at_least_half_full_under_churn() {
        let mut rng = sdalloc_sim::SimRng::new(5);
        let addr = |i: u64| Ipv4Addr::from(0xe000_0000 + i as u32);
        let mut set: Arc<Chunked<Ipv4Addr>> = Arc::new(Chunked::new());
        let mut model = std::collections::BTreeSet::new();
        for round in 0..200 {
            // Early rounds grow the set, later ones mostly shrink it.
            let mut edits: Vec<_> = (0..rng.below(40))
                .map(|_| {
                    let a = addr(rng.below(2_000));
                    let keep = rng.below(100) < if round < 100 { 80 } else { 20 };
                    (a, keep.then_some(a))
                })
                .collect();
            edits.sort_by_key(|e| e.0);
            edits.dedup_by_key(|e| e.0);
            for (a, v) in &edits {
                if v.is_some() {
                    model.insert(*a);
                } else {
                    model.remove(a);
                }
            }
            set = Chunked::merged(&set, edits);
            assert_well_formed(&set);
            assert!(set.iter().eq(model.iter()));
        }
    }

    #[test]
    fn merge_copies_only_the_edited_chunks() {
        let mut dir = directory_with(600);
        let mut p = SnapshotPublisher::new(SnapshotCadence::default());
        p.publish(SimTime::from_secs(2), &dir);
        let before = p.handle().load_slow();
        assert_well_formed(&before.rows);
        assert_eq!(p.stats().full_builds, 1);
        // Two edits, far apart in key order.
        modify(&mut dir, 0, 2, Ipv4Addr::new(224, 2, 1, 7));
        modify(&mut dir, 599, 2, Ipv4Addr::new(224, 2, 1, 8));
        p.publish(SimTime::from_secs(3), &dir);
        let after = p.handle().load_slow();
        assert_well_formed(&after.rows);
        assert_well_formed(&after.groups);
        assert_eq!(p.stats().full_builds, 1, "a merge, not a rebuild");
        let shared = after
            .rows
            .chunks
            .iter()
            .filter(|c| before.rows.chunks.iter().any(|b| Arc::ptr_eq(b, c)))
            .count();
        assert!(
            shared + 2 >= after.rows.chunks.len(),
            "only the two edited chunks may be copied: {shared} of {} shared",
            after.rows.chunks.len()
        );
        assert_eq!(
            after
                .get(Ipv4Addr::new(10, 0, 1, 1), 100)
                .map(|r| r.version),
            Some(2)
        );
        assert!(after.group_in_use(Ipv4Addr::new(224, 2, 1, 7)));
        // The earlier snapshot is untouched.
        assert_eq!(
            before
                .get(Ipv4Addr::new(10, 0, 1, 1), 100)
                .map(|r| r.version),
            Some(1)
        );
        assert!(!before.group_in_use(Ipv4Addr::new(224, 2, 1, 7)));
    }

    #[test]
    fn refreshes_publish_no_edits_and_restart_forces_a_full_build() {
        let mut dir = directory_with(100);
        let mut p = SnapshotPublisher::new(SnapshotCadence::default());
        p.publish(SimTime::from_secs(2), &dir);
        let before = p.handle().load_slow();
        // Same version and content: a refresh.
        modify(&mut dir, 5, 1, Ipv4Addr::new(224, 2, 0, 6));
        p.publish(SimTime::from_secs(3), &dir);
        let after = p.handle().load_slow();
        assert_eq!(after.rows.chunks.len(), before.rows.chunks.len());
        assert!(after
            .rows
            .chunks
            .iter()
            .zip(&before.rows.chunks)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        dir.restart(SimTime::from_secs(4));
        p.publish(SimTime::from_secs(4), &dir);
        assert_eq!(p.stats().full_builds, 2);
        assert!(p.handle().load_slow().is_empty());
    }

    #[test]
    fn next_due_follows_the_cadence() {
        let dir = directory_with(1);
        let mut p = SnapshotPublisher::new(SnapshotCadence {
            min_interval: SimDuration::from_millis(100),
            max_pending: 10,
        });
        assert_eq!(p.next_due(), Some(SimTime::ZERO));
        p.publish(SimTime::from_millis(40), &dir);
        assert_eq!(p.next_due(), None, "nothing pending");
        p.note_updates(1);
        assert_eq!(p.next_due(), Some(SimTime::from_millis(140)));
        p.note_updates(9);
        assert_eq!(p.next_due(), Some(SimTime::ZERO), "backlog is due at once");
    }
}
