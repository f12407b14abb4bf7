package store

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/spec"
)

// Options tunes a FileStore.
type Options struct {
	// SegmentBytes is the size at which a result segment is sealed and a
	// new one started. Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// Clock measures lease expiry. Nil means the real clock.
	Clock obs.Clock
}

// DefaultSegmentBytes is the default result-segment rotation size.
const DefaultSegmentBytes = 8 << 20

// fsSession is the in-process view of one on-disk session log: whether
// this process has opened it (AppendCreated or Replay) and whether it
// has seen a tombstone.
type fsSession struct {
	tombstoned bool
}

// FileStore is the stdlib-only on-disk backend: framed-JSONL session
// logs under dir/sessions and append-only result segments under
// dir/results (see doc.go for the format and crash semantics). A single
// process owns the directory for its lifetime.
type FileStore struct {
	counters
	dir string
	opt Options

	mu sync.Mutex
	// sessions tracks the logs this process has opened; appends to a
	// session the process has never created or replayed are refused.
	sessions map[string]*fsSession
	// idx caches every stored result; segments are the journal, this map
	// is the index, rebuilt from the segments at Open.
	idx map[string][]byte
	// active is the open handle of the last (writable) segment; activeN
	// its sequence number, activeSize its current length.
	active     *os.File
	activeN    int
	activeSize int64
	// lt is the lease table, rebuilt from dir/leases.log at Open so
	// fencing tokens stay monotonic across a store-server restart.
	lt     leaseTable
	closed bool
}

// Open mounts (or initializes) a file store rooted at dir.
func Open(dir string, opt Options) (*FileStore, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if opt.Clock == nil {
		opt.Clock = obs.NewRealClock()
	}
	st := &FileStore{
		dir:      dir,
		opt:      opt,
		sessions: make(map[string]*fsSession),
		idx:      make(map[string][]byte),
		lt:       newLeaseTable(),
	}
	for _, sub := range []string{st.sessionsDir(), st.resultsDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	if err := st.loadSegments(); err != nil {
		return nil, err
	}
	if err := st.loadLeases(); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *FileStore) sessionsDir() string { return filepath.Join(st.dir, "sessions") }
func (st *FileStore) resultsDir() string  { return filepath.Join(st.dir, "results") }
func (st *FileStore) leasesPath() string  { return filepath.Join(st.dir, "leases.log") }

func (st *FileStore) sessionPath(id string) string {
	return filepath.Join(st.sessionsDir(), id+".log")
}

func segmentName(n int) string { return fmt.Sprintf("seg-%06d.log", n) }

// ValidID reports whether id is usable as a session id on every
// backend: non-empty, not dot-led, and drawn from [A-Za-z0-9._-] —
// the set that is safe as a FileStore file name. The service checks
// client-chosen session ids against it before they reach any backend,
// so an id accepted over a MemStore is not later refused by a
// FileStore.
func ValidID(id string) error { return validSessionID(id) }

// validSessionID accepts ids that are safe as file names: non-empty,
// not dot-led, and drawn from [A-Za-z0-9._-]. An unsafe id wraps
// ErrNoSession — such an id can never name a stored log, and the read
// paths should answer "not found", not "server error".
func validSessionID(id string) error {
	bad := func() error {
		return fmt.Errorf("store: invalid session id %q: %w", id, ErrNoSession)
	}
	if id == "" || id[0] == '.' {
		return bad()
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return bad()
		}
	}
	return nil
}

// syncDir fsyncs a directory so a freshly created file's entry is
// durable, not just its bytes.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// appendDurable opens path for appending, writes line and fsyncs it.
// The fsync — the dominant cost of every durable append, the serving
// tier's checkpoint cost C — gets its own span.
func appendDurable(ctx context.Context, path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(line); err != nil {
		return err
	}
	_, sp := obs.StartSpan(ctx, "store.fsync")
	err = f.Sync()
	sp.End()
	return err
}

func (st *FileStore) AppendCreated(ctx context.Context, id string, ss *spec.SessionSpec) error {
	ctx, span := obs.StartSpan(ctx, "store.append")
	defer span.End()
	span.SetAttr("kind", "created")
	span.SetAttr("session", id)
	if err := validSessionID(id); err != nil {
		return err
	}
	line, err := encodeSessionRecord(sessionRecord{Kind: recCreated, Spec: ss})
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	path := st.sessionPath(id)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return fmt.Errorf("store: create session %s: %w", id, ErrSessionExists)
	}
	if err != nil {
		return fmt.Errorf("store: create session %s: %w", id, err)
	}
	if _, err = f.Write(line); err == nil {
		_, sp := obs.StartSpan(ctx, "store.fsync")
		err = f.Sync()
		sp.End()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		// The record was not acknowledged; drop the partial file so the id
		// is not burned by a half-created log.
		os.Remove(path)
		return fmt.Errorf("store: create session %s: %w", id, err)
	}
	if err := syncDir(st.sessionsDir()); err != nil {
		return fmt.Errorf("store: create session %s: %w", id, err)
	}
	st.sessions[id] = &fsSession{}
	st.appends.Add(1)
	return nil
}

func (st *FileStore) AppendEvent(ctx context.Context, id string, ev advisor.Event) error {
	line, err := encodeSessionRecord(sessionRecord{Kind: recEvent, Event: &ev})
	if err != nil {
		return err
	}
	return st.appendOpen(ctx, id, "event", line)
}

func (st *FileStore) AppendAdvised(ctx context.Context, id string) error {
	line, err := encodeSessionRecord(sessionRecord{Kind: recAdvised})
	if err != nil {
		return err
	}
	return st.appendOpen(ctx, id, "advised", line)
}

// appendOpen appends one record to a session this process has opened.
func (st *FileStore) appendOpen(ctx context.Context, id, kind string, line []byte) error {
	ctx, span := obs.StartSpan(ctx, "store.append")
	defer span.End()
	span.SetAttr("kind", kind)
	span.SetAttr("session", id)
	if err := validSessionID(id); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	s, ok := st.sessions[id]
	switch {
	case !ok:
		return fmt.Errorf("store: append session %s: %w", id, ErrNoSession)
	case s.tombstoned:
		return fmt.Errorf("store: append session %s: %w", id, ErrTombstoned)
	}
	if err := appendDurable(ctx, st.sessionPath(id), line); err != nil {
		return fmt.Errorf("store: append session %s: %w", id, err)
	}
	st.appends.Add(1)
	return nil
}

func (st *FileStore) Tombstone(ctx context.Context, id string) error {
	ctx, span := obs.StartSpan(ctx, "store.append")
	defer span.End()
	span.SetAttr("kind", "tombstone")
	span.SetAttr("session", id)
	if err := validSessionID(id); err != nil {
		return err
	}
	line, err := encodeSessionRecord(sessionRecord{Kind: recTombstone})
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	// Tombstone does not require the session to be open: a restarted
	// server may reap a session it never rehydrated. Load the log's state
	// (repairing any torn tail) if this process has not seen it.
	s, ok := st.sessions[id]
	if !ok {
		if _, _, err := st.loadSessionLocked(id); err != nil {
			return err
		}
		s = st.sessions[id]
	}
	if s.tombstoned {
		return fmt.Errorf("store: tombstone session %s: %w", id, ErrTombstoned)
	}
	if err := appendDurable(ctx, st.sessionPath(id), line); err != nil {
		return fmt.Errorf("store: tombstone session %s: %w", id, err)
	}
	s.tombstoned = true
	st.appends.Add(1)
	return nil
}

func (st *FileStore) Replay(ctx context.Context, id string) (*SessionReplay, error) {
	_, span := obs.StartSpan(ctx, "store.replay")
	defer span.End()
	span.SetAttr("session", id)
	if err := validSessionID(id); err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, ErrClosed
	}
	// A tombstone is terminal, so the cached state answers without
	// re-reading the log (as Tombstone does).
	if s, ok := st.sessions[id]; ok && s.tombstoned {
		return nil, fmt.Errorf("store: replay session %s: %w", id, ErrTombstoned)
	}
	rep, tombstoned, err := st.loadSessionLocked(id)
	if err != nil {
		return nil, err
	}
	if tombstoned {
		return nil, fmt.Errorf("store: replay session %s: %w", id, ErrTombstoned)
	}
	st.replays.Add(1)
	return rep, nil
}

// loadSessionLocked reads, repairs and parses one session log, caching
// its open/tombstoned state. It returns the replay (nil when the log is
// tombstoned) and whether a tombstone terminates it.
func (st *FileStore) loadSessionLocked(id string) (*SessionReplay, bool, error) {
	path := st.sessionPath(id)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, fmt.Errorf("store: replay session %s: %w", id, ErrNoSession)
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: replay session %s: %w", id, err)
	}
	frames, torn, err := decodeFrames(data)
	if err != nil {
		return nil, false, fmt.Errorf("store: replay session %s: %w", id, err)
	}
	if torn > 0 {
		// A crash mid-append left an unacknowledged fragment; truncate it
		// away so later appends extend a clean log.
		if err := os.Truncate(path, int64(len(data)-torn)); err != nil {
			return nil, false, fmt.Errorf("store: repair session %s: %w", id, err)
		}
	}
	rep, err := replayRecords(frames)
	switch {
	case errors.Is(err, ErrTombstoned):
		st.sessions[id] = &fsSession{tombstoned: true}
		return nil, true, nil
	case errors.Is(err, ErrNoSession):
		// The log exists but holds no acknowledged record (crash between
		// create and first write, now repaired to empty).
		return nil, false, fmt.Errorf("store: replay session %s: %w", id, ErrNoSession)
	case err != nil:
		return nil, false, fmt.Errorf("store: replay session %s: %w", id, err)
	}
	st.sessions[id] = &fsSession{}
	return rep, false, nil
}

// loadSegments scans dir/results at Open: sealed segments must be
// clean, the last segment may carry a torn tail (repaired by
// truncation), and every surviving record lands in the index.
func (st *FileStore) loadSegments() error {
	entries, err := os.ReadDir(st.resultsDir())
	if err != nil {
		return fmt.Errorf("store: open results: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".log") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for i, name := range names {
		path := filepath.Join(st.resultsDir(), name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: open segment %s: %w", name, err)
		}
		frames, torn, err := decodeFrames(data)
		if err != nil {
			return fmt.Errorf("store: open segment %s: %w", name, err)
		}
		last := i == len(names)-1
		if torn > 0 {
			if !last {
				return fmt.Errorf("store: open segment %s: %w", name,
					&CorruptError{Offset: len(data) - torn, Reason: "torn tail in a sealed segment"})
			}
			if err := os.Truncate(path, int64(len(data)-torn)); err != nil {
				return fmt.Errorf("store: repair segment %s: %w", name, err)
			}
		}
		for _, fr := range frames {
			rec, err := decodeKVRecord(fr.payload, fr.off)
			if err != nil {
				return fmt.Errorf("store: open segment %s: %w", name, err)
			}
			st.idx[rec.Key] = rec.Val
		}
		var n int
		if _, err := fmt.Sscanf(name, "seg-%06d.log", &n); err == nil && n > st.activeN {
			st.activeN = n
		}
		if last {
			st.activeSize = int64(len(data) - torn)
		}
	}
	if len(names) == 0 {
		st.activeN = 1
		st.activeSize = 0
		return st.openActive(true)
	}
	return st.openActive(false)
}

// openActive opens (creating when fresh) the writable segment.
func (st *FileStore) openActive(create bool) error {
	flags := os.O_WRONLY | os.O_APPEND
	if create {
		flags |= os.O_CREATE
	}
	name := segmentName(st.activeN)
	f, err := os.OpenFile(filepath.Join(st.resultsDir(), name), flags, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment %s: %w", name, err)
	}
	st.active = f
	if create {
		if err := syncDir(st.resultsDir()); err != nil {
			return fmt.Errorf("store: open segment %s: %w", name, err)
		}
	}
	return nil
}

func (st *FileStore) Put(ctx context.Context, key string, val []byte) error {
	ctx, span := obs.StartSpan(ctx, "store.put")
	defer span.End()
	span.SetAttr("key", key)
	if key == "" {
		return errors.New("store: put with an empty key")
	}
	line, err := encodeKVRecord(key, val)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	return st.putLineLocked(ctx, key, val, line)
}

// putLineLocked appends one already-framed result record to the active
// segment (rotating as needed), fsyncs it and indexes the value. The
// caller holds st.mu and has already checked closed (and, for fenced
// writes, the lease token).
func (st *FileStore) putLineLocked(ctx context.Context, key string, val, line []byte) error {
	if st.activeSize >= st.opt.SegmentBytes {
		if err := st.active.Close(); err != nil {
			return fmt.Errorf("store: seal segment %s: %w", segmentName(st.activeN), err)
		}
		st.activeN++
		st.activeSize = 0
		if err := st.openActive(true); err != nil {
			return err
		}
	}
	if _, err := st.active.Write(line); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	_, sp := obs.StartSpan(ctx, "store.fsync")
	err := st.active.Sync()
	sp.End()
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	st.activeSize += int64(len(line))
	cp := make([]byte, len(val))
	copy(cp, val)
	st.idx[key] = cp
	st.puts.Add(1)
	return nil
}

func (st *FileStore) Get(_ context.Context, key string) ([]byte, bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, false, ErrClosed
	}
	st.gets.Add(1)
	v, ok := st.idx[key]
	if !ok {
		return nil, false, nil
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, true, nil
}

// loadLeases rebuilds the lease table from dir/leases.log at Open.
// Like the session logs, a torn tail is an unacknowledged transition
// repaired by truncation; a terminated-but-bad line is corruption.
// The file is created empty when missing so later appends can open it
// O_APPEND without racing on creation.
func (st *FileStore) loadLeases() error {
	path := st.leasesPath()
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			return fmt.Errorf("store: open leases: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("store: open leases: %w", err)
		}
		return syncDir(st.dir)
	}
	if err != nil {
		return fmt.Errorf("store: open leases: %w", err)
	}
	frames, torn, err := decodeFrames(data)
	if err != nil {
		return fmt.Errorf("store: open leases: %w", err)
	}
	for _, fr := range frames {
		rec, err := decodeLeaseRecord(fr.payload, fr.off)
		if err != nil {
			return fmt.Errorf("store: open leases: %w", err)
		}
		s := &leaseState{owner: rec.Owner, token: rec.Token, released: rec.ExpUnixMS == 0}
		if !s.released {
			s.exp = time.UnixMilli(rec.ExpUnixMS)
		}
		st.lt.leases[rec.Key] = s
	}
	// The table needs one live-state record per key; a longer journal is
	// renewal churn from past runs (and a torn tail is an unacknowledged
	// transition). Rewriting it compacted repairs both and keeps the file
	// from growing for the deployment's lifetime.
	if torn > 0 || len(frames) > len(st.lt.leases) {
		if err := st.compactLeases(); err != nil {
			return fmt.Errorf("store: compact leases: %w", err)
		}
	}
	return nil
}

// compactLeases atomically rewrites dir/leases.log as one record per
// key — the lease table's current state, keys sorted for a
// deterministic image — via the tmp + fsync + rename discipline, so a
// crash mid-compaction leaves either the old or the new journal.
func (st *FileStore) compactLeases() error {
	keys := make([]string, 0, len(st.lt.leases))
	for k := range st.lt.leases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		s := st.lt.leases[k]
		rec := leaseRecord{Key: k, Owner: s.owner, Token: s.token}
		if !s.released {
			rec.ExpUnixMS = s.exp.UnixMilli()
		}
		line, err := encodeLeaseRecord(rec)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
	}
	path := st.leasesPath()
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(st.dir)
}

// journalLeaseLocked makes key's current lease state durable. It must
// succeed before the transition is acknowledged: a granted lease whose
// token bump did not reach disk could, after a crash, be re-granted
// with a stale token — exactly what fencing exists to prevent.
func (st *FileStore) journalLeaseLocked(ctx context.Context, key string) error {
	s := st.lt.snapshot(key)
	rec := leaseRecord{Key: key, Owner: s.owner, Token: s.token}
	if !s.released {
		rec.ExpUnixMS = s.exp.UnixMilli()
	}
	line, err := encodeLeaseRecord(rec)
	if err != nil {
		return err
	}
	if err := appendDurable(ctx, st.leasesPath(), line); err != nil {
		return fmt.Errorf("store: journal lease %s: %w", key, err)
	}
	return nil
}

func (st *FileStore) AcquireLease(ctx context.Context, key, owner string, ttl time.Duration) (Lease, error) {
	ctx, span := obs.StartSpan(ctx, "store.lease")
	defer span.End()
	span.SetAttr("op", "acquire")
	span.SetAttr("key", key)
	if err := validLeaseArgs(key, owner, ttl); err != nil {
		return Lease{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return Lease{}, ErrClosed
	}
	l, reclaimed, err := st.lt.acquire(key, owner, ttl, st.opt.Clock.Now())
	if err != nil {
		return Lease{}, fmt.Errorf("store: acquire lease %s: %w", key, err)
	}
	if err := st.journalLeaseLocked(ctx, key); err != nil {
		return Lease{}, err
	}
	st.leaseAcquired.Add(1)
	if reclaimed {
		st.leaseReclaimed.Add(1)
	}
	return l, nil
}

func (st *FileStore) RenewLease(ctx context.Context, l Lease, ttl time.Duration) error {
	ctx, span := obs.StartSpan(ctx, "store.lease")
	defer span.End()
	span.SetAttr("op", "renew")
	span.SetAttr("key", l.Key)
	if err := validLeaseArgs(l.Key, l.Owner, ttl); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if err := st.lt.renew(l, ttl, st.opt.Clock.Now()); err != nil {
		return st.countLeaseErr(fmt.Errorf("store: renew lease %s: %w", l.Key, err))
	}
	if err := st.journalLeaseLocked(ctx, l.Key); err != nil {
		return err
	}
	st.leaseRenewed.Add(1)
	return nil
}

func (st *FileStore) ReleaseLease(ctx context.Context, l Lease) error {
	ctx, span := obs.StartSpan(ctx, "store.lease")
	defer span.End()
	span.SetAttr("op", "release")
	span.SetAttr("key", l.Key)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if err := st.lt.release(l); err != nil {
		return st.countLeaseErr(fmt.Errorf("store: release lease %s: %w", l.Key, err))
	}
	if err := st.journalLeaseLocked(ctx, l.Key); err != nil {
		return err
	}
	st.leaseReleased.Add(1)
	return nil
}

func (st *FileStore) PutLeased(ctx context.Context, l Lease, key string, val []byte) error {
	ctx, span := obs.StartSpan(ctx, "store.put")
	defer span.End()
	span.SetAttr("key", key)
	span.SetAttr("leased", "true")
	if key == "" {
		return errors.New("store: put with an empty key")
	}
	line, err := encodeKVRecord(key, val)
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if err := st.lt.check(l); err != nil {
		return st.countLeaseErr(fmt.Errorf("store: fenced put %s: %w", key, err))
	}
	return st.putLineLocked(ctx, key, val, line)
}

func (st *FileStore) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	if st.active != nil {
		if err := st.active.Close(); err != nil {
			return fmt.Errorf("store: close: %w", err)
		}
	}
	return nil
}
