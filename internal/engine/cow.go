// Copy-on-write snapshots. A Snapshot freezes a Database into an
// immutable view; Fork then derives cheap private copies that share
// every heap page, index and statistics object with the frozen origin
// while keeping their own catalog-of-indexes and statistics maps. One
// loaded database can this way serve many concurrent idxmerged
// sessions without rebuilds.
package engine

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"maps"
	"sort"
)

// ErrFrozen is returned by mutators invoked on a database that has
// been frozen by Snapshot().
var ErrFrozen = errors.New("engine: database is frozen by a snapshot")

// ErrForkMutation is returned by row/schema mutators invoked on a
// copy-on-write fork, which shares heaps and schema with its origin.
var ErrForkMutation = errors.New("engine: copy-on-write fork forbids row and schema mutation")

// Snapshot is an immutable view of a Database, keyed by the
// statistics version captured at freeze time. Creating a snapshot
// freezes the origin permanently: every mutator on it fails from then
// on, which is what makes concurrent Fork() calls and concurrent
// read-path use safe.
type Snapshot struct {
	origin  *Database
	version uint64
	fp      uint64
}

// Snapshot freezes the database and returns an immutable view of it.
// Freezing is permanent and idempotent; the read path (costing,
// scans) remains fully usable on the origin.
func (db *Database) Snapshot() *Snapshot {
	if db.fork {
		panic("engine: Snapshot on a copy-on-write fork")
	}
	db.frozen.Store(true)
	return &Snapshot{origin: db, version: db.statsVersion.Load(), fp: db.Fingerprint()}
}

// StatsVersion returns the statistics version captured at freeze time.
func (s *Snapshot) StatsVersion() uint64 { return s.version }

// Fingerprint returns the origin's fingerprint (see
// Database.Fingerprint) captured at freeze time.
func (s *Snapshot) Fingerprint() uint64 { return s.fp }

// DB returns the frozen origin for read-only use (costing, scans).
func (s *Snapshot) DB() *Database { return s.origin }

// Fork returns a copy-on-write database derived from the snapshot.
// The fork shares the origin's schema, heaps, materialized indexes
// and statistics objects, but owns its maps: CreateIndex, DropIndex,
// Materialize and Analyze act on the fork alone, while Insert,
// DeleteWhere, BulkLoad and CreateTable — which would mutate shared
// state — return ErrForkMutation. Forking is safe concurrently with
// other forks and with read-path use of the origin.
func (s *Snapshot) Fork() *Database {
	o := s.origin
	f := &Database{
		schema:    o.schema,
		heaps:     maps.Clone(o.heaps),
		indexes:   maps.Clone(o.indexes),
		tstats:    maps.Clone(o.tstats),
		statsOpts: o.statsOpts,
		fork:      true,
	}
	f.statsVersion.Store(s.version)
	return f
}

// mutableRows guards mutators that write rows or schema (shared with
// the origin on forks, immutable on frozen databases).
func (db *Database) mutableRows() error {
	if db.fork {
		return ErrForkMutation
	}
	if db.frozen.Load() {
		return ErrFrozen
	}
	return nil
}

// mutableIndexes guards index DDL and Analyze: forbidden on frozen
// origins, allowed on forks (their index/stats maps are private and
// building an index only reads the shared heap).
func (db *Database) mutableIndexes() error {
	if db.frozen.Load() {
		return ErrFrozen
	}
	return nil
}

// Fingerprint summarizes the database's identity: FNV-1a over the
// sorted schema (table, column names/types/widths), per-table row
// counts and heap bytes, the sorted materialized index keys, and the
// statistics build options and version. Two processes that build the same database through the
// same deterministic path (a snapshot file, or a named generator with
// identical scale and seed) agree on it, and so return identical
// what-if costs.
func (db *Database) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	tables := db.schema.Tables()
	names := make([]string, 0, len(tables))
	byName := make(map[string]int, len(tables))
	for i, t := range tables {
		names = append(names, t.Name)
		byName[t.Name] = i
	}
	sort.Strings(names)
	for _, name := range names {
		t := tables[byName[name]]
		str(t.Name)
		u64(uint64(len(t.Columns)))
		for _, c := range t.Columns {
			str(c.Name)
			u64(uint64(c.Type))
			u64(uint64(c.Width))
		}
		u64(uint64(db.TableRowCount(t.Name)))
		if hp, ok := db.heaps[t.Name]; ok {
			u64(uint64(hp.Bytes()))
		}
	}
	keys := make([]string, 0, len(db.indexes))
	for k := range db.indexes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	u64(uint64(len(keys)))
	for _, k := range keys {
		str(k)
	}
	u64(uint64(db.statsOpts.Buckets))
	u64(uint64(int64(db.statsOpts.SampleRate * 1e9)))
	u64(uint64(db.statsOpts.Seed))
	u64(db.statsVersion.Load())
	return h.Sum64()
}
