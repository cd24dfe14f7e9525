package store

import "github.com/hetfed/hetfed/internal/object"

// StorageEngine is the durability layer behind a component database. Every
// state mutation — object insert (which covers extent membership, the
// database-wide LOid index, and secondary-index maintenance), secondary
// index creation, and GOid mapping-table binds — is offered to the engine
// BEFORE it is applied in memory, so a persistent engine can write it ahead
// to stable storage (write-ahead logging). If the engine returns an error
// the mutation is not applied.
//
// A database with no engine attached keeps its state in memory only; the
// persistent WAL+snapshot engine lives in internal/store/wal. Implementations do not need to be
// concurrency-safe against the state they snapshot: callers serialize
// mutations against reads (the TCP server with its state lock, fixtures by
// being single-threaded), and the wal engine snapshots under that same
// exclusion.
type StorageEngine interface {
	// LogInsert records an object insert. The object has already been
	// validated against the schema and is immutable from here on.
	LogInsert(o *object.Object) error
	// LogCreateIndex records the creation of a secondary index over a
	// primitive single-valued attribute. Replaying it twice rebuilds the
	// index, which is idempotent.
	LogCreateIndex(class, attr string) error
	// LogBind records a GOid mapping-table binding. Replay tolerates
	// exact duplicates (same class/goid/site/loid), so logged-but-
	// unapplied binds are harmless after a crash.
	LogBind(class string, goid object.GOid, site object.SiteID, loid object.LOid) error
	// Sync forces everything logged so far to stable storage.
	Sync() error
	// Close flushes and releases the engine. Idempotent.
	Close() error
}
