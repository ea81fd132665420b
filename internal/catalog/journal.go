package catalog

import (
	"tetrisjoin/internal/core"
	"tetrisjoin/internal/index"
	"tetrisjoin/internal/relation"
)

// Journal is the catalog's durability seam. Every mutation — Ingest,
// Append, Delete, MaintainAs — runs Begin, applies itself to the
// in-memory state, hands the applied change to Log, and acknowledges
// only when Log returned nil: apply → log → fsync → ack. (A registration
// applies nothing a reader could see before Log: its id is published
// after, so a failed one leaves no trace.) A catalog without a journal
// runs the same path over a no-op one.
type Journal interface {
	// Begin opens one mutation. An error rejects it before anything is
	// applied: a log that can no longer acknowledge must not let memory
	// run further ahead of disk. On success the journal holds its own
	// serialization lock until End, so mutations reach Log in the order
	// they publish. Only writers ever take that lock — readers go through
	// the catalog's RWMutex, which is never held across Log — so nothing
	// but another write waits on an fsync.
	Begin() error
	// Log makes the just-applied mutation durable.
	Log(Mutation) error
	// End closes the mutation Begin opened.
	End()
}

// Mutation is one applied catalog change, carrying exactly the arguments
// that re-apply it to a recovering catalog.
type Mutation struct {
	// Op is "ingest", "append", "delete" or "maintain". The write-ahead
	// log stores it verbatim: renaming one changes the on-disk format.
	Op string
	// Rel and Specs are Ingest's arguments. DefaultSpecs are not included:
	// they are configuration, re-added by whichever catalog replays.
	Rel   *relation.Relation
	Specs []index.Spec
	// Name and Tuples are Append's and Delete's arguments.
	Name   string
	Tuples []relation.Tuple
	// Statement is MaintainAs's registration.
	Statement Registration
}

// Registration is what recreates a registered maintained statement: the
// id and the arguments MaintainAs was given. Only Mode and SAOVars of
// the options are statement identity; the rest is per-execution tuning.
type Registration struct {
	ID, Query string
	Mode      core.Mode
	SAOVars   []string
}

// SetJournal attaches the journal every later mutation is logged to.
// Recovery attaches it last, after the checkpoint and the log tail have
// been applied: replaying a record must not log it again.
func (c *Catalog) SetJournal(j Journal) { c.journal.Store(&j) }

// begin opens one mutation on the attached journal.
func (c *Catalog) begin() (Journal, error) {
	j := *c.journal.Load()
	return j, j.Begin()
}

// noJournal is the journal of an in-memory catalog: nothing to reject,
// nothing to serialize (writers race optimistically, see update),
// nothing to log.
type noJournal struct{}

func (noJournal) Begin() error       { return nil }
func (noJournal) Log(Mutation) error { return nil }
func (noJournal) End()               {}
