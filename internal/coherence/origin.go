package coherence

import "repro/internal/oodb"

// Origin is the authoritative side of the lease protocol (§3.2): the
// versioned database, the perfect-knowledge oracle over it, and the write
// histories that price each lease, kept per attribute and per whole object
// (an object-grain copy goes stale on a write to any attribute). The
// simulated server and the live store are both built on it, so what a write
// event does and what a grant reads back is written once. It takes no locks
// and reads no clock: callers serialize access and pass the time in.
type Origin struct {
	db      *oodb.Database
	oracle  *Oracle
	attrEst *RefreshEstimator
	objEst  *RefreshEstimator
}

// NewOrigin builds the origin over db with staleness tolerance beta.
func NewOrigin(db *oodb.Database, beta float64) *Origin {
	return &Origin{
		db:      db,
		oracle:  NewOracle(db),
		attrEst: NewRefreshEstimator(beta),
		objEst:  NewRefreshEstimator(beta),
	}
}

// DB exposes the database.
func (o *Origin) DB() *oodb.Database { return o.db }

// Oracle exposes the perfect-knowledge error oracle.
func (o *Origin) Oracle() *Oracle { return o.oracle }

// Estimator returns the write-history estimator of it's grain.
func (o *Origin) Estimator(it oodb.Item) *RefreshEstimator {
	if it.IsObject() {
		return o.objEst
	}
	return o.attrEst
}

// Write applies one write event to object oid at time now: each distinct
// attribute of attrs, in first-occurrence order, bumps its version and is
// observed by the attribute-grain estimator (and by observe, when non-nil);
// the object-grain estimator then observes the event once, however many
// attributes it touched. It returns the number of attributes written.
func (o *Origin) Write(oid oodb.OID, attrs []oodb.AttrID, now float64, observe func(it oodb.Item, now float64)) int {
	written := 0
	var seen uint16
	for _, a := range attrs {
		bit := uint16(1) << a
		if seen&bit != 0 {
			continue
		}
		seen |= bit
		it := oodb.AttrItem(oid, a)
		o.db.Write(oid, a)
		o.attrEst.ObserveWrite(it, now)
		if observe != nil {
			observe(it, now)
		}
		written++
	}
	o.objEst.ObserveWrite(oodb.ObjectItem(oid), now)
	return written
}

// Grant prices a copy of it shipped at time now: the current version and the
// refresh time from the estimator of it's grain.
func (o *Origin) Grant(it oodb.Item, now float64) (version uint64, refresh float64) {
	return o.oracle.CurrentVersion(it), o.Estimator(it).RefreshTime(it, now)
}
