package workload

import (
	"fmt"
	"strings"

	"repro/internal/oodb"
	"repro/internal/rng"
)

// Kind distinguishes the two query types of §4.
type Kind int

const (
	// Associative queries (AQ) access Q_a primitive attributes of each
	// selected object.
	Associative Kind = iota
	// Navigational queries (NQ) additionally traverse one inter-object
	// relationship per selected object and access Q_a attributes of the
	// related object, doubling the effective selectivity.
	Navigational
)

// String renders the kind as the paper's abbreviation.
func (k Kind) String() string {
	switch k {
	case Associative:
		return "AQ"
	case Navigational:
		return "NQ"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a kind's String form, in any letter case ("aq", "NQ").
func ParseKind(s string) (Kind, error) {
	for k := Associative; k <= Navigational; k++ {
		if strings.EqualFold(s, k.String()) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown query kind %q (want AQ|NQ)", s)
}

// Defaults for query shape (§4; Table 1's Q_a column is garbled in the
// source text — see DESIGN.md for the substitution rationale).
const (
	// DefaultSelectivity is 1% of the 2000-object database: 20 objects.
	DefaultSelectivity = 20
	// DefaultAttrsPerObject is Q_a, the primitive attributes accessed per
	// selected object.
	DefaultAttrsPerObject = 3
	// DefaultAttrTheta skews the per-attribute access distribution
	// ("uniform skewed ... all attributes have a non-zero access
	// probability"): weights 1/rank^theta over the 9 primitive attributes.
	DefaultAttrTheta = 1.0
)

// ReadOp is one attribute access performed by a query.
type ReadOp struct {
	OID  oodb.OID
	Attr oodb.AttrID
}

// Query is one client query: the selected objects and the flattened list
// of attribute reads (including reads on navigated objects for NQ).
type Query struct {
	Index   uint64
	Kind    Kind
	Objects []oodb.OID // objects selected by the predicate
	Reads   []ReadOp   // attribute accesses, in evaluation order
}

// QueryGen produces the stream of queries a client issues.
type QueryGen struct {
	kind        Kind
	heat        HeatModel
	db          *oodb.Database
	attrDist    *rng.Discrete
	selectivity int
	attrsPerObj int
	count       uint64
	attrScratch []oodb.AttrID // reused by pickAttrs; consumed before the next call
}

// QueryGenConfig parameterizes a generator; zero values select defaults.
type QueryGenConfig struct {
	Kind          Kind
	Heat          HeatModel
	DB            *oodb.Database
	Selectivity   int     // objects per query (default DefaultSelectivity)
	AttrsPerObj   int     // Q_a (default DefaultAttrsPerObject)
	AttrSkewTheta float64 // default DefaultAttrTheta
}

// NewQueryGen builds a generator. Heat and DB are required.
func NewQueryGen(cfg QueryGenConfig) *QueryGen {
	if cfg.Heat == nil {
		panic("workload: QueryGen requires a heat model")
	}
	if cfg.DB == nil {
		panic("workload: QueryGen requires a database")
	}
	sel := cfg.Selectivity
	if sel <= 0 {
		sel = DefaultSelectivity
	}
	qa := cfg.AttrsPerObj
	if qa <= 0 {
		qa = DefaultAttrsPerObject
	}
	if qa > oodb.NumPrimAttrs {
		panic(fmt.Sprintf("workload: AttrsPerObj %d exceeds %d primitive attributes",
			qa, oodb.NumPrimAttrs))
	}
	theta := cfg.AttrSkewTheta
	if theta == 0 {
		theta = DefaultAttrTheta
	}
	return &QueryGen{
		kind:        cfg.Kind,
		heat:        cfg.Heat,
		db:          cfg.DB,
		attrDist:    rng.NewDiscrete(rng.ZipfWeights(oodb.NumPrimAttrs, theta)),
		selectivity: sel,
		attrsPerObj: qa,
	}
}

// Next generates the next query using the client's stream r.
func (g *QueryGen) Next(r *rng.Stream) Query {
	var q Query
	g.NextInto(r, &q)
	return q
}

// NextInto generates the next query into q, reusing q's Objects and Reads
// backing storage. The random draws are identical to Next's.
func (g *QueryGen) NextInto(r *rng.Stream, q *Query) {
	q.Index = g.count
	q.Kind = g.kind
	g.count++
	q.Objects = g.heat.PickInto(r, g.selectivity, q.Index, q.Objects)
	q.Reads = q.Reads[:0]
	for _, oid := range q.Objects {
		for _, attr := range g.pickAttrs(r) {
			q.Reads = append(q.Reads, ReadOp{OID: oid, Attr: attr})
		}
		if g.kind == Navigational {
			// Traverse one relationship (Q_r = 1) and access Q_a
			// attributes of the related object.
			rel := r.Intn(oodb.NumRelAttrs)
			target := g.db.Relationship(oid, rel)
			for _, attr := range g.pickAttrs(r) {
				q.Reads = append(q.Reads, ReadOp{OID: target, Attr: attr})
			}
		}
	}
}

// pickAttrs draws Q_a distinct primitive attributes from the skewed
// distribution. The returned slice aliases the generator's scratch buffer
// and is only valid until the next call.
func (g *QueryGen) pickAttrs(r *rng.Stream) []oodb.AttrID {
	if g.attrScratch == nil {
		g.attrScratch = make([]oodb.AttrID, 0, g.attrsPerObj)
	}
	out := g.attrScratch[:0]
	var seen [oodb.NumPrimAttrs]bool
	for len(out) < g.attrsPerObj {
		a := oodb.AttrID(g.attrDist.Draw(r))
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	g.attrScratch = out
	return out
}

// Grouping regroups a query's flat read list by object: the distinct objects
// in first-seen order — the order the server stages them, flips their update
// coins and lays out a reply in — and, through AttrsOf, each object's write
// event under the update model. The zero value is ready; its table is
// indexed by OID (OIDs are dense below the database size) and reused across
// calls, so only the latest collected order is current.
type Grouping struct {
	slots []groupSlot
	gen   uint32
}

// groupSlot is one OID's entry: gen == Grouping.gen marks it as in the
// current order, at position idx.
type groupSlot struct {
	gen uint32
	idx int32
}

// Objects appends the distinct objects of reads to out in first-seen order.
func (g *Grouping) Objects(reads []ReadOp, out []oodb.OID) []oodb.OID {
	g.gen++
	if g.gen == 0 { // wrapped: no stale stamp may equal a reissued gen
		clear(g.slots)
		g.gen = 1
	}
	for _, rd := range reads {
		if int(rd.OID) >= len(g.slots) {
			g.slots = append(g.slots, make([]groupSlot, int(rd.OID)+1-len(g.slots))...)
		}
		if sl := &g.slots[rd.OID]; sl.gen != g.gen {
			sl.gen = g.gen
			sl.idx = int32(len(out))
			out = append(out, rd.OID)
		}
	}
	return out
}

// Index returns the position of oid, one of the latest Objects call's reads,
// in what that call appended.
func (g *Grouping) Index(oid oodb.OID) int32 { return g.slots[oid].idx }

// AttrsOf appends the distinct attributes reads touch on oid to out, in
// first-occurrence order.
func AttrsOf(reads []ReadOp, oid oodb.OID, out []oodb.AttrID) []oodb.AttrID {
	var seen uint16
	for _, rd := range reads {
		if bit := uint16(1) << rd.Attr; rd.OID == oid && seen&bit == 0 {
			seen |= bit
			out = append(out, rd.Attr)
		}
	}
	return out
}
