package federation_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/oodb"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// twice is a client machine that serves one request two times over.
type twice struct {
	call  server.RequestCall
	req   server.Request
	done  int
	armed bool
}

func (c *twice) Step(m *sim.Machine) {
	for c.done < 2 {
		if !c.armed {
			c.call.Begin(c.req)
			c.armed = true
		}
		if _, done := c.call.Step(m); !done {
			return // waiting on a disk, a backbone link, ...
		}
		c.armed = false
		c.done++
	}
	m.Finish()
}

// A two-cell federation over a range-partitioned database: the contact
// server in cell 0 owns OIDs 0..49, so a read of OID 90 is relayed over
// the backbone to node 1 and the reply is kept (with its lease) in the
// contact server's relay cache. The repeat of the same read is then served
// inside the cell — no backbone forward, one relay hit.
func Example() {
	k := sim.NewKernel()
	db := oodb.New(oodb.Config{NumObjects: 100, RelSeed: 1})
	cluster := federation.New(federation.Config{
		Kernel:            k,
		DB:                db,
		NumServers:        2,
		Seed:              3,
		RelayCacheObjects: 10,
	})
	contact := cluster.Contact(0)

	req := server.Request{
		Granularity: core.AttributeCaching,
		Accesses:    []workload.ReadOp{{OID: 90, Attr: 0}},
		Need:        []workload.ReadOp{{OID: 90, Attr: 0}},
	}
	// Serve the request twice — cold (forwarded to the owner), then warm
	// (answered by the relay cache).
	k.SpawnMachine("client", &twice{call: contact.NewCall(), req: req})
	k.RunAll()

	hits, misses, relayed := cluster.RelayStats(0)
	fmt.Printf("owner of OID 90: node %d\n", cluster.Owner(90))
	fmt.Printf("relay cache hits/misses: %d/%d\n", hits, misses)
	fmt.Printf("reads forwarded over the backbone: %d\n", relayed)
	// Output:
	// owner of OID 90: node 1
	// relay cache hits/misses: 1/1
	// reads forwarded over the backbone: 1
}
