package network

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/oodb"
	"repro/internal/sim"
)

func TestTransferTime(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, "down", WirelessBandwidthBps)
	// 2400 bytes at 19.2kbps = 1 second.
	if tt := c.TransferTime(2400); math.Abs(tt-1) > 1e-12 {
		t.Fatalf("TransferTime(2400) = %v, want 1", tt)
	}
	if tt := c.TransferTime(0); tt != 0 {
		t.Fatalf("TransferTime(0) = %v", tt)
	}
}

func TestObjectTransferIsSlow(t *testing.T) {
	// The core premise of the paper: shipping a 1KB object over wireless
	// takes ~0.43s while reading it from local disk takes ~0.2ms.
	k := sim.NewKernel()
	wireless := NewChannel(k, "w", WirelessBandwidthBps)
	disk := NewChannel(k, "d", DiskBandwidthBps)
	ratio := wireless.TransferTime(oodb.ObjectSize) / disk.TransferTime(oodb.ObjectSize)
	if ratio < 1000 {
		t.Fatalf("wireless/disk ratio = %v, want > 1000", ratio)
	}
}

// sendOnce is a machine that ships one message over c — bytes long, or
// sized by sizeFn at delivery time when that is set — then calls done.
type sendOnce struct {
	c      *Channel
	st     SendState
	bytes  int
	sizeFn func(waited float64) int
	done   func(now float64)
}

func (s *sendOnce) Step(m *sim.Machine) {
	var sent bool
	if s.sizeFn != nil {
		sent = s.c.SendDeferredStep(m, &s.st, s.sizeFn)
	} else {
		sent = s.c.SendStep(m, &s.st, s.bytes)
	}
	if !sent {
		return
	}
	if s.done != nil {
		s.done(m.Now())
	}
	m.Finish()
}

func TestChannelQueueing(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, "down", 8) // 1 byte per second
	var done []float64
	for i := 0; i < 3; i++ {
		k.SpawnMachine("sender", &sendOnce{c: c, bytes: 10,
			done: func(now float64) { done = append(done, now) }})
	}
	k.RunAll()
	want := []float64{10, 20, 30}
	for i, w := range want {
		if math.Abs(done[i]-w) > 1e-9 {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if c.Messages() != 3 || c.BytesSent() != 30 {
		t.Fatalf("Messages=%d BytesSent=%d", c.Messages(), c.BytesSent())
	}
	if u := c.Utilization(); math.Abs(u-1) > 1e-9 {
		t.Fatalf("Utilization = %v, want 1", u)
	}
	if w := c.MeanWait(); math.Abs(w-10) > 1e-9 { // waits 0,10,20 -> mean 10
		t.Fatalf("MeanWait = %v, want 10", w)
	}
}

func TestNewChannelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChannel with 0 bandwidth did not panic")
		}
	}()
	NewChannel(sim.NewKernel(), "bad", 0)
}

func TestNegativeSizePanics(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, "x", 100)
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	c.TransferTime(-1)
}

func TestRequestSize(t *testing.T) {
	if s := RequestSize(0); s != HeaderSize+QueryDescSize {
		t.Fatalf("RequestSize(0) = %d", s)
	}
	if s := RequestSize(4); s != HeaderSize+QueryDescSize+4*5 {
		t.Fatalf("RequestSize(4) = %d", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative existent list did not panic")
		}
	}()
	RequestSize(-1)
}

func TestReplySize(t *testing.T) {
	objEntry := ReplyEntrySize(oodb.ObjectItem(1))
	attrEntry := ReplyEntrySize(oodb.AttrItem(1, 0))
	if objEntry-attrEntry != oodb.ObjectSize-oodb.AttrSize {
		t.Fatalf("entry overheads differ: obj=%d attr=%d", objEntry, attrEntry)
	}
	if overhead := attrEntry - oodb.AttrSize; overhead != OIDSize+AttrRefSize+RefreshTimeSize {
		t.Fatalf("entry overhead = %d", overhead)
	}
}

// replySize is the wire size of a reply carrying items: one header plus an
// entry per item.
func replySize(items ...oodb.Item) int {
	size := HeaderSize
	for _, it := range items {
		size += ReplyEntrySize(it)
	}
	return size
}

func TestObjectReplyLargerThanAttrReply(t *testing.T) {
	// OC ships whole objects; AC ships a few attributes. The size gap is
	// what produces OC's "blind prefetching" response-time penalty.
	oc := replySize(oodb.ObjectItem(1))
	ac := replySize(oodb.AttrItem(1, 0), oodb.AttrItem(1, 1), oodb.AttrItem(1, 2))
	if oc <= ac {
		t.Fatalf("OC reply %d <= AC reply %d", oc, ac)
	}
}

func TestScheduleConnected(t *testing.T) {
	var s Schedule
	if !s.Connected(100) {
		t.Fatal("empty schedule should always be connected")
	}
	s.AddOutage(Outage{Start: 10, End: 20})
	s.AddOutage(Outage{Start: 30, End: 40})
	cases := []struct {
		t    float64
		want bool
	}{
		{0, true}, {9.99, true}, {10, false}, {15, false}, {19.99, false},
		{20, true}, {25, true}, {30, false}, {39.99, false}, {40, true},
	}
	for _, c := range cases {
		if got := s.Connected(c.t); got != c.want {
			t.Fatalf("Connected(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

// The client reconnects at the outage's end instant and not before.
func TestNextReconnect(t *testing.T) {
	var s Schedule
	s.AddOutage(Outage{Start: 10, End: 20})
	if !s.Connected(5) || s.Connected(15) || s.Connected(19.999) || !s.Connected(20) {
		t.Fatal("reconnect is not at the outage's end")
	}
}

// disconnectedTime integrates !Connected over [0, horizon) on a grid of
// step; exact when every outage edge and the horizon sit on the grid.
func disconnectedTime(s *Schedule, horizon, step float64) float64 {
	total := 0.0
	for t := 0.0; t < horizon; t += step {
		if !s.Connected(t) {
			total += step
		}
	}
	return total
}

func TestDisconnectedTime(t *testing.T) {
	var s Schedule
	s.AddOutage(Outage{Start: 10, End: 20})
	s.AddOutage(Outage{Start: 50, End: 70})
	for _, c := range []struct{ horizon, want float64 }{{100, 30}, {60, 20}, {5, 0}} {
		if d := disconnectedTime(&s, c.horizon, 0.5); d != c.want {
			t.Fatalf("disconnected for %v of [0, %v), want %v", d, c.horizon, c.want)
		}
	}
}

func TestAddOutageValidation(t *testing.T) {
	bad := []func(s *Schedule){
		func(s *Schedule) { s.AddOutage(Outage{Start: 10, End: 10}) },
		func(s *Schedule) { s.AddOutage(Outage{Start: 10, End: 5}) },
		func(s *Schedule) {
			s.AddOutage(Outage{Start: 10, End: 20})
			s.AddOutage(Outage{Start: 15, End: 30}) // overlap
		},
	}
	for i, fn := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			var s Schedule
			fn(&s)
		}()
	}
}

// Adjacent windows (End == next Start) are legal: the schedule is a union
// of half-open intervals, so the junction instant belongs to the second
// outage and the client never flickers to connected in between.
func TestAdjacentOutagesStayDisconnected(t *testing.T) {
	var s Schedule
	s.AddOutage(Outage{Start: 10, End: 20})
	s.AddOutage(Outage{Start: 20, End: 30})
	for _, at := range []float64{10, 15, 20, 25, 29.999} {
		if s.Connected(at) {
			t.Fatalf("Connected(%v) across adjacent outages", at)
		}
	}
	if !s.Connected(30) {
		t.Fatal("Connected(30) should hold at the union's end")
	}
}

// An outage starting at t = 0 must disconnect the client from the first
// instant of the simulation.
func TestOutageAtTimeZero(t *testing.T) {
	var s Schedule
	s.AddOutage(Outage{Start: 0, End: 5})
	if s.Connected(0) {
		t.Fatal("Connected(0) inside an outage starting at 0")
	}
	if !s.Connected(5) {
		t.Fatal("not reconnected at 5")
	}
	if d := disconnectedTime(&s, 5, 0.5); d != 5 {
		t.Fatalf("disconnected for %v of [0, 5), want 5", d)
	}
}

// Disconnected-time horizon edge cases: a horizon exactly at an outage's
// boundaries, and one that bisects it.
func TestDisconnectedTimeBoundaries(t *testing.T) {
	var s Schedule
	s.AddOutage(Outage{Start: 10, End: 20})
	cases := []struct{ horizon, want float64 }{
		{10, 0},  // ends exactly where the outage starts
		{20, 10}, // ends exactly where the outage ends
		{15, 5},  // bisects the outage
	}
	for _, c := range cases {
		if d := disconnectedTime(&s, c.horizon, 0.5); d != c.want {
			t.Fatalf("disconnected for %v of [0, %v), want %v", d, c.horizon, c.want)
		}
	}
}

func TestOutagesCopy(t *testing.T) {
	var s Schedule
	s.AddOutage(Outage{Start: 1, End: 2})
	out := s.Outages()
	out[0].Start = 99
	if !s.Connected(0.5) {
		t.Fatal("mutating the copy affected the schedule")
	}
}

// Property: Connected and Outages are consistent — integrating Connected
// over a grid approximates the outages' total length.
func TestQuickScheduleConsistency(t *testing.T) {
	f := func(gaps []uint8) bool {
		var s Schedule
		now := 0.0
		for _, g := range gaps {
			start := now + float64(g%16)
			end := start + float64(g%7) + 1
			s.AddOutage(Outage{Start: start, End: end})
			now = end
		}
		horizon := now + 10
		const step = 0.5
		measured := disconnectedTime(&s, horizon, step)
		want := 0.0
		for _, o := range s.Outages() {
			want += o.End - o.Start
		}
		return math.Abs(measured-want) <= step*float64(len(gaps)*2+2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSendDeferredNoWaitKeepsSize(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, "down", 8) // 1 byte/sec
	var gotWait float64 = -1
	k.SpawnMachine("p", &sendOnce{c: c, sizeFn: func(waited float64) int {
		gotWait = waited
		return 10
	}})
	k.RunAll()
	if gotWait != 0 {
		t.Fatalf("waited = %v, want 0 on an idle channel", gotWait)
	}
	if c.BytesSent() != 10 || c.Messages() != 1 {
		t.Fatalf("accounting: %d bytes, %d msgs", c.BytesSent(), c.Messages())
	}
	if k.Now() != 10 {
		t.Fatalf("transfer took %v, want 10s", k.Now())
	}
}

func TestSendDeferredReportsQueueWait(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, "down", 8)
	var waits []float64
	for i := 0; i < 3; i++ {
		k.SpawnMachine("p", &sendOnce{c: c, sizeFn: func(waited float64) int {
			waits = append(waits, waited)
			return 10 // 10s transfer each
		}})
	}
	k.RunAll()
	want := []float64{0, 10, 20}
	for i, w := range want {
		if math.Abs(waits[i]-w) > 1e-9 {
			t.Fatalf("waits = %v, want %v", waits, want)
		}
	}
}

func TestSendDeferredShrinksTransfer(t *testing.T) {
	// The size function can shrink the message based on the wait; the
	// shorter transfer must be what occupies the channel.
	k := sim.NewKernel()
	c := NewChannel(k, "down", 8)
	var done []float64
	for i := 0; i < 2; i++ {
		k.SpawnMachine("p", &sendOnce{c: c,
			sizeFn: func(waited float64) int {
				if waited > 5 {
					return 2 // shed: 2s transfer
				}
				return 10
			},
			done: func(now float64) { done = append(done, now) }})
	}
	k.RunAll()
	if math.Abs(done[0]-10) > 1e-9 || math.Abs(done[1]-12) > 1e-9 {
		t.Fatalf("completion times %v, want [10 12]", done)
	}
	if c.BytesSent() != 12 {
		t.Fatalf("BytesSent = %d, want 12", c.BytesSent())
	}
}

func TestEnergyModel(t *testing.T) {
	// Transmitting 2400 bytes takes 1s at 19.2kbps: 1.9 J.
	if e := TxEnergy(2400); math.Abs(e-1.9) > 1e-9 {
		t.Fatalf("TxEnergy(2400) = %v, want 1.9", e)
	}
	if e := RxEnergy(2400); math.Abs(e-1.5) > 1e-9 {
		t.Fatalf("RxEnergy(2400) = %v, want 1.5", e)
	}
	if TxEnergy(0) != 0 || RxEnergy(0) != 0 {
		t.Fatal("zero bytes should cost zero energy")
	}
	// A whole object costs more to receive than a few attributes: the
	// energy argument for fine granularity (§2).
	obj := RxEnergy(replySize(oodb.ObjectItem(1)))
	attrs := RxEnergy(replySize(oodb.AttrItem(1, 0), oodb.AttrItem(1, 1), oodb.AttrItem(1, 2)))
	if obj <= attrs {
		t.Fatalf("object energy %v <= 3-attribute energy %v", obj, attrs)
	}
}
