package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// tok is a test payload identified by its post order.
type tok int

func (tok) Size() int { return 0 }

// laneRig is a seeded producer mixing lane posts with plain PostDelivery
// posts over a few shared srcs, with many equal timestamps. Every delivery
// logs itself and posts a random number of successors, so the backlog
// churns while it runs. With useLanes false the same posts all go through
// PostDelivery under the lane's src: the reference order. With mixKinds set
// each plain post instead goes, by a seeded pick of its own, through AtSrc
// or PostNamed at the same (t, src): every event kind keys alike.
type laneRig struct {
	s        *Scheduler
	rng      *Rand
	useLanes bool
	lanes    []*Lane
	pick     *Rand // non-nil with mixKinds
	named    int32
	srcs     []int32
	tails    []Time
	next     int
	limit    int
	trace    []string
}

func newLaneRig(seed uint64, useLanes, mixKinds bool) *laneRig {
	r := &laneRig{s: NewScheduler(0), rng: NewRand(seed), useLanes: useLanes, limit: 3000}
	if mixKinds {
		r.pick = NewRand(^seed)
		r.named = r.s.RegisterNamed("tok", func(a NamedArgs) { r.Deliver(r.s.Now(), tok(a[0])) })
	}
	// Three lanes over two srcs: two lanes share src 1, and plain posts use
	// srcs 0..2, so every kind of tie between lane and heap entries occurs.
	for _, src := range []int32{1, 1, 2} {
		r.lanes = append(r.lanes, r.s.NewLane(src))
		r.srcs = append(r.srcs, src)
		r.tails = append(r.tails, 0)
	}
	for i := 0; i < 40; i++ {
		r.post()
	}
	return r
}

func (r *laneRig) post() {
	id := tok(r.next)
	r.next++
	if r.rng.Intn(3) > 0 {
		li := r.rng.Intn(len(r.lanes))
		t := max(r.tails[li], r.s.Now()) + Time(r.rng.Intn(3))
		r.tails[li] = t
		if r.useLanes {
			r.lanes[li].Post(t, r, id)
		} else {
			r.s.PostDelivery(t, r.srcs[li], r, id)
		}
		return
	}
	t, src := r.s.Now()+Time(r.rng.Intn(4)), int32(r.rng.Intn(3))
	switch {
	case r.pick == nil:
		r.s.PostDelivery(t, src, r, id)
	case r.pick.Intn(2) == 0:
		r.s.AtSrc(t, src, func() { r.Deliver(t, id) })
	default:
		r.s.PostNamed(t, src, r.named, NamedArgs{uint64(id)})
	}
}

// Deliver logs the event with the scheduler's view of it and posts
// successors.
func (r *laneRig) Deliver(at Time, p Payload) {
	r.trace = append(r.trace, fmt.Sprintf("%d@%d pending=%d", p.(tok), at, r.s.Pending()))
	for k := r.rng.Intn(4); k > 0 && r.next < r.limit; k-- {
		r.post()
	}
}

func TestLaneOrdersLikePostDelivery(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		want := newLaneRig(seed, false, false)
		want.s.Run()
		got := newLaneRig(seed, true, true)
		got.s.Run()
		if len(want.trace) < 100 {
			t.Fatalf("seed %d: only %d events", seed, len(want.trace))
		}
		if !reflect.DeepEqual(got.trace, want.trace) {
			for i := range want.trace {
				if i >= len(got.trace) || got.trace[i] != want.trace[i] {
					t.Fatalf("seed %d: lane trace diverges at event %d: got %v, want %q",
						seed, i, got.trace[i:min(i+3, len(got.trace))], want.trace[i])
				}
			}
			t.Fatalf("seed %d: lane trace has %d extra events", seed, len(got.trace)-len(want.trace))
		}
		if got.s.Processed() != want.s.Processed() || got.s.CaptureMark() != want.s.CaptureMark() {
			t.Fatalf("seed %d: registers %+v, want %+v", seed, got.s.CaptureMark(), want.s.CaptureMark())
		}
	}
}

func TestLaneExportRestore(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		want := newLaneRig(seed, true, false)
		want.s.Run()

		r := newLaneRig(seed, true, false)
		for r.s.Processed() < 1000 {
			r.s.Step()
		}
		if r.s.behind == 0 {
			t.Fatalf("seed %d: no lane backlog at the cut", seed)
		}
		mark := r.s.CaptureMark()
		evs, err := r.s.ExportPending()
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != r.s.Pending() {
			t.Fatalf("seed %d: exported %d records, %d pending", seed, len(evs), r.s.Pending())
		}
		seen := map[tok]bool{}
		for _, ev := range evs {
			if _, ok := ev.Sink.(*laneHead); ok || ev.Kind != PendingDelivery || seen[ev.Payload.(tok)] {
				t.Fatalf("seed %d: bad record %+v", seed, ev)
			}
			seen[ev.Payload.(tok)] = true
		}
		if n := r.s.DiscardPending(nil); n != len(evs) || r.s.Pending() != 0 {
			t.Fatalf("seed %d: discarded %d of %d, %d left", seed, n, len(evs), r.s.Pending())
		}
		r.s.RestoreMark(mark)
		if err := r.s.RestorePending(evs); err != nil {
			t.Fatal(err)
		}
		if r.s.Pending() != len(evs) {
			t.Fatalf("seed %d: %d pending after restore, want %d", seed, r.s.Pending(), len(evs))
		}
		r.s.Run()
		if !reflect.DeepEqual(r.trace, want.trace) {
			t.Fatalf("seed %d: restored run diverges from the uninterrupted one", seed)
		}
	}
}

func TestLaneDiscardReleases(t *testing.T) {
	s := NewScheduler(0)
	k := sinkFunc(func(Time, Payload) { t.Fatal("a discarded event ran") })
	a, b := s.NewLane(3), s.NewLane(4)
	want := []int{-1}
	for i := 0; i < 100; i++ { // enough to grow the rings past their first size
		a.Post(Time(i), k, tok(i))
		want = append(want, i)
		if i%2 == 0 {
			b.Post(Time(i), k, tok(1000+i))
			want = append(want, 1000+i)
		}
	}
	s.PostDelivery(5, 3, k, tok(-1))
	var released []int
	if n := s.DiscardPending(func(p Payload) { released = append(released, int(p.(tok))) }); n != len(want) {
		t.Fatalf("DiscardPending dropped %d, want %d", n, len(want))
	}
	sort.Ints(released)
	sort.Ints(want)
	if !reflect.DeepEqual(released, want) || s.Pending() != 0 {
		t.Fatalf("released %d payloads, want each of %d once; %d still pending",
			len(released), len(want), s.Pending())
	}
	// Emptied lanes take posts again, even earlier than their old tails.
	var ran []int
	rec := sinkFunc(func(_ Time, p Payload) { ran = append(ran, int(p.(tok))) })
	a.Post(2, rec, tok(7))
	b.Post(1, rec, tok(8))
	if s.Run() != 2 || !reflect.DeepEqual(ran, []int{8, 7}) {
		t.Fatalf("after discard ran %v", ran)
	}
}

type sinkFunc func(Time, Payload)

func (f sinkFunc) Deliver(at Time, p Payload) { f(at, p) }

func TestLanePendingCounts(t *testing.T) {
	s := NewScheduler(0)
	l := s.NewLane(1)
	nop := sinkFunc(func(Time, Payload) {})
	want := func(n int) {
		t.Helper()
		if s.Pending() != n {
			t.Fatalf("Pending = %d, want %d", s.Pending(), n)
		}
	}
	want(0)
	for i := 0; i < 5; i++ {
		l.Post(10, nop, tok(i))
		want(i + 1)
	}
	s.PostDelivery(20, 1, nop, tok(9))
	want(6)
	if s.q.Len() != 2 {
		t.Fatalf("heap holds %d entries, want 2 (lane head + plain)", s.q.Len())
	}
	s.Step()
	want(5)
	s.RunBefore(20)
	want(1)
	s.Run()
	want(0)
}

func TestLaneRejectsOutOfOrder(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	nop := sinkFunc(func(Time, Payload) {})
	s := NewScheduler(0)
	l := s.NewLane(0)
	l.Post(10, nop, tok(0))
	mustPanic("before the lane's tail", func() { l.Post(9, nop, tok(1)) })
	s.Run()
	mustPanic("before now", func() { l.Post(5, nop, tok(2)) })
	l.Post(10, nop, tok(3)) // equal to now and to the old tail: fine
	if s.Run() != 1 {
		t.Fatal("the accepted post did not run")
	}
}
