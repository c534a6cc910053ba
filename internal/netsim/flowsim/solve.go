package flowsim

// maxRounds bounds progressive filling. Mixes with more distinct
// bottleneck shares than this (a 10⁶-endpoint elephant tier has thousands)
// get their remaining flows rated in one last pass; see recompute.
const maxRounds = 100

// solver is recompute's scratch, kept on the replica and only ever grown:
// a recompute in steady state allocates nothing.
type solver struct {
	// start and adj are the link→flow adjacency in CSR form over
	// replica.active: adj[start[l]:start[l+1]] holds the indices (into
	// replica.flows) of the flows crossing active link l.
	start []int32
	adj   []int32
	// heap is an indexed min-heap over the active links that still carry
	// unfixed flows, keyed by fair share avail/unfixed; pos[l] is link l's
	// slot in it, -1 when out.
	heap []share
	pos  []int32
	// touched lists links whose avail/unfixed moved this round and whose
	// key is therefore stale; duplicates allowed.
	touched []int32
}

// arity is the heap's fan-out.
const arity = 4

type share struct {
	v    float64
	link int32 // index in replica.active
}

// grown returns s with length n, reallocating only when capacity is short.
// Contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// recompute assigns every active flow its max-min fair rate by progressive
// filling, link-side. Each round the bottleneck share is the heap's
// minimum, clamped at zero; the tight links — share at or under it — are
// popped, exactly the unfixed flows crossing them are fixed at that share
// and subtracted from every link on their paths, and only those links are
// re-keyed. Every flow fixed in a round subtracts the same value, so the
// order links see the subtractions in does not change their float result.
// Cost is O(flows·hops) to index plus O(hops·log links) per fixed flow,
// where the flow-side form it replaces (the tests' oracle) rescanned every
// flow every round.
//
// Past the round bound (many distinct bottlenecks) the last round fixes
// every remaining flow at its current share: approximate but
// deterministic, and oversubscription is absorbed by effRate's capacity
// floor on the packet side. A last round that rates any flow above the
// bottleneck share is counted as a cap hit.
func (r *replica) recompute() {
	s := &r.solver
	unfixed := s.index(r)
	for round := 0; unfixed > 0; round++ {
		s.rekey(r)
		level := s.heap[0].v
		if level < 0 {
			level = 0
		}
		if round == maxRounds-1 {
			if n := r.fixRest(level); n > 0 {
				r.roundCapHits++
				r.cappedFlows += n
			}
			return
		}
		for unfixed > 0 && s.heap[0].v <= level {
			l := s.heap[0].link
			s.remove(0)
			for _, fi := range s.adj[s.start[l]:s.start[l+1]] {
				f := r.flows[fi]
				if f.rate >= 0 {
					continue
				}
				f.rate = level
				for _, bl := range f.links {
					bl.avail -= level
					bl.unfixed--
					s.touched = append(s.touched, bl.activeIdx)
				}
				unfixed--
			}
		}
	}
}

// rekey brings the heap up to date with the links the last round touched:
// drained ones leave, the rest take their new share. Doing it between
// rounds keeps every key at its start-of-round value while a round pops
// its tight set, and skips the work altogether after the round that fixes
// the last flow.
func (s *solver) rekey(r *replica) {
	for _, l := range s.touched {
		p := s.pos[l]
		if p < 0 {
			continue
		}
		if bl := r.active[l]; bl.unfixed == 0 {
			s.remove(int(p))
		} else if v := bl.avail / float64(bl.unfixed); v != s.heap[p].v {
			s.heap[p].v = v
			s.fix(int(p))
		}
	}
	s.touched = s.touched[:0]
}

// fixRest rates every still-unfixed flow at its own current share and
// returns how many of them that put above level, the round's bottleneck
// share — the flows progressive filling would not have fixed yet.
func (r *replica) fixRest(level float64) (capped int) {
	for _, f := range r.flows {
		if f.rate >= 0 {
			continue
		}
		v := f.links[0].avail / float64(f.links[0].unfixed)
		for _, bl := range f.links[1:] {
			if sh := bl.avail / float64(bl.unfixed); sh < v {
				v = sh
			}
		}
		if v < 0 {
			v = 0
		}
		if v > level {
			capped++
		}
		f.rate = v
	}
	return capped
}

// index resets the filling state — every active link at full capacity,
// every flow unrated (rate -1) unless it crosses no finite link — builds
// the link→flow adjacency, heapifies the links that carry flows, and
// returns how many flows there are to rate.
func (s *solver) index(r *replica) (unfixed int) {
	n := len(r.active)
	s.start = grown(s.start, n+1)
	s.pos = grown(s.pos, n)
	s.heap = grown(s.heap, n)[:0] // sized once: grown by append, the garbage showed in peak RSS
	s.touched = s.touched[:0]
	end := int32(0)
	for l, bl := range r.active {
		bl.avail = bl.cap
		bl.unfixed = bl.nflows
		end += bl.nflows
		s.start[l] = end
		if bl.nflows == 0 {
			s.pos[l] = -1 // idle until applyReservations drops it
			continue
		}
		s.pos[l] = int32(len(s.heap))
		s.heap = append(s.heap, share{v: bl.avail / float64(bl.unfixed), link: int32(l)})
	}
	s.start[n] = end
	// start[l] holds the end of l's run; filling each run backwards over
	// the flows in reverse leaves start[l] at its beginning and every run
	// in arrival order.
	s.adj = grown(s.adj, int(end))
	for fi := len(r.flows) - 1; fi >= 0; fi-- {
		f := r.flows[fi]
		if len(f.links) == 0 {
			f.rate = rateInf
			continue
		}
		f.rate = -1
		unfixed++
		for _, bl := range f.links {
			l := bl.activeIdx
			s.start[l]--
			s.adj[s.start[l]] = int32(fi)
		}
	}
	for i := (len(s.heap)+arity-2)/arity - 1; i >= 0; i-- {
		s.down(i)
	}
	return unfixed
}

// remove deletes the entry at heap slot i.
func (s *solver) remove(i int) {
	last := len(s.heap) - 1
	s.pos[s.heap[i].link] = -1
	e := s.heap[last]
	s.heap = s.heap[:last]
	if i < last {
		s.heap[i] = e
		s.fix(i)
	}
}

// fix restores heap order after the key at slot i changed.
func (s *solver) fix(i int) {
	if !s.up(i) {
		s.down(i)
	}
}

func (s *solver) up(i int) bool {
	e := s.heap[i]
	moved := false
	for i > 0 {
		p := (i - 1) / arity
		if s.heap[p].v <= e.v {
			break
		}
		s.heap[i] = s.heap[p]
		s.pos[s.heap[i].link] = int32(i)
		i = p
		moved = true
	}
	s.heap[i] = e
	s.pos[e.link] = int32(i)
	return moved
}

func (s *solver) down(i int) {
	h := s.heap
	e := h[i]
	for {
		c := arity*i + 1
		if c >= len(h) {
			break
		}
		for k, end := c+1, min(c+arity, len(h)); k < end; k++ {
			if h[k].v < h[c].v {
				c = k
			}
		}
		if h[c].v >= e.v {
			break
		}
		h[i] = h[c]
		s.pos[h[i].link] = int32(i)
		i = c
	}
	h[i] = e
	s.pos[e.link] = int32(i)
}
