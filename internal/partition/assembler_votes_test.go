package partition

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"tashkent/internal/core"
)

// voteScript is a set of per-group committed logs in which
// cross-partition transactions vote and are decided the way the
// certifier and the coordinator produce them: a group's first record
// for a gid is its vote (a prepare, or an abort marker for a refusal or
// a veto), every marker comes after all of its gid's votes, a
// transaction with a yes from every group gets a commit marker in each
// of them, and one with a no gets an abort marker in each group that
// said yes.
type voteScript struct {
	n    int
	logs [][][]byte // per group, the payload at index i+1
	gids map[uint64]*scriptGID
}

// scriptGID is what the script knows of one cross-partition
// transaction.
type scriptGID struct {
	involved []int
	yes      map[int]bool   // the vote each involved group casts
	vote     map[int]uint64 // index of each group's vote
	marker   map[int]uint64 // index of each group's marker
	items    int            // operations over all yes parts
}

func (s *voteScript) allYes(st *scriptGID) bool {
	for _, g := range st.involved {
		if !st.yes[g] {
			return false
		}
	}
	return true
}

func (s *voteScript) append(g int, raw []byte) uint64 {
	s.logs[g] = append(s.logs[g], raw)
	return uint64(len(s.logs[g]))
}

// buildVoteScript turns fuzz bytes into a script over two or three
// groups. One group starts far ahead on fill no-ops, so the groups'
// index spaces are skewed and a transaction's markers in one group can
// merge before its prepare in another. Each further byte is one step in
// time: a data entry, a run of fills, a new transaction, the next vote
// some transaction still lacks, or the next marker of one that has all
// its votes. At the end every vote and marker is cast and the groups are
// padded to one length, so the whole merge drains.
func buildVoteScript(data []byte) *voteScript {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	s := &voteScript{n: 2 + int(next()%2), gids: make(map[uint64]*scriptGID)}
	s.logs = make([][][]byte, s.n)
	fill := rawData(core.BarrierOrigin, &core.Writeset{})
	lead, ahead := int(next())%s.n, int(next()%64)
	for i := 0; i < ahead; i++ {
		s.append(lead, fill)
	}
	var voting, deciding []uint64 // gids in start order
	var nextGID uint64
	vote := func() {
		gid := voting[0]
		st := s.gids[gid]
		for _, g := range st.involved {
			if st.vote[g] != 0 {
				continue
			}
			if st.yes[g] {
				st.vote[g] = s.append(g, rawPrepare(7, gid, st.involved, ws(fmt.Sprintf("g%d-%d", gid, g))))
				st.items++
			} else {
				st.vote[g] = s.append(g, rawMarker(false, gid))
			}
			if len(st.vote) == len(st.involved) {
				voting = voting[1:]
				deciding = append(deciding, gid)
			}
			return
		}
	}
	mark := func() {
		gid := deciding[0]
		st := s.gids[gid]
		commit := s.allYes(st)
		for _, g := range st.involved {
			if st.marker[g] != 0 || !st.yes[g] {
				continue // a no is its group's marker already
			}
			st.marker[g] = s.append(g, rawMarker(commit, gid))
			return
		}
		deciding = deciding[1:]
	}
	for steps := 0; len(data) > 0 && steps < 256; steps++ {
		b := next()
		g := int(b/5) % s.n
		switch b % 5 {
		case 0:
			s.append(g, rawData(1, ws(fmt.Sprintf("d%d-%d", g, len(s.logs[g])))))
		case 1:
			for k := 0; k <= int(b/5)%4; k++ {
				s.append(g, fill)
			}
		case 2:
			nextGID++
			st := &scriptGID{yes: make(map[int]bool), vote: make(map[int]uint64), marker: make(map[int]uint64)}
			for pid := 0; pid < s.n; pid++ {
				// Two groups at least; a third when bit 7 says so.
				if pid < 2 || b&0x80 != 0 {
					st.involved = append(st.involved, pid)
					st.yes[pid] = b&(0x08<<pid) == 0 // mostly yes
				}
			}
			s.gids[nextGID] = st
			voting = append(voting, nextGID)
		case 3:
			if len(voting) > 0 {
				vote()
			}
		case 4:
			if len(deciding) > 0 {
				mark()
			}
		}
	}
	for len(voting) > 0 {
		vote()
	}
	for len(deciding) > 0 {
		mark()
	}
	longest := 0
	for _, l := range s.logs {
		longest = max(longest, len(l))
	}
	for g := range s.logs {
		for len(s.logs[g]) < longest {
			s.append(g, fill)
		}
	}
	return s
}

// emitted is one action as the property checks see it, with the step of
// the arrival order after which the merge emitted it.
type emitted struct {
	Action
	step int
}

// feed offers every entry of s in the order perm gives, draining the
// merge after each offer.
func (s *voteScript) feed(t *testing.T, perm [][2]int) (acts []emitted, received map[[2]int]int) {
	t.Helper()
	a := NewAssembler(s.n)
	received = make(map[[2]int]int)
	for step, gi := range perm {
		g, i := gi[0], gi[1]
		if err := a.Offer(g, uint64(i+1), s.logs[g][i]); err != nil {
			t.Fatal(err)
		}
		received[gi] = step
		for act, ok := a.Next(); ok; act, ok = a.Next() {
			acts = append(acts, emitted{act, step})
		}
	}
	return acts, received
}

// arrivals is every (group, index) of s in a random order drawn from rng.
func (s *voteScript) arrivals(rng *rand.Rand) [][2]int {
	var all [][2]int
	for g, l := range s.logs {
		for i := range l {
			all = append(all, [2]int{g, i})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

func sameAction(a, b Action) bool {
	return a.MV == b.MV && a.Group == b.Group && a.Index == b.Index && a.Origin == b.Origin && a.GID == b.GID &&
		(a.WS == nil) == (b.WS == nil) && (a.WS == nil || bytes.Equal(a.WS.Encode(nil), b.WS.Encode(nil)))
}

// FuzzAssemblerVotes checks the vote rule on scripted group logs, with
// no cluster: two arrival orders of the same logs merge identically; a
// transaction's union is emitted exactly once if every involved group
// voted yes and never otherwise; and it lands at the earlier of the last
// prepare's merge position and the first commit marker's — no later than
// any group's marker, and never before the merge has received every
// part.
func FuzzAssemblerVotes(f *testing.F) {
	f.Add([]byte{0, 1, 40, 2, 3, 3, 0, 5, 4, 4, 2, 3, 3, 4, 4})
	f.Add([]byte{1, 0, 63, 130, 2, 3, 3, 3, 1, 6, 11, 4, 4, 4, 0, 5})
	f.Add([]byte{0, 1, 9, 10, 2, 3, 4, 3, 4, 1, 6, 2, 3, 0, 3, 4, 4})
	f.Add([]byte{1, 2, 50, 138, 3, 3, 3, 4, 4, 4, 18, 3, 3, 4, 4, 7, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4})
	// A round whose short group ends its batch two fill no-ops past its
	// prepare (the certifier's yes pad): the partner holds one, two or
	// three more entries before its prepare, in the same batch or as a
	// head above the short group's (group 1 starting two fills ahead),
	// and group 0 or group 1 is the short one.
	f.Add([]byte{0, 0, 0, 2, 5, 3, 3, 1, 1, 4, 4})
	f.Add([]byte{0, 0, 0, 2, 5, 5, 3, 3, 1, 1, 4, 4})
	f.Add([]byte{0, 0, 0, 2, 5, 5, 5, 3, 3, 1, 1, 4, 4})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 3, 3, 6, 4, 4})
	f.Add([]byte{0, 1, 2, 2, 3, 3, 1, 1, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := buildVoteScript(data)
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		first, received := s.feed(t, s.arrivals(rng))
		second, _ := s.feed(t, s.arrivals(rng))
		total := 0
		for _, l := range s.logs {
			total += len(l)
		}
		if len(first) != total || len(second) != total {
			t.Fatalf("merged %d and %d of %d entries", len(first), len(second), total)
		}
		for i := range first {
			if !sameAction(first[i].Action, second[i].Action) {
				t.Fatalf("action %d differs between arrival orders: %+v vs %+v", i, first[i].Action, second[i].Action)
			}
		}

		m := Map{N: s.n}
		unions := make(map[uint64]emitted)
		for _, e := range first {
			if e.GID == 0 {
				continue
			}
			if _, dup := unions[e.GID]; dup {
				t.Fatalf("gid %d applied twice", e.GID)
			}
			unions[e.GID] = e
		}
		for gid, st := range s.gids {
			u, applied := unions[gid]
			if !s.allYes(st) {
				if applied {
					t.Fatalf("gid %d applied at %d although a group voted no", gid, u.MV)
				}
				continue
			}
			if !applied {
				t.Fatalf("gid %d: every group voted yes, the union never applied", gid)
			}
			var lastPrepare, firstMarker uint64
			for _, g := range st.involved {
				lastPrepare = max(lastPrepare, m.MergedVersion(g, st.vote[g]))
				mk := m.MergedVersion(g, st.marker[g])
				if firstMarker == 0 || mk < firstMarker {
					firstMarker = mk
				}
				if u.MV > mk {
					t.Fatalf("gid %d applied at %d, after group %d's marker at %d", gid, u.MV, g, mk)
				}
				if step := received[[2]int{g, int(st.vote[g]) - 1}]; u.step < step {
					t.Fatalf("gid %d applied at arrival %d, before group %d's part arrived at %d", gid, u.step, g, step)
				}
			}
			if want := min(lastPrepare, firstMarker); u.MV != want {
				t.Fatalf("gid %d applied at %d, want %d (last prepare %d, first marker %d)", gid, u.MV, want, lastPrepare, firstMarker)
			}
			if u.Origin != 7 || u.WS == nil || len(u.WS.Ops) != st.items {
				t.Fatalf("gid %d union = %+v, want origin 7 and %d operations", gid, u.Action, st.items)
			}
		}
	})
}

// TestAssemblerSkewedUnionAppliesAtFirstMarker: group 1 runs five
// entries ahead, so group 0's commit marker merges before group 1's
// prepare. The union applies at that marker (rule (b)), not at the last
// prepare's later position: a snapshot below the union must stay below
// group 0's marker, where group 0's certifier publishes the items.
func TestAssemblerSkewedUnionAppliesAtFirstMarker(t *testing.T) {
	const gid = 903
	a := NewAssembler(2)
	fill := rawData(core.BarrierOrigin, &core.Writeset{})
	offer := func(g int, idx uint64, raw []byte) {
		t.Helper()
		if err := a.Offer(g, idx, raw); err != nil {
			t.Fatal(err)
		}
	}
	for idx := uint64(1); idx <= 5; idx++ {
		offer(1, idx, fill)
	}
	offer(0, 1, rawPrepare(5, gid, []int{0, 1}, ws("a")))
	offer(1, 6, rawPrepare(5, gid, []int{0, 1}, ws("b")))
	offer(0, 2, rawMarker(true, gid))
	offer(1, 7, rawMarker(true, gid))
	for idx := uint64(3); idx <= 7; idx++ {
		offer(0, idx, fill)
	}
	var union []Action
	for _, act := range drain(a) {
		if act.GID != 0 {
			union = append(union, act)
		}
	}
	m := Map{N: 2}
	if len(union) != 1 {
		t.Fatalf("the union applied %d times, want once", len(union))
	}
	if u := union[0]; u.Group != 0 || u.Index != 2 || u.MV != m.MergedVersion(0, 2) || len(u.WS.Items()) != 2 {
		t.Fatalf("union = %+v, want group 0's marker at merged %d with both parts", u, m.MergedVersion(0, 2))
	}
	if lastPrepare := m.MergedVersion(1, 6); union[0].MV >= lastPrepare {
		t.Fatalf("union at %d, not before the last prepare's %d", union[0].MV, lastPrepare)
	}
	if len(a.gids) != 0 {
		t.Errorf("gid state left after every marker merged: %d", len(a.gids))
	}
}
