package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tashkent/internal/certifier"
	"tashkent/internal/core"
)

func item(key string) core.ItemID { return core.ItemID{Table: "t", Key: key} }

func ws(keys ...string) *core.Writeset {
	w := &core.Writeset{}
	for _, k := range keys {
		w.Add(core.WriteOp{Kind: core.OpUpdate, Table: "t", Key: k,
			Cols: []core.ColUpdate{{Col: "v", Value: []byte(k)}}})
	}
	return w
}

func TestMapDeterministicAndBalanced(t *testing.T) {
	m := Map{N: 4}
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		id := item(fmt.Sprintf("key-%d", i))
		p := m.Of(id)
		if p != m.Of(id) {
			t.Fatalf("unstable partition for %v", id)
		}
		if p < 0 || p >= 4 {
			t.Fatalf("partition %d out of range", p)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c < 4096/8 {
			t.Errorf("partition %d badly underloaded: %d of 4096", p, c)
		}
	}
	if (Map{N: 1}).Of(item("x")) != 0 || (Map{}).Of(item("x")) != 0 {
		t.Error("single-partition map must send everything to 0")
	}
}

func TestSplitCoversAndOrders(t *testing.T) {
	m := Map{N: 4}
	w := ws("a", "b", "c", "d", "e", "f", "g", "h")
	parts := m.Split(w)
	total := 0
	last := -1
	for _, p := range parts {
		if p.PID <= last {
			t.Fatalf("parts not in ascending pid order: %v after %v", p.PID, last)
		}
		last = p.PID
		for i := range p.WS.Ops {
			if m.Of(p.WS.Ops[i].Item()) != p.PID {
				t.Fatalf("op for %v in wrong part %d", p.WS.Ops[i].Item(), p.PID)
			}
		}
		total += len(p.WS.Ops)
	}
	if total != len(w.Ops) {
		t.Fatalf("split covers %d of %d ops", total, len(w.Ops))
	}
}

// encode helpers over the certifier wire format: the assembler
// consumes raw entry payloads.
func rawData(origin int, w *core.Writeset) []byte {
	return certifier.EncodeEntry(certifier.Entry{Kind: core.KindData, Origin: origin, WS: w})
}

func rawPrepare(origin int, gid uint64, involved []int, w *core.Writeset) []byte {
	return certifier.EncodeEntry(certifier.Entry{Kind: core.KindPrepare, Origin: origin, GID: gid, Involved: involved, WS: w})
}

func rawMarker(commit bool, gid uint64) []byte {
	k := core.KindAbortMarker
	if commit {
		k = core.KindCommitMarker
	}
	return certifier.EncodeEntry(certifier.Entry{Kind: k, GID: gid})
}

func drain(a *Assembler) []Action {
	var out []Action
	for {
		act, ok := a.Next()
		if !ok {
			return out
		}
		out = append(out, act)
	}
}

func TestAssemblerMergesByIndexThenGroup(t *testing.T) {
	a := NewAssembler(2)
	// group 1's entries offered first must not emit before group 0's.
	if err := a.Offer(1, 1, rawData(2, ws("x"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Next(); ok {
		t.Fatal("emitted group 1 entry while group 0 index 1 is missing")
	}
	if g, idx := a.Blocking(); g != 0 || idx != 1 {
		t.Fatalf("blocking = (%d,%d), want (0,1)", g, idx)
	}
	if err := a.Offer(0, 1, rawData(1, ws("a"))); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer(0, 2, rawData(1, ws("b"))); err != nil {
		t.Fatal(err)
	}
	acts := drain(a)
	want := [][2]uint64{{0, 1}, {1, 1}, {0, 2}} // (group, index) in merged order
	if len(acts) != len(want) {
		t.Fatalf("emitted %d actions, want %d", len(acts), len(want))
	}
	for i, act := range acts {
		if uint64(act.Group) != want[i][0] || act.Index != want[i][1] {
			t.Errorf("action %d = group %d index %d, want %v", i, act.Group, act.Index, want[i])
		}
		if act.MV != uint64(i+1) {
			t.Errorf("action %d merged version %d, want %d", i, act.MV, i+1)
		}
	}
}

func TestAssemblerDeterministicUnderReordering(t *testing.T) {
	type feed struct {
		g   int
		idx uint64
		raw []byte
	}
	var feeds []feed
	for g := 0; g < 3; g++ {
		for idx := uint64(1); idx <= 20; idx++ {
			feeds = append(feeds, feed{g, idx, rawData(g+1, ws(fmt.Sprintf("g%dk%d", g, idx)))})
		}
	}
	var reference []Action
	for trial := 0; trial < 8; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		shuffled := append([]feed(nil), feeds...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		a := NewAssembler(3)
		var got []Action
		for _, f := range shuffled {
			if err := a.Offer(f.g, f.idx, f.raw); err != nil {
				t.Fatal(err)
			}
			got = append(got, drain(a)...)
		}
		if trial == 0 {
			reference = got
			continue
		}
		if len(got) != len(reference) {
			t.Fatalf("trial %d emitted %d actions, reference %d", trial, len(got), len(reference))
		}
		for i := range got {
			if got[i].MV != reference[i].MV || got[i].Group != reference[i].Group || got[i].Index != reference[i].Index {
				t.Fatalf("trial %d action %d = %+v, reference %+v", trial, i, got[i], reference[i])
			}
		}
	}
	if len(reference) != 60 {
		t.Fatalf("reference emitted %d actions, want 60", len(reference))
	}
}

func TestAssemblerCrossPartitionUnion(t *testing.T) {
	a := NewAssembler(2)
	gid := uint64(900)
	// Prepares land in both groups, then markers. Group 0: prepare@1,
	// marker@2. Group 1: prepare@1, marker@2.
	if err := a.Offer(0, 1, rawPrepare(5, gid, []int{0, 1}, ws("a"))); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer(1, 1, rawPrepare(5, gid, []int{0, 1}, ws("b"))); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer(0, 2, rawMarker(true, gid)); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer(1, 2, rawMarker(true, gid)); err != nil {
		t.Fatal(err)
	}
	acts := drain(a)
	if len(acts) != 4 {
		t.Fatalf("emitted %d actions, want 4", len(acts))
	}
	// The first prepare announces only.
	if acts[0].WS != nil {
		t.Error("the first prepare carries a writeset")
	}
	// The last prepare (group 1 index 1) is the last yes vote: the union
	// applies there, before any marker.
	u := acts[1]
	if u.GID != gid || u.WS == nil || len(u.WS.Items()) != 2 || u.Origin != 5 {
		t.Fatalf("union action = %+v", u)
	}
	items := u.WS.Items()
	if !reflect.DeepEqual(items[0], item("a")) || !reflect.DeepEqual(items[1], item("b")) {
		t.Fatalf("union items = %v (want part order by ascending pid)", items)
	}
	// The markers only announce.
	for _, m := range acts[2:] {
		if m.WS != nil || m.GID != 0 {
			t.Fatalf("a marker applied the union again: %+v", m)
		}
	}
	if len(a.gids) != 0 {
		t.Errorf("gid state not garbage-collected after the markers: %d left", len(a.gids))
	}
}

func TestAssemblerMarkerWaitsForPartReceipt(t *testing.T) {
	a := NewAssembler(2)
	gid := uint64(901)
	// Group 0 is fast: prepare@1, marker@2 arrive. Group 1's prepare
	// exists in its log but has not been received yet; group 1's
	// stream is otherwise idle, so the merge wants (1,1) first. Feed a
	// fill no-op at (1,1) so the merge reaches group 0's marker with
	// the part still missing.
	if err := a.Offer(0, 1, rawPrepare(5, gid, []int{0, 1}, ws("a"))); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer(0, 2, rawMarker(true, gid)); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer(1, 1, rawData(0, &core.Writeset{})); err != nil {
		t.Fatal(err)
	}
	acts := drain(a) // prepare@0,1 then fill@1,1 emit; marker blocks
	if len(acts) != 2 {
		t.Fatalf("emitted %d actions before part receipt, want 2", len(acts))
	}
	if g, _ := a.Blocking(); g != 1 {
		t.Fatalf("blocked on group %d, want 1 (the missing part's group)", g)
	}
	// The part arrives (receipt is enough — its merge position is later).
	if err := a.Offer(1, 2, rawPrepare(5, gid, []int{0, 1}, ws("b"))); err != nil {
		t.Fatal(err)
	}
	acts = drain(a)
	if len(acts) != 2 { // marker@0,2 (union) + prepare@1,2 (no-op)
		t.Fatalf("emitted %d actions after part receipt, want 2", len(acts))
	}
	if acts[0].GID != gid || acts[0].WS == nil || len(acts[0].WS.Items()) != 2 {
		t.Fatalf("union action = %+v", acts[0])
	}
}

// TestAssemblerAbortDropsParts: group 0 votes yes and group 1 no (its
// first record for the gid is an abort marker), then the coordinator's
// abort marker releases group 0. Nothing applies, and no state is left,
// whichever group's records arrive first.
func TestAssemblerAbortDropsParts(t *testing.T) {
	a := NewAssembler(2)
	gid := uint64(902)
	if err := a.Offer(1, 1, rawMarker(false, gid)); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer(1, 2, rawData(0, &core.Writeset{})); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer(0, 1, rawData(0, &core.Writeset{})); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer(0, 2, rawPrepare(5, gid, []int{0, 1}, ws("a"))); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer(0, 3, rawMarker(false, gid)); err != nil {
		t.Fatal(err)
	}
	acts := drain(a)
	if len(acts) != 5 {
		t.Fatalf("emitted %d actions, want 5", len(acts))
	}
	for _, act := range acts {
		if act.WS != nil {
			t.Fatalf("aborted transaction leaked a writeset: %+v", act)
		}
	}
	if len(a.gids) != 0 {
		t.Errorf("gid state not garbage-collected after abort: %d left", len(a.gids))
	}
}

func TestAssemblerVectorAndFrontier(t *testing.T) {
	a := NewAssembler(2)
	if err := a.Offer(0, 1, rawData(1, ws("a"))); err != nil {
		t.Fatal(err)
	}
	if err := a.Offer(0, 3, rawData(1, ws("c"))); err != nil { // gap at 2
		t.Fatal(err)
	}
	if got := a.Frontier(0); got != 1 {
		t.Errorf("frontier with gap = %d, want 1", got)
	}
	if err := a.Offer(0, 2, rawData(1, ws("b"))); err != nil {
		t.Fatal(err)
	}
	if got := a.Frontier(0); got != 3 {
		t.Errorf("frontier after gap fill = %d, want 3", got)
	}
	if err := a.Offer(1, 1, rawData(2, ws("x"))); err != nil {
		t.Fatal(err)
	}
	drain(a)
	if v := a.Vector(); v[0] != 2 || v[1] != 1 {
		// group 0 emits 1, then group 1 emits 1, then group 0 emits 2;
		// group 0 index 3 waits for group 1 index 2.
		t.Errorf("vector = %v, want [2 1]", v)
	}
	if a.MergedVersion() != 3 {
		t.Errorf("merged version = %d, want 3", a.MergedVersion())
	}
}

// TestMergedVersionArithmeticMatchesAssembler: the merge is strict
// round-robin, so an action's merged version and the replica's position
// in each group's version space are arithmetic on (group, index). Feed
// random logs — data, fills, prepares and both markers — in random
// interleavings and compare every emitted action with Map's formulas.
func TestMergedVersionArithmeticMatchesAssembler(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		m := Map{N: n}
		type feed struct {
			g   int
			idx uint64
			raw []byte
		}
		var feeds []feed
		next := make([]uint64, n)
		add := func(g int, raw []byte) {
			next[g]++
			feeds = append(feeds, feed{g, next[g], raw})
		}
		for i := 0; i < 60; i++ {
			g := r.Intn(n)
			switch k := r.Intn(5); {
			case k == 0:
				add(g, rawData(0, &core.Writeset{})) // fill / barrier no-op
			case k == 1 && n > 1:
				// A cross-partition transaction over g and one other group,
				// committed or aborted.
				h := (g + 1 + r.Intn(n-1)) % n
				gid, commit := uint64(1000+i), r.Intn(2) == 0
				for _, pid := range []int{g, h} {
					add(pid, rawPrepare(1, gid, []int{g, h}, ws(fmt.Sprintf("x%d-%d", i, pid))))
				}
				for _, pid := range []int{g, h} {
					add(pid, rawMarker(commit, gid))
				}
			default:
				add(g, rawData(1+r.Intn(3), ws(fmt.Sprintf("k%d", i))))
			}
		}
		r.Shuffle(len(feeds), func(i, j int) { feeds[i], feeds[j] = feeds[j], feeds[i] })

		a := NewAssembler(n)
		emitted := 0
		check := func() {
			for _, act := range drain(a) {
				emitted++
				if want := m.MergedVersion(act.Group, act.Index); act.MV != want {
					t.Fatalf("seed %d: group %d index %d emitted at merged version %d, MergedVersion says %d",
						seed, act.Group, act.Index, act.MV, want)
				}
				if got := m.GroupVersion(act.Group, act.MV); got != act.Index {
					t.Fatalf("seed %d: GroupVersion(%d, %d) = %d, want the action's index %d",
						seed, act.Group, act.MV, got, act.Index)
				}
			}
			// Between drains the vector is the position at the last
			// emitted merged version.
			for g, v := range a.Vector() {
				if got := m.GroupVersion(g, a.MergedVersion()); got != v {
					t.Fatalf("seed %d: at merged version %d GroupVersion(%d) = %d, assembler vector says %d",
						seed, a.MergedVersion(), g, got, v)
				}
			}
		}
		for _, f := range feeds {
			if err := a.Offer(f.g, f.idx, f.raw); err != nil {
				t.Fatal(err)
			}
			check()
		}
		if emitted == 0 {
			t.Fatalf("seed %d: nothing emitted", seed)
		}
	}
}
