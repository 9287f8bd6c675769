package certifier_test

import (
	"fmt"
	"testing"

	"tashkent/internal/certifier"
	"tashkent/internal/partition"
)

// TestUnionMergesFromTheRoundsAnswers: two groups prepare gid 1 in one
// batch each, and the partner group's log holds k more entries before
// its prepare than the short group's: certifications in the same batch,
// or entries of an earlier batch that put its head above the
// coordinator's FillTo. The union applies at the partner's prepare, and
// the merge gets there only with the short group's log up to the same
// index (one short of it when the short group is group 1, which merges
// after group 0 in each row). The short group's batch ends alignPad
// no-ops past its prepare, so up to that shortfall a replica's merge
// applies the union from the two yes answers alone, with no pull or
// fill; past it the union waits for the short group's next batch.
func TestUnionMergesFromTheRoundsAnswers(t *testing.T) {
	for short := range 2 {
		for k := 1; k <= certifier.AlignPad+2; k++ {
			for _, earlier := range []bool{false, true} {
				name := fmt.Sprintf("short group %d, %d more before the prepare, earlier batch %v", short, k, earlier)
				covered := k <= certifier.AlignPad || short == 1 && k == certifier.AlignPad+1
				t.Run(name, func(t *testing.T) {
					unionFromAnswers(t, short, k, earlier, covered)
				})
			}
		}
	}
}

func unionFromAnswers(t *testing.T, short, k int, earlier, covered bool) {
	groups := []*certifier.Server{certifier.StartLeader(t), certifier.StartLeader(t)}
	partner := 1 - short
	// The coordinator knows both logs as they stand now: FillTo is the
	// longer of the two.
	var fillTo uint64
	for _, s := range groups {
		fillTo = max(fillTo, s.Node().LogLength())
	}
	var certs []certifier.Request
	for i := range k {
		certs = append(certs, certifier.Request{Origin: 2, StartVersion: fillTo, WSBytes: certifier.WSBytes(fmt.Sprintf("single-%d", i))})
	}
	if earlier {
		certifier.InOneBatch(t, groups[partner], certs, nil)
		certs = nil
	}
	asm := partition.NewAssembler(2)
	var index [2]uint64
	for g, s := range groups {
		prep := certifier.PrepareRequest{GID: 1, Origin: 1, StartVersion: fillTo, Involved: []int{0, 1},
			WSBytes: certifier.WSBytes(fmt.Sprintf("part-%d", g)), FillTo: fillTo}
		var batchCerts []certifier.Request
		if g == partner {
			batchCerts = certs
		}
		ans := certifier.InOneBatch(t, s, batchCerts, []certifier.PrepareRequest{prep})[0]
		if !ans.Prepared {
			t.Fatalf("group %d refused the prepare: %+v", g, ans)
		}
		index[g] = ans.Index
		for _, r := range ans.Remote {
			if err := asm.Offer(g, r.Version, r.WSBytes); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := index[partner] - index[short]; got != uint64(k) {
		t.Fatalf("the partner's prepare is %d entries past the short group's, want %d", got, k)
	}
	applied := false
	for act, ok := asm.Next(); ok; act, ok = asm.Next() {
		applied = applied || act.GID == 1
	}
	if applied != covered {
		g, idx := asm.Blocking()
		t.Errorf("union applied from the answers: %v, want %v (merge waits on group %d index %d)", applied, covered, g, idx)
	}
}
