package certifier

import "testing"

// What the external tests of this package (package certifier_test),
// which merge the pipeline's answers with the partition package, need
// of its insides.

// AlignPad is alignPad.
const AlignPad = alignPad

// StartLeader starts a one-node group on an instant disk and returns
// its leader.
func StartLeader(t *testing.T) *Server { return newTestGroup(t, 1, nil).waitLeader(t) }

// WSBytes encodes a writeset that updates each of keys.
func WSBytes(keys ...string) []byte { return wsBytes(keys...) }

// InOneBatch runs certs and then preps through stages 2–5 of s's
// pipeline as one batch, in that order, and returns the prepares'
// answers. The caller keeps every other request away meanwhile.
func InOneBatch(t *testing.T, s *Server, certs []Request, preps []PrepareRequest) []PrepareResponse {
	t.Helper()
	var tasks, prepared []*task
	for _, req := range certs {
		ct, err := newCertifyTask(req)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, ct)
	}
	for _, req := range preps {
		pt, err := newPrepareTask(req)
		if err != nil {
			t.Fatal(err)
		}
		tasks, prepared = append(tasks, pt), append(prepared, pt)
	}
	inOneBatch(s, tasks...)
	var answers []PrepareResponse
	for _, pt := range prepared {
		if pt.err != nil {
			t.Fatal(pt.err)
		}
		answers = append(answers, s.prepareResponse(pt))
	}
	return answers
}
