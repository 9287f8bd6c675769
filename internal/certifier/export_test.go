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

// InOneBatch runs reqs through stages 2–5 of s's pipeline as one batch,
// in that order, and returns their answers. The caller keeps every other
// request away meanwhile.
func InOneBatch(t *testing.T, s *Server, reqs []Request) []Response {
	t.Helper()
	tasks := make([]*task, len(reqs))
	for i, req := range reqs {
		var err error
		if tasks[i], err = newCommitTask(req); err != nil {
			t.Fatal(err)
		}
	}
	inOneBatch(s, tasks...)
	answers := make([]Response, len(tasks))
	for i, task := range tasks {
		if task.err != nil {
			t.Fatal(task.err)
		}
		answers[i] = s.response(task)
	}
	return answers
}
