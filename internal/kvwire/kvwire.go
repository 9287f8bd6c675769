// Package kvwire defines the request and response shapes of the tashd
// key-value and admin API, gob-encoded over the framed transport. The
// daemon, the tashkv client and the wire smoke all import these, so a
// field added here reaches every decoder (gob matches by field name and
// silently zeroes what the receiving struct lacks).
package kvwire

// GetReq reads one column.
type GetReq struct{ Table, Key, Col string }

// GetResp carries the value.
type GetResp struct {
	Value []byte
	Found bool
}

// PutReq updates one column in its own transaction.
type PutReq struct {
	Table, Key, Col string
	Value           []byte
}

// PutResp reports the outcome.
type PutResp struct{ Aborted bool }

// TxnOp is one operation inside a kv.txn request.
type TxnOp struct {
	// Kind: "read", "update", "insert", "delete".
	Kind  string
	Table string
	Key   string
	Cols  map[string][]byte
}

// TxnReq executes ops atomically.
type TxnReq struct{ Ops []TxnOp }

// TxnResp returns read results in op order (nil for writes).
type TxnResp struct {
	Reads   []map[string][]byte
	Aborted bool
}

// StatResp reports one replica's replication state. Fingerprints are
// comparable across replicas only at equal Version.
type StatResp struct {
	Replica     int
	Version     uint64 // announced (readable) global version
	Fingerprint uint32 // CRC-32 over latest committed state
}

// PullResp reports the announced version after one pull round.
type PullResp struct{ Version uint64 }
