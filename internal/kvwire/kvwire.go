// Package kvwire defines the request and response shapes of the tashd
// key-value and admin API and their one codec: gob over the framed
// transport. The daemon, the tashkv client and the wire smoke all go
// through Encode, Decode and Call, so a field added here reaches every
// decoder (gob matches by field name and silently zeroes what the
// receiving struct lacks).
package kvwire

import (
	"bytes"
	"encoding/gob"
)

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

// Encode is the wire form of any request or response above.
func Encode(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses an Encode payload into v, a pointer to the type sent.
func Decode(b []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// Caller is the client side of the framed transport
// (transport.Client satisfies it).
type Caller interface {
	Call(method string, req []byte) ([]byte, error)
}

// Call invokes method on a tashd daemon and decodes its answer into
// resp. Admin methods take no request: pass a nil req.
func Call(c Caller, method string, req, resp interface{}) error {
	var body []byte
	if req != nil {
		var err error
		if body, err = Encode(req); err != nil {
			return err
		}
	}
	b, err := c.Call(method, body)
	if err != nil {
		return err
	}
	return Decode(b, resp)
}
