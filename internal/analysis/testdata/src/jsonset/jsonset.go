// Package jsonset is TestDecodedFieldsCountAsSet's fixture: structs
// that encoding/json decodes into, and one it only encodes.
package jsonset

import (
	"encoding/json"
	"io"
)

// Decoded is filled by json.Unmarshal; its json tag hides Hidden.
type Decoded struct {
	A      int
	B      string `json:"b,omitempty"`
	Hidden int    `json:"-"`
	Inner
}

// Inner is embedded in Decoded, so decoding Decoded fills C.
type Inner struct {
	C int
}

// Streamed is filled by a json.Decoder.
type Streamed struct {
	D int
}

// Encoded is only ever encoded.
type Encoded struct {
	E int
}

// Load decodes a Decoded from data and a Streamed from r.
func Load(data []byte, r io.Reader) (Decoded, Streamed, error) {
	var d Decoded
	if err := json.Unmarshal(data, &d); err != nil {
		return d, Streamed{}, err
	}
	var s Streamed
	err := json.NewDecoder(r).Decode(&s)
	return d, s, err
}

// Save encodes e.
func Save(e Encoded) ([]byte, error) {
	return json.Marshal(&e)
}
