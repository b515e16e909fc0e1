package main

import (
	_ "embed"
	"encoding/json"
)

// reference.json pins, for seed 1, each scale replication's final infected
// count, events fired and messages sent.
//
//go:embed reference.json
var referenceJSON []byte

func references(b *bench) map[string][]pin {
	var ref map[string][]pin
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		b.fail("reference.json: %v", err)
	}
	return ref
}
