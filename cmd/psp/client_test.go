package main

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestClientPayload: one seed draws the same payload sequence on every
// run, each payload leads with its type, and type-0 payloads (kv's
// GETs) do not all carry one key.
func TestClientPayload(t *testing.T) {
	draw := func(seed uint64) [][]byte {
		build := clientPayload(seed)
		var out [][]byte
		for i := 0; i < 64; i++ {
			out = append(out, build(0))
		}
		return out
	}
	a, b := draw(1), draw(1)
	keys := map[uint32]bool{}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("payload %d differs between two runs of seed 1: %x vs %x", i, a[i], b[i])
		}
		if typ := binary.LittleEndian.Uint16(a[i]); typ != 0 {
			t.Fatalf("payload %d carries type %d, want 0", i, typ)
		}
		keys[binary.LittleEndian.Uint32(a[i][2:6])] = true
	}
	if len(keys) < 60 {
		t.Fatalf("64 type-0 payloads carry only %d distinct values", len(keys))
	}
	if bytes.Equal(draw(2)[0], a[0]) {
		t.Fatal("seeds 1 and 2 draw the same first payload")
	}
	if typ := binary.LittleEndian.Uint16(clientPayload(1)(4)); typ != 4 {
		t.Fatalf("type 4 payload carries type %d", typ)
	}
}
