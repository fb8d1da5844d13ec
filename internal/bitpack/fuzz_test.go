package bitpack

import (
	"encoding/binary"
	"reflect"
	"testing"

	"csrgraph/internal/bitarray"
)

// Decoders over untrusted bytes must error, never panic.

func FuzzDecodeVarint(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeVarint([]uint32{0, 1, 300, 0xFFFFFFFF}))
	f.Add([]byte{0x80})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := DecodeVarint(data)
		if err != nil {
			return
		}
		// Accepted input must re-encode to a decodable stream with the same
		// values (canonical encodings round-trip exactly; non-canonical ones
		// still produce the same value list).
		back, rerr := DecodeVarint(EncodeVarint(vals))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(vals) != 0 && !reflect.DeepEqual(vals, back) {
			t.Fatalf("values changed: %v -> %v", vals, back)
		}
	})
}

func FuzzDecodeEliasGamma(f *testing.F) {
	var payload []byte
	for _, w := range EncodeEliasGamma([]uint32{0, 7, 1 << 20}).Words() {
		payload = binary.BigEndian.AppendUint64(payload, w)
	}
	f.Add(payload, 3)
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		if count < 0 || count > 1<<16 {
			return
		}
		// data is the bit stream, most significant bit first: the order
		// AppendBits lays bits out in.
		var a bitarray.Array
		for _, b := range data {
			a.AppendBits(uint64(b), 8)
		}
		vals, err := DecodeEliasGamma(&a, count)
		if err != nil {
			return
		}
		// Accepted values re-encode and decode identically.
		back, rerr := DecodeEliasGamma(EncodeEliasGamma(vals), len(vals))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(vals) != 0 && !reflect.DeepEqual(vals, back) {
			t.Fatal("gamma values changed on re-encode")
		}
	})
}
