package partition

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeIDs throws arbitrary bytes at the decoder of the row-request
// want-lists that peers send during the partitioned row exchange. The
// contract: no input panics; an accepted payload is canonical, so
// EncodeIDs of the decoded ids reproduces it byte for byte; and a payload
// whose declared count disagrees with its length is rejected before a
// single id is appended, so a hostile count cannot drive allocation.
func FuzzDecodeIDs(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		mismatch := len(payload) >= 8 &&
			len(payload) != 8+4*int(binary.LittleEndian.Uint32(payload[4:8]))
		const sentinel = int32(-7)
		dst := []int32{sentinel, sentinel, sentinel, sentinel}
		ids, err := DecodeIDs(dst, payload)
		if err != nil {
			for i, v := range dst {
				if v != sentinel {
					t.Fatalf("rejected payload wrote dst[%d] = %d: %v", i, v, err)
				}
			}
			return
		}
		if mismatch {
			t.Fatalf("accepted a payload whose declared count disagrees with its %d bytes", len(payload))
		}
		if got := EncodeIDs(ids); !bytes.Equal(got, payload) {
			t.Fatalf("accepted payload is not canonical:\n in  %x\n out %x", payload, got)
		}
	})
}
