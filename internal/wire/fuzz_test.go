package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadHeader feeds arbitrary bytes to the frame decoder the socket
// reader uses. Nothing may panic; a frame that decodes must survive
// re-encoding with AppendFrame and decode to the same header (span
// extension included) and payload.
func FuzzReadHeader(f *testing.F) {
	f.Add(AppendFrame(nil, &Header{Type: TypeEager, Seq: 1, Tag: 2, Elems: 1, Span: 3, SendTS: 4}, []byte("x")))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		var scratch [maxFrameRead]byte
		r := bytes.NewReader(data)
		plen, err := readHeader(r, &h, &scratch)
		if err != nil || plen > r.Len() {
			return // rejected, or a truncated payload the socket read would fail on
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			t.Fatalf("payload read: %v", err)
		}
		enc := AppendFrame(nil, &h, payload)
		var got Header
		gotLen, err := readHeader(bytes.NewReader(enc), &got, &scratch)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if got != h || gotLen != plen || !bytes.Equal(enc[len(enc)-plen:], payload) {
			t.Fatalf("round trip:\n got  %+v (%d bytes)\n want %+v (%d bytes)", got, gotLen, h, plen)
		}
	})
}

// FuzzDecodeBatch feeds arbitrary bytes to the Batch container decoder.
// Nothing may panic, every fault must be a *BatchError counting the
// sub-frames delivered before it, and a batch that decodes must survive
// re-encoding its sub-frames.
func FuzzDecodeBatch(f *testing.F) {
	two := AppendFrame(nil, &Header{Type: TypeEager, Seq: 1, Tag: 1}, []byte("a"))
	f.Add(AppendFrame(two, &Header{Type: TypeRTS, Seq: 2, Xid: 9, Span: 5}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var subs []Header
		var bodies [][]byte
		n, err := DecodeBatch(data, func(h *Header, sub []byte) error {
			if int(h.PayloadLen) != len(sub) || h.Type == TypeBatch {
				t.Fatalf("sub-frame %d delivered malformed: %+v with %d bytes", len(subs), *h, len(sub))
			}
			subs = append(subs, *h)
			bodies = append(bodies, append([]byte(nil), sub...))
			return nil
		})
		if n != len(subs) {
			t.Fatalf("DecodeBatch reported %d sub-frames, delivered %d", n, len(subs))
		}
		if err != nil {
			var be *BatchError
			if !errors.As(err, &be) || be.Frames != n {
				t.Fatalf("fault %v after %d sub-frames, want a *BatchError counting them", err, n)
			}
			return
		}
		var re []byte
		for i := range subs {
			re = AppendFrame(re, &subs[i], bodies[i])
		}
		i := 0
		if _, err := DecodeBatch(re, func(h *Header, sub []byte) error {
			if *h != subs[i] || !bytes.Equal(sub, bodies[i]) {
				t.Fatalf("sub-frame %d round trip: got %+v, want %+v", i, *h, subs[i])
			}
			i++
			return nil
		}); err != nil || i != len(subs) {
			t.Fatalf("re-encoded batch: %d of %d sub-frames, err %v", i, len(subs), err)
		}
	})
}
