package ckpt

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
)

// FuzzDecodePayload feeds arbitrary bytes to the rank payload decoder
// that Restore and Inspect run on files read from disk. Nothing may
// panic. The input is tried as is and resealed under a valid checksum,
// so the record parser behind the CRC is reached too; whatever decodes
// must decode the same again after re-encoding. The input is also cut
// into records and encoded, and that payload must round-trip exactly and
// fail to decode with any one byte changed.
func FuzzDecodePayload(f *testing.F) {
	f.Add(encodePayload(3, []string{"grid", "step"}, [][]byte{{1, 2, 3}, {}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecodeStable(t, b)
		if len(b) >= 4 {
			checkDecodeStable(t, reseal(b))
		}
		checkEncodeRoundTrip(t, b)
	})
}

// reseal returns b with its last four bytes replaced by the CRC of the
// rest, as encodePayload would write them.
func reseal(b []byte) []byte {
	body := append([]byte(nil), b[:len(b)-4]...)
	return binary.LittleEndian.AppendUint32(body, crc32Checksum(body))
}

// checkDecodeStable decodes b and, if it is accepted, re-encodes the
// records in name order and checks they decode to the same rank and
// records.
func checkDecodeStable(t *testing.T, b []byte) {
	t.Helper()
	rank, recs, err := decodePayload(b)
	if err != nil {
		return
	}
	names := make([]string, 0, len(recs))
	for name := range recs {
		names = append(names, name)
	}
	sort.Strings(names)
	datas := make([][]byte, len(names))
	for i, name := range names {
		datas[i] = recs[name]
	}
	rank2, recs2, err := decodePayload(encodePayload(rank, names, datas))
	if err != nil {
		t.Fatalf("re-encoded payload rejected: %v", err)
	}
	if rank2 != rank || !sameRecords(recs2, names, datas) {
		t.Fatalf("re-encoded payload decodes to rank %d %v, want rank %d %v", rank2, recs2, rank, recs)
	}
}

// checkEncodeRoundTrip cuts b at zero bytes into alternating names and
// data (first occurrence of a name wins) and checks encodePayload's
// output decodes to exactly those records, and only while intact.
func checkEncodeRoundTrip(t *testing.T, b []byte) {
	t.Helper()
	parts := bytes.Split(b, []byte{0})
	var names []string
	var datas [][]byte
	seen := map[string]bool{}
	for i := 0; i+1 < len(parts); i += 2 {
		if name := string(parts[i]); !seen[name] {
			seen[name] = true
			names = append(names, name)
			datas = append(datas, parts[i+1])
		}
	}
	rank := len(b)
	enc := encodePayload(rank, names, datas)
	gotRank, recs, err := decodePayload(enc)
	if err != nil {
		t.Fatalf("encodePayload output rejected: %v", err)
	}
	if gotRank != rank || !sameRecords(recs, names, datas) {
		t.Fatalf("round trip: rank %d %v, want rank %d %q %q", gotRank, recs, rank, names, datas)
	}
	enc[len(b)%len(enc)] ^= 0x5a
	if _, _, err := decodePayload(enc); err == nil {
		t.Fatalf("payload with byte %d changed decoded without error", len(b)%len(enc))
	}
}

func sameRecords(recs map[string][]byte, names []string, datas [][]byte) bool {
	if len(recs) != len(names) {
		return false
	}
	for i, name := range names {
		got, ok := recs[name]
		if !ok || !bytes.Equal(got, datas[i]) {
			return false
		}
	}
	return true
}

// TestDecodePayloadRejectsBadLengths seals payloads whose length fields
// point past the buffer (or leave bytes over) under valid checksums: each
// must be an error, not a panic or a huge allocation.
func TestDecodePayloadRejectsBadLengths(t *testing.T) {
	head := func(count uint32) []byte {
		b := append([]byte(payloadMagic), 1, 0, 0, 0, 0, 0, 0, 0)
		return binary.LittleEndian.AppendUint32(b, count)
	}
	record := func(nameLen uint32, name string, dataLen uint64, data string) []byte {
		b := binary.LittleEndian.AppendUint32(nil, nameLen)
		b = append(b, name...)
		b = binary.LittleEndian.AppendUint64(b, dataLen)
		return append(b, data...)
	}
	good := encodePayload(0, []string{"x"}, [][]byte{[]byte("data")})
	for name, body := range map[string][]byte{
		"negative data length": append(head(1), record(1, "x", 1<<64-16, "data")...),
		"data length past end": append(head(1), record(1, "x", 5, "data")...),
		"name length past end": append(head(1), record(1<<32-1, "x", 0, "data")...),
		"huge record count":    append(head(1<<32-1), make([]byte, 12)...),
		"trailing bytes":       append(good[:len(good)-4:len(good)-4], "junk"...),
	} {
		if _, _, err := decodePayload(reseal(append(body, 0, 0, 0, 0))); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if rank, recs, err := decodePayload(good); err != nil || rank != 0 || string(recs["x"]) != "data" {
		t.Errorf("good payload: rank %d records %q err %v", rank, recs, err)
	}
}
