package ckpt

// manifest.go — the on-disk formats: per-rank payload files and the
// rank-0 manifest, plus the validation scan shared by Restore, Inspect
// and cmd/hlsckpt.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	payloadMagic   = "HLSCKPT1"
	formatVersion  = 1
	manifestName   = "manifest.json"
	rankFilePrefix = "rank"
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// crc32Checksum is the whole-buffer CRC32-C used for payload files.
func crc32Checksum(b []byte) uint32 { return crc32.Checksum(b, ckptCRC) }

// Manifest is the rank-0 commit record of one generation.
type Manifest struct {
	Version         int            `json:"version"`
	Generation      uint64         `json:"generation"`
	NumRanks        int            `json:"numRanks"`
	CreatedUnixNano int64          `json:"createdUnixNano"`
	Sources         []string       `json:"sources"`
	Ranks           []ManifestRank `json:"ranks"`
}

// ManifestRank records one rank's payload file as gathered at commit.
type ManifestRank struct {
	Rank  int    `json:"rank"`
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
}

func rankFileName(rank int) string {
	return fmt.Sprintf("%s%04d.ckpt", rankFilePrefix, rank)
}

// encodePayload serializes one rank's records: magic, version, rank,
// record count, (name, data) pairs, trailing CRC32-C over everything
// before it. Self-validating without the manifest.
func encodePayload(rank int, names []string, datas [][]byte) []byte {
	n := len(payloadMagic) + 12
	for i := range names {
		n += 4 + len(names[i]) + 8 + len(datas[i])
	}
	n += 4
	b := make([]byte, 0, n)
	b = append(b, payloadMagic...)
	b = binary.LittleEndian.AppendUint32(b, formatVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(rank))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(names)))
	for i := range names {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(names[i])))
		b = append(b, names[i]...)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(datas[i])))
		b = append(b, datas[i]...)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, ckptCRC))
}

// decodePayload parses and validates one rank's payload bytes. Lengths
// are checked against the bytes left before they are used, so no field
// value, however large, can index past the buffer or size an allocation
// beyond it; bytes after the last record are an error.
func decodePayload(b []byte) (rank int, records map[string][]byte, err error) {
	if len(b) < len(payloadMagic)+16 || string(b[:len(payloadMagic)]) != payloadMagic {
		return 0, nil, fmt.Errorf("ckpt: payload magic missing")
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, ckptCRC) != binary.LittleEndian.Uint32(tail) {
		return 0, nil, fmt.Errorf("ckpt: payload checksum mismatch")
	}
	off := len(payloadMagic)
	if v := binary.LittleEndian.Uint32(body[off:]); v != formatVersion {
		return 0, nil, fmt.Errorf("ckpt: payload format version %d (this build reads %d)", v, formatVersion)
	}
	rank = int(binary.LittleEndian.Uint32(body[off+4:]))
	count := uint64(binary.LittleEndian.Uint32(body[off+8:]))
	off += 12
	// Each record takes at least its two length fields.
	if count > uint64(len(body)-off)/12 {
		return 0, nil, fmt.Errorf("ckpt: payload record count %d exceeds its %d bytes", count, len(body)-off)
	}
	records = make(map[string][]byte, count)
	for i := uint64(0); i < count; i++ {
		if len(body)-off < 4 {
			return 0, nil, fmt.Errorf("ckpt: payload truncated in record %d", i)
		}
		nl := uint64(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if nl+8 > uint64(len(body)-off) {
			return 0, nil, fmt.Errorf("ckpt: payload truncated in record %d", i)
		}
		name := string(body[off : off+int(nl)])
		off += int(nl)
		dl := binary.LittleEndian.Uint64(body[off:])
		off += 8
		if dl > uint64(len(body)-off) {
			return 0, nil, fmt.Errorf("ckpt: payload truncated in record %q", name)
		}
		records[name] = body[off : off+int(dl)]
		off += int(dl)
	}
	if off != len(body) {
		return 0, nil, fmt.Errorf("ckpt: %d bytes after the last payload record", len(body)-off)
	}
	return rank, records, nil
}

// GenInfo is one generation's validation report (Inspect, restore scan).
type GenInfo struct {
	Gen        uint64
	Dir        string
	Valid      bool
	Reason     string // why invalid ("" when valid)
	Staging    bool   // an uncommitted staging directory
	NumRanks   int
	TotalBytes int64
	Created    int64 // manifest CreatedUnixNano
	Sources    []string
	Ranks      []RankInfo
}

// RankInfo is one rank payload's validation state within a generation.
type RankInfo struct {
	Rank  int
	File  string
	Bytes int64
	CRCOK bool
}

// listGens enumerates committed and staging generation directories
// under dir, newest generation first.
func listGens(dir string) ([]GenInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var gens []GenInfo
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		staging := false
		var numPart string
		switch {
		case strings.HasPrefix(name, "gen-"):
			numPart = name[len("gen-"):]
		case strings.HasPrefix(name, "staging-"):
			numPart, staging = name[len("staging-"):], true
		default:
			continue
		}
		g, err := strconv.ParseUint(numPart, 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, GenInfo{Gen: g, Dir: filepath.Join(dir, name), Staging: staging})
	}
	sort.Slice(gens, func(i, j int) bool {
		if gens[i].Gen != gens[j].Gen {
			return gens[i].Gen > gens[j].Gen
		}
		return !gens[i].Staging && gens[j].Staging
	})
	return gens, nil
}

// validateGen fills in gi's validity: the manifest must parse, agree
// with the generation and (when wantRanks > 0) the world size, and
// every rank payload must exist with the manifest's exact size and
// CRC32-C. Staging directories are never valid (uncommitted).
func validateGen(gi *GenInfo, wantRanks int) {
	if gi.Staging {
		gi.Reason = "uncommitted staging directory"
		return
	}
	mb, err := os.ReadFile(filepath.Join(gi.Dir, manifestName))
	if err != nil {
		gi.Reason = "manifest unreadable: " + err.Error()
		return
	}
	var m Manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		gi.Reason = "manifest corrupt: " + err.Error()
		return
	}
	if m.Version != formatVersion {
		gi.Reason = fmt.Sprintf("manifest version %d (this build reads %d)", m.Version, formatVersion)
		return
	}
	if m.Generation != gi.Gen {
		gi.Reason = fmt.Sprintf("manifest generation %d in directory %s", m.Generation, filepath.Base(gi.Dir))
		return
	}
	if wantRanks > 0 && m.NumRanks != wantRanks {
		gi.Reason = fmt.Sprintf("checkpoint of a %d-rank world, want %d", m.NumRanks, wantRanks)
		return
	}
	if len(m.Ranks) != m.NumRanks {
		gi.Reason = fmt.Sprintf("manifest lists %d of %d ranks", len(m.Ranks), m.NumRanks)
		return
	}
	gi.NumRanks = m.NumRanks
	gi.Created = m.CreatedUnixNano
	gi.Sources = m.Sources
	ok := true
	for _, mr := range m.Ranks {
		ri := RankInfo{Rank: mr.Rank, File: mr.File, Bytes: mr.Bytes}
		b, err := os.ReadFile(filepath.Join(gi.Dir, mr.File))
		if err == nil && int64(len(b)) == mr.Bytes && crc32.Checksum(b, ckptCRC) == mr.CRC32 {
			ri.CRCOK = true
			gi.TotalBytes += mr.Bytes
		} else {
			ok = false
		}
		gi.Ranks = append(gi.Ranks, ri)
	}
	if !ok {
		gi.Reason = "rank payload missing or corrupt"
		return
	}
	gi.Valid = true
}

// Inspect validates every generation under dir (newest first) without
// needing a world — the offline view behind cmd/hlsckpt.
func Inspect(dir string) ([]GenInfo, error) {
	gens, err := listGens(dir)
	if err != nil {
		return nil, err
	}
	for i := range gens {
		validateGen(&gens[i], 0)
	}
	return gens, nil
}
