package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzDatasetFileV2 feeds the version-2 dataset.json reader hostile
// bytes, each input twice: as given, and with its last four bytes
// replaced by the checksum of the rest, so that mutations reach the row
// decoders behind the CRC. The reader must never panic, never allocate
// more than a small constant times the input's length, and every file it
// accepts must be exactly what encodeDatasetFile writes for the request
// it decoded.
func FuzzDatasetFileV2(f *testing.F) {
	golden, err := filepath.Glob(filepath.Join("testdata", "dataset_v2_*.bin"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range golden {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	head := `{"privtreed_dataset":2,"created_at":"2026-03-04T05:06:07Z","request":{"name":"h","epsilon":1},"rows":`
	for _, doc := range []string{
		head + `{"field":"points","n":1000000000,"dims":2,"bytes":16000000000}}` + "\n\x00\x00\x00\x00",
		head + `{"field":"points","n":2,"dims":1,"bytes":16}}` + "\n" + "\x00\x00\x00\x00\x00\x00\xf0\x7f\x01\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00",
		head + `{"field":"sequences","n":3,"bytes":5}}` + "\n\x01\x80\x00\x00\x00\x00\x00\x00\x00",
		head + `{"field":"sequences","n":1,"bytes":11}}` + "\n\x0a\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x00\x00\x00",
		head + `{"field":"sequences","n":2,"bytes":2}}` + "\n\x05\x00\x00\x00\x00\x00",
		head + `{"field":"sequences","n":1,"bytes":2}}` + "\n\x80\x00\x00\x00\x00\x00",
		" " + head + `{"field":"sequences","n":1,"bytes":1}}` + "\n\x00\x00\x00\x00\x00",
		head + `{"field":"sequences","n":1,"bytes":1,"dims":0}}` + "\n\x00\x00\x00\x00\x00",
		head + `{"field":"rows","n":0,"bytes":0}}` + "\n\x00\x00\x00\x00",
		head + `{"field":"points","n":0,"bytes":0}}` + "\n\x00\x00\x00\x00",
		head + `{"field":"points","n":0,"dims":2,"bytes":0}}` + "\n\x00\x00\x00\x00",
		`{"privtreed_dataset":2,"created_at":"2026-03-04T05:06:07Z","request":{"name":"h","epsilon":1,"points":[[1]]}}` + "\n\x00\x00\x00\x00",
		`{"privtreed_dataset":1,"created_at":"2026-03-04T05:06:07Z","request":{"name":"h","epsilon":1}}` + "\n\x00\x00\x00\x00",
		"\n", "\n\x00\x00\x00\x00", "{}\n",
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		inputs := [][]byte{doc}
		if n := len(doc) - 4; n >= 0 {
			fixed := binary.LittleEndian.AppendUint32(bytes.Clone(doc[:n]), crc32.Checksum(doc[:n], castagnoli))
			inputs = append(inputs, fixed)
		}
		for _, in := range inputs {
			nl := bytes.IndexByte(in, '\n')
			if nl < 0 {
				continue
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pd, err := decodeDatasetFileV2(in, nl)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(in)+64<<10); got > limit {
				t.Fatalf("allocated %d bytes for a %d-byte input (limit %d)", got, len(in), limit)
			}
			if err != nil {
				continue
			}
			again, err := encodeDatasetFile(&pd.Request, pd.CreatedAt)
			if err != nil {
				t.Fatalf("accepted file does not re-encode: %v\ninput %q", err, in)
			}
			if !bytes.Equal(again, in) {
				t.Fatalf("accepted file re-encodes differently:\n got %q\nwant %q", again, in)
			}
		}
	})
}
