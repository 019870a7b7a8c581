package joblog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// recordsJSON renders records for comparison: times decoded from the
// same text carry distinct zone pointers, so deep equality would
// mismatch on records that are the same on disk.
func recordsJSON(t *testing.T, recs []Record) []byte {
	t.Helper()
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatalf("replayed records do not re-encode: %v", err)
	}
	return b
}

// openRecords opens the log at path and returns its replayed records
// and stats, closing it again.
func openRecords(t *testing.T, path string) ([]Record, Stats) {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	return l.Records(), l.Stats()
}

// FuzzJoblogReplay replays arbitrary bytes as a job log. Open must never
// panic or fail on content: whatever is not a whole, checksummed record
// is a torn tail, dropped and truncated away. The truncated file is then
// a clean log — reopening it gives the same records with no tail dropped
// — and appending one record to it and reopening adds exactly that
// record. Seeds are a log written through Append (admit, start, finish
// and fail records) and truncated and bit-flipped copies of it.
func FuzzJoblogReplay(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.wal")
	l, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	at := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	err = l.Append(true,
		Record{Type: TypeAdmit, Time: at, ID: "job-1", Key: "aaa", Job: json.RawMessage(`{"kind":"sim","workload":"mcf"}`), TimeoutSeconds: 30},
		Record{Type: TypeAdmit, Time: at, ID: "job-2", Key: "bbb", Job: json.RawMessage(`{"kind":"scenario"}`)},
		Record{Type: TypeStart, Time: at, ID: "job-1", Key: "aaa"},
		Record{Type: TypeFinish, Time: at, ID: "job-1", Key: "aaa"},
		Record{Type: TypeFail, Time: at, ID: "job-2", Key: "bbb", Error: "context deadline exceeded"})
	if err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	for _, n := range []int{3, 8, 20, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:n])
	}
	for _, bit := range []int{0, 9, 8*8 + 3, 8 * len(seed) / 2, 8*len(seed) - 1} {
		flipped := bytes.Clone(seed)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, _ := openRecords(t, path)

		again, st := openRecords(t, path)
		if st.TailDropped {
			t.Fatal("reopening the file Open left behind dropped a tail")
		}
		if want, got := recordsJSON(t, first), recordsJSON(t, again); !bytes.Equal(want, got) {
			t.Fatalf("reopen changed the records:\n%s\n%s", want, got)
		}

		l, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		rec := Record{Type: TypeAdmit, Time: time.Date(2026, 5, 6, 7, 8, 9, 10, time.UTC),
			ID: "job-9", Key: "zzz", Job: json.RawMessage(`{"kind":"sim"}`)}
		if err := l.Append(false, rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var seq uint64
		for _, r := range first {
			seq = max(seq, r.Seq)
		}
		rec.Seq = seq + 1
		after, st := openRecords(t, path)
		if st.TailDropped {
			t.Fatal("reopening after an append dropped a tail")
		}
		if want, got := recordsJSON(t, append(first, rec)), recordsJSON(t, after); !bytes.Equal(want, got) {
			t.Fatalf("append then reopen did not add exactly the record:\n%s\n%s", want, got)
		}
	})
}
