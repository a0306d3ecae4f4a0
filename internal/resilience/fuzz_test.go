package resilience

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzOpenJournal feeds arbitrary bytes to the journal decoder. It
// must never panic or hang. A file it refuses must be refused with a
// *CorruptError wrapping ErrCorrupt or ErrMismatch; a file it accepts
// must replay payloads that survive Rotate and a reopen unchanged.
func FuzzOpenJournal(f *testing.F) {
	// Seeds: the shapes journal_test.go builds, as raw file bytes.
	dir := f.TempDir()
	write := func(name, fp string, payloads ...transition) []byte {
		path := filepath.Join(dir, name)
		j, _, err := OpenJournal(path, fp)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range payloads {
			if err := j.Append(p); err != nil {
				f.Fatal(err)
			}
		}
		j.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	three := write("three", "fp", transition{"accepted", "job-1"}, transition{"running", "job-1"}, transition{"done", "job-1"})
	nl := bytes.IndexByte(three, '\n')
	f.Add(three)
	f.Add([]byte{})
	f.Add(three[:len(three)-9])                                      // torn tail
	f.Add(bytes.Replace(three, []byte("job-1"), []byte("job-2"), 1)) // interior payload flip
	f.Add(bytes.Replace(three, []byte("done"), []byte("dona"), 1))   // tail CRC mismatch
	f.Add(append(append([]byte{}, three...), three[:nl+1]...))       // sequence tamper
	f.Add([]byte(strings.Replace(string(three), JournalSchema, "mbist-journal/0", 1)))
	f.Add(write("foreign", "owner-a", transition{"accepted", "job-1"}))
	f.Add([]byte("complete garbage line\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, payloads, err := OpenJournal(path, "fp")
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) || !(errors.Is(err, ErrCorrupt) || errors.Is(err, ErrMismatch)) {
				t.Fatalf("refused with %T %v, want a *CorruptError wrapping ErrCorrupt or ErrMismatch", err, err)
			}
			if j != nil {
				t.Fatal("refused journal still returned a handle")
			}
			return
		}
		if j.Records() != len(payloads) {
			t.Fatalf("journal reports %d records after replaying %d", j.Records(), len(payloads))
		}
		rotated := make([]any, len(payloads))
		for i, p := range payloads {
			rotated[i] = p
		}
		if err := j.Rotate(rotated); err != nil {
			t.Fatalf("rotate of replayed payloads: %v", err)
		}
		j.Close()
		j2, again, err := OpenJournal(path, "fp")
		if err != nil {
			t.Fatalf("reopen after rotate: %v", err)
		}
		j2.Close()
		if len(again) != len(payloads) {
			t.Fatalf("reopen after rotate replayed %d records, want %d", len(again), len(payloads))
		}
		for i := range payloads {
			if !sameJSON(payloads[i], again[i]) {
				t.Fatalf("record %d changed across rotate: %s -> %s", i+1, payloads[i], again[i])
			}
		}
	})
}

// sameJSON reports whether a and b decode to the same JSON value.
// Rotate re-marshals each payload, which may compact whitespace or
// escape HTML characters but must not change the value.
func sameJSON(a, b []byte) bool {
	decode := func(raw []byte) (any, error) {
		d := json.NewDecoder(bytes.NewReader(raw))
		d.UseNumber()
		var v any
		err := d.Decode(&v)
		return v, err
	}
	va, errA := decode(a)
	vb, errB := decode(b)
	return errA == nil && errB == nil && reflect.DeepEqual(va, vb)
}
