package resilience

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// JournalSchema is the journal record format version. Replay rejects
// every other value; bump it when the record frame or the replay
// semantics change incompatibly.
const JournalSchema = "mbist-journal/1"

// journalRecord is one line of an append-only journal: the same
// verified-frame idea as the checkpoint envelope (schema, fingerprint,
// CRC over the raw payload bytes), plus a sequence number so a
// reordered or doctored file cannot replay silently. Records are
// written compact (one JSON object per line), so the stored Payload is
// exactly the bytes the CRC was computed over — no re-canonicalisation
// on load.
type journalRecord struct {
	Schema      string          `json:"schema"`
	Fingerprint string          `json:"fingerprint"`
	Seq         int             `json:"seq"`
	CRC         uint32          `json:"crc"`
	Payload     json.RawMessage `json:"payload"`
}

// Journal is an append-only, fsync-per-record JSONL log riding the
// checkpoint envelope's verification scheme. It is the durability
// substrate of the mbistd job store: higher layers append one payload
// per state transition and replay the whole log on restart.
//
// Failure semantics, chosen for what a SIGKILL'd writer actually
// leaves behind:
//
//   - A torn tail — the final line has no trailing newline, because the
//     writer died mid-write — is expected damage: OpenJournal drops the
//     tail record, truncates the file back to the last complete record
//     and continues. Every complete record was fsync'd, so at most the
//     in-flight transition is lost.
//   - Anything wrong before the final line, or a complete record whose
//     CRC does not match its payload, is NOT crash debris — it is bit
//     rot or tampering. OpenJournal refuses with ErrCorrupt rather
//     than resurrect jobs from a log it cannot trust.
//   - A journal written for a different owner (schema or fingerprint
//     differ) fails with ErrMismatch.
//
// Journal methods are not safe for concurrent use; callers serialise
// appends (the job store holds its own mutex across the state
// transition and the append, which is the ordering that matters).
type Journal struct {
	path        string
	fingerprint string
	f           *os.File
	seq         int
	size        int64
}

// OpenJournal opens (creating if absent) the journal at path, replays
// and verifies every record, and returns the journal positioned for
// appending plus the replayed payloads in append order. A torn tail
// record is dropped and the file truncated back to the last complete
// record; any other damage returns ErrCorrupt/ErrMismatch and a nil
// journal — the caller must refuse to start rather than guess.
func OpenJournal(path, fingerprint string) (*Journal, []json.RawMessage, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal %s: %w", path, err)
	}
	payloads, goodLen, err := replayJournal(path, fingerprint, data)
	if err != nil {
		return nil, nil, err
	}
	if goodLen < len(data) {
		// Torn tail: drop the partial record so the next append starts
		// on a clean line boundary.
		if err := os.Truncate(path, int64(goodLen)); err != nil {
			return nil, nil, fmt.Errorf("journal %s: drop torn tail: %w", path, err)
		}
		obs.Active().Counter("resilience.journal_tail_dropped").Add(1)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return &Journal{
		path:        path,
		fingerprint: fingerprint,
		f:           f,
		seq:         len(payloads),
		size:        int64(goodLen),
	}, payloads, nil
}

// replayJournal parses and verifies every record in data, returning
// the payloads and the byte length of the verified prefix. A torn tail
// (final line without its newline) is reported by goodLen < len(data)
// with a nil error; all other damage is an error.
func replayJournal(path, fingerprint string, data []byte) (payloads []json.RawMessage, goodLen int, err error) {
	off := 0
	seq := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Final line never got its newline: the writer was killed
			// mid-write. Recoverable — drop it.
			return payloads, off, nil
		}
		line := data[off : off+nl]
		end := off + nl + 1

		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			obs.Active().Counter("resilience.journal_corrupt").Add(1)
			return nil, 0, &CorruptError{Path: path, what: "journal",
				Reason: fmt.Sprintf("record %d: invalid JSON: %v", seq+1, err), kind: ErrCorrupt}
		}
		if rec.Schema != JournalSchema {
			return nil, 0, &CorruptError{Path: path, what: "journal",
				Reason: fmt.Sprintf("record %d: schema %q, want %q", seq+1, rec.Schema, JournalSchema), kind: ErrMismatch}
		}
		if rec.Fingerprint != fingerprint {
			return nil, 0, &CorruptError{Path: path, what: "journal",
				Reason: fmt.Sprintf("record %d: fingerprint %q does not match owner %q", seq+1, rec.Fingerprint, fingerprint),
				kind:   ErrMismatch}
		}
		if rec.Seq != seq+1 {
			obs.Active().Counter("resilience.journal_corrupt").Add(1)
			return nil, 0, &CorruptError{Path: path, what: "journal",
				Reason: fmt.Sprintf("record sequence %d after %d", rec.Seq, seq), kind: ErrCorrupt}
		}
		if len(rec.Payload) == 0 {
			// Append always writes a JSON value; a record without one
			// would otherwise pass with the CRC of nothing (0).
			obs.Active().Counter("resilience.journal_corrupt").Add(1)
			return nil, 0, &CorruptError{Path: path, what: "journal",
				Reason: fmt.Sprintf("record %d: no payload", rec.Seq), kind: ErrCorrupt}
		}
		if got := crc32.ChecksumIEEE(rec.Payload); got != rec.CRC {
			obs.Active().Counter("resilience.journal_corrupt").Add(1)
			return nil, 0, &CorruptError{Path: path, what: "journal",
				Reason: fmt.Sprintf("record %d: payload CRC %08x, record says %08x", rec.Seq, got, rec.CRC), kind: ErrCorrupt}
		}
		payloads = append(payloads, rec.Payload)
		seq++
		off = end
	}
	return payloads, off, nil
}

// Append marshals payload, frames it as the next record and writes it
// with an fsync, so an acknowledged append survives a SIGKILL
// immediately after.
func (j *Journal) Append(payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("journal %s: marshal: %w", j.path, err)
	}
	line, err := json.Marshal(journalRecord{
		Schema:      JournalSchema,
		Fingerprint: j.fingerprint,
		Seq:         j.seq + 1,
		CRC:         crc32.ChecksumIEEE(raw),
		Payload:     raw,
	})
	if err != nil {
		return fmt.Errorf("journal %s: marshal record: %w", j.path, err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("journal %s: write: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal %s: sync: %w", j.path, err)
	}
	j.seq++
	j.size += int64(len(line))
	obs.Active().Counter("resilience.journal_appends").Add(1)
	return nil
}

// Rotate atomically replaces the journal's contents with the given
// payloads — compaction. The replacement is built as a sibling temp
// file (every record re-framed and re-sequenced from 1), fsync'd and
// renamed over the journal, so a crash mid-rotate leaves either the
// old journal or the new one, never a mixture. On success the journal
// continues appending after the new records.
func (j *Journal) Rotate(payloads []any) error {
	var buf bytes.Buffer
	for i, p := range payloads {
		raw, err := json.Marshal(p)
		if err != nil {
			return fmt.Errorf("journal %s: rotate: marshal payload %d: %w", j.path, i, err)
		}
		line, err := json.Marshal(journalRecord{
			Schema:      JournalSchema,
			Fingerprint: j.fingerprint,
			Seq:         i + 1,
			CRC:         crc32.ChecksumIEEE(raw),
			Payload:     raw,
		})
		if err != nil {
			return fmt.Errorf("journal %s: rotate: marshal record %d: %w", j.path, i, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("journal %s: rotate: %w", j.path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("journal %s: rotate: write: %w", j.path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal %s: rotate: sync: %w", j.path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal %s: rotate: close: %w", j.path, err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("journal %s: rotate: %w", j.path, err)
	}
	// The old append handle points at the unlinked inode; reopen.
	j.f.Close()
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal %s: rotate: reopen: %w", j.path, err)
	}
	j.f = f
	j.seq = len(payloads)
	j.size = int64(buf.Len())
	obs.Active().Counter("resilience.journal_rotations").Add(1)
	return nil
}

// Size returns the journal's current byte length.
func (j *Journal) Size() int64 { return j.size }

// Records returns the number of records currently in the journal.
func (j *Journal) Records() int { return j.seq }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the append handle. The journal is unusable afterwards.
func (j *Journal) Close() error { return j.f.Close() }
