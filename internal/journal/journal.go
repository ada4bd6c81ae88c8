// Package journal implements clusterd's write-ahead job journal: an
// append-only log of job lifecycle records, one CRC-framed JSON record
// per line, fsynced before the corresponding state change is
// acknowledged to a client.
//
// The framing is deliberately boring — `crc32c(json) SP json LF` — so a
// journal survives being inspected (and repaired) with a text editor.
// Decoding is tolerant of exactly the damage a crash can inflict: a torn
// final record (the write the machine died in the middle of) is dropped
// and truncated away on the next open. Damage anywhere *before* intact
// records cannot be produced by a crash of this writer, only by external
// corruption, so it is refused with ErrCorrupt rather than silently
// skipped — recovery must never invent a job history.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// Type tags one lifecycle record.
type Type string

// The record vocabulary. One job emits submitted → started →
// (done|failed|cancelled); started repeats per retry attempt. A shutdown
// record carries no job: it marks a clean drain, letting recovery
// distinguish "the daemon chose to stop" from "the daemon died".
const (
	TypeSubmitted Type = "submitted"
	TypeStarted   Type = "started"
	TypeDone      Type = "done"
	TypeFailed    Type = "failed"
	TypeCancelled Type = "cancelled"
	TypeShutdown  Type = "shutdown"
)

// known vocabulary for decode-time validation.
var knownTypes = map[Type]bool{
	TypeSubmitted: true, TypeStarted: true, TypeDone: true,
	TypeFailed: true, TypeCancelled: true, TypeShutdown: true,
}

// Record is one journal entry. Spec and Result are raw JSON so this
// package stays independent of the service's types; the service owns
// their schemas.
type Record struct {
	Type  Type      `json:"type"`
	JobID string    `json:"job,omitempty"`
	At    time.Time `json:"at,omitzero"`
	// Spec and Key accompany a submitted record.
	Spec json.RawMessage `json:"spec,omitempty"`
	Key  string          `json:"key,omitempty"`
	// Attempt is the 0-based attempt number on a started record and the
	// total attempts consumed on a terminal record.
	Attempt int `json:"attempt,omitempty"`
	// Cached marks a done record answered from the result cache.
	Cached bool `json:"cached,omitempty"`
	// Degraded marks a failed record that exhausted its fault retries.
	Degraded bool            `json:"degraded,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// validate rejects records no writer of this package produces.
func (r Record) validate() error {
	if !knownTypes[r.Type] {
		return fmt.Errorf("journal: unknown record type %q", r.Type)
	}
	if r.Type != TypeShutdown && r.JobID == "" {
		return fmt.Errorf("journal: %s record without a job id", r.Type)
	}
	return nil
}

// ErrCorrupt reports a damaged record that is followed by further intact
// records — damage a crash of this writer cannot produce.
var ErrCorrupt = errors.New("journal: corrupt record before end of journal")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameLine wraps one JSON body in the journal framing: 8 hex digits of
// CRC-32C over the body, a space, the body, a newline. The replication
// stream (replica.go) reuses the same discipline so both kinds of file
// survive inspection with a text editor and tolerate exactly the same
// crash damage.
func frameLine(body []byte) []byte {
	line := make([]byte, 0, len(body)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(body, castagnoli))
	line = append(line, body...)
	line = append(line, '\n')
	return line
}

// unframeLine checks one framed line (without its newline) and returns
// the JSON body.
func unframeLine(line []byte) ([]byte, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("journal: malformed frame (%d bytes)", len(line))
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return nil, fmt.Errorf("journal: malformed checksum: %w", err)
	}
	body := line[9:]
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("journal: checksum mismatch: frame says %08x, body hashes to %08x", want, got)
	}
	return body, nil
}

// entry is what one framed line carries: a journal Record or a
// replication Frame. Both share one scanner, so the torn-tail-versus-
// ErrCorrupt rule below is written once.
type entry interface {
	Record | Frame
	validate() error
}

// encodeLine validates and frames one entry.
func encodeLine[T entry](v T) ([]byte, error) {
	if err := v.validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding %T: %w", v, err)
	}
	return frameLine(body), nil
}

// encodeLines frames entries in order.
func encodeLines[T entry](items []T) ([]byte, error) {
	var buf []byte
	for _, v := range items {
		line, err := encodeLine(v)
		if err != nil {
			return nil, err
		}
		buf = append(buf, line...)
	}
	return buf, nil
}

// decodeLine parses one framed line (without its newline).
func decodeLine[T entry](line []byte) (T, error) {
	var v T
	body, err := unframeLine(line)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("journal: undecodable %T: %w", v, err)
	}
	if err := v.validate(); err != nil {
		return v, err
	}
	return v, nil
}

// Decode parses a journal image and returns the records of its longest
// valid prefix plus the byte length of that prefix. A damaged or
// unterminated *tail* — the signature of a crash mid-append — is
// reported via torn=true and is not an error; Open truncates it away. A
// damaged record with intact records after it means external corruption
// and yields ErrCorrupt: the prefix before the damage is still returned,
// but the journal must not be silently reused.
func Decode(data []byte) (recs []Record, goodLen int, torn bool, err error) {
	return decodeAll[Record](data)
}

// decodeAll is Decode over either kind of entry.
func decodeAll[T entry](data []byte) (items []T, goodLen int, torn bool, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated tail: the newline is written (and fsynced) with
			// its entry, so an unterminated entry was never acknowledged.
			return items, off, true, nil
		}
		v, derr := decodeLine[T](data[off : off+nl])
		if derr != nil {
			if intactAfter[T](data[off+nl+1:]) {
				return items, off, false, fmt.Errorf("%w at byte %d: %w", ErrCorrupt, off, derr)
			}
			return items, off, true, nil
		}
		items = append(items, v)
		off += nl + 1
	}
	return items, off, false, nil
}

// intactAfter reports whether any complete, valid entry follows.
func intactAfter[T entry](data []byte) bool {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return false
		}
		if _, err := decodeLine[T](data[:nl]); err == nil {
			return true
		}
		data = data[nl+1:]
	}
	return false
}

// openFramed opens (creating if absent) the framed file at path for
// appending after its longest valid prefix, which it returns decoded. A
// torn tail is truncated away. Mid-file damage is refused with
// ErrCorrupt, and so is a prefix that check (when non-nil) rejects; a
// refused file is left untouched. name labels the file in errors.
func openFramed[T entry](path, name string, check func([]T) error) (*os.File, []T, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: reading %s: %w", name, err)
	}
	items, good, _, err := decodeAll[T](data)
	if err == nil && check != nil {
		err = check(items)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %s: %w", name, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: opening %s: %w", name, err)
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail of %s: %w", name, err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seeking %s: %w", name, err)
	}
	return f, items, nil
}

// fsync is the journal's one hook into the platter. A package variable
// so tests can inject a failing sync and exercise the fail-stop path
// without needing a broken disk.
var fsync = func(f *os.File) error { return f.Sync() }

// ErrPoisoned wraps the first write or fsync failure of a journal (or a
// replica store file). Once poisoned, every subsequent append returns
// the same sticky error: a journal that cannot prove a record reached
// the platter must never acknowledge another one, because the service
// above it treats a successful append as permission to ack the client.
var ErrPoisoned = errors.New("journal: poisoned by an earlier write or fsync failure")

// Journal is an open write-ahead journal. Append is safe for concurrent
// use; each record is fsynced before Append returns, so an acknowledged
// record survives any subsequent crash. A failed write or fsync poisons
// the journal: the error is sticky and every later Append fails with it,
// rather than silently resuming on a file whose tail state is unknown.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	appended uint64
	poisoned error // sticky first write/fsync failure
}

// Open opens (creating if absent) the journal at path and replays its
// records. A torn final record is truncated away; mid-file corruption is
// refused with ErrCorrupt. The returned journal is positioned for
// appending.
func Open(path string) (*Journal, []Record, error) {
	f, recs, err := openFramed[Record](path, path, nil)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: f, path: path}, recs, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Appended returns the number of records written through this handle.
func (j *Journal) Appended() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Err returns the sticky poison error, nil while the journal is healthy.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.poisoned
}

// Append writes the records and fsyncs once. Either every record is
// committed or (on error) the journal is poisoned: the failure is sticky
// and every subsequent Append returns it, so a record that may never
// have hit the platter can never be followed by an acknowledged one.
// Partial writes surface as a torn tail on the next Open.
func (j *Journal) Append(recs ...Record) error {
	buf, err := encodeLines(recs)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.poisoned != nil {
		return j.poisoned
	}
	if j.f == nil {
		return errors.New("journal: closed")
	}
	if _, err := j.f.Write(buf); err != nil {
		j.poisoned = fmt.Errorf("%w: appending to %s: %w", ErrPoisoned, j.path, err)
		return fmt.Errorf("journal: appending to %s: %w", j.path, err)
	}
	if err := fsync(j.f); err != nil {
		j.poisoned = fmt.Errorf("%w: fsync %s: %w", ErrPoisoned, j.path, err)
		return fmt.Errorf("journal: fsync %s: %w", j.path, err)
	}
	j.appended += uint64(len(recs))
	return nil
}

// Close syncs and closes the journal. It is idempotent. A poisoned
// journal is closed without the final sync — its durability promise is
// already void and the poison error explains why.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	f := j.f
	j.f = nil
	if j.poisoned != nil {
		_ = f.Close()
		return j.poisoned
	}
	if err := fsync(f); err != nil {
		f.Close()
		return fmt.Errorf("journal: fsync %s: %w", j.path, err)
	}
	return f.Close()
}
