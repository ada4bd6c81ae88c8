package journal

import (
	"bytes"
	"testing"
)

// FuzzJournalDecode throws arbitrary bytes at the replay path. Decode
// must never panic, and whatever records it does accept must re-encode
// into a prefix that decodes back to the same records — the invariant
// Open relies on when it truncates a torn tail and keeps appending.
func FuzzJournalDecode(f *testing.F) {
	seed := func(recs ...Record) []byte {
		var buf []byte
		for _, r := range recs {
			line, err := encodeLine(r)
			if err != nil {
				f.Fatal(err)
			}
			buf = append(buf, line...)
		}
		return buf
	}
	f.Add([]byte(nil))
	f.Add([]byte("\n"))
	f.Add([]byte("not a journal at all"))
	f.Add(seed(Record{Type: TypeSubmitted, JobID: "j000001"}))
	full := seed(
		Record{Type: TypeSubmitted, JobID: "j000001"},
		Record{Type: TypeStarted, JobID: "j000001"},
		Record{Type: TypeDone, JobID: "j000001"},
		Record{Type: TypeShutdown},
	)
	f.Add(full)
	f.Add(full[:len(full)-3])            // torn tail
	f.Add(append(full[:8], full[9:]...)) // mid-file damage

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, torn, err := Decode(data)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d out of range [0, %d]", goodLen, len(data))
		}
		if err != nil {
			return
		}
		if torn && goodLen == len(data) {
			t.Fatal("torn reported but goodLen covers the whole input")
		}
		// The accepted prefix must be self-consistent: decoding it alone
		// yields the same records, cleanly.
		again, againLen, againTorn, err := Decode(data[:goodLen])
		if err != nil || againTorn || againLen != goodLen {
			t.Fatalf("accepted prefix does not re-decode cleanly: err=%v torn=%v len=%d/%d",
				err, againTorn, againLen, goodLen)
		}
		if len(again) != len(recs) {
			t.Fatalf("prefix re-decode yields %d records, first pass %d", len(again), len(recs))
		}
		// Re-encoding the records must reproduce the accepted bytes.
		var rebuilt []byte
		for _, r := range recs {
			line, err := encodeLine(r)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			rebuilt = append(rebuilt, line...)
		}
		if !bytes.Equal(rebuilt, data[:goodLen]) {
			// Records may legitimately re-encode differently if the input
			// used different JSON formatting; what must hold is that the
			// rebuilt bytes decode to the same records.
			r2, _, torn2, err2 := Decode(rebuilt)
			if err2 != nil || torn2 || len(r2) != len(recs) {
				t.Fatalf("re-encoded records do not round-trip: err=%v torn=%v n=%d/%d",
					err2, torn2, len(r2), len(recs))
			}
		}
	})
}

// FuzzReplicaDecode throws arbitrary bytes at the replication-stream
// decoder. Same contract as FuzzJournalDecode — no panics, accepted
// prefixes are self-consistent and round-trip — plus the frame-level
// invariant that whatever DecodeFrames accepts re-frames through
// EncodeFrame.
func FuzzReplicaDecode(f *testing.F) {
	seed := func(frames ...Frame) []byte {
		buf, err := EncodeFrames(frames)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	fr := func(seq uint64, typ Type, id string) Frame {
		return Frame{Src: "s1", Seq: seq, Rec: Record{Type: typ, JobID: id}}
	}
	f.Add([]byte(nil))
	f.Add([]byte("\n"))
	f.Add([]byte("not a replica stream"))
	full := seed(
		fr(1, TypeSubmitted, "j000001"),
		fr(2, TypeStarted, "j000001"),
		fr(3, TypeDone, "j000001"),
	)
	f.Add(full)
	f.Add(full[:len(full)-5]) // truncated final frame
	one := seed(fr(1, TypeSubmitted, "j000001"))
	f.Add(append(append([]byte{}, one...), one...))                             // duplicated frame
	f.Add(seed(fr(2, TypeStarted, "j000001"), fr(1, TypeSubmitted, "j000001"))) // reordered
	f.Add(append(append([]byte{}, full[:8]...), full[9:]...))                   // mid-stream damage

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, goodLen, torn, err := DecodeFrames(data)
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d out of range [0, %d]", goodLen, len(data))
		}
		if err != nil {
			return
		}
		if torn && goodLen == len(data) {
			t.Fatal("torn reported but goodLen covers the whole input")
		}
		again, againLen, againTorn, err := DecodeFrames(data[:goodLen])
		if err != nil || againTorn || againLen != goodLen {
			t.Fatalf("accepted prefix does not re-decode cleanly: err=%v torn=%v len=%d/%d",
				err, againTorn, againLen, goodLen)
		}
		if len(again) != len(frames) {
			t.Fatalf("prefix re-decode yields %d frames, first pass %d", len(again), len(frames))
		}
		// Every accepted frame must survive re-framing: a decoded frame
		// the encoder refuses would wedge catch-up resends.
		rebuilt, err := EncodeFrames(frames)
		if err != nil {
			t.Fatalf("accepted frames do not re-encode: %v", err)
		}
		if !bytes.Equal(rebuilt, data[:goodLen]) {
			r2, _, torn2, err2 := DecodeFrames(rebuilt)
			if err2 != nil || torn2 || len(r2) != len(frames) {
				t.Fatalf("re-encoded frames do not round-trip: err=%v torn=%v n=%d/%d",
					err2, torn2, len(r2), len(frames))
			}
		}
	})
}
