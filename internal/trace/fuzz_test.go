package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/object"
)

// Fuzz and corrupt-input tests for the trace file parser: whatever bytes
// arrive, NewReader and Replay must return an error or a faithful replay —
// never panic, even though Replay drives a real Emitter over a real object
// table (both of which panic on contract violations a *live* caller could
// only commit through a bug, but a *file* can commit through corruption).

// seedTrace records a small real trace without a *testing.T, covering
// every event tag: constants, globals, stack traffic, heap alloc/free.
func seedTrace() ([]byte, error) {
	tbl := object.NewTable(256)
	hdr := FileHeader{
		StackSize: 256,
		Globals:   []Decl{{Name: "g", Size: 64, Addr: 0x1000}},
		Constants: []Decl{{Name: "c", Size: 32, Addr: 0x2000}},
	}
	// Mirror Reader's reconstruction order (constants, then globals) so
	// heap IDs drift-check cleanly on replay.
	cid := tbl.AddConstant("c", 32, 0x2000)
	gid := tbl.AddGlobal("g", 64)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, hdr, tbl)
	if err != nil {
		return nil, err
	}
	em := NewEmitter(tbl, tw)
	em.Load(gid, 0, 8)
	em.Store(gid, 32, 16)
	em.Load(cid, 4, 4)
	em.Load(object.StackID, 128, 8)
	h := em.Malloc("h", 128, 0xBEEF)
	em.Store(h, 0, 16)
	em.Free(h)
	em.Flush()
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// rawTrace hand-assembles a trace file from a header and raw event bytes,
// for crafting streams the Writer would refuse to produce.
func rawTrace(stackSize uint64, events ...byte) []byte {
	var buf bytes.Buffer
	buf.Write(traceMagic)
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) { buf.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	uv(stackSize)
	uv(0) // no globals
	uv(0) // no constants
	buf.Write(events)
	return buf.Bytes()
}

// ev appends one hand-encoded event.
func ev(dst []byte, tag byte, fields ...uint64) []byte {
	dst = append(dst, tag)
	var tmp [binary.MaxVarintLen64]byte
	for _, f := range fields {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], f)]...)
	}
	return dst
}

func FuzzTraceReader(f *testing.F) {
	valid, err := seedTrace()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(traceMagic)+1])
	f.Add([]byte("ccdptrace2"))
	f.Add([]byte("junk"))
	f.Add([]byte{})
	// Oversized varint counts in the header.
	f.Add(rawTrace(1 << 40))
	var huge bytes.Buffer
	huge.Write(traceMagic)
	var tmp [binary.MaxVarintLen64]byte
	huge.Write(tmp[:binary.PutUvarint(tmp[:], 256)])
	huge.Write(tmp[:binary.PutUvarint(tmp[:], 1<<30)]) // decl count
	f.Add(huge.Bytes())
	// Bogus events over an empty header: undeclared object, implausible
	// offset, zero-size alloc, free of the stack, unknown tag.
	f.Add(rawTrace(64, ev(nil, tagLoad, 99, 0, 8)...))
	f.Add(rawTrace(64, ev(nil, tagStore, 0, 1<<50, 8)...))
	f.Add(rawTrace(64, ev(nil, tagAlloc, 1, 0, 0xBEEF)...))
	f.Add(rawTrace(64, ev(nil, tagFree, 0)...))
	f.Add(rawTrace(64, 0x7E))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		c := NewCounter(tr.Objects())
		_ = tr.Replay(c) // must never panic, whatever the verdict
	})
}

// TestReplayRoundTrip pins the happy path the fuzz target only brushes:
// a recorded stream replays to the same counts the live run produced.
func TestReplayRoundTrip(t *testing.T) {
	data, err := seedTrace()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Header(); got.StackSize != 256 || len(got.Globals) != 1 || len(got.Constants) != 1 {
		t.Fatalf("header mismatch: %+v", got)
	}
	c := NewCounter(tr.Objects())
	if err := tr.Replay(c); err != nil {
		t.Fatal(err)
	}
	if c.Loads != 3 || c.Stores != 2 || c.Allocs != 1 || c.Frees != 1 {
		t.Fatalf("replayed counts loads=%d stores=%d allocs=%d frees=%d", c.Loads, c.Stores, c.Allocs, c.Frees)
	}
	// The replayed table must have rebuilt the heap object's lifetime.
	in := tr.Objects().Get(object.ID(tr.Objects().Len() - 1))
	if in.Category != object.Heap || in.DeathRef == 0 {
		t.Fatalf("heap object not reconstructed: %+v", in)
	}
}

// corruptCase is one malformed stream and a substring its error must carry.
type corruptCase struct {
	name string
	data []byte
	want string
}

// corruptHeaders enumerates the header error paths.
func corruptHeaders() ([]corruptCase, error) {
	valid, err := seedTrace()
	if err != nil {
		return nil, err
	}
	var tmp [binary.MaxVarintLen64]byte
	oversizedDecls := append(append([]byte{}, traceMagic...), tmp[:binary.PutUvarint(tmp[:], 256)]...)
	oversizedDecls = append(oversizedDecls, tmp[:binary.PutUvarint(tmp[:], 1<<30)]...)
	return []corruptCase{
		{"empty", nil, "magic"},
		{"truncated magic", valid[:4], "magic"},
		{"bad magic", []byte("ccdptraceX........"), "bad magic"},
		{"truncated header", valid[:len(traceMagic)+1], ""},
		{"oversized decl count", oversizedDecls, "implausible declaration count"},
	}, nil
}

// TestReaderRejectsCorruptHeaders checks every header error path.
func TestReaderRejectsCorruptHeaders(t *testing.T) {
	cases, err := corruptHeaders()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		_, err := NewReader(bytes.NewReader(c.data))
		if err == nil {
			t.Errorf("%s: NewReader accepted corrupt input", c.name)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// corruptEvents enumerates the event-stream error paths — each one a
// former panic site in the emitter or object table.
func corruptEvents() []corruptCase {
	cases := []corruptCase{
		{"undeclared object", rawTrace(64, ev(nil, tagLoad, 99, 0, 8)...), "undeclared object"},
		{"implausible offset", rawTrace(64, ev(nil, tagStore, 0, 1<<50, 8)...), "implausible access"},
		{"out of bounds", rawTrace(64, append(ev(nil, tagLoad, 0, 60, 8), tagEnd)...), "outside object"},
		{"zero alloc", rawTrace(64, ev(nil, tagAlloc, 1, 0, 0xBEEF)...), "implausible alloc size"},
		{"implausible alloc", rawTrace(64, ev(nil, tagAlloc, 1, 1<<50, 0xBEEF)...), "implausible alloc size"},
		{"free non-heap", rawTrace(64, ev(nil, tagFree, 0)...), "non-heap"},
		{"unknown tag", rawTrace(64, 0x7E), "unknown event tag"},
		{"missing end", rawTrace(64), "event tag"},
		{"truncated access", rawTrace(64, tagLoad), "truncated access"},
		{"truncated alloc", rawTrace(64, ev(nil, tagAlloc, 1, 16)...), "truncated alloc"},
		{"truncated free", rawTrace(64, tagFree), "truncated free"},
		{"alloc id drift", rawTrace(64, append(append(ev(nil, tagAlloc, 7, 16, 0xBEEF), byte(1), 'h'), tagEnd)...), "id drift"},
	}
	// Double free needs a well-formed alloc first: alloc id 1, touch it (so
	// the first free stamps a nonzero death time — a free at reference
	// count 0 is benignly idempotent), then free it twice.
	df := ev(nil, tagAlloc, 1, 16, 0xBEEF)
	df = append(df, byte(1), 'h') // name "h"
	df = ev(df, tagLoad, 1, 0, 8)
	df = ev(df, tagFree, 1)
	df = ev(df, tagFree, 1)
	df = append(df, tagEnd)
	return append(cases, corruptCase{"double free", rawTrace(64, df...), "double free"})
}

// TestReplayRejectsCorruptEvents checks every event-stream error path.
func TestReplayRejectsCorruptEvents(t *testing.T) {
	cases := corruptEvents()
	for _, c := range cases {
		tr, err := NewReader(bytes.NewReader(c.data))
		if err != nil {
			t.Errorf("%s: header unexpectedly rejected: %v", c.name, err)
			continue
		}
		err = tr.Replay(NewCounter(tr.Objects()))
		if err == nil {
			t.Errorf("%s: Replay accepted corrupt stream", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestStackAccessStaysValid guards the only object NewReader synthesizes
// rather than reads: replayed stack traffic must bound-check against the
// recorded stack size.
func TestStackAccessStaysValid(t *testing.T) {
	ok := rawTrace(64, append(ev(nil, tagLoad, 0, 32, 8), tagEnd)...)
	tr, err := NewReader(bytes.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Replay(NewCounter(tr.Objects())); err != nil {
		t.Fatalf("in-bounds stack load rejected: %v", err)
	}
	bad := rawTrace(64, append(ev(nil, tagLoad, 0, 60, 8), tagEnd)...)
	tr, err = NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Replay(NewCounter(tr.Objects())); err == nil {
		t.Fatal("out-of-bounds stack load accepted")
	}
}
