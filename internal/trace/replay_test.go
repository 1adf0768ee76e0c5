package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/object"
)

// Tests for the decode window: however the input is chunked on its way
// in, Replay must see the same bytes and so produce the same events and
// the same errors, and the steady-state load/store path must not
// allocate.

// replayAll decodes a whole stream, returning every delivered event and
// the first error (from the header or the event stream).
func replayAll(r io.Reader) ([]Event, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	err = tr.Replay(rec)
	return rec.events, err
}

// splitReader delivers data[:at] and then data[at:], so the window sees a
// short read at an arbitrary byte offset.
func splitReader(data []byte, at int) io.Reader {
	return io.MultiReader(bytes.NewReader(data[:at]), bytes.NewReader(data[at:]))
}

// chunkings returns every way the tests deliver data: whole, one byte per
// read, half of each requested read, and split at each byte offset.
func chunkings(data []byte) map[string]io.Reader {
	rs := map[string]io.Reader{
		"whole":    bytes.NewReader(data),
		"one-byte": iotest.OneByteReader(bytes.NewReader(data)),
		"half":     iotest.HalfReader(bytes.NewReader(data)),
	}
	for at := 0; at <= len(data); at++ {
		rs[fmt.Sprintf("split@%d", at)] = splitReader(data, at)
	}
	return rs
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func TestReplayChunkingInvariant(t *testing.T) {
	data, err := seedTrace()
	if err != nil {
		t.Fatal(err)
	}
	want, err := replayAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("seed trace replayed no events")
	}
	for name, r := range chunkings(data) {
		got, err := replayAll(r)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: events diverged:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestCorruptStreamErrorsChunkingInvariant(t *testing.T) {
	headers, err := corruptHeaders()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(headers, corruptEvents()...) {
		_, err := replayAll(bytes.NewReader(c.data))
		if err == nil {
			t.Errorf("%s: corrupt stream accepted", c.name)
			continue
		}
		want := err.Error()
		for name, r := range chunkings(c.data) {
			if _, err := replayAll(r); errText(err) != want {
				t.Errorf("%s via %s: error %q, want %q", c.name, name, errText(err), want)
			}
		}
	}
}

// loadTrace records a trace of n loads to one global after a single
// allocation, for measuring the steady-state access path.
func loadTrace(n int) []byte {
	tbl := object.NewTable(256)
	hdr := FileHeader{StackSize: 256, Globals: []Decl{{Name: "g", Size: 4096, Addr: 0x1000}}}
	g := tbl.AddGlobal("g", 4096)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, hdr, tbl)
	if err != nil {
		panic(err)
	}
	em := NewEmitter(tbl, tw)
	em.Malloc("h", 64, 0xBEEF)
	for i := 0; i < n; i++ {
		em.Load(g, int64(i*8%4096), 8)
	}
	em.Flush()
	if err := tw.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// discard is a batch handler that keeps nothing.
type discard struct{ n int }

func (d *discard) HandleEvent(Event)       { d.n++ }
func (d *discard) HandleBatch(evs []Event) { d.n += len(evs) }

func TestReplayZeroAllocsPerAccess(t *testing.T) {
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			tr, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Replay(&discard{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The long trace crosses many window refills; any per-event or
	// per-refill allocation shows up as a difference.
	small, large := allocs(loadTrace(1000)), allocs(loadTrace(200000))
	if large != small {
		t.Fatalf("replay allocates per access: %v allocs for 1000 loads, %v for 200000", small, large)
	}
}

func BenchmarkReplay(b *testing.B) {
	const events = 200000
	data := loadTrace(events)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Replay(&discard{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
