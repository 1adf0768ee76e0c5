package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/addrspace"
	"repro/internal/metrics"
	"repro/internal/object"
)

// Trace files are the ATOM analog: a profiled run captured once and
// replayed many times (into the profiler, into cache simulations under
// different placements) without re-running the program model. The format
// is a compact varint-encoded binary stream: a header describing the
// static objects, then the event stream.

var traceMagic = []byte("ccdptrace1")

// Decl describes one static object in a trace header.
type Decl struct {
	Name string
	Size int64
	Addr addrspace.Addr // natural address (constants: fixed text address)
}

// FileHeader carries the static shape of the traced program.
type FileHeader struct {
	StackSize int64
	Globals   []Decl
	Constants []Decl
}

// event tags on the wire.
const (
	tagLoad  = 1
	tagStore = 2
	tagAlloc = 3
	tagFree  = 4
	tagEnd   = 0xFF
)

// Writer records an event stream to an io.Writer. It implements Handler,
// so it can be tee'd alongside any other consumer. Errors are sticky and
// surfaced by Flush.
type Writer struct {
	bw   *bufio.Writer
	objs *object.Table // for alloc metadata
	err  error
	buf  [binary.MaxVarintLen64]byte
}

// NewWriter writes the header and returns a recording handler. objs must
// be the same table the emitter populates (alloc records need XOR names
// and labels).
func NewWriter(w io.Writer, hdr FileHeader, objs *object.Table) (*Writer, error) {
	tw := &Writer{bw: bufio.NewWriter(w), objs: objs}
	if _, err := tw.bw.Write(traceMagic); err != nil {
		return nil, err
	}
	tw.uvarint(uint64(hdr.StackSize))
	tw.decls(hdr.Globals)
	tw.decls(hdr.Constants)
	if tw.err != nil {
		return nil, tw.err
	}
	return tw, nil
}

func (tw *Writer) decls(ds []Decl) {
	tw.uvarint(uint64(len(ds)))
	for _, d := range ds {
		tw.str(d.Name)
		tw.uvarint(uint64(d.Size))
		tw.uvarint(uint64(d.Addr))
	}
}

func (tw *Writer) uvarint(v uint64) {
	if tw.err != nil {
		return
	}
	n := binary.PutUvarint(tw.buf[:], v)
	_, tw.err = tw.bw.Write(tw.buf[:n])
}

func (tw *Writer) byte(b byte) {
	if tw.err != nil {
		return
	}
	tw.err = tw.bw.WriteByte(b)
}

func (tw *Writer) str(s string) {
	tw.uvarint(uint64(len(s)))
	if tw.err != nil {
		return
	}
	_, tw.err = tw.bw.WriteString(s)
}

// HandleEvent implements Handler.
func (tw *Writer) HandleEvent(ev Event) {
	switch ev.Kind {
	case Load:
		tw.byte(tagLoad)
		tw.uvarint(uint64(ev.Obj))
		tw.uvarint(uint64(ev.Off))
		tw.uvarint(uint64(ev.Size))
	case Store:
		tw.byte(tagStore)
		tw.uvarint(uint64(ev.Obj))
		tw.uvarint(uint64(ev.Off))
		tw.uvarint(uint64(ev.Size))
	case Alloc:
		in := tw.objs.Get(ev.Obj)
		tw.byte(tagAlloc)
		tw.uvarint(uint64(ev.Obj))
		tw.uvarint(uint64(ev.Size))
		tw.uvarint(in.XORName)
		tw.str(in.Name)
	case Free:
		tw.byte(tagFree)
		tw.uvarint(uint64(ev.Obj))
	}
}

// Flush terminates and flushes the stream.
func (tw *Writer) Flush() error {
	tw.byte(tagEnd)
	if tw.err != nil {
		return tw.err
	}
	return tw.bw.Flush()
}

// Reader replays a recorded trace. Construction parses the header and
// materialises the object table; Replay then drives a handler through an
// Emitter, which re-validates every access and rebuilds reference counts
// and lifetimes exactly as the original run produced them.
//
// The decoder works on a byte window it owns: buf[pos:end] holds the
// bytes read from r but not yet decoded. The window is refilled in large
// reads, and varints are parsed in place with binary.Uvarint, so decoding
// an access event costs a few slice operations and no interface calls.
type Reader struct {
	r        io.Reader
	buf      []byte
	pos, end int
	rerr     error // sticky error from r; io.EOF at the clean end of input

	header  FileHeader
	objs    *object.Table
	metrics *metrics.Collector
	ids     struct {
		globals   []object.ID
		constants []object.ID
	}
}

const (
	// maxStrLen bounds a name decoded from the wire.
	maxStrLen = 1 << 16
	// maxEventLen is the longest fixed-field event on the wire: a tag
	// and three varints. Replay keeps at least this much in the window
	// before it decodes an event, so parsing never stops mid-field
	// unless the input itself ends.
	maxEventLen = 1 + 3*binary.MaxVarintLen64
	// minWindow is the smallest decode window: it must hold the longest
	// name together with its length prefix.
	minWindow = maxStrLen + binary.MaxVarintLen64
)

// NewReader parses the header.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderSize(r, 0)
}

// NewReaderSize is NewReader with an explicit decode-window size in bytes
// (sizes below the minimum window, including <= 0, select the minimum).
// A deep window refills in large, infrequent reads, so the decoder and the
// downstream handlers stay busy in between.
func NewReaderSize(r io.Reader, size int) (*Reader, error) {
	if size < minWindow {
		size = minWindow
	}
	tr := &Reader{r: r, buf: make([]byte, size)}
	if tr.fill(len(traceMagic)) < len(traceMagic) {
		return nil, fmt.Errorf("trace: reading magic: %w", tr.short())
	}
	if magic := tr.buf[tr.pos : tr.pos+len(traceMagic)]; string(magic) != string(traceMagic) {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	tr.pos += len(traceMagic)
	stackSize, err := tr.uvarint()
	if err != nil {
		return nil, err
	}
	tr.header.StackSize = int64(stackSize)
	if tr.header.Globals, err = tr.readDecls(); err != nil {
		return nil, err
	}
	if tr.header.Constants, err = tr.readDecls(); err != nil {
		return nil, err
	}

	tr.objs = object.NewTable(tr.header.StackSize)
	for _, d := range tr.header.Constants {
		tr.ids.constants = append(tr.ids.constants, tr.objs.AddConstant(d.Name, d.Size, d.Addr))
	}
	for _, d := range tr.header.Globals {
		id := tr.objs.AddGlobal(d.Name, d.Size)
		tr.objs.Get(id).NaturalAddr = d.Addr
		tr.ids.globals = append(tr.ids.globals, id)
	}
	return tr, nil
}

// fill moves the undecoded bytes to the front of the window and reads
// until at least need of them are available or the input is exhausted.
// It returns the number of undecoded bytes available.
func (tr *Reader) fill(need int) int {
	n := copy(tr.buf, tr.buf[tr.pos:tr.end])
	tr.pos, tr.end = 0, n
	for empty := 0; tr.end < need && tr.rerr == nil; {
		m, err := tr.r.Read(tr.buf[tr.end:])
		tr.end += m
		tr.rerr = err
		if m > 0 {
			empty = 0
		} else if empty++; empty == 100 && err == nil {
			tr.rerr = io.ErrNoProgress
		}
	}
	return tr.end
}

// short reports why the window holds fewer bytes than a field needs, in
// the error contract of io.ReadFull and binary.ReadUvarint: the reader's
// own error if it failed, io.EOF if the input ended cleanly before the
// field, io.ErrUnexpectedEOF if it ended inside it.
func (tr *Reader) short() error {
	switch {
	case tr.rerr != io.EOF:
		return tr.rerr
	case tr.pos == tr.end:
		return io.EOF
	default:
		return io.ErrUnexpectedEOF
	}
}

// errOverflow reports a varint longer than any uint64 encodes.
var errOverflow = errors.New("trace: varint overflows a 64-bit integer")

// uvarint decodes one varint from the window.
func (tr *Reader) uvarint() (uint64, error) {
	if tr.end-tr.pos < binary.MaxVarintLen64 {
		tr.fill(binary.MaxVarintLen64)
	}
	v, n := binary.Uvarint(tr.buf[tr.pos:tr.end])
	switch {
	case n > 0:
		tr.pos += n
		return v, nil
	case n < 0:
		return 0, errOverflow
	default:
		return 0, tr.short()
	}
}

func (tr *Reader) readDecls() ([]Decl, error) {
	n, err := tr.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("trace: implausible declaration count %d", n)
	}
	ds := make([]Decl, 0, n)
	for i := uint64(0); i < n; i++ {
		name, err := tr.readStr()
		if err != nil {
			return nil, err
		}
		size, err := tr.uvarint()
		if err != nil {
			return nil, err
		}
		addr, err := tr.uvarint()
		if err != nil {
			return nil, err
		}
		ds = append(ds, Decl{Name: name, Size: int64(size), Addr: addrspace.Addr(addr)})
	}
	return ds, nil
}

func (tr *Reader) readStr() (string, error) {
	n, err := tr.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStrLen {
		return "", fmt.Errorf("trace: implausible string length %d", n)
	}
	if tr.end-tr.pos < int(n) && tr.fill(int(n)) < int(n) {
		return "", tr.short()
	}
	s := string(tr.buf[tr.pos : tr.pos+int(n)])
	tr.pos += int(n)
	return s, nil
}

// Header returns the parsed file header.
func (tr *Reader) Header() FileHeader { return tr.header }

// Objects returns the table the replay populates. Handlers wired to the
// replay may consult it during and after Replay.
func (tr *Reader) Objects() *object.Table { return tr.objs }

// SetMetrics attaches a collector to the replay's emitter (nil = disabled),
// so a replayed stream reports exactly the event counts and size sketches a
// live run of the same workload would.
func (tr *Reader) SetMetrics(c *metrics.Collector) { tr.metrics = c }

// fields3 parses the three varints that follow the tag at w[0] and
// returns them with the event's encoded length, or n == 0 if a field is
// incomplete or overflows.
func fields3(w []byte) (a, b, c uint64, n int) {
	a, m := binary.Uvarint(w[1:])
	if m <= 0 {
		return 0, 0, 0, 0
	}
	n = 1 + m
	if b, m = binary.Uvarint(w[n:]); m <= 0 {
		return 0, 0, 0, 0
	}
	n += m
	if c, m = binary.Uvarint(w[n:]); m <= 0 {
		return 0, 0, 0, 0
	}
	return a, b, c, n + m
}

// maxPlausible bounds offsets and sizes decoded from the wire: any larger
// value cannot belong to a valid object and would overflow the int64
// arithmetic of downstream consumers.
const maxPlausible = 1 << 48

// Replay drives h with the recorded event stream. Every event is validated
// before it reaches the emitter — a corrupt or adversarial trace must
// surface as an error, never as a panic in the replay machinery.
func (tr *Reader) Replay(h Handler) error {
	em := NewEmitter(tr.objs, h)
	em.SetMetrics(tr.metrics)
	for {
		if tr.end-tr.pos < maxEventLen {
			tr.fill(maxEventLen)
		}
		w := tr.buf[tr.pos:tr.end]
		if len(w) == 0 {
			return fmt.Errorf("trace: reading event tag: %w", tr.rerr)
		}
		switch tag := w[0]; tag {
		case tagEnd:
			tr.pos++
			em.Flush()
			return nil
		case tagLoad, tagStore:
			obj, off, size, n := fields3(w)
			if n == 0 {
				return fmt.Errorf("trace: truncated access event")
			}
			tr.pos += n
			if obj >= uint64(tr.objs.Len()) {
				return fmt.Errorf("trace: access to undeclared object %d", obj)
			}
			if off >= maxPlausible || size >= maxPlausible {
				return fmt.Errorf("trace: implausible access %d+%d", off, size)
			}
			if in := tr.objs.Get(object.ID(obj)); int64(off)+int64(size) > in.Size {
				return fmt.Errorf("trace: access %s[%d:%d] outside object of size %d",
					in.Name, off, off+size, in.Size)
			}
			if tag == tagLoad {
				em.Load(object.ID(obj), int64(off), int64(size))
			} else {
				em.Store(object.ID(obj), int64(off), int64(size))
			}
		case tagAlloc:
			obj, size, xor, n := fields3(w)
			if n == 0 {
				return fmt.Errorf("trace: truncated alloc event")
			}
			tr.pos += n
			if size == 0 || size >= maxPlausible {
				return fmt.Errorf("trace: implausible alloc size %d", size)
			}
			name, err := tr.readStr()
			if err != nil {
				return err
			}
			id := em.Malloc(name, int64(size), xor)
			if uint64(id) != obj {
				return fmt.Errorf("trace: alloc id drift: replay %d, recorded %d", id, obj)
			}
		case tagFree:
			obj, n1 := binary.Uvarint(w[1:])
			if n1 <= 0 {
				return fmt.Errorf("trace: truncated free event")
			}
			tr.pos += 1 + n1
			if obj >= uint64(tr.objs.Len()) {
				return fmt.Errorf("trace: free of undeclared object %d", obj)
			}
			in := tr.objs.Get(object.ID(obj))
			if in.Category != object.Heap {
				return fmt.Errorf("trace: free of non-heap object %d (%s)", obj, in.Category)
			}
			if in.DeathRef != 0 {
				return fmt.Errorf("trace: double free of object %d", obj)
			}
			em.Free(object.ID(obj))
		default:
			return fmt.Errorf("trace: unknown event tag %#x", tag)
		}
	}
}
