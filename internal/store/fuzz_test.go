package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

// Fuzz test for the frame decoder: whatever bytes arrive — truncated
// streams, flipped bits, implausible lengths, hostile varints — the
// reader must return an error or the faithful payload, never panic, and
// never allocate proportionally to an attacker-controlled length field.

// frameStream encodes payload into a well-formed frame stream.
func frameStream(payload []byte, blockSize int) []byte {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, blockSize)
	fw.Write(payload)
	fw.Close()
	return buf.Bytes()
}

// rawFrames hand-assembles a stream from explicit header fields and
// payload bytes, for shapes the writer would refuse to produce.
func rawFrames(frames ...[]byte) []byte {
	var buf bytes.Buffer
	buf.Write(frameMagic)
	for _, f := range frames {
		buf.Write(f)
	}
	return buf.Bytes()
}

// frame encodes one frame with the given declared length, checksum, and
// payload bytes — all independently forgeable.
func frame(rawLen uint64, crc uint32, payload []byte) []byte {
	var b []byte
	var tmp [binary.MaxVarintLen64]byte
	b = append(b, tmp[:binary.PutUvarint(tmp[:], rawLen)]...)
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], crc)
	b = append(b, c[:]...)
	return append(b, payload...)
}

// v1Magic is the retired flate-framed format's magic. Streams carrying it
// (the committed corpus files among them) must be rejected outright.
var v1Magic = []byte("ccdpfrm1")

func FuzzFrameReader(f *testing.F) {
	valid := frameStream(bytes.Repeat([]byte("trace event bytes "), 1000), 4<<10)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])        // truncated mid-frame
	f.Add(valid[:len(frameMagic)])     // magic only, no end marker
	f.Add(valid[:len(valid)-1])        // missing end marker
	f.Add(frameStream(nil, 0))         // empty payload: magic + end marker
	f.Add(v1Magic)                     // retired format
	f.Add([]byte("junk"))              // short junk
	f.Add([]byte{})                    // empty input
	f.Add(frameStream([]byte("x"), 1)) // many tiny frames

	// Bad checksum: flip one payload bit of the first frame.
	badCRC := append([]byte(nil), valid...)
	badCRC[len(frameMagic)+2+4] ^= 0x01
	f.Add(badCRC)

	// Implausible declared lengths: rejected before allocation.
	f.Add(rawFrames(frame(1<<40, 0, []byte{1, 2, 3, 4})))
	f.Add(rawFrames(frame(maxFrameLen+1, 0, nil)))
	// Stream cut inside a frame's checksum.
	f.Add(rawFrames(frame(4, 0, nil)[:3]))
	// rawLen past the end of the stream.
	f.Add(rawFrames(frame(100, crc32.ChecksumIEEE([]byte{1, 2}), []byte{1, 2})))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := NewFrameReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, v1Magic) {
			t.Fatal("retired ccdpfrm1 stream accepted")
		}
		// Drain via a small buffer so the partial-frame copy path runs too.
		var n int64
		buf := make([]byte, 773)
		for {
			m, err := fr.Read(buf)
			n += int64(m)
			if err != nil {
				break
			}
			if n > 1<<28 {
				t.Fatalf("decoder produced %d bytes from %d input bytes", n, len(data))
			}
		}
	})
}

// TestFuzzSeedsBehave pins the non-panicking contract on the handcrafted
// seeds without needing the fuzz engine: each either fails loudly or
// round-trips exactly.
func TestFuzzSeedsBehave(t *testing.T) {
	payload := bytes.Repeat([]byte("abc"), 5000)
	valid := frameStream(payload, 4<<10)

	fr, err := NewFrameReader(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(fr); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("valid seed failed: %v", err)
	}

	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"oversized rawLen", rawFrames(frame(1<<40, 0, []byte{1, 2, 3, 4})), "implausible frame length"},
		{"rawLen past end", rawFrames(frame(100, crc32.ChecksumIEEE([]byte{1, 2}), []byte{1, 2})), "reading frame payload"},
		{"bad checksum", rawFrames(frame(2, 0xdeadbeef, []byte{1, 2}), []byte{0}), "checksum mismatch"},
		{"truncated", valid[:len(valid)-3], "reading frame payload"},
		{"missing end marker", valid[:len(valid)-1], "reading frame length"},
	} {
		fr, err := NewFrameReader(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: magic rejected: %v", tc.name, err)
		}
		if _, err := io.ReadAll(fr); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
