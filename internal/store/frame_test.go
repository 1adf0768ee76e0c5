package store

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// frameRoundTrip encodes payload with the given block size and decodes it
// back, failing the test on any divergence.
func frameRoundTrip(t *testing.T, payload []byte, blockSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, blockSize)
	if _, err := fw.Write(payload); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fr, err := NewFrameReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewFrameReader: %v", err)
	}
	got, err := io.ReadAll(fr)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip diverged: wrote %d bytes, read %d", len(payload), len(got))
	}
	return buf.Bytes()
}

// TestFrameRoundTrip covers the payload shapes replay produces: empty,
// sub-block, exactly one block, and multi-block with a partial tail.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big := make([]byte, 1<<20+137)
	rng.Read(big)
	cases := []struct {
		name    string
		payload []byte
		block   int
	}{
		{"empty", nil, 0},
		{"tiny", []byte("hello"), 0},
		{"one_block_exact", bytes.Repeat([]byte("x"), DefaultBlockSize), 0},
		{"multi_block_partial_tail", big, 0},
		{"small_blocks", big[:200<<10], 4 << 10},
		{"block_of_one", []byte("abcdef"), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frameRoundTrip(t, tc.payload, tc.block)
		})
	}
}

// TestFrameRoundTripChunkedWrites feeds the writer in odd-sized chunks so
// the buffer-fill path (not just the whole-block fast path) is exercised.
func TestFrameRoundTripChunkedWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	payload := make([]byte, 300<<10)
	rng.Read(payload)
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 64<<10)
	for off := 0; off < len(payload); {
		n := 1 + rng.Intn(20<<10)
		if off+n > len(payload) {
			n = len(payload) - off
		}
		if _, err := fw.Write(payload[off : off+n]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		off += n
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fr, err := NewFrameReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewFrameReader: %v", err)
	}
	got, err := io.ReadAll(fr)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("chunked round trip diverged")
	}
}

// TestFrameTruncation checks that cutting the stream anywhere before the
// end marker is an error, never a silent short read.
func TestFrameTruncation(t *testing.T) {
	wire := frameRoundTrip(t, bytes.Repeat([]byte("trace bytes "), 4096), 8<<10)
	// Probe a spread of cut points: inside the magic, the headers, the
	// payloads, and just before the end marker.
	for _, cut := range []int{0, 3, len(frameMagic), len(frameMagic) + 1, len(wire) / 2, len(wire) - 1} {
		fr, err := NewFrameReader(bytes.NewReader(wire[:cut]))
		if err != nil {
			continue // truncated magic: rejected at construction, fine
		}
		if _, err := io.ReadAll(fr); err == nil {
			t.Errorf("truncation at %d of %d not detected", cut, len(wire))
		}
	}
}

// TestFrameBadChecksum flips payload bits and expects a loud failure.
func TestFrameBadChecksum(t *testing.T) {
	wire := frameRoundTrip(t, bytes.Repeat([]byte("abcd"), 10000), 16<<10)
	corrupt := append([]byte(nil), wire...)
	corrupt[len(corrupt)/2] ^= 0xff
	fr, err := NewFrameReader(bytes.NewReader(corrupt))
	if err != nil {
		return // corrupted a header varint: also a loud failure
	}
	if _, err := io.ReadAll(fr); err == nil {
		t.Fatal("corrupted frame decoded cleanly")
	}
}

// TestFrameBadMagic rejects streams that are not frame streams at all.
func TestFrameBadMagic(t *testing.T) {
	if _, err := NewFrameReader(strings.NewReader("not a frame stream")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewFrameReader(strings.NewReader("ccdp")); err == nil {
		t.Fatal("short magic accepted")
	}
}

// TestFrameRejectsV1 checks that a stream in the retired flate-framed
// ccdpfrm1 format (uvarint rawLen | uvarint compLen | crc32 | flate
// bytes) fails on its magic instead of being misread as ccdpfrm2 frames.
// FuzzFrameReader holds the committed ccdpfrm1 corpus to the same rule.
func TestFrameRejectsV1(t *testing.T) {
	v1 := append(append([]byte(nil), v1Magic...), 5, 7, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 0)
	_, err := NewFrameReader(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), "bad frame magic") {
		t.Fatalf("ccdpfrm1 stream: got %v, want a bad frame magic error", err)
	}
}

// TestFrameWriteAfterClose enforces the writer's terminal state.
func TestFrameWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, 0)
	if err := fw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := fw.Write([]byte("late")); err == nil {
		t.Fatal("write after close succeeded")
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
}

// TestFrameStickyWriteError checks that a sink failure surfaces and stays.
func TestFrameStickyWriteError(t *testing.T) {
	boom := errors.New("sink failed")
	fw := NewFrameWriter(failWriter{boom}, 8)
	_, err := fw.Write(bytes.Repeat([]byte("x"), 64))
	if err == nil {
		// The first Write may buffer before the failing flush; Close must
		// still surface the error.
		err = fw.Close()
	}
	if !errors.Is(err, boom) {
		t.Fatalf("sink error not surfaced: %v", err)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write(p []byte) (int, error) { return 0, f.err }
