package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The crash test re-executes the test binary as a recording process and
// SIGKILLs it partway through publishing an entry. These environment
// variables route the re-executed binary to crashRecorder instead of the
// tests.
const (
	crashDirEnv   = "CCDP_STORE_CRASH_DIR"
	crashPointEnv = "CCDP_STORE_CRASH_POINT"
)

func TestMain(m *testing.M) {
	if dir := os.Getenv(crashDirEnv); dir != "" {
		crashRecorder(dir, os.Getenv(crashPointEnv))
	}
	os.Exit(m.Run())
}

// crashBlock keeps frames small, so a partial recording spans several
// complete frames on disk.
const crashBlock = 4 << 10

var crashKey = KeyOf("crash", "trace")

// crashPayload is the entry both the killed recorder and the survivor
// record: five frames and a partial tail.
func crashPayload() []byte { return payloadFor(7, 5*crashBlock+123) }

// crashPoints are where the recorder stops, each after its claim is taken
// and before its rename: before writing any payload, with three frames
// written, and with the whole payload written but the stream not closed.
var crashPoints = map[string]int{
	"claimed":  0,
	"mid-fill": 3*crashBlock + 17,
	"filled":   5*crashBlock + 123,
}

// crashRecorder starts recording crashKey into the store at dir, writes
// the crash point's share of the payload, announces "ready" on stdout and
// waits to be killed. It never returns.
func crashRecorder(dir, point string) {
	n, ok := crashPoints[point]
	if !ok {
		fmt.Fprintf(os.Stderr, "crash recorder: unknown point %q\n", point)
		os.Exit(2)
	}
	s := New(Config{Dir: dir, BlockSize: crashBlock})
	_, err := s.GetOrFill(crashKey, func(w io.Writer) error {
		if _, err := w.Write(crashPayload()[:n]); err != nil {
			return err
		}
		fmt.Println("ready")
		time.Sleep(time.Hour)
		return nil
	})
	fmt.Fprintf(os.Stderr, "crash recorder: GetOrFill returned before the kill: %v\n", err)
	os.Exit(2)
}

// TestKilledRecorderLeavesNoTornEntry kills a recording process at each
// crash point and checks what the next process sees: the key holds no
// entry, a stale-claim takeover re-records it, the replay is the complete
// checksummed payload, and the dead recorder's temp file is swept once
// stale.
func TestKilledRecorderLeavesNoTornEntry(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot locate the test binary: %v", err)
	}
	for point := range crashPoints {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(exe, "-test.run=^$")
			cmd.Env = append(os.Environ(), crashDirEnv+"="+dir, crashPointEnv+"="+point)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			line, rerr := bufio.NewReader(stdout).ReadString('\n')
			if err := cmd.Process.Kill(); err != nil {
				t.Fatalf("killing the recorder: %v", err)
			}
			cmd.Wait()
			if line != "ready\n" {
				t.Fatalf("recorder never reached %s (read %q, %v); stderr:\n%s", point, line, rerr, stderr.String())
			}

			var debris []string
			des, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, de := range des {
				name := de.Name()
				if strings.HasSuffix(name, entryExt) {
					t.Fatalf("killed recorder published %s", name)
				}
				debris = append(debris, name)
			}
			if len(debris) != 2 {
				t.Fatalf("recorder left %v, want its claim and its temp file", debris)
			}

			const stale = 200 * time.Millisecond
			s := New(Config{Dir: dir, BlockSize: crashBlock, StaleClaim: stale, Poll: 5 * time.Millisecond})
			var calls atomic.Int64
			rc, err := s.GetOrFill(crashKey, fillWith(crashPayload(), &calls))
			if err != nil {
				t.Fatalf("GetOrFill after the crash: %v", err)
			}
			if got := readAllClose(t, rc); !bytes.Equal(got, crashPayload()) {
				t.Fatalf("GetOrFill returned %d bytes, want the %d-byte payload", len(got), len(crashPayload()))
			}
			if calls.Load() != 1 {
				t.Fatalf("fill ran %d times, want 1 re-recording", calls.Load())
			}
			rc, ok, err := New(Config{Dir: dir}).Get(crashKey)
			if err != nil || !ok {
				t.Fatalf("replay from a fresh store: present=%v err=%v", ok, err)
			}
			if got := readAllClose(t, rc); !bytes.Equal(got, crashPayload()) {
				t.Fatalf("fresh replay returned %d bytes, want the %d-byte payload", len(got), len(crashPayload()))
			}

			time.Sleep(stale)
			s.sweep()
			des, err = os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(des) != 1 || des[0].Name() != crashKey.name() {
				var names []string
				for _, de := range des {
					names = append(names, de.Name())
				}
				t.Fatalf("after the sweep the store holds %v, want only %s", names, crashKey.name())
			}
		})
	}
}
