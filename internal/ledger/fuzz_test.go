package ledger

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// FuzzLedgerReplay drives the ledger decoder with arbitrary bytes: a
// replay must return a run or an error, never panic, and a decoded run
// must re-render its summary table.
func FuzzLedgerReplay(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden_v4.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	// Seeds stay small (one event, or a short prefix) so minimizing an
	// interesting input is quick: every golden event kind alone,
	// renumbered to open a ledger, then a well-formed prefix and a
	// sequence gap.
	lines := bytes.SplitAfter(golden, []byte("\n"))
	seq := regexp.MustCompile(`"seq":[0-9]+`)
	for _, line := range lines {
		f.Add(seq.ReplaceAll(line, []byte(`"seq":0`)))
	}
	f.Add(bytes.Join(lines[:3], nil))
	f.Add(bytes.Join(lines[1:3], nil))
	f.Add([]byte(`{"v":3,"seq":0,"event":"run_start"}`))
	f.Add([]byte(`{"v":4,"seq":0,"event":"eval","eval":{"workload":"w","input":"train","layout":"natural","missRatePct":-1}}`))
	f.Add([]byte(`{"v":4,"seq":0,"event":"mystery"}`))
	f.Add([]byte("\n\n{"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := Replay(bytes.NewReader(data))
		if err != nil {
			if run != nil {
				t.Fatal("Replay returned both a run and an error")
			}
			return
		}
		if run.Events < len(run.Evals) {
			t.Fatalf("%d eval events out of %d events", len(run.Evals), run.Events)
		}
		_ = run.Summary()
	})
}
