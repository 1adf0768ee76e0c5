// Command trgdump inspects the profiling and placement artifacts for one
// workload: the Temporal Relationship Graph's heaviest edges, the popular
// set, and the placement decision the optimizer derives from them. It can
// also save the profile, placement map, and raw trace to files for the
// offline toolchain (see cmd/ccdp -load-placement).
//
// Usage:
//
//	trgdump -workload espresso [-top 25] [-scale 1.0]
//	        [-save-profile p.txt] [-save-placement m.txt] [-save-trace t.bin]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/persist"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	name := flag.String("workload", "espresso", "workload to profile")
	top := flag.Int("top", 25, "number of heaviest TRG edges to print")
	scale := flag.Float64("scale", 1.0, "burst-count multiplier")
	saveProfile := flag.String("save-profile", "", "write the profile to this file")
	savePlacement := flag.String("save-placement", "", "write the placement map to this file")
	saveTrace := flag.String("save-trace", "", "write the raw trace to this file")
	flag.Parse()

	w, err := workload.Get(*name)
	if err != nil {
		fatal(err)
	}
	opts := sim.DefaultOptions()
	in := w.Train()
	in.Bursts = int(float64(in.Bursts) * *scale)

	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			fatal(err)
		}
		if err := sim.RecordTrace(w, in, f, opts); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *saveTrace)
	}

	pr, err := sim.ProfileFrom(sim.Live(w, in, opts), opts)
	if err != nil {
		fatal(err)
	}
	pm, err := sim.Place(w, pr, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Println(report.TRGSummary(pr.Profile, *top))
	fmt.Println(report.PlacementSummary(pr.Profile, pm))

	if n := len(pm.MergeLog); n > 0 {
		fmt.Printf("phase-6 merge log (%d merges; first %d shown):\n", n, min(n, *top))
		fmt.Printf("%5s %5s %10s %6s %8s\n", "into", "from", "weight", "line", "members")
		for i, step := range pm.MergeLog {
			if i >= *top {
				break
			}
			fmt.Printf("%5d %5d %10d %6d %8d\n",
				step.A, step.B, step.Weight, step.ChosenLine, step.Members)
		}
	}

	if *saveProfile != "" {
		f, err := os.Create(*saveProfile)
		if err != nil {
			fatal(err)
		}
		if err := persist.WriteProfile(f, pr.Profile); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "profile written to %s\n", *saveProfile)
	}
	if *savePlacement != "" {
		f, err := os.Create(*savePlacement)
		if err != nil {
			fatal(err)
		}
		if err := persist.WritePlacement(f, pm); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "placement written to %s\n", *savePlacement)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
