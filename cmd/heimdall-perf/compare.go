package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// compareFiles judges document B (the change) against document A (the
// parent): every end-to-end metric of every untraced run by its direction
// and bound, and every run by the share of its operations that failed. It
// prints one row per (workload, metric) and returns an error on a breach.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := readDocument(pathA)
	if err != nil {
		return err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tchange\tbound\tverdict")
	breaches := 0
	for _, ra := range a.Runs {
		rb := b.find(ra.Workload, ra.Traced)
		if rb == nil {
			fmt.Fprintf(tw, "%s\t(traced=%v)\t\t\t\t\tMISSING in B\n", ra.Workload, ra.Traced)
			breaches++
			continue
		}
		shareA, shareB := failedShare(ra), failedShare(rb)
		verdict := "ok"
		if shareB > shareA || !rb.Correct {
			verdict = "BREACH"
			breaches++
		}
		fmt.Fprintf(tw, "%s\tfailed_share\t%.6g\t%.6g\t\t\t%s\n", ra.Workload, shareA, shareB, verdict)
		if ra.Traced {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Values[d.name], rb.Values[d.name]
			// worse is how far B moved in the bad direction, as a share of A.
			worse := (vb - va) / va
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > d.bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n",
				ra.Workload, d.name, va, vb, 100*(vb-va)/va, 100*d.bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if breaches > 0 {
		return fmt.Errorf("%d breach(es): %s is worse than %s", breaches, pathB, pathA)
	}
	return nil
}

func failedShare(r *result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func (d *document) find(workload string, traced bool) *result {
	for _, r := range d.Runs {
		if r.Workload == workload && r.Traced == traced {
			return r
		}
	}
	return nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}
