package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// TestWorkloadsPrintEveryMetric runs every workload briefly in both modes
// and checks the result line: every named metric with its unit, and a
// failure count consistent with the correctness flag.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"dag-solve", "dag-recover", "service-routed"} {
		for _, tr := range []int{0, 1} {
			t.Run(w+"/trace"+strconv.Itoa(tr), func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", strconv.Itoa(tr), "--out", t.TempDir()}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
					t.Fatalf("attempted=%d failed=%d", res.Attempted, res.Failed)
				}
				if res.Correct != (res.Failed == 0) {
					t.Fatalf("correct=%v with %d failed", res.Correct, res.Failed)
				}
				want := endToEnd
				if tr == 1 {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s = %+v, want unit %q", m.name, got, m.unit)
					}
					if tr == 0 && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
			})
		}
	}
}

// TestFailuresAreCounted checks that a wrong output, a refused submission
// and an undetected corruption each count as a failure.
func TestFailuresAreCounted(t *testing.T) {
	ins, err := buildDAGInputs(5, false)
	if err != nil {
		t.Fatal(err)
	}
	in := ins[0]
	if s := runSolve(in, true, nil, in.spec); !s.ok {
		t.Fatalf("%s: correct solve reported as failed", in.name)
	}
	wrong := *in
	wrong.ref = append([]float64(nil), in.ref...)
	wrong.ref[0]++
	if s := runSolve(&wrong, true, nil, in.spec); s.ok {
		t.Fatalf("%s: solve with a wrong output reported as verified", in.name)
	}

	tpls, err := buildTemplates(5)
	if err != nil {
		t.Fatal(err)
	}
	env, err := startCluster(tpls, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()
	var sdcTpl int
	for i, tp := range tpls {
		if tp.kind == kindSDC {
			sdcTpl = i
			break
		}
	}
	recs := []*jobRec{
		{n: 0, t: 0, tpl: tpls[0]},           // verifies
		{n: 1, t: 0, tpl: tpls[0]},           // reference altered below
		{n: 2, t: sdcTpl, tpl: tpls[sdcTpl]}, // expects one more SDC than planned
		{n: 3, t: 0, tpl: tpls[0]},           // refused: never submitted
	}
	wrongTpl := *tpls[0]
	wrongTpl.ref = append([]float64(nil), tpls[0].ref...)
	wrongTpl.ref[0]++
	wrongSDC := *tpls[sdcTpl]
	wrongSDC.sdc++
	env.closedLoop(recs[:3], 2)
	recs[1].tpl = &wrongTpl
	recs[2].tpl = &wrongSDC
	recs[3].refused = true
	if got := verify(recs); got != 3 {
		t.Fatalf("verify counted %d failures, want 3", got)
	}
	if !recs[0].ok {
		t.Fatalf("the correct job was not verified")
	}
}
