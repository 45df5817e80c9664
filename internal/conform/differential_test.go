package conform

import (
	"context"
	"reflect"
	"testing"

	"logparse/internal/core"
)

// TestDifferentialModes is the differential oracle: for every cell of the
// conformance matrix (all four parsers × all five datasets) the same
// algorithm must produce the same clustering through every execution path,
// must be deterministic run-to-run, and must clear the cell's pairwise
// F-measure floor against the generator's ground truth.
//
// Modes compared:
//
//	serial    p.Parse(msgs)                      — the baseline
//	ctx       p.ParseCtx(context.Background())   — must be byte-identical
//	robust    single-tier degradation chain      — must cluster identically
func TestDifferentialModes(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			if testing.Short() && c.Seeded {
				t.Skip("skipping the slow randomized-parser cells in -short mode")
			}
			msgs := c.Messages()
			factory, err := c.Factory()
			if err != nil {
				t.Fatal(err)
			}

			base, err := factory(1).Parse(msgs)
			if err != nil {
				t.Fatalf("serial parse: %v", err)
			}
			if err := base.Validate(len(msgs)); err != nil {
				t.Fatalf("serial result invalid: %v", err)
			}
			f, err := FMeasureAgainstTruth(base, msgs)
			if err != nil {
				t.Fatal(err)
			}
			if f < c.Floor {
				t.Errorf("serial F-measure %.4f below floor %.4f", f, c.Floor)
			}

			// ctx mode doubles as the run-to-run determinism check.
			ctxRes, err := factory(1).ParseCtx(context.Background(), msgs)
			if err != nil {
				t.Fatalf("ParseCtx parse: %v", err)
			}
			if !reflect.DeepEqual(base, ctxRes) {
				_, diff := SameClustering(base, ctxRes)
				t.Errorf("ParseCtx result differs from Parse: %s", diff)
			}

			rp, err := c.RobustParser(1)
			if err != nil {
				t.Fatal(err)
			}
			rres, err := rp.Parse(msgs)
			if err != nil {
				t.Fatalf("robust parse: %v", err)
			}
			assertSameParse(t, "robust chain", base, rres)

			// Seed sensitivity: seedless algorithms must not change at all;
			// seeded ones must be per-seed deterministic and stay above the
			// floor on a second seed.
			seed2, err := factory(2).Parse(msgs)
			if err != nil {
				t.Fatalf("seed-2 parse: %v", err)
			}
			if !c.Seeded {
				if !reflect.DeepEqual(base, seed2) {
					_, diff := SameClustering(base, seed2)
					t.Errorf("seedless parser changed output across seeds: %s", diff)
				}
				return
			}
			f2, err := FMeasureAgainstTruth(seed2, msgs)
			if err != nil {
				t.Fatal(err)
			}
			if f2 < c.Floor {
				t.Errorf("seed-2 F-measure %.4f below floor %.4f", f2, c.Floor)
			}
			seed2again, err := factory(2).Parse(msgs)
			if err != nil {
				t.Fatalf("seed-2 reparse: %v", err)
			}
			if !reflect.DeepEqual(seed2, seed2again) {
				_, diff := SameClustering(seed2, seed2again)
				t.Errorf("seeded parser is nondeterministic under a fixed seed: %s", diff)
			}
		})
	}
}

// assertSameParse requires two results to extract the same template set
// and cluster the messages identically (template IDs and ordering are
// allowed to differ — the canonical digest is the comparison space).
func assertSameParse(t *testing.T, mode string, want, got *core.ParseResult) {
	t.Helper()
	if err := got.Validate(len(want.Assignment)); err != nil {
		t.Errorf("%s result invalid: %v", mode, err)
		return
	}
	if Digest(want) == Digest(got) {
		return
	}
	wantT, gotT := TemplateStrings(want), TemplateStrings(got)
	if d := DiffStrings(wantT, gotT); d != "" {
		t.Errorf("%s template set differs from serial:\n%s", mode, d)
		return
	}
	_, diff := SameClustering(want, got)
	t.Errorf("%s clustering differs from serial: %s", mode, diff)
}

// TestCanonicalResult pins the canonicalization contract the digests rely
// on: sorting is by rendered template string, IDs are renumbered, and the
// clustering (as a partition of messages) is preserved.
func TestCanonicalResult(t *testing.T) {
	r := &core.ParseResult{
		Templates: []core.Template{
			{ID: "X-2", Tokens: []string{"b", "*"}},
			{ID: "X-1", Tokens: []string{"a", "*"}},
			{ID: "X-3", Tokens: []string{"a", "*", "c"}},
		},
		Assignment: []int{0, 1, 2, core.OutlierID, 1},
	}
	canon := r.Canonical()
	wantOrder := []string{"a *", "a * c", "b *"}
	for i, w := range wantOrder {
		if canon.Templates[i].String() != w {
			t.Fatalf("canonical template %d = %q, want %q", i, canon.Templates[i].String(), w)
		}
		if wantID := "T" + string(rune('1'+i)); canon.Templates[i].ID != wantID {
			t.Fatalf("canonical template %d ID = %q, want %q", i, canon.Templates[i].ID, wantID)
		}
	}
	wantAssign := []int{2, 0, 1, core.OutlierID, 0}
	if !reflect.DeepEqual(canon.Assignment, wantAssign) {
		t.Fatalf("canonical assignment = %v, want %v", canon.Assignment, wantAssign)
	}
	if same, diff := SameClustering(r, canon); !same {
		t.Fatalf("canonicalization changed the clustering: %s", diff)
	}
	// Canonical must not mutate its receiver.
	if r.Templates[0].ID != "X-2" || r.Assignment[0] != 0 {
		t.Fatal("Canonical mutated its receiver")
	}
	// Idempotence: canonical of canonical is byte-identical.
	if !reflect.DeepEqual(canon, canon.Canonical()) {
		t.Fatal("Canonical is not idempotent")
	}
}
