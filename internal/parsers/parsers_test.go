package parsers

import (
	"strings"
	"testing"
)

// TestRows: every row resolves under any case of its name and builds a
// parser reporting that name; a row with an online constructor builds a
// learner of the same name; and an unknown name's error lists all six.
func TestRows(t *testing.T) {
	names := Names(nil)
	if got := strings.Join(names, ","); got != "SLCT,IPLoM,LKE,LogSig,Drain,Spell" {
		t.Fatalf("Names(nil) = %s", got)
	}
	online := 0
	for _, name := range names {
		for _, spelt := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			row, err := ByName(spelt)
			if err != nil {
				t.Fatalf("ByName(%s): %v", spelt, err)
			}
			if row.Name != name {
				t.Errorf("ByName(%s) = %s", spelt, row.Name)
			}
		}
		row, _ := ByName(name)
		p, err := row.New(Options{NumGroups: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("row %s builds %s", name, p.Name())
		}
		if row.Online != nil {
			online++
			if got := row.Online(Options{}).Name(); got != name {
				t.Errorf("row %s builds online learner %s", name, got)
			}
		}
		if row.Marker == 0 || row.ConformN <= 0 {
			t.Errorf("row %s: marker %q, conformance size %d", name, row.Marker, row.ConformN)
		}
	}
	if online != 2 {
		t.Errorf("%d rows build an online learner, want 2 (Drain, Spell)", online)
	}
	_, err := ByName("Bogus")
	if err == nil || !strings.Contains(err.Error(), "SLCT, IPLoM, LKE, LogSig, Drain, Spell") {
		t.Errorf("ByName(Bogus) error %v does not list the six parsers", err)
	}
}

// TestSeededRows: LKE and LogSig read the seed and repeat over every run;
// the other four run once. LogSig refuses to build without its k.
func TestSeededRows(t *testing.T) {
	for _, name := range Names(nil) {
		row, _ := ByName(name)
		seeded := name == "LKE" || name == "LogSig"
		runs := 1
		if seeded {
			runs = 10
		}
		if row.Seeded != seeded || row.Runs(10) != runs {
			t.Errorf("%s: Seeded %v, Runs(10) %d; want %v, %d", name, row.Seeded, row.Runs(10), seeded, runs)
		}
	}
	row, _ := ByName("LogSig")
	if _, err := row.New(Options{}); err == nil {
		t.Error("LogSig without NumGroups accepted")
	}
}
