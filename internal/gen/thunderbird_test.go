package gen

import (
	"reflect"
	"testing"
)

func TestThunderbirdEventCount(t *testing.T) {
	if got := Thunderbird().NumEvents(); got != thunderbirdEvents {
		t.Fatalf("Thunderbird catalogue has %d events, want %d", got, thunderbirdEvents)
	}
}

func TestThunderbirdLengthRange(t *testing.T) {
	lo, hi := Thunderbird().LengthRange()
	if lo < 1 || hi > 120 {
		t.Errorf("Thunderbird length range [%d,%d] outside expected [1,120]", lo, hi)
	}
	// The single-token kernel marker ("updating!") must survive catalogue
	// construction — it stresses Drain's length-keyed routing.
	if lo != 1 {
		t.Errorf("minimum spec length = %d, want the 1-token marker", lo)
	}
}

func TestThunderbirdGenerateDeterministic(t *testing.T) {
	a := Thunderbird().Generate(29, 500)
	b := Thunderbird().Generate(29, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("Thunderbird generation not deterministic in seed")
	}
}

func TestThunderbirdMessagesMatchTheirSpec(t *testing.T) {
	c := Thunderbird()
	byID := make(map[string]Spec)
	for _, s := range c.Specs {
		byID[s.ID] = s
	}
	for _, m := range c.Generate(3, 800) {
		spec, ok := byID[m.TruthID]
		if !ok {
			t.Fatalf("message labelled with unknown spec %q", m.TruthID)
		}
		if got, want := len(m.Tokens), spec.MinTokens(); got < want {
			t.Errorf("%s: rendered %d tokens, spec minimum %d", m.TruthID, got, want)
		}
	}
}

func TestThunderbirdZipfSkew(t *testing.T) {
	small := DistinctEvents(Thunderbird().Generate(1, 400))
	large := DistinctEvents(Thunderbird().Generate(1, 40000))
	if small >= large {
		t.Errorf("distinct events must grow with volume: %d vs %d", small, large)
	}
}

func TestExtraNamesResolve(t *testing.T) {
	for _, name := range ExtraNames {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if c.Name != name {
			t.Errorf("ByName(%s) returned catalogue %q", name, c.Name)
		}
		if c.FullSize == 0 {
			t.Errorf("%s missing a FullSize", name)
		}
	}
	if got := len(AllNames()); got != len(Names)+len(ExtraNames) {
		t.Errorf("AllNames has %d entries", got)
	}
}
