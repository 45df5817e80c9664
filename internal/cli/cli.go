// Package cli holds the command-line checks the commands under cmd/ share.
package cli

import (
	"flag"
	"fmt"
	"strings"
)

// CheckFlagNeeds refuses the first flag given on the command line whose
// needs entry the command line does not meet. An entry names the flag it
// takes effect only beside ("stream") or only without ("!stream"); a flag
// counts as given when its value differs from its default.
func CheckFlagNeeds(needs map[string]string) (err error) {
	flag.Visit(func(f *flag.Flag) {
		need, listed := needs[f.Name]
		if !listed || err != nil {
			return
		}
		other := flag.Lookup(strings.TrimPrefix(need, "!"))
		given := other.Value.String() != other.DefValue
		switch {
		case need != other.Name && given:
			err = fmt.Errorf("-%s has no effect with -%s", f.Name, other.Name)
		case need == other.Name && !given:
			err = fmt.Errorf("-%s has no effect without -%s", f.Name, other.Name)
		}
	})
	return err
}
