package gen

import (
	"math/rand"
	"time"
)

// Proxifier models the standalone desktop proxy-client log (Table I: 10,108
// lines, only 8 event types, lengths 10–27 tokens). All eight templates are
// hand-written — the real Proxifier vocabulary is this small, which is why
// every parser scores well on it and why the paper applies no
// domain-knowledge preprocessing to it.

var proxifierSpecs = []Spec{
	MustSpec("PX-E1", "<prog> - <host> open through proxy <host> HTTPS"),
	MustSpec("PX-E2", "<prog> - <host> open through proxy <host> SOCKS5"),
	MustSpec("PX-E3", "<prog> - <host> close, <int> bytes sent, <int> bytes received, lifetime <dur>"),
	MustSpec("PX-E4", "<prog> - <host> close, <int> bytes (<size>) sent, <int> bytes (<size>) received, lifetime <dur>"),
	MustSpec("PX-E5", "<prog> - <host> error : Could not connect through proxy <host> - Proxy server cannot establish a connection with the target, status code <int>"),
	MustSpec("PX-E6", "<prog> - <host> error : Could not connect to proxy <host> - connection attempt timed out after <dur>"),
	MustSpec("PX-E7", "<prog> *64 - <host> open directly chain <word>"),
	MustSpec("PX-E8", "<prog> - <host> request rejected by rule <word> default deny"),
}

// proxifier is Proxifier's row in the dataset table (registry.go).
var proxifier = &Catalog{
	Name:     "Proxifier",
	Paper:    true,
	FullSize: 10108,
	// "[10.30 16:49:06] <content>"
	Header: Header{Fields: 2, render: func(ts time.Time, rng *rand.Rand) string {
		return ts.Format("[01.02 15:04:05]")
	}},
	Tuned: Tuned{SLCTSupportFrac: 0.15, LKESplitRatio: 0.004, LogSigGroups: 8},
	// The very low Drain floor is faithful: Drain routes by leading tokens,
	// and Proxifier messages lead with a variable program name.
	Floors: map[string]float64{"SLCT": 0.90, "IPLoM": 0.70, "LKE": 0.65, "LogSig": 0.88, "Drain": 0.15, "Spell": 0.70},
	specs:  func() []Spec { return proxifierSpecs },
}

// Proxifier returns the Proxifier dataset catalogue.
func Proxifier() *Catalog { return proxifier.built() }
