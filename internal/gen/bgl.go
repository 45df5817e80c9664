package gen

import (
	"fmt"
	"math/rand"
	"time"

	"logparse/internal/tokenize"
)

// BGL models the BlueGene/L supercomputer log (Table I: 4,747,963 lines,
// 376 event types, message lengths up to ~102 tokens). The hand-written
// head reproduces the iconic BGL events — most importantly the
// high-popularity "generating core.*" event whose high-cardinality suffix
// defeats LKE's distance metric (§IV-B) — and the synthesiser fills the
// 376-event vocabulary with supercomputer-flavoured RAS messages.

// bglEvents is the target event-vocabulary size from Table I.
const bglEvents = 376

var bglHead = []Spec{
	MustSpec("BGL-E1", "generating <core>"),
	MustSpec("BGL-E2", "instruction cache parity error corrected"),
	MustSpec("BGL-E3", "data TLB error interrupt"),
	MustSpec("BGL-E4", "machine check interrupt"),
	MustSpec("BGL-E5", "CE sym <int>, at <hex>, mask <hex>"),
	MustSpec("BGL-E6", "ciod: Error reading message prefix after LOGIN_MESSAGE on CioStream socket to <ip>"),
	MustSpec("BGL-E7", "ciod: failed to read message prefix on control stream CioStream socket to <ip>"),
	MustSpec("BGL-E8", "ciod: LOGIN chdir <path> failed: No such file or directory"),
	MustSpec("BGL-E9", "total of <int> ddr error(s) detected and corrected"),
	MustSpec("BGL-E10", "<int> ddr error(s) detected and corrected on rank <int>, symbol <int>, bit <int>"),
	MustSpec("BGL-E11", "MidplaneSwitchController performing bit sparing on <node> bit <int>"),
	MustSpec("BGL-E12", "L3 ecc control register: <hex>"),
	MustSpec("BGL-E13", "external input interrupt (unit=<hex> bit=<hex>): uncorrectable torus error"),
	MustSpec("BGL-E14", "rts: kernel terminated for reason <int>"),
	MustSpec("BGL-E15", "rts panic! - stopping execution"),
	MustSpec("BGL-E16", "ddr: excessive soft failures, consider replacing the ddr memory on this card"),
	MustSpec("BGL-E17", "lustre mount FAILED : <node> : block device <path>"),
	MustSpec("BGL-E18", "NodeCard is not fully functional: <word> test failed on <node>"),
	MustSpec("BGL-E19", "PrepareForService shutting down midplane <node> by user <user>"),
	MustSpec("BGL-E20", "program interrupt: fp compare......0 at instruction address <hex>"),
	MustSpec("BGL-E21", "floating point instr. enabled.....1 at <hex> in job <int>"),
	MustSpec("BGL-E22", "idoproxydb has been started: Input parameters: -enableflush -loguserinfo db.properties BlueGene1"),
	MustSpec("BGL-E23", "ciodb has been restarted on <node> after <dur>"),
	MustSpec("BGL-E24", "fan module <node> speed <int> rpm below threshold <int> rpm"),
	MustSpec("BGL-E25", "power module <node> reports voltage <flt> outside nominal range"),
	MustSpec("BGL-E26", "torus receiver <int> input pipe error(s) (dcr <hex>) detected and corrected over <int> seconds"),
	MustSpec("BGL-E27", "correctable error detected in directory at address <hex>, register <hex>"),
	MustSpec("BGL-E28", "uncorrectable error detected in bank <int> chip <int> at <hex>"),
	MustSpec("BGL-E29", "capture first correctable error address.....<hex>"),
	MustSpec("BGL-E30", "kernel panic in interrupt handler at <hex>: unable to recover, job <int> killed on <node>"),
}

// bgl is BGL's row in the dataset table (registry.go).
var bgl = &Catalog{
	Name:     "BGL",
	Paper:    true,
	FullSize: 4747963,
	Rules:    []tokenize.Rule{tokenize.RuleCoreID},
	// "- 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 RAS KERNEL INFO <content>"
	Header: Header{Fields: 7, render: func(ts time.Time, rng *rand.Rand) string {
		sev := []string{"INFO", "WARNING", "ERROR", "FATAL"}
		sub := []string{"KERNEL", "APP", "DISCOVERY", "HARDWARE", "MMCS"}
		return fmt.Sprintf("- %d %s R%02d-M%d-N%d-C:J%02d-U%02d RAS %s %s",
			ts.Unix(), ts.Format("2006.01.02"),
			rng.Intn(80), rng.Intn(2), rng.Intn(16), rng.Intn(18), rng.Intn(12),
			sub[rng.Intn(len(sub))], sev[rng.Intn(len(sev))])
	}},
	Tuned: Tuned{SLCTSupportFrac: 0.005, LKESplitRatio: 0.25, LogSigGroups: 110},
	// The low LogSig floor is faithful: Table II reports that weakness on
	// raw input.
	Floors: map[string]float64{"SLCT": 0.95, "IPLoM": 0.95, "LKE": 0.95, "LogSig": 0.30, "Drain": 0.97, "Spell": 0.97},
	specs: func() []Spec {
		style := synthStyle{
			prefixes:     []string{"ciod:", "kernel:", "mmcs:", "ido:", "rts:", "ddr:"},
			fieldPalette: []Field{FieldHex, FieldInt, FieldNode, FieldIPBare, FieldCoreID, FieldFloat},
			fieldProb:    0.3,
			longTailProb: 0.08,
		}
		tail := synthesizeSpecs("BGL", 0xB61, bglEvents-len(bglHead), 6, 102, style, bglHead)
		return append(append([]Spec(nil), bglHead...), tail...)
	},
}

// BGL returns the BlueGene/L dataset catalogue (built once; catalogues are
// immutable after construction).
func BGL() *Catalog { return bgl.built() }
