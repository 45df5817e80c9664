package gen

import (
	"fmt"
	"math/rand"
	"time"

	"logparse/internal/tokenize"
)

// HPC models the Los Alamos high-performance-cluster log (Table I: 433,490
// lines, 105 event types, lengths up to ~104 tokens). HPC messages are
// short hardware/infrastructure notices; the head reproduces the well-known
// LANL events and the synthesiser fills the 105-event vocabulary.

const hpcEvents = 105

var hpcHead = []Spec{
	MustSpec("HPC-E1", "running running"),
	MustSpec("HPC-E2", "boot (command <int>) Error: machine check exception"),
	MustSpec("HPC-E3", "Link error on broadcast tree interface <int>"),
	MustSpec("HPC-E4", "ServerFileSystem domain storage is full"),
	MustSpec("HPC-E5", "PSU status ( <hex> )"),
	MustSpec("HPC-E6", "Temperature ( <int> ) exceeds warning threshold"),
	MustSpec("HPC-E7", "Fan speeds ( <int> <int> <int> <int> <int> <int> )"),
	MustSpec("HPC-E8", "node <node> detected network connection fault on component <int>"),
	MustSpec("HPC-E9", "galaxy server panic: component state change: component <word> is in the unavailable state (HWID=<int>)"),
	MustSpec("HPC-E10", "ambient=<int> threshold exceeded on node <node>"),
	MustSpec("HPC-E11", "risBoot command ( <int> ) failed on node <node>"),
	MustSpec("HPC-E12", "Targeting domains:node-<int> and nodes:node-[<int>-<int>] child of command <int>"),
	MustSpec("HPC-E13", "ClusterFileSystem: There is no server for unit <int> (unit_type=<word>)"),
	MustSpec("HPC-E14", "Lustre error on client <node>: LustreError: <int>:(<word>.c:<int>:<word>()) @@@ timeout"),
	MustSpec("HPC-E15", "network interface <int> on node <node> reset after <int> consecutive send failures"),
	MustSpec("HPC-E16", "scsi disk error on unit <int> sector <big> node <node>"),
	MustSpec("HPC-E17", "console heartbeat lost on <node> after <dur>"),
	MustSpec("HPC-E18", "interconnect fabric link <int> port <int> retrained, error counter <int>"),
	MustSpec("HPC-E19", "power supply <int> on chassis <int> switched to backup feed"),
	MustSpec("HPC-E20", "job <int> terminated by scheduler on <int> nodes exit status <int>"),
}

// hpc is HPC's row in the dataset table (registry.go).
var hpc = &Catalog{
	Name:     "HPC",
	Paper:    true,
	FullSize: 433490,
	Rules:    []tokenize.Rule{tokenize.RuleIP},
	// "268588 node-148 unix.hw state_change.unavailable 1084680778 1 <content>"
	Header: Header{Fields: 6, render: func(ts time.Time, rng *rand.Rand) string {
		k := []string{"unix.hw", "boot_cmd", "net.niff", "unix.fs"}
		return fmt.Sprintf("%d node-%d %s state_change.unavailable %d %d",
			rng.Intn(1<<20), rng.Intn(1024), k[rng.Intn(len(k))], ts.Unix(), rng.Intn(2))
	}},
	Tuned:  Tuned{SLCTSupportFrac: 0.005, LKESplitRatio: 0.25, LogSigGroups: 80},
	Floors: map[string]float64{"SLCT": 0.95, "IPLoM": 0.97, "LKE": 0.95, "LogSig": 0.90, "Drain": 0.97, "Spell": 0.97},
	specs: func() []Spec {
		style := synthStyle{
			prefixes:     []string{"psu:", "fan:", "temp:", "net:", "disk:", "sched:"},
			fieldPalette: []Field{FieldInt, FieldNode, FieldHex, FieldFloat, FieldDuration},
			fieldProb:    0.35,
			longTailProb: 0.06,
		}
		tail := synthesizeSpecs("HPC", 0x45C, hpcEvents-len(hpcHead), 6, 104, style, hpcHead)
		return append(append([]Spec(nil), hpcHead...), tail...)
	},
}

// HPC returns the Los Alamos cluster dataset catalogue.
func HPC() *Catalog { return hpc.built() }
