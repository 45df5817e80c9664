package gen

import (
	"fmt"
	"math/rand"
	"time"
)

// Spark models a Spark executor log (loghub's Spark sample: ~36 event
// types, short block-manager and scheduler messages of 3–30 tokens). Spark
// is the smallest vocabulary in the extended suite — nearly every line is
// one of a handful of memory-store or task events, which makes it the
// easiest online-parsing target and a good lower anchor for conformance
// floors.

const sparkEvents = 36

var sparkHead = []Spec{
	MustSpec("SP-E1", "Reading broadcast variable <int> took <int> ms"),
	MustSpec("SP-E2", "Block broadcast_<int> stored as values in memory (estimated size <size> B, free <size> B)"),
	MustSpec("SP-E3", "Block broadcast_<int>_piece<int> stored as bytes in memory (estimated size <size> B, free <size> B)"),
	MustSpec("SP-E4", "Found block rdd_<int>_<int> locally"),
	MustSpec("SP-E5", "Getting <int> non-empty blocks out of <int> blocks"),
	MustSpec("SP-E6", "Started <int> remote fetches in <int> ms"),
	MustSpec("SP-E7", "Running task <flt> in stage <flt> (TID <int>)"),
	MustSpec("SP-E8", "Finished task <flt> in stage <flt> (TID <int>). <size> bytes result sent to driver"),
	MustSpec("SP-E9", "Started reading broadcast variable <int>"),
	MustSpec("SP-E10", "Ensuring free space of <size> bytes by evicting <int> blocks"),
	MustSpec("SP-E11", "Dropping block rdd_<int>_<int> from memory"),
	MustSpec("SP-E12", "Writing to shuffle file <path>"),
	MustSpec("SP-E13", "maxBytesInFlight: <size>, targetRequestSize: <size>"),
	MustSpec("SP-E14", "Got assigned task <int>"),
	MustSpec("SP-E15", "Partition rdd_<int>_<int> not found, computing it"),
	MustSpec("SP-E16", "Asked to send map output locations for shuffle <int> to <host>"),
	MustSpec("SP-E17", "Exception in connection from <host> java.io.IOException: Connection reset by peer"),
	MustSpec("SP-E18", "Connecting to driver: spark://CoarseGrainedScheduler@<host>"),
	MustSpec("SP-E19", "Registered executor NettyRpcEndpointRef(null) (<host>) with ID <int>"),
	MustSpec("SP-E20", "Told master about block broadcast_<int>_piece<int>"),
}

// spark is Spark's row in the dataset table (registry.go).
var spark = &Catalog{
	Name:     "Spark",
	FullSize: 33236604,
	// "17/06/09 20:10:40 INFO executor.Executor: <content>"
	Header: Header{Fields: 4, render: func(ts time.Time, rng *rand.Rand) string {
		sev := []string{"INFO", "WARN", "ERROR"}
		comps := []string{
			"executor.Executor:", "storage.MemoryStore:", "broadcast.TorrentBroadcast:",
			"storage.BlockManager:", "executor.CoarseGrainedExecutorBackend:",
			"spark.MapOutputTrackerWorker:", "storage.ShuffleBlockFetcherIterator:",
		}
		return fmt.Sprintf("%s %s %s",
			ts.Format("06/01/02 15:04:05"), sev[rng.Intn(len(sev))],
			comps[rng.Intn(len(comps))])
	}},
	Tuned:  Tuned{SLCTSupportFrac: 0.005, LKESplitRatio: 0.25, LogSigGroups: 36},
	Floors: map[string]float64{"Drain": 0.92, "Spell": 0.92},
	specs: func() []Spec {
		style := synthStyle{
			prefixes:     []string{"executor:", "storage:", "shuffle:", "rpc:"},
			fieldPalette: []Field{FieldInt, FieldSize, FieldHost, FieldDuration, FieldFloat},
			fieldProb:    0.35,
			longTailProb: 0.0,
		}
		tail := synthesizeSpecs("SP", 0x3B2A, sparkEvents-len(sparkHead), 3, 30, style, sparkHead)
		return append(append([]Spec(nil), sparkHead...), tail...)
	},
}

// Spark returns the Spark executor dataset catalogue.
func Spark() *Catalog { return spark.built() }
