package gen

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"logparse/internal/core"
	"logparse/internal/tokenize"
)

// HDFS models the Hadoop File System log of Xu et al. (SOSP'09), the
// dataset of the paper's RQ3 study (Table I: 11,175,629 lines, exactly 29
// event types; 575,061 block operation requests of which 16,838 are
// anomalous). The 29 templates below follow the published HDFS template
// set. Unlike the other datasets, HDFS is generated per *session*: each
// block ID gets a lifecycle of events, and anomalous lifecycles are
// injected with exact labels — the ground truth Table III scores against.

// hdfsSpecs are the 29 HDFS event templates, ordered by typical frequency
// (the order is the Zipf popularity rank for line-sampled generation).
var hdfsSpecs = []Spec{
	MustSpec("HDFS-E26", "BLOCK* NameSystem.addStoredBlock: blockMap updated: <ip> is added to <blk> size <size>"),
	MustSpec("HDFS-E5", "Receiving block <blk> src: <ips> dest: <ip>"),
	MustSpec("HDFS-E11", "PacketResponder <ridx> for block <blk> terminating"),
	MustSpec("HDFS-E9", "Received block <blk> of size <size> from <ip>"),
	MustSpec("HDFS-E22", "BLOCK* NameSystem.allocateBlock: <path> <blk>"),
	MustSpec("HDFS-E21", "Deleting block <blk> file <path>"),
	MustSpec("HDFS-E23", "BLOCK* NameSystem.delete: <blk> is added to invalidSet of <ip>"),
	MustSpec("HDFS-E2", "Verification succeeded for <blk>"),
	MustSpec("HDFS-E3", "Served block <blk> to <ip>"),
	MustSpec("HDFS-E6", "Received block <blk> src: <ip> dest: <ip> of size <size>"),
	MustSpec("HDFS-E18", "<blk> Starting thread to transfer block <blk> to <ip>"),
	MustSpec("HDFS-E16", "Transmitted block <blk> to <ip>"),
	MustSpec("HDFS-E25", "BLOCK* ask <ip> to replicate <blk> to datanode(s) <ip>"),
	MustSpec("HDFS-E1", "Adding an already existing block <blk>"),
	MustSpec("HDFS-E4", "Got exception while serving <blk> to <ip>"),
	MustSpec("HDFS-E7", "writeBlock <blk> received exception <exc>"),
	MustSpec("HDFS-E8", "PacketResponder <ridx> for block <blk> Interrupted."),
	MustSpec("HDFS-E10", "PacketResponder <blk> <ridx> Exception <exc>"),
	MustSpec("HDFS-E12", "Exception writing block <blk> to mirror <ip>"),
	MustSpec("HDFS-E13", "Receiving empty packet for block <blk>"),
	MustSpec("HDFS-E14", "Exception in receiveBlock for block <blk> <exc>"),
	MustSpec("HDFS-E15", "Changing block file offset of block <blk> from <int> to <int> meta file offset to <int>"),
	MustSpec("HDFS-E17", "Failed to transfer <blk> to <ip> got <exc>"),
	MustSpec("HDFS-E19", "Reopen Block <blk>"),
	MustSpec("HDFS-E20", "Unexpected error trying to delete block <blk>. BlockInfo not found in volumeMap."),
	MustSpec("HDFS-E24", "BLOCK* Removing block <blk> from neededReplications as it does not belong to any file."),
	MustSpec("HDFS-E27", "BLOCK* NameSystem.addStoredBlock: Redundant addStoredBlock request received for <blk> on <ip> size <size>"),
	MustSpec("HDFS-E28", "BLOCK* NameSystem.addStoredBlock: addStoredBlock request received for <blk> on <ip> size <size> But it does not belong to any file."),
	MustSpec("HDFS-E29", "PendingReplicationMonitor timed out block <blk>"),
}

// hdfs is HDFS's row in the dataset table (registry.go).
var hdfs = &Catalog{
	Name:     "HDFS",
	Paper:    true,
	FullSize: 11175629,
	Rules:    []tokenize.Rule{tokenize.RuleIP, tokenize.RuleBlockID},
	// "081109 203615 148 INFO dfs.DataNode$PacketResponder: <content>"
	Header: Header{Fields: 5, render: func(ts time.Time, rng *rand.Rand) string {
		components := []string{
			"dfs.DataNode$PacketResponder:", "dfs.DataNode$DataXceiver:",
			"dfs.FSNamesystem:", "dfs.DataBlockScanner:", "dfs.DataNode$DataTransfer:",
		}
		return fmt.Sprintf("%s %d INFO %s",
			ts.Format("060102 150405"), rng.Intn(4096), components[rng.Intn(len(components))])
	}},
	Tuned: Tuned{SLCTSupportFrac: 0.005, LKESplitRatio: 0.25, LogSigGroups: 35},
	// The low SLCT floor is faithful: Table II reports that weakness on raw
	// input.
	Floors: map[string]float64{"SLCT": 0.22, "IPLoM": 0.95, "LKE": 0.80, "LogSig": 0.78, "Drain": 0.95, "Spell": 0.95},
	specs:  func() []Spec { return hdfsSpecs },
}

// HDFS returns the line-sampled HDFS catalogue used by the accuracy and
// efficiency experiments (RQ1/RQ2). The session-structured generator for
// anomaly detection is GenerateHDFSSessions.
func HDFS() *Catalog { return hdfs.built() }

// HDFSOptions configures session-structured HDFS generation.
type HDFSOptions struct {
	// Seed makes generation deterministic.
	Seed int64
	// Sessions is the number of block operation requests (paper: 575,061).
	Sessions int
	// AnomalyRate is the fraction of anomalous sessions (paper:
	// 16,838/575,061 ≈ 0.0293). Values outside [0,1] are clamped.
	AnomalyRate float64
	// Replication is the HDFS replication factor (default 3).
	Replication int
}

// HDFSData is a generated session-structured HDFS log.
type HDFSData struct {
	// Messages are the interleaved log lines of all sessions. Session on
	// each message is its block ID.
	Messages []core.LogMessage
	// Labels maps block ID → true when the session is anomalous.
	Labels map[string]bool
	// AnomalyKinds counts injected sessions per anomaly class name.
	AnomalyKinds map[string]int
}

// NumAnomalies returns the number of injected anomalous sessions.
func (d *HDFSData) NumAnomalies() int {
	n := 0
	for _, v := range d.Labels {
		if v {
			n++
		}
	}
	return n
}

// hdfsSpecByID indexes the 29 specs for the session builder.
var hdfsSpecByID = func() map[string]Spec {
	m := make(map[string]Spec, len(hdfsSpecs))
	for _, s := range hdfsSpecs {
		m[s.ID] = s
	}
	return m
}()

// anomalyKinds are the nine injected failure classes. Each produces a
// structurally deviant event-count vector for the block, which is the
// signal the PCA detector keys on.
var anomalyKinds = []string{
	"write-exception", "under-replicated", "redundant-add",
	"delete-failure", "transfer-failure", "empty-packet",
	"serving-exception", "replication-timeout", "offset-anomaly",
}

// GenerateHDFSSessions builds a session-structured HDFS log with injected,
// labelled anomalies. Sessions are interleaved as they would be in a real
// datanode/namenode log while preserving intra-session event order.
func GenerateHDFSSessions(opts HDFSOptions) (*HDFSData, error) {
	if opts.Sessions <= 0 {
		return nil, fmt.Errorf("gen: HDFS sessions must be positive, got %d", opts.Sessions)
	}
	if opts.Replication <= 0 {
		opts.Replication = 3
	}
	rate := opts.AnomalyRate
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	data := &HDFSData{
		Labels:       make(map[string]bool, opts.Sessions),
		AnomalyKinds: make(map[string]int),
	}
	sessions := make([][]core.LogMessage, opts.Sessions)
	total := 0
	for i := range sessions {
		blk := "blk_" + strconv.FormatInt(rng.Int63(), 10)
		if rng.Intn(2) == 0 {
			blk = "blk_-" + strconv.FormatInt(rng.Int63(), 10)
		}
		anomalous := rng.Float64() < rate
		var seq []string
		if anomalous {
			kind := anomalyKinds[rng.Intn(len(anomalyKinds))]
			data.AnomalyKinds[kind]++
			seq = anomalousSession(kind, opts.Replication, rng)
		} else {
			seq = normalSession(opts.Replication, rng)
		}
		data.Labels[blk] = anomalous
		msgs := make([]core.LogMessage, len(seq))
		overrides := map[Field]string{FieldBlockID: blk}
		for j, id := range seq {
			spec := hdfsSpecByID[id]
			content := spec.RenderWith(rng, overrides)
			msgs[j] = core.LogMessage{
				Content: content,
				Tokens:  core.Tokenize(content),
				TruthID: id,
				Session: blk,
			}
		}
		sessions[i] = msgs
		total += len(msgs)
	}
	data.Messages = interleave(sessions, total, rng)
	for i := range data.Messages {
		data.Messages[i].LineNo = i + 1
	}
	return data, nil
}

// normalSession is the healthy block lifecycle: allocate, replicate to R
// datanodes, register replicas, and sometimes verify, serve or delete.
func normalSession(replication int, rng *rand.Rand) []string {
	seq := []string{"HDFS-E22"}
	for r := 0; r < replication; r++ {
		seq = append(seq, "HDFS-E5")
	}
	for r := 0; r < replication; r++ {
		seq = append(seq, "HDFS-E11", "HDFS-E9")
	}
	for r := 0; r < replication; r++ {
		seq = append(seq, "HDFS-E26")
	}
	if rng.Float64() < 0.20 {
		seq = append(seq, "HDFS-E2")
	}
	// Read traffic: most blocks are served a handful of times, but a small
	// population of hot blocks is read heavily. The hot mode gives the
	// event-count matrix a large *legitimate* variance direction — exactly
	// the structure PCA's normal space exists to absorb; without it the 5%
	// residual budget would swallow the rare failure columns instead.
	reads := rng.Intn(3)
	if rng.Float64() < 0.05 {
		reads = 20 + rng.Intn(60)
	}
	for n := reads; n > 0; n-- {
		seq = append(seq, "HDFS-E3")
	}
	// Rare but benign operational events: rebalancing transfers, block
	// reopen on append, cross-node copies. Healthy lifecycles produce these
	// too, at counts low enough that a support-thresholded parser (SLCT)
	// cannot learn them and dumps them into its outlier cluster alongside
	// genuine failure events of the same shape — the "parsing errors on
	// critical events" that Finding 6 blames for false-alarm blow-up. Each
	// pattern occurs with a fixed multiplicity: the resulting rank-1 count
	// directions are fully captured by the PCA normal space, so under exact
	// parsing these sessions are never false alarms.
	if rng.Float64() < 0.06 { // rebalancing transfer (two threads)
		seq = append(seq, "HDFS-E18", "HDFS-E16", "HDFS-E18", "HDFS-E16")
	}
	if rng.Float64() < 0.05 { // reopen on append (offset changes twice)
		seq = append(seq, "HDFS-E19", "HDFS-E15", "HDFS-E15")
	}
	if rng.Float64() < 0.04 { // cross-node copy acknowledgement
		seq = append(seq, "HDFS-E6", "HDFS-E6")
	}
	if rng.Float64() < 0.25 {
		seq = append(seq, "HDFS-E23")
		for r := 0; r < replication; r++ {
			seq = append(seq, "HDFS-E21")
		}
	}
	return seq
}

// anomalousSession builds the event sequence for one failure class. Counts
// are randomised within each class — real failures repeat retries and
// exceptions a varying number of times, and without that spread each class
// would form a tight cluster that PCA simply absorbs as another principal
// direction.
func anomalousSession(kind string, replication int, rng *rand.Rand) []string {
	// rep appends id n times.
	var seq []string
	rep := func(id string, n int) {
		for ; n > 0; n-- {
			seq = append(seq, id)
		}
	}
	r1 := 1 + rng.Intn(2) // small random multiplicity
	switch kind {
	case "write-exception":
		seq = []string{"HDFS-E22", "HDFS-E5"}
		rep("HDFS-E7", r1)
		rep("HDFS-E14", 1)
		rep("HDFS-E12", rng.Intn(2))
		seq = append(seq, "HDFS-E11", "HDFS-E9", "HDFS-E26")
	case "under-replicated":
		got := 1 + rng.Intn(replication-1) // fewer replicas than required
		seq = []string{"HDFS-E22"}
		rep("HDFS-E5", got)
		rep("HDFS-E11", got)
		rep("HDFS-E9", got)
		rep("HDFS-E26", got)
		rep("HDFS-E24", r1)
	case "redundant-add":
		seq = normalSession(replication, rng)
		rep("HDFS-E27", 1+rng.Intn(2))
		rep("HDFS-E1", rng.Intn(2)+1)
	case "delete-failure":
		seq = []string{"HDFS-E22"}
		for r := 0; r < replication; r++ {
			seq = append(seq, "HDFS-E5", "HDFS-E11", "HDFS-E9", "HDFS-E26")
		}
		rep("HDFS-E20", r1)
		rep("HDFS-E21", rng.Intn(replication))
	case "transfer-failure":
		seq = []string{"HDFS-E22", "HDFS-E5", "HDFS-E11", "HDFS-E9", "HDFS-E26"}
		rep("HDFS-E17", 1+rng.Intn(2))
		rep("HDFS-E25", 1+rng.Intn(2))
	case "empty-packet":
		seq = []string{"HDFS-E22"}
		rep("HDFS-E5", 1+rng.Intn(replication))
		rep("HDFS-E13", 1+rng.Intn(2))
		rep("HDFS-E14", r1)
		rep("HDFS-E8", rng.Intn(2)+1)
	case "serving-exception":
		seq = normalSession(replication, rng)
		rep("HDFS-E3", r1)
		rep("HDFS-E4", 1+rng.Intn(2))
	case "replication-timeout":
		got := 1 + rng.Intn(replication)
		seq = []string{"HDFS-E22"}
		rep("HDFS-E5", got)
		rep("HDFS-E11", got)
		rep("HDFS-E9", got)
		rep("HDFS-E26", got)
		rep("HDFS-E29", r1)
		rep("HDFS-E25", 1+rng.Intn(2))
	case "offset-anomaly":
		// Stale-replica registration: addStoredBlock requests for a block
		// that no longer belongs to any file.
		seq = []string{"HDFS-E22"}
		rep("HDFS-E5", replication)
		for r := 0; r < replication; r++ {
			seq = append(seq, "HDFS-E11", "HDFS-E9", "HDFS-E26")
		}
		rep("HDFS-E28", 1+rng.Intn(2))
		rep("HDFS-E26", 1)
	default:
		seq = normalSession(replication, rng)
	}
	return seq
}

// interleave merges per-session message queues into one stream, preserving
// intra-session order while mixing sessions randomly, approximating the
// arrival order of a multiplexed cluster log.
func interleave(sessions [][]core.LogMessage, total int, rng *rand.Rand) []core.LogMessage {
	out := make([]core.LogMessage, 0, total)
	// active holds indices of sessions with messages remaining.
	active := make([]int, len(sessions))
	pos := make([]int, len(sessions))
	for i := range sessions {
		active[i] = i
	}
	for len(active) > 0 {
		k := rng.Intn(len(active))
		s := active[k]
		out = append(out, sessions[s][pos[s]])
		pos[s]++
		if pos[s] == len(sessions[s]) {
			active[k] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
	return out
}
