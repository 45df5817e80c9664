package gen

import (
	"fmt"
	"math/rand"
	"time"

	"logparse/internal/tokenize"
)

// Zookeeper models the lab-collected Zookeeper log (Table I: 74,380 lines,
// 80 event types, lengths 8–27 tokens). The head reproduces the familiar
// quorum/session events; the synthesiser fills the 80-event vocabulary.

const zookeeperEvents = 80

var zookeeperHead = []Spec{
	MustSpec("ZK-E1", "Received connection request <ip>"),
	MustSpec("ZK-E2", "Accepted socket connection from <ip>"),
	MustSpec("ZK-E3", "Closed socket connection for client <ip> which had sessionid <sess>"),
	MustSpec("ZK-E4", "Client attempting to establish new session at <ip>"),
	MustSpec("ZK-E5", "Established session <sess> with negotiated timeout <int> for client <ip>"),
	MustSpec("ZK-E6", "Expiring session <sess>, timeout of <dur> exceeded"),
	MustSpec("ZK-E7", "Processed session termination for sessionid: <sess>"),
	MustSpec("ZK-E8", "caught end of stream exception: Unable to read additional data from client sessionid <sess>, likely client has closed socket"),
	MustSpec("ZK-E9", "Connection broken for id <int>, my id = <int>, error = java.io.EOFException"),
	MustSpec("ZK-E10", "Interrupting SendWorker thread for id <int>"),
	MustSpec("ZK-E11", "Send worker leaving thread id <int>"),
	MustSpec("ZK-E12", "Notification: <int> (n.leader), <zxid> (n.zxid), <int> (n.round), FOLLOWING (n.state), <int> (n.sid), LOOKING (my state)"),
	MustSpec("ZK-E13", "New election. My id = <int>, proposed zxid=<zxid>"),
	MustSpec("ZK-E14", "Snapshotting: <zxid> to <path>"),
	MustSpec("ZK-E15", "Reading snapshot <path>"),
	MustSpec("ZK-E16", "Got user-level KeeperException when processing sessionid:<sess> type:create cxid:<hex> zxid:<zxid> txntype:-1 reqpath:n/a Error Path:<path> Error:KeeperErrorCode = NodeExists"),
	MustSpec("ZK-E17", "Cannot open channel to <int> at election address <ip>"),
	MustSpec("ZK-E18", "Connection request from old client <ip>; will be dropped if server is in r-o mode"),
	MustSpec("ZK-E19", "Exception causing close of session <sess> due to java.io.IOException: ZooKeeperServer not running"),
	MustSpec("ZK-E20", "Follower sid: <int> : info : org.apache.zookeeper.server.quorum.QuorumPeer$QuorumServer@<hex>"),
	MustSpec("ZK-E21", "Accepted epoch <zxid> from leader <int> on <node>"),
	MustSpec("ZK-E22", "Synchronized with leader <int> in <dur>, zxid <zxid>"),
	MustSpec("ZK-E23", "shutdown of request processor complete"),
	MustSpec("ZK-E24", "FOLLOWING - LEADER ELECTION TOOK - <int>"),
}

// zookeeper is Zookeeper's row in the dataset table (registry.go).
var zookeeper = &Catalog{
	Name:     "Zookeeper",
	Paper:    true,
	FullSize: 74380,
	Rules:    []tokenize.Rule{tokenize.RuleIP},
	// "2015-07-29 17:41:41,648 - INFO  [QuorumPeer:/0.0.0.0:2181] - <content>"
	Header: Header{Fields: 6, render: func(ts time.Time, rng *rand.Rand) string {
		sev := []string{"INFO", "WARN", "ERROR"}
		threads := []string{
			"[QuorumPeer:/0.0.0.0:2181]", "[main:QuorumPeerMain@127]",
			"[SyncThread:0:FileTxnLog@199]", "[NIOServerCxn.Factory:0.0.0.0/0.0.0.0:2181]",
		}
		return fmt.Sprintf("%s - %s %s -",
			ts.Format("2006-01-02 15:04:05,000"), sev[rng.Intn(len(sev))],
			threads[rng.Intn(len(threads))])
	}},
	Tuned: Tuned{SLCTSupportFrac: 0.005, LKESplitRatio: 0.25, LogSigGroups: 60},
	// The low SLCT floor is faithful: Table II reports that weakness on raw
	// input.
	Floors: map[string]float64{"SLCT": 0.34, "IPLoM": 0.95, "LKE": 0.95, "LogSig": 0.62, "Drain": 0.97, "Spell": 0.97},
	specs: func() []Spec {
		style := synthStyle{
			prefixes:     []string{"quorum:", "txn:", "snap:", "elect:"},
			fieldPalette: []Field{FieldSession, FieldZxid, FieldIP, FieldInt, FieldPath},
			fieldProb:    0.35,
			longTailProb: 0.0,
		}
		tail := synthesizeSpecs("ZK", 0x200, zookeeperEvents-len(zookeeperHead), 8, 27, style, zookeeperHead)
		return append(append([]Spec(nil), zookeeperHead...), tail...)
	},
}

// Zookeeper returns the Zookeeper dataset catalogue.
func Zookeeper() *Catalog { return zookeeper.built() }
