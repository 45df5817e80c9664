package gen

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Hadoop models a MapReduce/YARN application log (loghub's Hadoop sample:
// ~114 event types, container- and attempt-centric messages of 3–45
// tokens). The head reproduces the well-known resource-manager and
// task-attempt events; the synthesiser fills the vocabulary.

const hadoopEvents = 114

var hadoopHead = []Spec{
	MustSpec("HD-E1", "Progress of TaskAttempt attempt_<big>_<int>_m_<int>_<int> is : <flt>"),
	MustSpec("HD-E2", "TaskAttempt: [attempt_<big>_<int>_m_<int>_<int>] using containerId: [container_<big>_<int>_<int>_<int> on NM: [<host>]"),
	MustSpec("HD-E3", "attempt_<big>_<int>_m_<int>_<int> TaskAttempt Transitioned from NEW to UNASSIGNED"),
	MustSpec("HD-E4", "attempt_<big>_<int>_m_<int>_<int> TaskAttempt Transitioned from UNASSIGNED to ASSIGNED"),
	MustSpec("HD-E5", "attempt_<big>_<int>_m_<int>_<int> TaskAttempt Transitioned from RUNNING to SUCCEEDED"),
	MustSpec("HD-E6", "task_<big>_<int>_m_<int> Task Transitioned from NEW to SCHEDULED"),
	MustSpec("HD-E7", "task_<big>_<int>_m_<int> Task Transitioned from SCHEDULED to RUNNING"),
	MustSpec("HD-E8", "Num completed Tasks: <int>"),
	MustSpec("HD-E9", "Assigned container container_<big>_<int>_<int>_<int> to attempt_<big>_<int>_m_<int>_<int>"),
	MustSpec("HD-E10", "Received completed container container_<big>_<int>_<int>_<int>"),
	MustSpec("HD-E11", "After Scheduling: PendingReds:<int> ScheduledMaps:<int> ScheduledReds:<int> AssignedMaps:<int> AssignedReds:<int> CompletedMaps:<int> CompletedReds:<int> ContAlloc:<int> ContRel:<int> HostLocal:<int> RackLocal:<int>"),
	MustSpec("HD-E12", "getResources() for application_<big>_<int>: ask=<int> release= <int> newContainers=<int> finishedContainers=<int> resourcelimit=<word> knownNMs=<int>"),
	MustSpec("HD-E13", "Event Writer setup for JobId: job_<big>_<int>, File: <path>"),
	MustSpec("HD-E14", "Job init failed : org.apache.hadoop.yarn.exceptions.YarnRuntimeException: java.io.FileNotFoundException: File does not exist: <path>"),
	MustSpec("HD-E15", "Error contacting RM. java.io.IOException: com.google.protobuf.ServiceException: java.net.ConnectException: Call From <node> to <host> failed on connection exception"),
	MustSpec("HD-E16", "Failed to renew lease for [DFSClient_NONMAPREDUCE_<int>_<int>] for <int> seconds. Will retry shortly ..."),
	MustSpec("HD-E17", "Address change detected. Old: <host> New: <host>"),
	MustSpec("HD-E18", "DeadNode detection: node <node> marked dead after <int> failed probes"),
	MustSpec("HD-E19", "Retrying connect to server: <host> Already tried <int> time(s); retry policy is RetryUpToMaximumCountWithFixedSleep(maxRetries=<int>, sleepTime=<int> MILLISECONDS)"),
	MustSpec("HD-E20", "Reduce slow start threshold not met. completedMapsForReduceSlowstart <int>"),
	MustSpec("HD-E21", "JOB_SETUP_COMPLETED for job job_<big>_<int>"),
	MustSpec("HD-E22", "Recovered attempt attempt_<big>_<int>_r_<int>_<int> from prior application attempt"),
	MustSpec("HD-E23", "Commit go/no-go request from attempt_<big>_<int>_r_<int>_<int>"),
	MustSpec("HD-E24", "Result of canCommit for attempt_<big>_<int>_r_<int>_<int>:true"),
	MustSpec("HD-E25", "Saved output of task 'attempt_<big>_<int>_r_<int>_<int>' to <path>"),
	MustSpec("HD-E26", "Moving tmp dir: <path> to: <path>"),
	MustSpec("HD-E27", "Shuffle port returned by ContainerManager for attempt_<big>_<int>_m_<int>_<int> : <int>"),
	MustSpec("HD-E28", "Processing split: <path>:<big>+<size>"),
	MustSpec("HD-E29", "Spilling map output: record full = true buffer used <size> of <size>"),
}

// hadoop is Hadoop's row in the dataset table (registry.go).
var hadoop = &Catalog{
	Name:     "Hadoop",
	FullSize: 394308,
	// "2015-10-18 18:01:47,978 INFO [main] org.apache.hadoop.mapreduce.v2.app.MRAppMaster: <content>"
	Header: Header{Fields: 5, render: func(ts time.Time, rng *rand.Rand) string {
		sev := []string{"INFO", "WARN", "ERROR"}
		procs := []string{"[main]", "[RMCommunicator Allocator]", "[AsyncDispatcher event handler]", "[IPC Server handler 0 on 62270]", "[eventHandlingThread]"}
		comps := []string{
			"org.apache.hadoop.mapreduce.v2.app.MRAppMaster:",
			"org.apache.hadoop.mapreduce.v2.app.rm.RMContainerAllocator:",
			"org.apache.hadoop.mapreduce.v2.app.job.impl.TaskAttemptImpl:",
			"org.apache.hadoop.yarn.client.RMProxy:",
			"org.apache.hadoop.ipc.Client:",
		}
		// "[IPC Server handler ...]" spans several whitespace fields, so
		// the process tag must stay a single token for the header's field
		// count to hold; replace inner spaces.
		proc := strings.ReplaceAll(procs[rng.Intn(len(procs))], " ", "_")
		return fmt.Sprintf("%s %s %s %s",
			ts.Format("2006-01-02 15:04:05,000"), sev[rng.Intn(len(sev))],
			proc, comps[rng.Intn(len(comps))])
	}},
	Tuned:  Tuned{SLCTSupportFrac: 0.005, LKESplitRatio: 0.25, LogSigGroups: 100},
	Floors: map[string]float64{"Drain": 0.90, "Spell": 0.90},
	specs: func() []Spec {
		style := synthStyle{
			prefixes:     []string{"yarn:", "mapred:", "shuffle:", "rm:", "nm:"},
			fieldPalette: []Field{FieldInt, FieldBigInt, FieldHost, FieldPath, FieldSize, FieldDuration},
			fieldProb:    0.35,
			longTailProb: 0.04,
		}
		tail := synthesizeSpecs("HD", 0x5AD0, hadoopEvents-len(hadoopHead), 3, 45, style, hadoopHead)
		return append(append([]Spec(nil), hadoopHead...), tail...)
	},
}

// Hadoop returns the Hadoop MapReduce dataset catalogue.
func Hadoop() *Catalog { return hadoop.built() }
