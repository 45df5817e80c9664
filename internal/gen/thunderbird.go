package gen

import (
	"fmt"
	"math/rand"
	"time"
)

// Thunderbird models the Sandia Thunderbird supercomputer syslog (loghub's
// sample: ~149 event types spanning kernel, daemon and hardware messages of
// 1–120 tokens). Thunderbird is the widest vocabulary and length range in
// the extended suite: single-token kernel markers coexist with long
// stack-dump style lines, stressing both Drain's length-keyed routing and
// Spell's LCS acceptance threshold.

const thunderbirdEvents = 149

var thunderbirdHead = []Spec{
	MustSpec("TB-E1", "session opened for user <user> by (uid=<int>)"),
	MustSpec("TB-E2", "session closed for user <user>"),
	MustSpec("TB-E3", "Accepted password for <user> from <ipb> port <int> ssh2"),
	MustSpec("TB-E4", "Failed password for <user> from <ipb> port <int> ssh2"),
	MustSpec("TB-E5", "authentication failure; logname= uid=<int> euid=<int> tty=ssh ruser= rhost=<ipb>"),
	MustSpec("TB-E6", "connection from <ipb> () at <word>"),
	MustSpec("TB-E7", "IN=eth0 OUT= MAC=<hex> SRC=<ipb> DST=<ipb> LEN=<int> TOS=<hex> PREC=<hex> TTL=<int> ID=<int> PROTO=UDP SPT=<int> DPT=<int> LEN=<int>"),
	MustSpec("TB-E8", "synchronized to <ipb>, stratum <int>"),
	MustSpec("TB-E9", "kernel: imklog <flt>, log source = <path> started."),
	MustSpec("TB-E10", "kernel: martian source <ipb> from <ipb>, on dev eth0"),
	MustSpec("TB-E11", "kernel: CPU<int>: Temperature above threshold, cpu clock throttled"),
	MustSpec("TB-E12", "kernel: EXT3-fs: mounted filesystem <word> with ordered data mode."),
	MustSpec("TB-E13", "kernel: scsi(<int>): Waiting for LIP to complete..."),
	MustSpec("TB-E14", "kernel: sda: Current: sense key: Medium Error Add. Sense: Unrecovered read error sector <big>"),
	MustSpec("TB-E15", "kernel: EDAC MC<int>: CE page <hex>, offset <hex>, grain <int>, syndrome <hex>, row <int>, channel <int>"),
	MustSpec("TB-E16", "pbs_mom: Bad file descriptor (<int>) in tm_request, job <int>.<word> not running"),
	MustSpec("TB-E17", "check-host-alive: command timed out after <int> seconds on host <node>"),
	MustSpec("TB-E18", "ntpd exiting on signal <int>"),
	MustSpec("TB-E19", "crond(pam_unix)[<int>]: session opened for user root by (uid=<int>)"),
	MustSpec("TB-E20", "postfix/smtpd[<int>]: connect from unknown[<ipb>]"),
	MustSpec("TB-E21", "postfix/smtpd[<int>]: lost connection after CONNECT from unknown[<ipb>]"),
	MustSpec("TB-E22", "xinetd[<int>]: START: auth pid=<int> from=<ipb>"),
	MustSpec("TB-E23", "sshd[<int>]: error: Could not get shadow information for <user>"),
	MustSpec("TB-E24", "in.tftpd[<int>]: RRQ from <ipb> filename <path>"),
	MustSpec("TB-E25", "dhcpd: DHCPDISCOVER from <hex> via eth1"),
	MustSpec("TB-E26", "dhcpd: DHCPOFFER on <ipb> to <hex> via eth1"),
	MustSpec("TB-E27", "gmond: <word> socket connection refused on port <int>"),
	MustSpec("TB-E28", "updating!"),
}

// thunderbird is Thunderbird's row in the dataset table (registry.go).
var thunderbird = &Catalog{
	Name:     "Thunderbird",
	FullSize: 211212192,
	// "- 1131566461 2005.11.09 dn228 Nov 9 12:01:01 dn228/dn228 crond(pam_unix)[2915]: <content>"
	Header: Header{Fields: 9, render: func(ts time.Time, rng *rand.Rand) string {
		node := fmt.Sprintf("dn%d", rng.Intn(1024))
		comps := []string{
			"crond(pam_unix)", "sshd", "ntpd", "kernel", "pbs_mom",
			"postfix/smtpd", "xinetd", "dhcpd",
		}
		return fmt.Sprintf("- %d %s %s %s %s/%s %s[%d]:",
			ts.Unix(), ts.Format("2006.01.02"), node,
			ts.Format("Jan 2 15:04:05"), node, node,
			comps[rng.Intn(len(comps))], rng.Intn(32768))
	}},
	Tuned:  Tuned{SLCTSupportFrac: 0.005, LKESplitRatio: 0.25, LogSigGroups: 130},
	Floors: map[string]float64{"Drain": 0.95, "Spell": 0.93},
	specs: func() []Spec {
		style := synthStyle{
			prefixes:     []string{"kernel:", "sshd:", "pbs_mom:", "ntpd:", "dhcpd:", "xinetd:"},
			fieldPalette: []Field{FieldInt, FieldIPBare, FieldHex, FieldUser, FieldPath, FieldBigInt},
			fieldProb:    0.35,
			longTailProb: 0.08,
		}
		tail := synthesizeSpecs("TB", 0x7B1D, thunderbirdEvents-len(thunderbirdHead), 3, 120, style, thunderbirdHead)
		return append(append([]Spec(nil), thunderbirdHead...), tail...)
	},
}

// Thunderbird returns the Thunderbird syslog dataset catalogue.
func Thunderbird() *Catalog { return thunderbird.built() }
