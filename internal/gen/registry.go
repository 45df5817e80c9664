package gen

import (
	"fmt"
	"sort"
	"strings"

	"logparse/internal/core"
)

// FullHDFSSessions is the paper's number of block operation requests.
const FullHDFSSessions = 575061

// FullHDFSAnomalies is the paper's number of labelled anomalies.
const FullHDFSAnomalies = 16838

// datasets is the table of built-in datasets, one row each: the paper's
// five in its presentation order, then the extended catalogues.
var datasets = []*Catalog{bgl, hpc, proxifier, hdfs, zookeeper, hadoop, spark, thunderbird}

// Names lists the paper's datasets in its presentation order. Experiment
// sweeps, goldens and Table I all iterate this list.
var Names = names(true)

// ExtraNames lists catalogues beyond the paper's five — loghub-style systems
// added for the online-parser conformance suite. ByName resolves them like
// any other dataset, but the paper experiments never sweep them.
var ExtraNames = names(false)

func names(paper bool) []string {
	var out []string
	for _, c := range datasets {
		if c.Paper == paper {
			out = append(out, c.Name)
		}
	}
	return out
}

// AllNames returns the paper datasets followed by the extras.
func AllNames() []string {
	return append(append([]string(nil), Names...), ExtraNames...)
}

// ByName returns the catalogue for a dataset name (case-insensitive); an
// unknown name's error lists the known ones.
func ByName(name string) (*Catalog, error) {
	for _, c := range datasets {
		if strings.EqualFold(c.Name, name) {
			return c.built(), nil
		}
	}
	return nil, fmt.Errorf("gen: unknown dataset %q (want one of %s)",
		name, strings.Join(AllNames(), ", "))
}

// Summary is one row of Table I.
type Summary struct {
	System    string
	NumLogs   int
	MinLength int
	MaxLength int
	NumEvents int
}

// Summarize produces the Table I row for a dataset at its full size.
func Summarize(name string) (Summary, error) {
	c, err := ByName(name)
	if err != nil {
		return Summary{}, err
	}
	lo, hi := c.LengthRange()
	return Summary{
		System:    c.Name,
		NumLogs:   c.FullSize,
		MinLength: lo,
		MaxLength: hi,
		NumEvents: c.NumEvents(),
	}, nil
}

// DistinctEvents counts the distinct ground-truth events present in a
// sample — the paper notes a 400-line BGL sample carries ~60 of the 376
// events while 40k lines carry ~206.
func DistinctEvents(msgs []core.LogMessage) int {
	seen := make(map[string]bool)
	for _, m := range msgs {
		seen[m.TruthID] = true
	}
	return len(seen)
}

// TruthClusters groups message indices by ground-truth event, each cluster
// in message order; used by evaluation and by the ground-truth parser in
// RQ3.
func TruthClusters(msgs []core.LogMessage) map[string][]int {
	clusters := make(map[string][]int)
	for i, m := range msgs {
		clusters[m.TruthID] = append(clusters[m.TruthID], i)
	}
	return clusters
}

// TruthResult builds the "exactly correct parsed result" used as the Table
// III ground-truth row: one template per ground-truth event, every message
// assigned to its true event.
func TruthResult(msgs []core.LogMessage) *core.ParseResult {
	clusters := TruthClusters(msgs)
	ids := make([]string, 0, len(clusters))
	for id := range clusters {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	res := &core.ParseResult{
		Templates:  make([]core.Template, len(ids)),
		Assignment: make([]int, len(msgs)),
	}
	for t, id := range ids {
		seqs := make([][]string, 0, len(clusters[id]))
		for _, idx := range clusters[id] {
			seqs = append(seqs, msgs[idx].Tokens)
		}
		res.Templates[t] = core.Template{ID: id, Tokens: core.TemplateFromCluster(seqs)}
		for _, idx := range clusters[id] {
			res.Assignment[idx] = t
		}
	}
	return res
}
