// Command loggen generates the toolkit's synthetic evaluation datasets.
//
// Line-oriented datasets (BGL, HPC, Proxifier, HDFS, Zookeeper):
//
//	loggen -dataset BGL -lines 100000 -out bgl.log
//
// Session-structured HDFS with labelled anomalies (for anomaly detection):
//
//	loggen -dataset HDFS -sessions 10000 -rate 0.029 -out hdfs.log -labels hdfs.labels
//
// Output lines are tab-separated "truthID<TAB>session<TAB>content", the
// annotated format every tool in this module reads; the labels file lists
// "blockID<TAB>anomalous".
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"logparse"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loggen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataset  = flag.String("dataset", "HDFS", "dataset name (BGL, HPC, Proxifier, HDFS, Zookeeper, Hadoop, Spark, Thunderbird)")
		lines    = flag.Int("lines", 10000, "number of log lines (line-oriented mode)")
		sessions = flag.Int("sessions", 0, "number of HDFS block sessions (session mode; HDFS only)")
		rate     = flag.Float64("rate", 0.0293, "anomalous session fraction (session mode)")
		seed     = flag.Int64("seed", 1, "generation seed")
		out      = flag.String("out", "", "output file (default stdout)")
		labels   = flag.String("labels", "", "labels output file (session mode)")
		list     = flag.Bool("list", false, "list datasets with their Table I summary and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range logparse.Datasets() {
			s, err := logparse.SummarizeDataset(name)
			if err != nil {
				return err
			}
			fmt.Printf("%-10s full-size=%-9d events=%-4d length=%d~%d\n",
				s.System, s.NumLogs, s.NumEvents, s.MinLength, s.MaxLength)
		}
		return nil
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if *sessions > 0 {
		if !strings.EqualFold(*dataset, "HDFS") {
			return fmt.Errorf("session mode is only available for HDFS, got %q", *dataset)
		}
		data, err := logparse.GenerateHDFSSessions(logparse.HDFSSessionOptions{
			Seed: *seed, Sessions: *sessions, AnomalyRate: *rate,
		})
		if err != nil {
			return err
		}
		if err := logparse.WriteMessages(w, data.Messages); err != nil {
			return err
		}
		if *labels != "" {
			if err := writeLabels(*labels, data.Labels); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "loggen: %d lines, %d sessions, %d anomalies\n",
			len(data.Messages), *sessions, data.NumAnomalies())
		return nil
	}

	cat, err := logparse.Dataset(*dataset)
	if err != nil {
		return err
	}
	msgs := cat.Generate(*seed, *lines)
	if err := logparse.WriteMessages(w, msgs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loggen: %d lines of %s\n", len(msgs), cat.Name)
	return nil
}

func writeLabels(path string, labels map[string]bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := bw.WriteString(k + "\t" + strconv.FormatBool(labels[k]) + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
