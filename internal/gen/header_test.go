package gen

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

var testTime = time.Date(2008, 11, 9, 20, 35, 32, 0, time.UTC)

func TestRenderStripRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	content := "Receiving block blk_1 src: /10.0.0.1:4000 dest: /10.0.0.2:50010"
	for _, c := range datasets {
		t.Run(c.Name, func(t *testing.T) {
			line := c.Header.Render(content, testTime, rng)
			if got := c.Header.Strip(line); got != content {
				t.Errorf("Strip(Render(x)) = %q, want %q\nline: %q", got, content, line)
			}
		})
	}
}

func TestStripShortLinePassesThrough(t *testing.T) {
	short := "too short"
	if got := HDFS().Header.Strip(short); got != short {
		t.Errorf("short line mangled: %q", got)
	}
}

func TestStripHandlesExtraWhitespace(t *testing.T) {
	line := "081109  203615   148  INFO  dfs.FSNamesystem:   BLOCK* allocate done"
	if got := HDFS().Header.Strip(line); got != "BLOCK* allocate done" {
		t.Errorf("Strip = %q", got)
	}
}

func TestHeaderForDataset(t *testing.T) {
	for _, name := range []string{"HDFS", "bgl", "HPC", "Zookeeper", "proxifier", "Hadoop", "spark", "Thunderbird"} {
		c, err := ByName(name)
		if err != nil || c.Header.Fields <= 0 {
			t.Errorf("ByName(%q) has no header (err %v)", name, err)
		}
	}
	if _, err := ByName("unknown"); err == nil {
		t.Error("unknown dataset matched a header")
	}
}

func TestHeaderFieldCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range datasets {
		h := c.Header
		line := h.Render("CONTENT_MARKER rest of message", testTime, rng)
		fields := strings.Fields(line)
		if len(fields) < h.Fields+2 {
			t.Fatalf("%s rendered too few fields: %q", c.Name, line)
		}
		if fields[h.Fields] != "CONTENT_MARKER" {
			t.Errorf("%s: Fields=%d does not align with rendered header: %q",
				c.Name, h.Fields, line)
		}
	}
}

func TestHDFSExampleFromPaper(t *testing.T) {
	// The Fig. 1 / §I example line.
	line := "2008-11-09 20:35:32,146 INFO dfs.DataNode$DataXceiver: Receiving block blk_-1608999687919862906 src: /10.251.31.5:42506 dest: /10.251.31.5:50010"
	h := Header{Fields: 4}
	got := h.Strip(line)
	want := "Receiving block blk_-1608999687919862906 src: /10.251.31.5:42506 dest: /10.251.31.5:50010"
	if got != want {
		t.Errorf("Strip = %q, want %q", got, want)
	}
}
