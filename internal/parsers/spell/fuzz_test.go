package spell

import (
	"strings"
	"testing"
)

// LCS returns one longest common subsequence of a and b by the full-table
// DP with backtrack — the oracle the production length kernels (lcsBits,
// lcsLen) are held to. Ties during backtracking prefer consuming from the
// tail of a.
func LCS(a, b []string) []string {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	dp := make([][]int, len(a)+1)
	for i := range dp {
		dp[i] = make([]int, len(b)+1)
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			switch {
			case a[i-1] == b[j-1]:
				dp[i][j] = dp[i-1][j-1] + 1
			case dp[i-1][j] >= dp[i][j-1]:
				dp[i][j] = dp[i-1][j]
			default:
				dp[i][j] = dp[i][j-1]
			}
		}
	}
	out := make([]string, 0, dp[len(a)][len(b)])
	for i, j := len(a), len(b); i > 0 && j > 0; {
		switch {
		case a[i-1] == b[j-1]:
			out = append(out, a[i-1])
			i--
			j--
		case dp[i-1][j] >= dp[i][j-1]:
			i--
		default:
			j--
		}
	}
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}

// checkKernels runs both production kernels the way search does — line a
// looked up in an intern table that knows only b's tokens, b as an object's
// constants (so never "*") — and holds them to the oracle. The bit-vector
// kernel takes lines of at most 64 tokens; the DP takes any.
func checkKernels(t testing.TB, a, b []string) {
	t.Helper()
	s := NewStream(Options{})
	consts := s.add(append([]string(nil), b...)).consts
	constStrs := refConstants(b)
	want := len(LCS(a, constStrs))
	ids := make([]uint32, len(a))
	for i, tok := range a {
		ids[i] = s.intern[tok]
	}
	if got := s.lcsLen(ids, consts); got != want {
		t.Fatalf("lcsLen(%q, %q) = %d, oracle %d", a, constStrs, got, want)
	}
	if len(a) > 64 {
		return
	}
	for i, id := range ids {
		s.masks[id] |= 1 << i
	}
	if got := lcsBits(s.masks, consts); got != want {
		t.Fatalf("lcsBits(%q, %q) = %d, oracle %d", a, constStrs, got, want)
	}
}

// FuzzSpellLCS holds the production LCS-length kernels to the oracle. The
// seeds under testdata/fuzz sit at 1, 63, 64, 65 and 120 tokens, repeat
// tokens and put a literal "*" in the line.
func FuzzSpellLCS(f *testing.F) {
	f.Add("a b c d", "a x c y")
	f.Add("", "anything at all")
	f.Add("same same same", "same same same")
	f.Add("one two three four five", "five four three two one")
	f.Add("a * b * c", "a b * c")
	f.Fuzz(func(t *testing.T, sa, sb string) {
		a, b := strings.Fields(sa), strings.Fields(sb)
		if len(a) > 130 {
			a = a[:130]
		}
		if len(b) > 130 {
			b = b[:130]
		}
		checkKernels(t, a, b)
	})
}

// FuzzSpellLearnEquivalence replays arbitrary line batches through the
// learner and the reference learner (spell_test.go) under one of three Tau
// values, with a Snapshot→Restore half way that the live learner also runs
// past: every (idx, changed), the final templates and the snapshot bytes
// must agree.
func FuzzSpellLearnEquivalence(f *testing.F) {
	f.Add("a b c d\na b x y\na q r s\np b c z\na b c d", byte(1))
	f.Add("a b c d e f g h i j\na b c 1 2 3 4 5 6 7\na b c d 2 3 4 5 6 7", byte(0))
	f.Add("a * c\na b c\n* * *\na b *\nx\ny", byte(2))
	// None of the seeds above or under testdata founds nine objects of one
	// length; these do, in their first half, so the Restore lands in an
	// indexed bucket and the second half's misses go through the index.
	indexed := indexedCases()
	for _, n := range []int{6, 65} {
		for tauSel := byte(0); tauSel < 3; tauSel++ {
			f.Add(strings.Join(indexed[n], "\n"), tauSel)
		}
	}
	f.Fuzz(func(t *testing.T, data string, tauSel byte) {
		tau := []float64{0.3, 0.5, 1.0}[int(tauSel)%3]
		lines := strings.Split(data, "\n")
		if len(lines) > 48 {
			lines = lines[:48]
		}
		for i, l := range lines {
			if len(l) > 400 {
				lines[i] = l[:400]
			}
		}
		diffLearn(t, NewStream(Options{Tau: tau}), &refLearner{tau: tau}, lines)
		diffLearnRestore(t, tau, lines)
	})
}
