package eventstore

import (
	"encoding/binary"
	"slices"

	"logparse/internal/seglog"
)

// The template column of an EVB3 block is an order-0 canonical Huffman
// code whose alphabet is the block's own footer: symbol i is the inverted
// index's i-th template (ascending id), then the unmatched sentinel −1 when
// count > matched, each weighted by its count. Writer and reader build the
// code from those counts with the same function, so the block carries no
// code table and a reader trusts no count the checksum has not covered.

const (
	// maxCodeLen caps a code's length; weights are halved until the code
	// fits. A footer of at most maxFooterBytes holds at most 2^22 symbols
	// (an index entry takes two bytes or more), which equal weights code in
	// 22 bits, so the halving always ends.
	maxCodeLen = 24
	// tableBits is the decoder's one-lookup reach; longer codes take the
	// canonical slow path.
	tableBits = 11
)

// huffman is one block's code, rebuilt per block in buffers reused from
// block to block.
type huffman struct {
	syms   []int32  // symbol → template id
	weight []uint32 // symbol → events
	lens   []uint8  // symbol → code length in bits
	codes  []uint32 // symbol → code, right-aligned
	maxLen uint

	order []uint64 // weight<<32 | symbol, by weight then symbol
	tmp   []uint64 // the sort's other buffer
	depth []uint32 // minRedundancy's work array

	// The decoder: a table over the next tb bits, entries symbol<<5 |
	// length+1 (0: a longer code), and per longer length its first code,
	// symbol count and offset into perm, the symbols by (length, symbol).
	tb                 uint
	table              []uint32
	first, count, offs [maxCodeLen + 1]uint32
	perm               []uint32
	hist               []uint32 // walk's symbol → events decoded
	want               []bool   // and symbol → the walk's caller wants it
}

// alphabet loads a block's symbols: the footer index's templates and
// counts, then the unmatched sentinel's.
func (h *huffman) alphabet(index []IndexEntry, unmatched uint32) {
	h.syms, h.weight = h.syms[:0], h.weight[:0]
	for _, e := range index {
		h.syms, h.weight = append(h.syms, e.Template), append(h.weight, uint32(e.Count))
	}
	if unmatched > 0 {
		h.syms, h.weight = append(h.syms, -1), append(h.weight, unmatched)
	}
}

// build gives every symbol its length and canonical code — a Huffman code
// over the weights, ties broken by symbol index, capped at maxCodeLen by
// halving the weights until it fits; codes ascend by (length, symbol), as
// DEFLATE's do; a lone symbol's code is empty — and readies the decoder.
func (h *huffman) build() {
	n := len(h.weight)
	h.lens, h.codes = slices.Grow(h.lens[:0], n)[:n], slices.Grow(h.codes[:0], n)[:n]
	h.maxLen, h.count = 0, [maxCodeLen + 1]uint32{}
	h.order, h.tmp = h.order[:0], slices.Grow(h.tmp[:0], n)[:n]
	var heaviest uint32
	for s, w := range h.weight {
		h.order = append(h.order, uint64(w)<<32|uint64(s))
		heaviest = max(heaviest, w)
	}
	// A stable radix sort on the weight, a byte a pass: symbol order holds
	// among equal weights.
	for shift := 32; heaviest>>(shift-32) > 0; shift += 8 {
		var at [257]int
		for _, o := range h.order {
			at[int(byte(o>>shift))+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, o := range h.order {
			h.tmp[at[byte(o>>shift)]] = o
			at[byte(o>>shift)]++
		}
		h.order, h.tmp = h.tmp, h.order
	}
	h.depth = slices.Grow(h.depth[:0], n)[:n]
	for shift := 0; n > 1; shift++ {
		for i, o := range h.order {
			h.depth[i] = max(1, uint32(o>>32)>>shift)
		}
		minRedundancy(h.depth)
		if h.depth[0] <= maxCodeLen { // the lightest symbol's code is the longest
			break
		}
	}
	if n == 1 {
		h.depth[0] = 0
	}
	for i, o := range h.order {
		h.lens[uint32(o)] = uint8(h.depth[i])
		h.count[h.depth[i]]++
	}
	h.maxLen, h.count[0] = uint(h.depth[0]), 0
	next := h.first
	for l, off := 1, uint32(0); l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + h.count[l-1]) << 1
		h.first[l], h.offs[l] = next[l], off
		off += h.count[l]
	}
	h.tb = min(tableBits, h.maxLen)
	h.table = slices.Grow(h.table[:0], 1<<h.tb)[:1<<h.tb]
	clear(h.table)
	h.perm = slices.Grow(h.perm[:0], n)[:n]
	h.hist, h.want = slices.Grow(h.hist[:0], n)[:n], slices.Grow(h.want[:0], n)[:n]
	pos := h.offs
	for s, l := range h.lens {
		h.codes[s] = next[l]
		next[l]++
		if uint(l) > h.tb {
			h.perm[pos[l]] = uint32(s)
			pos[l]++
			continue
		}
		span := uint32(1) << (h.tb - uint(l))
		for i := h.codes[s] * span; i < (h.codes[s]+1)*span; i++ {
			h.table[i] = uint32(s)<<5 | uint32(l+1)
		}
	}
}

// minRedundancy overwrites a, at least two weights in ascending order, with
// their Huffman code lengths — Moffat and Katajainen's in-place algorithm
// ("In-place calculation of minimum-redundancy codes", 1995).
func minRedundancy(a []uint32) {
	n := len(a)
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next], a[root] = a[root], uint32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || root < next && a[root] < a[leaf] {
			a[next] += a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, uint32(0)
	for root, next := n-2, n-1; avail > 0; depth++ {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
		avail, used = 2*used, 0
	}
}

// appendColumn appends the template column of events whose symbols are
// symOf[slot] for their slots, MSB-first and zero-padded to a byte.
func (h *huffman) appendColumn(dst []byte, slots, symOf []uint32) []byte {
	var acc uint64
	var nb uint
	for _, slot := range slots {
		s := symOf[slot]
		acc = acc<<h.lens[s] | uint64(h.codes[s])
		for nb += uint(h.lens[s]); nb >= 8; {
			nb -= 8
			dst = append(dst, byte(acc>>nb))
		}
	}
	if nb > 0 {
		dst = append(dst, byte(acc<<(8-nb)))
	}
	return dst
}

// walk decodes a column of count codes, MSB-first, calling hit with the
// position and template of each event whose symbol is wanted; hit's error
// stops it. A walk that reaches the end verifies that the codes end in the
// column's last byte, whose padding bits are zero, and that they spell the
// footer index's histogram.
func (h *huffman) walk(col []byte, count uint32, hit func(p uint32, t int32) error) error {
	var bits uint64 // loaded and not yet read, MSB-aligned
	var n uint      // how many
	pos := 0        // the next byte to load; past the column's end, zeros load
	clear(h.hist)
	for p := uint32(0); p < count; p++ {
		if n < maxCodeLen && pos+8 <= len(col) {
			// The 8-byte load also sets bits below the n it counts: the
			// next byte's own, which loading it again ORs in unchanged.
			bits |= binary.BigEndian.Uint64(col[pos:]) >> n
			pos, n = pos+int(64-n)/8, n+(64-n)/8*8
		} else if n < maxCodeLen {
			for ; n <= 56; n += 8 {
				if pos < len(col) {
					bits |= uint64(col[pos]) << (56 - n)
				}
				pos++
			}
		}
		// An entry is symbol<<5 | length+1, so a lone symbol's empty code
		// is the table's one entry; 0 is a code the table cannot reach.
		e := h.table[bits>>(64-h.tb)]
		if e == 0 {
			if e = h.slow(bits); e == 0 {
				return &seglog.CorruptError{Reason: "bad template code"}
			}
		}
		bits, n = bits<<(e&31-1), n-uint(e&31-1)
		h.hist[e>>5]++
		if h.want[e>>5] {
			if err := hit(p, h.syms[e>>5]); err != nil {
				return err
			}
		}
	}
	if pad := 8*len(col) - (8*pos - int(n)); pad < 0 || pad > 7 || pad > 0 && bits>>(64-pad) != 0 {
		return &seglog.CorruptError{Reason: "template column does not end where its codes do"}
	}
	if !slices.Equal(h.hist, h.weight) {
		return &seglog.CorruptError{Reason: "template column disagrees with the footer index"}
	}
	return nil
}

// slow looks up a code longer than the table reaches, returning its table
// entry: 0 when the bits spell no code.
func (h *huffman) slow(bits uint64) uint32 {
	for l := h.tb + 1; l <= h.maxLen; l++ {
		if d := uint32(bits>>(64-l)) - h.first[l]; d < h.count[l] {
			return h.perm[h.offs[l]+d]<<5 | uint32(l+1)
		}
	}
	return 0
}
