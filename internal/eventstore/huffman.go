package eventstore

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"logparse/internal/seglog"
)

// The template column of an EVB3 block is an order-0 canonical Huffman
// code whose alphabet is the block's own footer: symbol i is the inverted
// index's i-th template (ascending id), then the unmatched sentinel −1 when
// count > matched, each weighted by its count. Writer and reader build the
// code from those counts with the same function, so the block carries no
// code table and a reader trusts no count the checksum has not covered.
//
// An EVB4 block splits the same alphabet by weight. A sparse symbol, one
// of at most sparseMax events, is stored as the ascending list of its
// in-block positions, bits.Len32(count−1) bits each, in the sparse section
// before the column; the code covers the other symbols only. The footer
// says which symbols are sparse and how long each list is, so a reader
// finds a rare template's positions without building the code or walking
// the column.

const (
	// maxCodeLen caps a code's length; weights are halved until the code
	// fits. A footer of at most maxFooterBytes holds at most 2^22 symbols
	// (an index entry takes two bytes or more), which equal weights code in
	// 22 bits, so the halving always ends.
	maxCodeLen = 24
	// tableBits is the decoder's one-lookup reach; longer codes take the
	// canonical slow path.
	tableBits = 11
	// sparseMax is the most events a symbol of an EVB4 block may have and
	// be sparse: a list of that many positions is about as long as the
	// symbol's codes would be, and most of a learner's templates are rarer.
	sparseMax = 4
	// sparseSym marks a sparse symbol in the writer's slot → symbol map;
	// the bits below it are the symbol's list.
	sparseSym = 1 << 31
)

// sparseList is one sparse symbol of an EVB4 block.
type sparseList struct {
	tmpl  int32
	n     uint32 // its events, the footer's count
	first uint32 // its first position's index in the sparse section
	want  bool   // the walk's caller wants it
}

// huffman is one block's code, rebuilt per block in buffers reused from
// block to block, and an EVB4 block's sparse lists.
type huffman struct {
	syms   []int32  // code symbol → template id
	weight []uint32 // code symbol → events
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

	sparse   bool         // the block is EVB4
	only     bool         // and lists holds the wanted sparse lists alone
	lists    []sparseList // its sparse symbols, in symbol order
	nsparse  uint32       // the block's sparse events, in every list
	posBits  uint         // a position's width, bits.Len32(count−1)
	at, tmp2 []uint64     // the positions read, position<<32 | list; tmp2 is radixSort's buffer
}

// alphabet loads a block's symbols: the footer index's templates and
// counts, then the unmatched sentinel's. With sparse (EVB4), a symbol of at
// most sparseMax events becomes a sparse list instead of a code symbol.
func (h *huffman) alphabet(index []IndexEntry, unmatched uint32, sparse bool) {
	h.syms, h.weight, h.want = h.syms[:0], h.weight[:0], h.want[:0]
	h.sparse, h.only, h.lists, h.nsparse = sparse, false, h.lists[:0], 0
	count := unmatched
	for _, e := range index {
		count += uint32(e.Count)
		h.add(e.Template, uint32(e.Count))
	}
	if unmatched > 0 {
		h.add(-1, unmatched)
	}
	h.posBits = uint(bits.Len32(count - 1))
}

// add appends one symbol to the alphabet.
func (h *huffman) add(t int32, w uint32) {
	if h.sparse && w <= sparseMax {
		h.lists = append(h.lists, sparseList{tmpl: t, n: w, first: h.nsparse})
		h.nsparse += w
		return
	}
	h.syms, h.weight, h.want = append(h.syms, t), append(h.weight, w), append(h.want, false)
}

// sparseOnly loads, from an EVB4 block's footer, the sparse lists of the
// templates ids, in any order, and reports whether they hold all of ids'
// events: whether no id is negative (−1 is the unmatched sentinel) and no
// template of ids has more than sparseMax events in the block. When they
// do, scanLists reads them alone.
func (h *huffman) sparseOnly(index []IndexEntry, unmatched uint32, ids []int32) bool {
	if slices.Min(ids) < 0 {
		return false
	}
	h.sparse, h.only, h.lists, h.nsparse = true, true, h.lists[:0], 0
	count := unmatched
	for _, e := range index {
		w := uint32(e.Count)
		count += w
		if wanted(ids, e.Template) {
			if w > sparseMax {
				return false
			}
			h.lists = append(h.lists, sparseList{tmpl: e.Template, n: w, first: h.nsparse, want: true})
		}
		if w <= sparseMax {
			h.nsparse += w
		}
	}
	if unmatched <= sparseMax {
		h.nsparse += unmatched
	}
	h.posBits = uint(bits.Len32(count - 1))
	return true
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
	// Symbol order holds among equal weights.
	h.order, h.tmp = radixSort(h.order, h.tmp, heaviest)
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
	h.maxLen, h.count[0] = 0, 0
	if n > 0 {
		h.maxLen = uint(h.depth[0])
	}
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
	h.hist = slices.Grow(h.hist[:0], n)[:n]
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

// radixSort sorts a by its upper 32 bits, none above top, stably: a byte a
// pass, through tmp, a buffer of a's length. It returns the sorted slice
// and the other buffer.
func radixSort(a, tmp []uint64, top uint32) (sorted, other []uint64) {
	for shift := 32; top>>(shift-32) > 0; shift += 8 {
		var at [257]int
		for _, o := range a {
			at[int(byte(o>>shift))+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, o := range a {
			tmp[at[byte(o>>shift)]] = o
			at[byte(o>>shift)]++
		}
		a, tmp = tmp, a
	}
	return a, tmp
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

// appendSparse appends an EVB4 block's sparse section for events whose
// symbols are symOf[slot] for their slots: each sparse list's positions,
// list by list, posBits each, MSB-first and zero-padded to a byte.
func (h *huffman) appendSparse(dst []byte, slots, symOf []uint32) []byte {
	h.at = h.at[:0]
	for p, slot := range slots {
		if s := symOf[slot]; s >= sparseSym {
			h.at = append(h.at, uint64(s-sparseSym)<<32|uint64(p))
		}
	}
	h.tmp2 = slices.Grow(h.tmp2[:0], len(h.at))[:len(h.at)]
	h.at, h.tmp2 = radixSort(h.at, h.tmp2, uint32(len(h.lists))) // stable: positions ascend per list
	var acc uint64
	var nb uint
	for _, a := range h.at {
		acc = acc<<h.posBits | uint64(uint32(a))
		for nb += h.posBits; nb >= 8; {
			nb -= 8
			dst = append(dst, byte(acc>>nb))
		}
	}
	if nb > 0 {
		dst = append(dst, byte(acc<<(8-nb)))
	}
	return dst
}

// appendColumn appends the template column of events whose symbols are
// symOf[slot] for their slots, MSB-first and zero-padded to a byte; a
// sparse symbol has no code and is skipped.
func (h *huffman) appendColumn(dst []byte, slots, symOf []uint32) []byte {
	var acc uint64
	var nb uint
	for _, slot := range slots {
		s := symOf[slot]
		if s >= sparseSym {
			continue
		}
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

// readSparse splits an EVB4 block's template data into its sparse section
// and its column, and reads into h.at, ascending by position, the
// positions of every list loaded. Every list read must ascend and stay
// below count, no two may claim one position, and the section's padding
// bits must be zero.
func (h *huffman) readSparse(data []byte, count uint32) (col []byte, err error) {
	h.at = h.at[:0]
	if !h.sparse {
		return data, nil
	}
	nbits := uint64(h.nsparse) * uint64(h.posBits)
	size := (nbits + 7) / 8
	if uint64(len(data)) < size {
		return nil, &seglog.CorruptError{Reason: "body ends inside the sparse section"}
	}
	sec, col := data[:size], data[size:]
	if pad := size*8 - nbits; pad > 0 && sec[size-1]&(1<<pad-1) != 0 {
		return nil, &seglog.CorruptError{Reason: "sparse section does not end where its positions do"}
	}
	for l, sl := range h.lists {
		for i, bit := uint32(0), uint64(sl.first)*uint64(h.posBits); i < sl.n; i, bit = i+1, bit+uint64(h.posBits) {
			var v uint64 // the bytes holding the position, MSB-first
			for b := bit / 8; b < (bit+uint64(h.posBits)+7)/8; b++ {
				v = v<<8 | uint64(sec[b])
			}
			p := uint32(v>>((8-(bit+uint64(h.posBits))%8)%8)) & (1<<h.posBits - 1)
			if p >= count || i > 0 && p <= uint32(h.at[len(h.at)-1]>>32) {
				return nil, &seglog.CorruptError{Reason: "bad sparse position"}
			}
			h.at = append(h.at, uint64(p)<<32|uint64(l))
		}
	}
	if h.only {
		slices.Sort(h.at) // a few positions, fewer than radixSort's 257-slot passes cost
	} else {
		h.tmp2 = slices.Grow(h.tmp2[:0], len(h.at))[:len(h.at)]
		h.at, h.tmp2 = radixSort(h.at, h.tmp2, count-1)
	}
	for i := 1; i < len(h.at); i++ {
		if h.at[i]>>32 == h.at[i-1]>>32 {
			return nil, &seglog.CorruptError{Reason: "two sparse lists claim one position"}
		}
	}
	return col, nil
}

// scanLists is the sparse-only read, after sparseOnly: it reads the
// wanted lists of an EVB4 block's template data, calling hit with the
// position and template of each of their events in position order, and
// nothing of the column — of which it checks no more than a walk a Limit
// cut short before its first code. hit's error stops it.
func (h *huffman) scanLists(data []byte, count uint32, hit func(p uint32, t int32) error) error {
	if _, err := h.readSparse(data, count); err != nil {
		return err
	}
	for _, a := range h.at {
		if err := hit(uint32(a>>32), h.lists[uint32(a)].tmpl); err != nil {
			return err
		}
	}
	return nil
}

// walk reads a block's template data after alphabet — an EVB4 block's
// sparse section then its column, an EVB3 block's column — calling hit
// with the position and template of each wanted event, in position order;
// hit's error stops it. It decodes every position no sparse list claims
// from the column: a walk that reaches the end verifies that the count −
// sparse codes end in the column's last byte, whose padding bits are zero,
// and that they spell the footer index's histogram of the code symbols.
func (h *huffman) walk(data []byte, count uint32, hit func(p uint32, t int32) error) error {
	col, err := h.readSparse(data, count)
	if err != nil {
		return err
	}
	h.build()
	var bits uint64 // loaded and not yet read, MSB-aligned
	var n uint      // how many
	pos := 0        // the next byte to load; past the column's end, zeros load
	clear(h.hist)
	p := uint32(0)
	for i := 0; i <= len(h.at); i++ {
		stop := count // the next position a sparse list claims
		if i < len(h.at) {
			stop = uint32(h.at[i] >> 32)
		}
		for ; p < stop; p++ {
			if n < maxCodeLen && pos+8 <= len(col) {
				// The 8-byte load also sets bits below the n it counts:
				// the next byte's own, which loading it again ORs in
				// unchanged.
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
			// An entry is symbol<<5 | length+1, so a lone symbol's empty
			// code is the table's one entry; 0 is a code the table cannot
			// reach.
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
		if i < len(h.at) {
			if l := &h.lists[uint32(h.at[i])]; l.want {
				if err := hit(p, l.tmpl); err != nil {
					return err
				}
			}
			p++
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
