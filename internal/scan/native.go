// Native execution engine.
//
// The kernels of fastscan.go and scan.go execute §4's algorithm through
// internal/simd, a bit-exact software model of the SSSE3 register file:
// ideal for the instruction-counting argument priced by internal/perf,
// but every modeled pshufb or paddsb is a 16-iteration Go loop behind a
// function call — orders of magnitude slower than the hardware it
// stands in for. This file is the second engine: the same algorithm
// (small-table lookups, saturating 8-bit accumulation, qsat-vs-threshold
// pruning, keep phase, group ordering) implemented for wall-clock speed,
// on one of the backends selected by internal/simd/dispatch:
//
//   - swar (always available): uint64 SWAR words carrying 8 byte-lanes
//     through the add/compare/movemask pipeline, flat table arrays,
//     hoisted bounds checks, no per-operation function calls — two block
//     pipelines, byte-lane saturating adds below a size gate and
//     per-query pair-LUTs with 16-bit lanes above it;
//   - asm-avx2 / asm-neon: hand-written assembly block kernels running
//     the real pshufb/tbl pipeline over whole groups at a time, with the
//     per-block prune masks and threshold refresh staying in Go so the
//     decision sequence is identical (DESIGN.md §12).
//
// All backends share every decision input (quantizer, thresholds, group
// visit order, exact re-check arithmetic) and their lower-bound bytes
// agree lane-for-lane, so result sets AND statistics are bit-identical
// across backends and engines — the DESIGN.md §6 exactness invariant
// extended across engines (§9) and down to the instruction level (§12).
// The model path remains the metrology reference: only it counts
// Stats.Ops.
package scan

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"pqfastscan/internal/layout"
	"pqfastscan/internal/quantizer"
	"pqfastscan/internal/simd/dispatch"
	"pqfastscan/internal/topk"
)

// SWAR constants: eight byte-lanes per uint64 word, lane 0 in the least
// significant byte (x86 memory order, matching simd.Reg.Words).
const (
	swarHighBits = 0x8080808080808080 // bit 7 of every lane
	swarOnes     = 0x0101010101010101 // 1 in every lane
	// swarMovemaskMul gathers the lane-0..7 low bits (after >>7) into
	// the top byte: with one bit per lane the per-byte partial sums of
	// the multiplication stay below 256, so no carry crosses a lane and
	// the top byte is exactly Σ bit_i·2^i (pmovmskb).
	swarMovemaskMul = 0x0102040810204080
)

// swarAddSat127 adds two SWAR words lane-wise, saturating every lane at
// 127. Both operands must hold lanes in [0, 127] — the invariant of the
// quantized-distance pipeline (quantize emits bins 0..127 and saturated
// sums stay in range) — so the plain uint64 addition cannot carry across
// lanes (max 254) and signed saturating addition (paddsb) degenerates to
// min(a+b, 127), which is what the bit-trick computes: lanes whose bit 7
// is set after the add are forced to 0x7f.
func swarAddSat127(a, b uint64) uint64 {
	s := a + b
	over := s & swarHighBits
	return (s | ((over >> 7) * 0x7f)) &^ over
}

// swarGtAddend returns the word to add lane-wise so that bit 7 of a lane
// becomes the acc > t8 test: with acc in [0, 127] and t8 in [0, 127],
// acc + (127 - t8) >= 128 iff acc > t8, and the sum (<= 254) never
// carries across lanes. Negative t8 is handled by the caller (every lane
// is then above threshold).
func swarGtAddend(t8 int8) uint64 {
	return uint64(127-uint8(t8)) * swarOnes
}

// swarMovemask extracts bit 7 of each of the eight lanes into a compact
// 8-bit mask, bit i for lane i (pmovmskb over one word).
func swarMovemask(x uint64) uint32 {
	return uint32((((x & swarHighBits) >> 7) * swarMovemaskMul) >> 56)
}

// 16-bit-lane SWAR constants for the pair-LUT block pipeline: four
// 16-bit lanes per uint64 word.
const (
	swar16HighBits = 0x8000800080008000 // bit 15 of every 16-bit lane
	swar16Ones     = 0x0001000100010001 // 1 in every 16-bit lane
	// swar16MovemaskMul gathers the four lane bits (after >>15, at word
	// positions 0, 16, 32, 48) into bits 48..51: the 16 partial-product
	// positions 16i + (48 - 15j) are pairwise distinct, so no carries,
	// and the i == j terms land exactly at 48 + i.
	swar16MovemaskMul = 0x0001000200040008
)

// swarMovemask16 extracts bit 15 of each of the four 16-bit lanes into a
// 4-bit mask, bit i for lane i.
func swarMovemask16(x uint64) uint32 {
	return uint32((((x&swar16HighBits)>>15)*swar16MovemaskMul)>>48) & 0xf
}

// ulutSize is the span of the ungrouped pair-LUT index (wa>>shift &
// 0x0f0f): two high nibbles, 8 bits apart. Only the 256 indexes of that
// form are ever written or read; the gaps are dead space traded for a
// mask-only index computation.
const ulutSize = 0x0f0f + 1

// nativeLUTMinVectors gates the SWAR backend's pair-LUT block pipeline:
// building the per-query pair tables costs ~10k stores, which only
// amortizes over enough blocks. Below the gate the byte-lane saturating
// SWAR pipeline runs instead; both pipelines produce identical lower
// bounds and masks. The assembly backends need no gate — their lookup
// is one instruction either way, so they run the table kernel at every
// size. A variable so tests can force either path.
var nativeLUTMinVectors = 4096

// SetNativeLUTMinVectors sets the SWAR pair-LUT size gate and returns
// the previous value, so tests outside this package can pin one SWAR
// pipeline: 0 always takes the pair-LUT pipeline, a value above every
// partition size always the byte-lane one. Results are identical either
// way. It must not run concurrently with a scan.
func SetNativeLUTMinVectors(n int) (old int) {
	old, nativeLUTMinVectors = nativeLUTMinVectors, n
	return old
}

// queryTables is the cached per-(query, partition-epoch) table state of
// a native Fast Scan: the §4.4 distance quantizer, the quantized first-c
// distance-table rows (every group's small tables S_0..S_{C-1} are
// 16-entry windows into them), the query-lifetime minimum tables
// S_C..S_7, and the backend-specific derived tables — the SWAR pair
// LUTs and the assembly backends' contiguous 8×16-byte table block.
//
// It is built once per key — the (distance-table contents, quantization
// bounds) pair, see qtKey — and reused for every probed group of every
// scan with that key. Because identity is by table *contents*, the
// cache survives the serving path's per-request table recomputation:
// repeated identical queries through one pooled Scratch, bench loops
// and threshold sweeps all skip the quantization pass. The model path
// deliberately rebuilds per group instead; that is the instruction
// stream it meters.
type queryTables struct {
	c     int
	dq    distQuantizer
	qrows [layout.MaxGroupComponents][256]uint8
	st    smallTables

	// SWAR pair-LUT pipeline state (built on demand above the gate).
	lutBuilt bool
	glut     []uint32 // grouped-component pair LUTs, c x 16 keys x 256
	ulut     []uint32 // ungrouped-component pair LUTs, (M-c) x ulutSize

	// Assembly-backend state: the 8×16-byte table block handed to
	// dispatch.Accumulate. Minimum tables are written once per key;
	// grouped windows are refreshed per group (16c bytes).
	asmBuilt bool
	tabBlock []uint8 // 128 bytes, layout.Alignment-aligned
}

// qtKey identifies one (distance tables, bounds) combination. Nothing
// in the cached state reads the partition layout — the quantized rows,
// minimum tables and derived LUTs are pure functions of the tables, the
// grouping depth and the quantizer bounds — so the key carries no epoch
// identity and a retired partition epoch is never pinned by a pooled
// Scratch.
//
// Identity is two-tier. The pointer is the free fast path: callers that
// reuse one Tables value (bench loops, threshold sweeps, multi-scan
// tools) hit without hashing, and holding it pins the (8 KB) array so
// its address cannot be recycled under the cache. The content
// fingerprint is what makes the cache effective on the serving path,
// where Index.Tables recomputes an identical array per request: equal
// bytes hash equal wherever they live. A 64-bit FNV-1a collision
// between two genuinely different tables that also share bounds is the
// theoretical failure mode (~2^-64 per pair, non-adversarial input);
// Tables are immutable once computed, which both tiers rely on.
type qtKey struct {
	data       *float32
	hash       uint64
	qmin, qmax float32
}

// testQueryTablesRebuilt, when non-nil, is called on every queryTables
// cache miss — a test observation point for the reuse contract (set
// only by single-threaded tests).
var testQueryTablesRebuilt func()

// fingerprint returns the FNV-1a content hash of the distance tables.
func fingerprint(t quantizer.Tables) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range t.Data {
		h ^= uint64(math.Float32bits(v))
		h *= 0x100000001b3
	}
	return h
}

// Scratch holds the reusable per-searcher buffers of the native engine:
// the top-k heap, the sorted-results buffer, the group-ordering
// order/estimate arrays, the cached query tables, and the assembly
// backends' lower-bound buffer. Reusing one Scratch across queries
// keeps the steady-state scan loop at zero allocations; a Scratch must
// not be shared between concurrent scans. Passing nil to the native
// entry points allocates a transient one.
//
// Result slices returned by native scans alias sc.results and are
// overwritten by the next scan through the same Scratch; callers that
// retain results across queries must copy them out.
type Scratch struct {
	heap    *topk.Heap
	results []topk.Result
	order   []int
	est     []float64

	qtKey qtKey
	qt    queryTables
	acc   []uint8 // asm backends' lower-bound bytes, 64-byte aligned

	// QuantizationOnly's cached full quantized tables (M x 256).
	qoKey  qtKey
	qoTabs []uint8

	// StaticPrune's cached keep-phase bound. Unlike qtKey this one does
	// identify the layout epoch (the bound is computed from the keep
	// region's codes); StaticPrune is a diagnostic, never fed from the
	// serving path's pooled scratches, so the pinned epoch is one a
	// sweep is actively using.
	spKey  staticPruneKey
	spQmax float32
}

// staticPruneKey identifies the (tables, layout epoch) pair whose
// keep-phase bound Scratch.spQmax caches.
type staticPruneKey struct {
	data *float32
	g    *layout.Grouped
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// reused afterwards.
func NewScratch() *Scratch { return &Scratch{heap: topk.New(1)} }

// Heap returns the Scratch's top-k heap reset to retain k results: the
// one heap a multi-probe query scans every probed cell into
// (ScanNativeInto, ExactNativeInto). ScanNative and ExactNative reset
// the same heap, so it must not be shared with them mid-query.
func (sc *Scratch) Heap(k int) *topk.Heap {
	sc.heap.Reset(k)
	return sc.heap
}

// growSlice returns s resized to n elements, reusing its backing array
// when possible. Contents are unspecified.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growAligned returns s resized to n bytes on a layout.Alignment-aligned
// base, reusing the backing array when possible. Contents are
// unspecified.
func growAligned(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return layout.AlignedBytes(n, 0)
	}
	return s[:n]
}

// queryTablesFor returns the cached query-table state for scanning fs
// with tables t under bounds (qmin, qmax), rebuilding only on a key
// change (same-pointer fast path first, then the content fingerprint).
func (sc *Scratch) queryTablesFor(fs *FastScan, t quantizer.Tables, qmin, qmax float32) *queryTables {
	qt := &sc.qt
	sameBounds := sc.qtKey.qmin == qmin && sc.qtKey.qmax == qmax && qt.c == fs.c
	if sameBounds && sc.qtKey.data == &t.Data[0] {
		return qt
	}
	h := fingerprint(t)
	if sameBounds && sc.qtKey.hash == h {
		// Recomputed-but-identical tables (the serving path): adopt the
		// new array as the fast-path identity and keep everything built.
		sc.qtKey.data = &t.Data[0]
		return qt
	}
	if testQueryTablesRebuilt != nil {
		testQueryTablesRebuilt()
	}
	sc.qtKey = qtKey{data: &t.Data[0], hash: h, qmin: qmin, qmax: qmax}
	qt.c = fs.c
	qt.dq = newDistQuantizer(qmin, qmax)
	// Quantize the first c distance-table rows once per key; every
	// group's small tables S_0..S_{C-1} are 16-entry windows into these
	// rows (entry values identical to the model's per-group
	// buildGroupTable calls, which quantize the same floats with the
	// same quantizer).
	for j := 0; j < fs.c; j++ {
		row := t.Row(j)
		for i, v := range row {
			qt.qrows[j][i] = qt.dq.quantize(v)
		}
	}
	qt.st = buildMinTables(t, fs.c, qt.dq)
	qt.lutBuilt = false
	qt.asmBuilt = false
	return qt
}

// buildLUTs materializes the SWAR pair LUTs: one load then resolves TWO
// lanes of a block at once. Grouped components index by (group key,
// packed byte) — a packed byte is exactly two lanes' low nibbles;
// ungrouped components index by the two-high-nibbles pattern
// (w >> s) & 0x0f0f of adjacent code bytes. Each entry packs the two
// looked-up quantized values at bits 0 and 16, feeding the 16-bit-lane
// accumulators of the pair-LUT pipeline.
func (qt *queryTables) buildLUTs() {
	if qt.lutBuilt {
		return
	}
	c := qt.c
	qt.glut = growSlice(qt.glut, c*16*256)
	for j := 0; j < c; j++ {
		q := &qt.qrows[j]
		dst := qt.glut[j*16*256 : (j+1)*16*256 : (j+1)*16*256]
		for key := 0; key < 16; key++ {
			tab := q[key*16 : key*16+16 : key*16+16]
			base := key << 8
			for hiN := 0; hiN < 16; hiN++ {
				vhi := uint32(tab[hiN]) << 16
				for loN := 0; loN < 16; loN++ {
					dst[base|hiN<<4|loN] = uint32(tab[loN]) | vhi
				}
			}
		}
	}
	qt.ulut = growSlice(qt.ulut, (M-c)*ulutSize)
	for j := c; j < M; j++ {
		mt := &qt.st.minTables[j]
		dst := qt.ulut[(j-c)*ulutSize : (j-c+1)*ulutSize : (j-c+1)*ulutSize]
		for hiN := 0; hiN < 16; hiN++ {
			vhi := uint32(mt[hiN]) << 16
			for loN := 0; loN < 16; loN++ {
				dst[hiN<<8|loN] = uint32(mt[loN]) | vhi
			}
		}
	}
	qt.lutBuilt = true
}

// asmTables returns the 8×16-byte contiguous table block for the
// assembly kernels, with the query-lifetime minimum tables S_C..S_7
// written once per key. The grouped windows S_0..S_{C-1} are refreshed
// per group by the caller.
func (qt *queryTables) asmTables() *[128]uint8 {
	if qt.tabBlock == nil {
		qt.tabBlock = layout.AlignedBytes(128, 0)
	}
	if !qt.asmBuilt {
		for j := qt.c; j < M; j++ {
			copy(qt.tabBlock[j*16:j*16+16], qt.st.minTables[j][:])
		}
		qt.asmBuilt = true
	}
	return (*[128]uint8)(qt.tabBlock)
}

// quantizedFullTables returns the 8×256 quantized distance tables of
// the §5.5 quantization-only ablation, cached per (tables, bounds) key.
// Identity is pointer-only (the hash tier stays zero): the ablation's
// callers reuse one Tables value across calls, and it never runs on the
// serving path where tables are recomputed.
func (sc *Scratch) quantizedFullTables(t quantizer.Tables, dq distQuantizer, qmin, qmax float32) []uint8 {
	key := qtKey{data: &t.Data[0], qmin: qmin, qmax: qmax}
	if sc.qoKey == key && len(sc.qoTabs) == M*256 {
		return sc.qoTabs
	}
	sc.qoTabs = growSlice(sc.qoTabs, M*256)
	for j := 0; j < M; j++ {
		row := t.Row(j)
		for i, v := range row {
			sc.qoTabs[j*256+i] = dq.quantize(v)
		}
	}
	sc.qoKey = key
	return sc.qoTabs
}

// keepBounds runs the §4.4 keep phase (plain PQ Scan over the keep
// region, into heap) and returns the quantization bounds it implies:
// qmin is the least possible distance, qmax the temporary topk-th
// neighbor's distance (or the worst retained one while the heap is not
// full, or the table maximum when the keep region is empty). The single
// source of the bounds for the model path, every native backend, and
// the quantization-only ablation — which is what keeps their pruning
// counters comparable.
func keepBounds(p *Partition, keepN int, t quantizer.Tables, heap *topk.Heap) (qmin, qmax float32) {
	libpqRange(p, 0, keepN, t, heap)
	qmin = t.Min()
	qmax = t.MaxSum()
	if thr, ok := heap.Threshold(); ok {
		qmax = thr
	} else if worst, ok := heap.Worst(); ok {
		qmax = worst
	}
	return qmin, qmax
}

// ScanNative runs PQ Fast Scan for the query on the native engine's
// startup-selected backend (dispatch.Active), returning the k nearest
// neighbors — bit-identical to Scan, Scan256 and the PQ Scan kernels —
// and the dynamic vector/block statistics of the run (Stats.Ops stays
// zero; only the model engine counts instructions).
func (fs *FastScan) ScanNative(t quantizer.Tables, k int, sc *Scratch) ([]topk.Result, Stats) {
	return fs.ScanNativeBackend(t, k, sc, dispatch.Auto)
}

// ScanNativeBackend is ScanNative with an explicit block-kernel backend
// (dispatch.Auto defers to the startup selection). All backends return
// bit-identical results and statistics; they differ only in wall-clock
// speed. The caller is responsible for only requesting available
// backends (dispatch.Backend.Available); the index layer validates
// requests before they reach this point.
func (fs *FastScan) ScanNativeBackend(t quantizer.Tables, k int, sc *Scratch, be dispatch.Backend) ([]topk.Result, Stats) {
	if sc == nil {
		sc = NewScratch()
	}
	heap := sc.Heap(k)
	stats := fs.ScanNativeInto(t, heap, sc, be)
	sc.results = heap.AppendResults(sc.results[:0])
	return sc.results, stats
}

// ScanNativeInto runs PQ Fast Scan into heap, which may already hold
// the neighbors of earlier scans of the same query — the multi-probe
// form of §4.4, where the temporary top-k is the query's, not the
// cell's. A full heap's k-th distance bounds this scan from its first
// vector: the keep phase filters against it, qmax and the prune
// threshold derive from it, and a cell whose least possible distance
// already exceeds it is skipped whole (every vector counted as lower
// bounded and pruned). Results stay bit-identical to scanning each cell
// into its own heap and merging, because every bound used is a valid
// lower bound and the bounded heap's retained set is the k smallest
// (distance, id) pairs whatever the push order; only the counters
// differ, since they count the work actually done.
func (fs *FastScan) ScanNativeInto(t quantizer.Tables, heap *topk.Heap, sc *Scratch, be dispatch.Backend) Stats {
	check8x8(t)
	if sc == nil {
		sc = NewScratch()
	}
	be = dispatch.Resolve(be)
	if cannotContribute(t, heap) {
		return Stats{Scanned: fs.part.N, LowerBounds: fs.part.N, Pruned: fs.part.N}
	}
	stats := Stats{Scanned: fs.part.N, KeepScanned: fs.keepN}

	// Phase 1 (§4.4): keep region, same arithmetic as the model path.
	qmin, qmax := keepBounds(fs.part, fs.keepN, t, heap)

	// Phase 2: cached per-(query, epoch) quantized tables.
	qt := sc.queryTablesFor(fs, t, qmin, qmax)

	b := newRunningBound(qt.dq, heap)
	groupOrder := fs.groupVisitOrder(t, sc)

	if be.Asm() {
		fs.scanBlocksAsm(sc, qt, be, groupOrder, &b, heap, t, &stats)
	} else {
		fs.scanBlocksSWAR(sc, qt, groupOrder, &b, heap, t, &stats)
	}
	return stats
}

// cannotContribute reports whether no vector scanned with tables t can
// enter the full heap: the least possible ADC distance — each row's
// minimum, summed in adc8's j order — already exceeds its k-th
// distance. Float addition is monotone in each operand, so that sum is
// a lower bound on every adc8 result, rounding included; a tie is not
// enough, since a tied vector with a smaller id would still be kept.
func cannotContribute(t quantizer.Tables, heap *topk.Heap) bool {
	thr, ok := heap.Threshold()
	if !ok {
		return false
	}
	var lb float32
	for j := 0; j < M; j++ {
		lb += slices.Min(t.Row(j))
	}
	return lb > thr
}

// runningBound is a scan's current pruning state, refreshed whenever
// the heap's k-th distance moves: t8 is the quantized threshold the
// block masks compare against, thr the float k-th distance (+Inf while
// the heap is not full) the exact re-checks compare against before
// touching the heap.
type runningBound struct {
	dq  distQuantizer
	t8  int8
	thr float32
}

func newRunningBound(dq distQuantizer, heap *topk.Heap) runningBound {
	b := runningBound{dq: dq, thr: float32(math.Inf(1))}
	thr, ok := heap.Threshold()
	b.t8 = dq.pruneThreshold(thr, ok)
	if ok {
		b.thr = thr
	}
	return b
}

// processLive walks the surviving lanes of one block in ascending lane
// order (the model's lane loop visits them the same way, so the heap
// evolves identically): tombstone check, exact re-check (right-hand
// path of Figure 6), then threshold refresh — shared by every backend
// so the decision sequence cannot drift. A re-checked distance above
// the k-th skips the heap call; ties go through Push for the
// deterministic id-order rule.
func (fs *FastScan) processLive(live uint32, base int, t quantizer.Tables, b *runningBound, heap *topk.Heap, hasDead bool, stats *Stats) {
	g := fs.grouped
	for ; live != 0; live &= live - 1 {
		pos := base + bits.TrailingZeros32(live)
		if hasDead && fs.part.IsDead(g.IDs[pos]) {
			stats.Pruned++
			continue
		}
		stats.Candidates++
		d := adc8(g.Codes[pos*M:pos*M+M], t)
		if d > b.thr {
			continue
		}
		if heap.Push(g.IDs[pos], d) {
			if thr, ok := heap.Threshold(); ok {
				b.t8 = b.dq.pruneThreshold(thr, true)
				b.thr = thr
			}
		}
	}
}

// scanBlocksAsm drives the dispatched assembly kernel: per group it
// refreshes the group's small-table windows in the 8×16-byte table
// block, hands the group's packed blocks to dispatch.Accumulate in ONE
// call (the kernel streams the whole group through vector registers),
// then derives each block's prune mask from the returned lower-bound
// bytes with the threshold current AT THAT BLOCK — the candidate
// processing and threshold refresh stay in Go between blocks, so the
// decision sequence (and hence results, pruning counters and heap
// evolution) is identical to the SWAR pipelines. The lower bound of a
// lane never depends on the threshold, which is what makes the
// group-at-a-time kernel call safe.
func (fs *FastScan) scanBlocksAsm(sc *Scratch, qt *queryTables, be dispatch.Backend, groupOrder []int, rb *runningBound, heap *topk.Heap, t quantizer.Tables, stats *Stats) {
	g := fs.grouped
	c := fs.c
	bb := g.BlockSize()
	blocks := g.Blocks
	hasDead := fs.part.HasDead()
	tb := qt.asmTables()

	for _, gi := range groupOrder {
		grp := &g.Groups[gi]
		stats.Groups++
		for j := 0; j < c; j++ {
			copy(tb[j*16:j*16+16], qt.qrows[j][int(grp.Key[j])*16:int(grp.Key[j])*16+16])
		}
		nb := grp.BlockCount
		sc.acc = growAligned(sc.acc, nb*16)
		base := grp.BlockStart * bb
		dispatch.Accumulate(be, blocks[base:base+nb*bb], bb, c, nb, tb, sc.acc)

		for b := 0; b < nb; b++ {
			stats.Blocks++
			var prunedMask uint32
			if rb.t8 < 0 {
				prunedMask = 0xffff
			} else {
				// acc lanes and the addend are both <= 127: no carry, and
				// bit 7 of a lane is set iff acc > t8 (for t8 == 127 the
				// addend is 0 and no lane can reach bit 7 — no pruning).
				add := swarGtAddend(rb.t8)
				lo := leUint64(sc.acc[b*16 : b*16+8])
				hi := leUint64(sc.acc[b*16+8 : b*16+16])
				prunedMask = swarMovemask(lo+add) | swarMovemask(hi+add)<<8
			}

			vbase := grp.Start + b*layout.BlockVectors
			valid := grp.Count - b*layout.BlockVectors
			if valid > layout.BlockVectors {
				valid = layout.BlockVectors
			}
			stats.LowerBounds += valid
			live := ^prunedMask & (1<<valid - 1)
			if live == 0 {
				stats.Pruned += valid
				continue
			}
			stats.Pruned += valid - bits.OnesCount32(live)
			fs.processLive(live, vbase, t, rb, heap, hasDead, stats)
		}
	}
}

// scanBlocksSWAR is the portable backend: the uint64 SWAR block
// pipelines. The inner loop lower-bounds one 16-vector block per
// iteration in two SWAR words — per component, 16 small-table lookups
// assembled directly into the words, then a saturating lane-wise add;
// one compare-against-threshold add and two movemasks close the block.
// On a 64-bit machine this is the closest pure-Go analogue of the
// paper's pshufb/paddsb/pcmpgtb/pmovmskb pipeline. Above the size gate
// the pair-LUT pipeline replaces per-lane lookups with per-lane-PAIR
// LUT loads in 16-bit lanes.
func (fs *FastScan) scanBlocksSWAR(sc *Scratch, qt *queryTables, groupOrder []int, rb *runningBound, heap *topk.Heap, t quantizer.Tables, stats *Stats) {
	g := fs.grouped
	c := fs.c
	bb := g.BlockSize()
	blocks := g.Blocks
	hasDead := fs.part.HasDead()

	useLUT := g.N >= nativeLUTMinVectors
	if useLUT {
		qt.buildLUTs()
	}
	var ungroupLUTs [M]*[ulutSize]uint32
	if useLUT {
		for j := c; j < M; j++ {
			ungroupLUTs[j] = (*[ulutSize]uint32)(qt.ulut[(j-c)*ulutSize : (j-c+1)*ulutSize])
		}
	}

	// simd.Reg is a flat [16]uint8, so the model's min-table builder
	// feeds the native lookup loop without conversion.
	var groupTables [layout.MaxGroupComponents]*[16]uint8
	var groupLUTs [layout.MaxGroupComponents]*[256]uint32
	minTables := &qt.st.minTables

	for _, gi := range groupOrder {
		grp := &g.Groups[gi]
		stats.Groups++
		if useLUT {
			for j := 0; j < c; j++ {
				off := j*16*256 + int(grp.Key[j])<<8
				groupLUTs[j] = (*[256]uint32)(qt.glut[off : off+256])
			}
		} else {
			for j := 0; j < c; j++ {
				groupTables[j] = (*[16]uint8)(qt.qrows[j][int(grp.Key[j])*16 : int(grp.Key[j])*16+16])
			}
		}

		blockBase := grp.BlockStart * bb
		for b := 0; b < grp.BlockCount; b++ {
			stats.Blocks++
			blk := blocks[blockBase+b*bb : blockBase+(b+1)*bb : blockBase+(b+1)*bb]
			t8 := rb.t8

			var prunedMask uint32
			if useLUT {
				// Pair-LUT pipeline: four 16-bit lanes per word (a0:
				// lanes 0-3 ... a3: lanes 12-15), one LUT load per lane
				// PAIR. Accumulation is plain addition — all addends are
				// in [0, 127], so lane sums stay below 1016 and never
				// carry; min(sum, 127) > t8 is then equivalent to
				// sum > t8 for every reachable threshold (t8 <= 126),
				// the t8 == 127 no-pruning case being handled explicitly
				// — decisions identical to the saturating model.
				var a0, a1, a2, a3 uint64
				first := true
				for j := 0; j < c; j++ {
					lk := groupLUTs[j]
					wp := leUint64(blk[j*8 : j*8+8])
					w0 := uint64(lk[wp&0xff]) | uint64(lk[wp>>8&0xff])<<32
					w1 := uint64(lk[wp>>16&0xff]) | uint64(lk[wp>>24&0xff])<<32
					w2 := uint64(lk[wp>>32&0xff]) | uint64(lk[wp>>40&0xff])<<32
					w3 := uint64(lk[wp>>48&0xff]) | uint64(lk[wp>>56])<<32
					if first {
						a0, a1, a2, a3 = w0, w1, w2, w3
						first = false
					} else {
						a0 += w0
						a1 += w1
						a2 += w2
						a3 += w3
					}
				}
				off := c * 8
				for j := c; j < M; j++ {
					ul := ungroupLUTs[j]
					wa := leUint64(blk[off : off+8])
					wb := leUint64(blk[off+8 : off+16])
					off += 16
					w0 := uint64(ul[wa>>4&0x0f0f]) | uint64(ul[wa>>20&0x0f0f])<<32
					w1 := uint64(ul[wa>>36&0x0f0f]) | uint64(ul[wa>>52&0x0f0f])<<32
					w2 := uint64(ul[wb>>4&0x0f0f]) | uint64(ul[wb>>20&0x0f0f])<<32
					w3 := uint64(ul[wb>>36&0x0f0f]) | uint64(ul[wb>>52&0x0f0f])<<32
					if first {
						a0, a1, a2, a3 = w0, w1, w2, w3
						first = false
					} else {
						a0 += w0
						a1 += w1
						a2 += w2
						a3 += w3
					}
				}
				switch {
				case t8 < 0:
					prunedMask = 0xffff
				case t8 == 127:
					prunedMask = 0
				default:
					// Lane sums <= 1016, addend <= 0x7fff: no carry, and
					// bit 15 of a lane is set iff sum > t8.
					add := (0x7fff - uint64(uint8(t8))) * swar16Ones
					prunedMask = swarMovemask16(a0+add) | swarMovemask16(a1+add)<<4 |
						swarMovemask16(a2+add)<<8 | swarMovemask16(a3+add)<<12
				}
			} else {
				// Byte-lane saturating SWAR pipeline (§4.5): lanes 0-7
				// in lo, 8-15 in hi, one lookup per lane, saturating
				// lane-wise adds — the direct Go analogue of the
				// pshufb/paddsb/pcmpgtb/pmovmskb sequence.
				var lo, hi uint64
				first := true
				for j := 0; j < c; j++ {
					tab := groupTables[j]
					// Packed nibbles: bits 4i..4i+3 of the word are
					// lane i's low nibble.
					wp := leUint64(blk[j*8 : j*8+8])
					w0 := uint64(tab[wp&15]) | uint64(tab[wp>>4&15])<<8 |
						uint64(tab[wp>>8&15])<<16 | uint64(tab[wp>>12&15])<<24 |
						uint64(tab[wp>>16&15])<<32 | uint64(tab[wp>>20&15])<<40 |
						uint64(tab[wp>>24&15])<<48 | uint64(tab[wp>>28&15])<<56
					w1 := uint64(tab[wp>>32&15]) | uint64(tab[wp>>36&15])<<8 |
						uint64(tab[wp>>40&15])<<16 | uint64(tab[wp>>44&15])<<24 |
						uint64(tab[wp>>48&15])<<32 | uint64(tab[wp>>52&15])<<40 |
						uint64(tab[wp>>56&15])<<48 | uint64(tab[wp>>60&15])<<56
					if first {
						lo, hi = w0, w1
						first = false
					} else {
						lo = swarAddSat127(lo, w0)
						hi = swarAddSat127(hi, w1)
					}
				}
				off := c * 8
				for j := c; j < M; j++ {
					mt := &minTables[j]
					// Full bytes: lanes 0-7 and 8-15 in two words; the
					// minimum tables index on each byte's high nibble.
					wa := leUint64(blk[off : off+8])
					wb := leUint64(blk[off+8 : off+16])
					off += 16
					w0 := uint64(mt[wa>>4&15]) | uint64(mt[wa>>12&15])<<8 |
						uint64(mt[wa>>20&15])<<16 | uint64(mt[wa>>28&15])<<24 |
						uint64(mt[wa>>36&15])<<32 | uint64(mt[wa>>44&15])<<40 |
						uint64(mt[wa>>52&15])<<48 | uint64(mt[wa>>60&15])<<56
					w1 := uint64(mt[wb>>4&15]) | uint64(mt[wb>>12&15])<<8 |
						uint64(mt[wb>>20&15])<<16 | uint64(mt[wb>>28&15])<<24 |
						uint64(mt[wb>>36&15])<<32 | uint64(mt[wb>>44&15])<<40 |
						uint64(mt[wb>>52&15])<<48 | uint64(mt[wb>>60&15])<<56
					if first {
						lo, hi = w0, w1
						first = false
					} else {
						lo = swarAddSat127(lo, w0)
						hi = swarAddSat127(hi, w1)
					}
				}

				// Lanes with acc > t8 are pruned (Figure 6).
				if t8 < 0 {
					prunedMask = 0xffff
				} else {
					add := swarGtAddend(t8)
					prunedMask = swarMovemask(lo+add) | swarMovemask(hi+add)<<8
				}
			}

			base := grp.Start + b*layout.BlockVectors
			valid := grp.Count - b*layout.BlockVectors
			if valid > layout.BlockVectors {
				valid = layout.BlockVectors
			}
			stats.LowerBounds += valid
			live := ^prunedMask & (1<<valid - 1)
			if live == 0 {
				stats.Pruned += valid
				continue
			}
			stats.Pruned += valid - bits.OnesCount32(live)
			fs.processLive(live, base, t, rb, heap, hasDead, stats)
		}
	}
}

// leUint64 loads 8 little-endian bytes as one word; the gc compiler
// recognizes the stdlib call and emits a single MOVQ.
func leUint64(b []byte) uint64 {
	return binary.LittleEndian.Uint64(b)
}

// ExactNative is the native engine's exact PQ Scan: one tuned
// implementation serving the naive, libpq, avx and gather kernel
// selections, which differ only in modeled cost, not results.
func ExactNative(p *Partition, t quantizer.Tables, k int, sc *Scratch) ([]topk.Result, Stats) {
	if sc == nil {
		sc = NewScratch()
	}
	heap := sc.Heap(k)
	stats := ExactNativeInto(p, t, heap)
	sc.results = heap.AppendResults(sc.results[:0])
	return sc.results, stats
}

// ExactNativeInto runs the exact scan into heap, which may already hold
// the neighbors of earlier scans of the same query (see ScanNativeInto).
// The loop accumulates the same float32 table entries in the same
// j = 0..7 order as every other kernel (bit-identical results) with
// hoisted table rows, bounds-check-free row indexing (a uint8 index into
// a 256-entry row) and a local threshold, seeded from a full heap, that
// skips the heap call for vectors that cannot be retained; a cell that
// cannot contribute at all is skipped whole.
func ExactNativeInto(p *Partition, t quantizer.Tables, heap *topk.Heap) Stats {
	check8x8(t)
	stats := Stats{Scanned: p.N}
	if cannotContribute(t, heap) {
		return stats
	}

	td := t.Data
	t0 := td[0*256 : 1*256 : 1*256]
	t1 := td[1*256 : 2*256 : 2*256]
	t2 := td[2*256 : 3*256 : 3*256]
	t3 := td[3*256 : 4*256 : 4*256]
	t4 := td[4*256 : 5*256 : 5*256]
	t5 := td[5*256 : 6*256 : 6*256]
	t6 := td[6*256 : 7*256 : 7*256]
	t7 := td[7*256 : 8*256 : 8*256]

	codes, ids := p.Codes, p.IDs
	hasDead := p.HasDead()
	thr, full := heap.Threshold()
	for i := 0; i < p.N; i++ {
		id := int64(i)
		if ids != nil {
			id = ids[i]
		}
		if hasDead && p.IsDead(id) {
			continue
		}
		cd := codes[i*M : i*M+M : i*M+M]
		d := t0[cd[0]] + t1[cd[1]] + t2[cd[2]] + t3[cd[3]] +
			t4[cd[4]] + t5[cd[5]] + t6[cd[6]] + t7[cd[7]]
		// d > thr cannot displace a retained neighbor (ties go through
		// Push for the deterministic id-order rule).
		if full && d > thr {
			continue
		}
		if heap.Push(id, d) {
			if v, ok := heap.Threshold(); ok {
				thr, full = v, true
			}
		}
	}
	return stats
}
