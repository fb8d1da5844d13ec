// Wire path of the batch endpoints (/exists, /degree, /neighbors), DESIGN.md
// "Wire path": a scanner that decodes the query string's decimal items
// straight into a pooled slice, and encoders that write the JSON body into a
// pooled byte buffer sent with one Write. Every accepted request gets the
// bytes encoding/json produced for []map[string]any (keys in sorted order,
// "[]" for an empty row, a trailing newline); every refused request gets the
// status and error text the strings.Split parsers gave. wire_test.go keeps
// both as the reference it is tested against.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/obs"
	"csrgraph/internal/trace"
)

// wireScratch is one batch request's working memory: the decoded items and
// the response body. It holds numbers and bytes of its own only — nothing
// of the request survives the Put.
type wireScratch struct {
	nodes []edgelist.NodeID
	edges []edgelist.Edge
	buf   []byte
	clen  [1]string // the Content-Length header's value slice
}

var wirePool = sync.Pool{New: func() any { return new(wireScratch) }}

// maxPooledBuf is the largest response buffer that goes back to the pool.
// A larger one is dropped after its reply, so resident memory does not
// grow with the largest reply ever sent. (The item slices are bounded by
// maxBatch: 800 KB of edges.)
const maxPooledBuf = 1 << 20

// jsonContentType is the Content-Type value of every batch reply, shared:
// net/http reads header values, never writes them.
var jsonContentType = []string{"application/json"}

var respBuffersDropped = obs.GetCounter("csrgraph_http_resp_buffers_dropped_total")

// scanState is why a scanner stopped.
type scanState uint8

const (
	scanDone scanState = iota // the value is exhausted
	scanFull                  // dst is full and another item follows
	scanSlow                  // the item at next is not plain in-range decimal
)

// grammar is one item form of the batch query values.
type grammar[T any] struct {
	key string
	// scan decodes plain items of s from pos on into dst — decimal, below
	// n, separated by single commas — and stops at the first that is not.
	scan func(dst []T, s string, pos int, n uint64) (k, next int, st scanState)
	// item decodes one comma-free part the tolerant way (surrounding white
	// space allowed) or says what is wrong with it.
	item    func(part string, n int) (T, error)
	missing error
}

var (
	nodeGrammar = grammar[edgelist.NodeID]{"nodes", scanNodes, parseNodeItem, errors.New("missing nodes parameter")}
	edgeGrammar = grammar[edgelist.Edge]{"edges", scanEdges, parseEdgeItem, errors.New("missing edges parameter")}
)

// scanUint decodes the decimal run at s[i:], returning its value and the
// index of the first byte that is not a digit. Values above 32 bits clamp
// to 1<<32, which no node id reaches.
//
//csr:hotpath
func scanUint(s string, i int) (v uint64, end int) {
	for ; i < len(s); i++ {
		c := uint64(s[i] - '0')
		if c > 9 {
			break
		}
		v = v*10 + c
		if v > math.MaxUint32 {
			v = math.MaxUint32 + 1
		}
	}
	return v, i
}

// scanNodes is the nodes grammar's scan: items are "u".
//
//csr:hotpath
func scanNodes(dst []edgelist.NodeID, s string, pos int, n uint64) (k, next int, st scanState) {
	for {
		if k == len(dst) {
			return k, pos, scanFull
		}
		u, i := scanUint(s, pos)
		if i == pos || u >= n || (i < len(s) && s[i] != ',') {
			return k, pos, scanSlow
		}
		dst[k] = edgelist.NodeID(u)
		k++
		if i == len(s) {
			return k, i, scanDone
		}
		pos = i + 1
	}
}

// scanEdges is the edges grammar's scan: items are "u:v".
//
//csr:hotpath
func scanEdges(dst []edgelist.Edge, s string, pos int, n uint64) (k, next int, st scanState) {
	for {
		if k == len(dst) {
			return k, pos, scanFull
		}
		u, i := scanUint(s, pos)
		if i == pos || i == len(s) || s[i] != ':' || u >= n {
			return k, pos, scanSlow
		}
		v, j := scanUint(s, i+1)
		if j == i+1 || v >= n || (j < len(s) && s[j] != ',') {
			return k, pos, scanSlow
		}
		dst[k] = edgelist.Edge{U: edgelist.NodeID(u), V: edgelist.NodeID(v)}
		k++
		if j == len(s) {
			return k, j, scanDone
		}
		pos = j + 1
	}
}

func parseNodeItem(part string, n int) (edgelist.NodeID, error) {
	v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q", part)
	}
	if int(v) >= n {
		return 0, fmt.Errorf("node %d out of range [0,%d)", v, n)
	}
	return edgelist.NodeID(v), nil
}

func parseEdgeItem(part string, n int) (edgelist.Edge, error) {
	us, vs, ok := strings.Cut(strings.TrimSpace(part), ":")
	if !ok {
		return edgelist.Edge{}, fmt.Errorf("bad edge %q, want u:v", part)
	}
	u, err := strconv.ParseUint(us, 10, 32)
	if err != nil {
		return edgelist.Edge{}, fmt.Errorf("bad edge %q", part)
	}
	v, err := strconv.ParseUint(vs, 10, 32)
	if err != nil {
		return edgelist.Edge{}, fmt.Errorf("bad edge %q", part)
	}
	if int(u) >= n || int(v) >= n {
		return edgelist.Edge{}, fmt.Errorf("edge %q out of range [0,%d)", part, n)
	}
	return edgelist.Edge{U: edgelist.NodeID(u), V: edgelist.NodeID(v)}, nil
}

// parseBatch decodes the first g.key value of rawQuery — the one
// r.URL.Query().Get(g.key) returns — into dst, whose backing array it
// reuses and, past its capacity, replaces. The returned slice is the one to
// keep on every path; it is empty when err is not nil.
//
// The value is scanned as it stands in the query string. Only when the
// scanner stops at a byte that url.ParseQuery treats specially is the pair
// resolved the way ParseQuery does (a ';' drops it, a bad escape drops it,
// otherwise it is unescaped) and scanned again.
func parseBatch[T any](dst []T, rawQuery string, g *grammar[T], n int) ([]T, error) {
	for rest := rawQuery; rest != ""; {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		k, v, _ := strings.Cut(pair, "=")
		if k != g.key {
			// An escaped spelling of the key is as good as the plain one.
			if strings.IndexByte(k, '%') < 0 || strings.IndexByte(k, ';') >= 0 {
				continue
			}
			if uk, err := url.QueryUnescape(k); err != nil || uk != g.key {
				continue
			}
		}
		out, escaped, err := parseList(dst, v, g, n, true)
		if !escaped {
			return out, err
		}
		dst = out
		if strings.IndexByte(v, ';') >= 0 {
			continue
		}
		uv, err := url.QueryUnescape(v)
		if err != nil {
			continue
		}
		out, _, err = parseList(dst, uv, g, n, false)
		return out, err
	}
	return dst[:0], g.missing
}

// parseList decodes the comma-separated items of s into dst (see
// parseBatch for dst). With raw set, s is a query value not yet unescaped:
// as soon as the batch would be refused or an item needs the tolerant
// decoder, a ';', '%' or '+' anywhere ahead returns escaped instead, for
// the caller to resolve the value first.
//
// maxBatch is enforced here, before the item slice can outgrow it: a
// longer value is refused after maxBatch items, its separators counted for
// the message but nothing of it stored.
func parseList[T any](dst []T, s string, g *grammar[T], n int, raw bool) (out []T, escaped bool, err error) {
	if s == "" {
		return dst[:0], false, g.missing
	}
	dst = dst[:min(cap(dst), maxBatch)]
	k, pos, vetted := 0, 0, false
	for {
		got, next, st := g.scan(dst[k:], s, pos, uint64(n))
		k, pos = k+got, next
		if st == scanDone {
			return dst[:k], false, nil
		}
		if st == scanFull && k < maxBatch {
			dst = append(dst, make([]T, min(max(k, 64), maxBatch-k))...)
			continue
		}
		if !vetted {
			// Out of the plain grammar for the first time: settle, once,
			// what has to be known about the value as a whole.
			if raw && strings.IndexAny(s[pos:], ";%+") >= 0 {
				return dst[:0], true, nil
			}
			// The limit outranks any item error, as it did when the length
			// of strings.Split's result was compared first.
			if parts := strings.Count(s, ",") + 1; parts > maxBatch {
				return dst[:0], false, fmt.Errorf("batch of %d exceeds limit %d", parts, maxBatch)
			}
			vetted = true
		}
		part, _, more := strings.Cut(s[pos:], ",")
		v, err := g.item(part, n)
		if err != nil {
			return dst[:0], false, err
		}
		dst[k] = v
		k++
		pos += len(part) + 1
		if !more {
			return dst[:k], false, nil
		}
	}
}

// Longest possible items of the three bodies, separator included: ids are
// below 1<<32 (10 digits), a degree is an int (20).
const (
	existsItemMax   = len(`{"exists":false,"u":4294967295,"v":4294967295},`)
	degreeItemMax   = len(`{"degree":18446744073709551615,"node":4294967295},`)
	neighborItemMax = len(`{"neighbors":[],"node":4294967295},`)
	neighborMax     = len(`4294967295,`)
)

// digitQuads[v] is v in four ASCII digits, leading zeros kept, the first
// digit in the low byte: what a little-endian store puts down in reading
// order. 40 KB, built once.
var digitQuads [1e4]uint32

func init() {
	for v := range digitQuads {
		digitQuads[v] = uint32('0'+v/1000) | uint32('0'+v/100%10)<<8 |
			uint32('0'+v/10%10)<<16 | uint32('0'+v%10)<<24
	}
}

// wireSlack is the room every kernel below needs in b after the last byte
// of text it is asked to write: they put digits down eight bytes at a
// store, whatever the number's length.
const wireSlack = 8

// putUint32 writes v in decimal at b[i:] and returns the index after its
// last digit. Below 1e8 the number is eight digits from two table lookups
// in one word, the leading zeros counted and shifted out, one store; from
// 1e8 the one or two digits above the low eight go first.
//
//csr:hotpath
func putUint32(b []byte, i int, v uint32) int {
	if v >= 1e8 {
		top := v / 1e8
		v -= top * 1e8
		if top >= 10 {
			b[i] = byte('0' + top/10)
			i++
		}
		b[i] = byte('0' + top%10)
		binary.LittleEndian.PutUint64(b[i+1:], uint64(digitQuads[v/1e4])|uint64(digitQuads[v%1e4])<<32)
		return i + 9
	}
	d := uint64(digitQuads[v/1e4]) | uint64(digitQuads[v%1e4])<<32
	// A '0' byte is zero after the xor; bit 56 keeps the last digit of 0.
	skip := bits.TrailingZeros64(d^0x3030303030303030|1<<56) &^ 7
	binary.LittleEndian.PutUint64(b[i:], d>>skip)
	return i + 8 - skip/8
}

// putRow writes row in decimal at b[i:], comma-separated, and returns the
// index after the last digit. A CSR row is ascending, so the digit count
// changes at most nine times along it: each length from five to eight
// digits has a loop of its own in which every shift is a constant and a
// value and its comma are one store. A loop ends at the first value
// outside its class, so any order is encoded correctly and a sorted one
// with predictable branches. Shorter and longer values go through
// putUint32.
//
//csr:hotpath
func putRow(b []byte, i int, row []uint32) int {
	if len(row) == 0 {
		return i
	}
	for k := 0; k < len(row); {
		switch v := row[k]; {
		case v < 1e4 || v >= 1e8:
			i = putUint32(b, i, v)
			b[i] = ','
			i++
			k++
		case v < 1e5:
			for ; k < len(row); k++ {
				v := row[k]
				if v < 1e4 || v >= 1e5 {
					break
				}
				binary.LittleEndian.PutUint64(b[i:], uint64('0'+v/1e4)|uint64(digitQuads[v%1e4])<<8|','<<40)
				i += 6
			}
		case v < 1e6:
			for ; k < len(row); k++ {
				v := row[k]
				if v < 1e5 || v >= 1e6 {
					break
				}
				binary.LittleEndian.PutUint64(b[i:], uint64(digitQuads[v/1e4]>>16)|uint64(digitQuads[v%1e4])<<16|','<<48)
				i += 7
			}
		case v < 1e7:
			for ; k < len(row); k++ {
				v := row[k]
				if v < 1e6 || v >= 1e7 {
					break
				}
				binary.LittleEndian.PutUint64(b[i:], uint64(digitQuads[v/1e4]>>8)|uint64(digitQuads[v%1e4])<<24|','<<56)
				i += 8
			}
		default:
			for ; k < len(row); k++ {
				v := row[k]
				if v < 1e7 || v >= 1e8 {
					break
				}
				binary.LittleEndian.PutUint64(b[i:], uint64(digitQuads[v/1e4])|uint64(digitQuads[v%1e4])<<32)
				b[i+8] = ','
				i += 9
			}
		}
	}
	return i - 1 // the last comma
}

// putUint64 is putUint32 for a degree, the one number on the wire that is
// not an id: what exceeds 32 bits is peeled off nine digits at a time.
//
//csr:hotpath
func putUint64(b []byte, i int, v uint64) int {
	if v <= math.MaxUint32 {
		return putUint32(b, i, uint32(v))
	}
	i = putUint64(b, i, v/1e9)
	r := uint32(v % 1e9)
	for j := i + 8; j >= i; j-- {
		b[j] = byte('0' + r%10)
		r /= 10
	}
	return i + 9
}

// encodeExists writes the /exists body into b, which must have room for
// existsItemMax bytes per edge plus 2 plus wireSlack, and returns its
// length.
//
//csr:hotpath
func encodeExists(b []byte, edges []edgelist.Edge, exists []bool) int {
	b[0] = '['
	i := 1
	for k, e := range edges {
		if exists[k] {
			i += copy(b[i:], `{"exists":true,"u":`)
		} else {
			i += copy(b[i:], `{"exists":false,"u":`)
		}
		i = putUint32(b, i, e.U)
		i += copy(b[i:], `,"v":`)
		i = putUint32(b, i, e.V)
		i += copy(b[i:], `},`)
	}
	return closeArray(b, i)
}

// encodeDegrees writes the /degree body into b, which must have room for
// degreeItemMax bytes per node plus 2 plus wireSlack, and returns its
// length.
//
//csr:hotpath
func encodeDegrees(b []byte, nodes []edgelist.NodeID, degrees []int) int {
	b[0] = '['
	i := 1
	for k, u := range nodes {
		i += copy(b[i:], `{"degree":`)
		i = putUint64(b, i, uint64(degrees[k]))
		i += copy(b[i:], `,"node":`)
		i = putUint32(b, i, u)
		i += copy(b[i:], `},`)
	}
	return closeArray(b, i)
}

// encodeNeighbors writes the /neighbors body into b, which must have room
// for neighborItemMax bytes per node, neighborMax per neighbor, 2 and
// wireSlack, and returns its length. Rows are read, never kept or written:
// they may be the backend's shared ones.
//
//csr:hotpath
func encodeNeighbors(b []byte, nodes []edgelist.NodeID, rows [][]uint32) int {
	b[0] = '['
	i := 1
	for k, u := range nodes {
		i += copy(b[i:], `{"neighbors":[`)
		i = putRow(b, i, rows[k])
		i += copy(b[i:], `],"node":`)
		i = putUint32(b, i, u)
		i += copy(b[i:], `},`)
	}
	return closeArray(b, i)
}

// closeArray turns the last item's comma at b[i-1] into the closing
// bracket and ends the body the way json.Encoder does.
//
//csr:hotpath
func closeArray(b []byte, i int) int {
	b[i-1] = ']'
	b[i] = '\n'
	return i + 1
}

// writeBody sends sc.buf as the whole response: explicit Content-Length,
// one Write, so net/http neither sniffs nor chunks.
func (h *Handler) writeBody(w http.ResponseWriter, sc *wireScratch, tr *trace.Trace) {
	ws := tr.Now()
	// Canonical keys and ready-made value slices: what Header.Set would
	// check and allocate per reply. net/http clones the header map in
	// WriteHeader, which Write calls, so sc.clen is free again by the time
	// the scratch is.
	hdr := w.Header()
	hdr["Content-Type"] = jsonContentType
	sc.clen[0] = strconv.Itoa(len(sc.buf))
	hdr["Content-Length"] = sc.clen[:]
	if _, err := w.Write(sc.buf); err != nil {
		jsonEncodeErrors.Inc()
		h.o.errLog().Warn("response write failed", "err", err)
	}
	tr.Span(trace.StageWrite, len(sc.buf), ws)
	if cap(sc.buf) > maxPooledBuf {
		sc.buf = nil
		respBuffersDropped.Inc()
	}
}
