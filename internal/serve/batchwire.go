package serve

import (
	"encoding/json"
	"math"
	"strconv"
)

// The batch endpoint's wire work is done here by hand, proportional to
// bytes: a 4004-item body is two flat columns, and its reply 4004 items
// whose bytes were fixed when their cells were cached. The scanner reads
// only bodies it is certain about and declines the rest to encoding/json;
// the encoder writes what encoding/json would, byte for byte.

// maxInterned bounds the scratch's string table, in entries and in bytes
// per entry; past either a name costs its own allocation, and a full table
// is cleared when the scratch's next request starts to decode.
const maxInterned = 256

// intern returns b as a string shared with every earlier occurrence the
// scratch has seen: a batch names a handful of fields thousands of times.
func (sc *batchScratch) intern(b []byte) string {
	if s, ok := sc.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxInterned && len(sc.names) < maxInterned {
		if sc.names == nil {
			sc.names = map[string]string{}
		}
		sc.names[s] = s
	}
	return s
}

// name consumes a string and interns it.
func (sc *batchScratch) name(p *scanner) (string, bool) {
	b, ok := p.str()
	if !ok {
		return "", false
	}
	return sc.intern(b), true
}

// scan fills sc.req from sc.body when the body is the plain columnar
// object every client writes: known keys once each, ASCII strings without
// escapes, strict JSON numbers (integers for dims and steps), no nulls,
// nothing but whitespace after the closing brace. It reports false —
// having possibly half-filled sc.req — for anything else, valid or not,
// and the caller decodes those bytes with encoding/json instead, so a
// malformed body is refused by the decoder that always refused it.
func (sc *batchScratch) scan() bool {
	p := scanner{b: sc.body.Bytes()}
	req := &sc.req
	if !p.lit('{') {
		return false
	}
	const (
		kScheme = 1 << iota
		kCompressor
		kOptions
		kAlpha
		kDims
		kFields
		kSteps
		kFeatures
	)
	seen := 0
	for first := true; !p.lit('}'); first = false {
		if !first && !p.lit(',') {
			return false
		}
		key, ok := p.str()
		if !ok || !p.lit(':') {
			return false
		}
		var k int
		switch string(key) {
		case "scheme":
			k = kScheme
			req.Scheme, ok = sc.name(&p)
		case "compressor":
			k = kCompressor
			req.Compressor, ok = sc.name(&p)
		case "options":
			k = kOptions
			obj := p.object()
			ok = obj != nil && json.Unmarshal(obj, &req.Options) == nil
		case "alpha":
			k = kAlpha
			req.Alpha, ok = p.float()
		case "dims":
			k = kDims
			req.Dims, ok = scanInts(&p, req.Dims)
		case "fields":
			k = kFields
			if req.Fields == nil {
				req.Fields = []string{}
			}
			ok = p.array(func() bool {
				name, ok := sc.name(&p)
				req.Fields = append(req.Fields, name)
				return ok
			})
		case "steps":
			k = kSteps
			req.Steps, ok = scanInts(&p, req.Steps)
		case "features":
			k = kFeatures
			if req.Features == nil {
				req.Features = []float64{}
			}
			ok = p.array(func() bool {
				f, ok := p.float()
				req.Features = append(req.Features, f)
				return ok
			})
		}
		if !ok || k == 0 || seen&k != 0 {
			return false
		}
		seen |= k
	}
	p.ws()
	return p.i == len(p.b)
}

// scanInts scans an array of integers onto dst, non-nil even when empty,
// as encoding/json leaves a slice whose key was present.
func scanInts(p *scanner, dst []int) ([]int, bool) {
	if dst == nil {
		dst = []int{}
	}
	ok := p.array(func() bool {
		n, ok := p.integer()
		dst = append(dst, n)
		return ok
	})
	return dst, ok
}

// scanner is a cursor over a JSON text. Each method consumes one token
// after any whitespace, or reports failure; after a failure the cursor
// is meaningless and the scan is abandoned.
type scanner struct {
	b []byte
	i int
}

func (p *scanner) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// lit consumes the punctuation byte c if it is next.
func (p *scanner) lit(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII with no escapes — one whose
// bytes between the quotes are its value.
func (p *scanner) str() ([]byte, bool) {
	if !p.lit('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// array consumes '[', elements separated by ',', and ']'.
func (p *scanner) array(elem func() bool) bool {
	if !p.lit('[') {
		return false
	}
	for first := true; !p.lit(']'); first = false {
		if (!first && !p.lit(',')) || !elem() {
			return false
		}
	}
	return true
}

// number consumes a number in JSON's grammar (no leading zeros, digits on
// both sides of a point, digits in an exponent) and reports whether it
// is written as an integer; nil means the next token is not a number.
// The byte after it is the caller's to check: it expects punctuation.
func (p *scanner) number() (tok []byte, integer bool) {
	p.ws()
	b, i := p.b, p.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if integer = false; !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if integer = false; !digits() {
			return nil, false
		}
	}
	tok, p.i = b[p.i:i], i
	return tok, integer
}

// integer consumes a number written as an integer that an int holds (18
// digits cannot overflow the int64 they are summed in).
func (p *scanner) integer() (int, bool) {
	tok, integer := p.number()
	if !integer || len(tok) > 18 {
		return 0, false
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var n int64
	for _, c := range tok {
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return int(n), int64(int(n)) == n
}

// float consumes a number as encoding/json reads one into a float64;
// out of range is a failure, as it is there.
func (p *scanner) float() (float64, bool) {
	tok, _ := p.number()
	if tok == nil {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// object returns the extent of the JSON object at the cursor, found by
// its strings and brackets alone; whether those bytes are JSON is for
// json.Unmarshal to say. nil means no object starts here, it is not
// closed, or it nests deeper than anything this scanner vouches for.
func (p *scanner) object() []byte {
	p.ws()
	start := p.i
	if start >= len(p.b) || p.b[start] != '{' {
		return nil
	}
	depth := 0
	for i := start; i < len(p.b); i++ {
		switch p.b[i] {
		case '"':
			for i++; i < len(p.b) && p.b[i] != '"'; i++ {
				if p.b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if depth++; depth > 32 {
				return nil
			}
		case '}', ']':
			if depth--; depth == 0 {
				p.i = i + 1
				return p.b[start:p.i]
			}
		}
	}
	return nil
}

// appendBatchResponse appends resp as json.Encoder writes it, newline
// included: the envelope, then each item's encoding.
func appendBatchResponse(dst []byte, resp *BatchResponse) []byte {
	dst = appendString(append(dst, `{"scheme":`...), resp.Scheme)
	dst = appendString(append(dst, `,"compressor":`...), resp.Compressor)
	dst = appendString(append(dst, `,"target":`...), resp.Target)
	if resp.Model != "" {
		dst = appendString(append(dst, `,"model":`...), resp.Model)
	}
	dst = strconv.AppendInt(append(dst, `,"count":`...), int64(resp.Count), 10)
	dst = strconv.AppendInt(append(dst, `,"errors":`...), int64(resp.Errors), 10)
	dst = append(dst, `,"results":[`...)
	for i := range resp.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendItem(dst, &resp.Results[i])
	}
	return append(dst, "]}\n"...)
}

// appendItem appends one batch item as encoding/json encodes a
// BatchItemResult. An item served from the cache is its cell's fragment,
// copied; every other item — computed, failed, or a cell's fragment
// being built — is encoded here. The floats are finite:
// predictFeatureRow turns any other prediction into the item's error.
func appendItem(dst []byte, r *BatchItemResult) []byte {
	if r.frag != "" {
		return append(dst, r.frag...)
	}
	dst = appendFloat(append(dst, `{"prediction":`...), r.Prediction)
	if len(r.Interval) > 0 {
		dst = append(dst, `,"interval":[`...)
		for i, f := range r.Interval {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, f)
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendBool(append(dst, `,"cached":`...), r.Cached)
	if r.Error != "" {
		dst = appendString(append(dst, `,"error":`...), r.Error)
	}
	return append(dst, '}')
}

// appendFloat is encoding/json's float64 encoding: the shortest decimal
// that round-trips, in exponent form outside [1e-6, 1e21) with a
// two-digit negative exponent's leading zero dropped.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendString appends s as a JSON string. Printable ASCII that neither
// JSON nor encoding/json's HTML-safe mode escapes is copied between
// quotes; any other string is encoding/json's to quote.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
