package service

// Pooled request decoding for the serving hot paths. encoding/json costs
// ~7 allocations per decoded detect request even when the target struct is
// reused; at the 100k+ req/s target that is the bulk of the serving garbage.
// wireScratch holds everything one request needs — body buffer, parser
// state, a routing.Route backing arena, and the response buffer — and cycles
// through a sync.Pool so the steady-state detect path allocates nothing for
// wire handling.
//
// The parser implements the subset of JSON the detect/analyze/batch
// requests use, with encoding/json-compatible semantics where they are
// observable: case-insensitive key fallback, last-key-wins duplicates,
// null as a field no-op, \u escapes (surrogate pairs included), invalid
// UTF-8 replaced with U+FFFD, and strict trailing-data rejection. Unknown
// fields are skipped with full validation. The existing fuzz targets
// (FuzzDetectDecoding and friends) run the same corpus against this parser
// as against the old decoder.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"samnet/internal/routing"
	"samnet/internal/sam"
	"samnet/internal/topology"
)

// maxParseDepth bounds skipped-value nesting so hostile bodies cannot
// overflow the parse stack. (encoding/json allows 10000; anything past this
// limit is a 400 either way.)
const maxParseDepth = 256

// Retention caps: a scratch grown past these by a pathological request is
// dropped instead of returned to the pool.
const (
	maxRetainedBody  = 1 << 20
	maxRetainedArena = 1 << 17
)

var wirePool = sync.Pool{New: func() any { return new(wireScratch) }}

// wireScratch is the per-request decode/encode scratch. Route slices handed
// to sam.Analyze alias the arena, so the scratch must stay checked out until
// the response is written.
type wireScratch struct {
	p    jparser
	body []byte

	// Decoded request fields (detect/batch/analyze).
	profile   []byte
	update    bool
	updateSet bool
	explain   bool
	topK      int

	// trace is the request's (or stream line's) hex trace id, "" when
	// tracing is off; decision records stamp it ring-side only.
	trace string

	// Route arena: node ids land contiguously in arena, spans records one
	// [start,end) per route, setEnds one end-index into spans per batch item.
	arena   []topology.NodeID
	spans   [][2]int
	setEnds []int
	routes  []routing.Route
	sets    [][]routing.Route

	// Batch execution and wire-verdict staging.
	stats    []sam.Stats
	verdicts []sam.Verdict
	itemErrs []error
	errStrs  []string
	tasks    []func()
	wire     []VerdictJSON

	// Encoded response and stream line buffer.
	out  []byte
	lbuf []byte
}

func getScratch() *wireScratch {
	sc := wirePool.Get().(*wireScratch)
	sc.reset()
	return sc
}

func putScratch(sc *wireScratch) {
	if cap(sc.body) > maxRetainedBody || cap(sc.out) > maxRetainedBody ||
		cap(sc.lbuf) > maxRetainedBody || cap(sc.arena) > maxRetainedArena {
		return
	}
	wirePool.Put(sc)
}

func (sc *wireScratch) reset() {
	sc.profile = sc.profile[:0]
	sc.update, sc.updateSet, sc.explain = false, false, false
	sc.topK = 0
	sc.trace = ""
	sc.resetRoutes()
	sc.out = sc.out[:0]
}

func (sc *wireScratch) resetRoutes() {
	sc.arena = sc.arena[:0]
	sc.spans = sc.spans[:0]
	sc.setEnds = sc.setEnds[:0]
	sc.routes = sc.routes[:0]
	sc.sets = sc.sets[:0]
}

// readBody slurps the request body into the pooled buffer, enforcing the
// configured size limit (the hot handlers skip http.MaxBytesReader and its
// per-request allocation; the limit lives here instead).
func (sc *wireScratch) readBody(r *http.Request, limit int64) error {
	buf := sc.body[:0]
	if cap(buf) == 0 {
		hint := r.ContentLength
		if hint <= 0 || hint > 4096 {
			hint = 4096
		}
		buf = make([]byte, 0, hint)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		sc.body = buf
		if int64(len(buf)) > limit {
			return errBodyTooLarge
		}
		switch {
		case err == io.EOF:
			return nil
		case err != nil:
			return fmt.Errorf("reading request body: %w", err)
		}
	}
}

// growSlice returns s resized to n zeroed elements, reusing its backing
// array when the capacity allows.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// requestUpdate resolves the adaptive-update flag with the wire default
// (absent or null means true, the paper's behaviour).
func (sc *wireScratch) requestUpdate() bool { return !sc.updateSet || sc.update }

// materializeRoutes builds the routing.Route headers over the final arena.
// It runs after parsing because the arena's backing array may move while it
// grows; spans are stable offsets, headers are not.
func (sc *wireScratch) materializeRoutes() {
	sc.routes = sc.routes[:0]
	for _, sp := range sc.spans {
		sc.routes = append(sc.routes, routing.Route(sc.arena[sp[0]:sp[1]:sp[1]]))
	}
	start := 0
	for _, end := range sc.setEnds {
		sc.sets = append(sc.sets, sc.routes[start:end:end])
		start = end
	}
}

// reqKind selects which request schema parseRequest decodes.
type reqKind int

const (
	kindDetect reqKind = iota
	kindBatch
	kindAnalyze
)

// parseRequest parses one request object of the given kind from sc.body,
// rejecting trailing data like decodeJSON. A bare null leaves every field
// zero, matching json.Decode into a struct pointer.
func (sc *wireScratch) parseRequest(kind reqKind) error {
	p := &sc.p
	p.init(sc.body)
	p.skipWS()
	if p.pos >= len(p.buf) {
		return errors.New("invalid JSON body: empty body")
	}
	switch p.buf[p.pos] {
	case 'n':
		if err := p.expectLiteral("null"); err != nil {
			return err
		}
	case '{':
		p.pos++
		p.skipWS()
		if p.peek() == '}' {
			p.pos++
			break
		}
	fields:
		for {
			p.skipWS()
			key, err := p.parseString()
			if err != nil {
				return err
			}
			p.skipWS()
			if p.peek() != ':' {
				return p.syntaxErr("expected ':' after object key")
			}
			p.pos++
			switch kind {
			case kindDetect:
				err = sc.detectField(key)
			case kindBatch:
				err = sc.batchField(key)
			case kindAnalyze:
				err = sc.analyzeField(key)
			}
			if err != nil {
				return err
			}
			p.skipWS()
			switch p.peek() {
			case ',':
				p.pos++
			case '}':
				p.pos++
				break fields
			default:
				return p.syntaxErr("expected ',' or '}'")
			}
		}
	default:
		return p.syntaxErr("expected request object")
	}
	p.skipWS()
	if p.pos != len(p.buf) {
		return errors.New("invalid JSON body: trailing data after the request object")
	}
	return nil
}

func (sc *wireScratch) detectField(key []byte) error {
	p := &sc.p
	switch {
	case keyIs(key, "profile"):
		return p.parseStringField(&sc.profile)
	case keyIs(key, "routes"):
		return sc.routesField()
	case keyIs(key, "update"):
		return p.parseBoolField(&sc.update, &sc.updateSet)
	case keyIs(key, "explain"):
		var set bool
		return p.parseBoolField(&sc.explain, &set)
	}
	return p.skipValue(0)
}

func (sc *wireScratch) batchField(key []byte) error {
	p := &sc.p
	switch {
	case keyIs(key, "profile"):
		return p.parseStringField(&sc.profile)
	case keyIs(key, "items"):
		return sc.itemsField()
	case keyIs(key, "update"):
		return p.parseBoolField(&sc.update, &sc.updateSet)
	}
	return p.skipValue(0)
}

func (sc *wireScratch) analyzeField(key []byte) error {
	p := &sc.p
	switch {
	case keyIs(key, "routes"):
		return sc.routesField()
	case keyIs(key, "top_k"):
		return p.parseIntField(&sc.topK)
	}
	return p.skipValue(0)
}

// routesField parses the "routes" value: null is a no-op (json semantics),
// an array replaces any earlier duplicate of the field.
func (sc *wireScratch) routesField() error {
	p := &sc.p
	p.skipWS()
	if p.peek() == 'n' {
		return p.expectLiteral("null")
	}
	sc.resetRoutes()
	_, err := sc.parseRouteSet()
	return err
}

// itemsField parses the "items" value of a batch request: an array of route
// sets, accumulated into the shared arena with per-set boundaries, under the
// same total-route cap decodeRouteSets enforces.
func (sc *wireScratch) itemsField() error {
	p := &sc.p
	p.skipWS()
	if p.peek() == 'n' {
		return p.expectLiteral("null")
	}
	sc.resetRoutes()
	if p.peek() != '[' {
		return p.syntaxErr("expected array of route sets")
	}
	p.pos++
	p.skipWS()
	if p.peek() == ']' {
		p.pos++
		return nil
	}
	total := 0
	for set := 0; ; set++ {
		n, err := sc.parseRouteSet()
		if err != nil {
			return fmt.Errorf("route set %d: %w", set, err)
		}
		total += n
		if total > maxRoutesPerSet*4 {
			return fmt.Errorf("request carries more than %d routes in total", maxRoutesPerSet*4)
		}
		sc.setEnds = append(sc.setEnds, len(sc.spans))
		p.skipWS()
		switch p.peek() {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return nil
		default:
			return p.syntaxErr("expected ',' or ']'")
		}
	}
}

// parseRouteSet parses one [[int,...],...] into the arena, appending one
// span per route, and returns the number of routes parsed. Null is an empty
// set. Semantic limits reuse decodeRoutes' messages.
func (sc *wireScratch) parseRouteSet() (int, error) {
	p := &sc.p
	p.skipWS()
	if p.peek() == 'n' {
		if err := p.expectLiteral("null"); err != nil {
			return 0, err
		}
		return 0, nil
	}
	if p.peek() != '[' {
		return 0, p.syntaxErr("expected route array")
	}
	p.pos++
	p.skipWS()
	if p.peek() == ']' {
		p.pos++
		return 0, nil
	}
	count := 0
	for {
		if err := sc.parseRoute(count); err != nil {
			return count, err
		}
		count++
		p.skipWS()
		switch p.peek() {
		case ',':
			p.pos++
		case ']':
			p.pos++
			if count > maxRoutesPerSet {
				return count, fmt.Errorf("route set has %d routes, limit %d", count, maxRoutesPerSet)
			}
			return count, nil
		default:
			return count, p.syntaxErr("expected ',' or ']'")
		}
	}
}

// parseRoute parses one [int,...] into the arena and records its span.
// A null element is an empty route, as encoding/json decodes it.
func (sc *wireScratch) parseRoute(routeIdx int) error {
	p := &sc.p
	p.skipWS()
	start := len(sc.arena)
	if p.peek() == 'n' {
		if err := p.expectLiteral("null"); err != nil {
			return err
		}
		sc.spans = append(sc.spans, [2]int{start, start})
		return nil
	}
	if p.peek() != '[' {
		return p.syntaxErr("expected route")
	}
	p.pos++
	p.skipWS()
	if p.peek() == ']' {
		p.pos++
		sc.spans = append(sc.spans, [2]int{start, start})
		return nil
	}
	for node := 0; ; node++ {
		id, err := p.parseIntValue()
		if err != nil {
			return err
		}
		if id < 0 || id > maxNodeID {
			return fmt.Errorf("route %d node %d: id %d out of range [0,%d]", routeIdx, node, id, maxNodeID)
		}
		sc.arena = append(sc.arena, topology.NodeID(id))
		p.skipWS()
		switch p.peek() {
		case ',':
			p.pos++
			p.skipWS()
		case ']':
			p.pos++
			if n := len(sc.arena) - start; n > maxRouteHops+1 {
				return fmt.Errorf("route %d has %d nodes, limit %d", routeIdx, n, maxRouteHops+1)
			}
			sc.spans = append(sc.spans, [2]int{start, len(sc.arena)})
			return nil
		default:
			return p.syntaxErr("expected ',' or ']'")
		}
	}
}

// keyIs matches an object key against a known (lower-case) field name:
// exact first, then ASCII case-insensitive, mirroring encoding/json's
// fallback.
func keyIs(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	if string(key) == name {
		return true
	}
	for i := 0; i < len(name); i++ {
		c := key[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// jparser is a minimal JSON parser over one in-memory body. String values
// alias either the body or the str scratch; both are stable only until the
// next parseString call.
type jparser struct {
	buf []byte
	pos int
	str []byte
}

func (p *jparser) init(b []byte) { p.buf, p.pos = b, 0 }

func (p *jparser) skipWS() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// peek returns the next byte without consuming it, 0 at end of input.
func (p *jparser) peek() byte {
	if p.pos < len(p.buf) {
		return p.buf[p.pos]
	}
	return 0
}

func (p *jparser) syntaxErr(what string) error {
	return fmt.Errorf("invalid JSON body: %s at offset %d", what, p.pos)
}

// literal consumes lit if it is next in the input.
func (p *jparser) literal(lit string) bool {
	if len(p.buf)-p.pos >= len(lit) && string(p.buf[p.pos:p.pos+len(lit)]) == lit {
		p.pos += len(lit)
		return true
	}
	return false
}

// expectLiteral consumes lit and requires a value boundary after it, so
// "nullx" is rejected like encoding/json would.
func (p *jparser) expectLiteral(lit string) error {
	if !p.literal(lit) {
		return p.syntaxErr("invalid literal")
	}
	return p.boundary()
}

// boundary requires the current byte to legally follow a completed value.
func (p *jparser) boundary() error {
	if p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r', ',', ']', '}':
		default:
			return p.syntaxErr("unexpected character after value")
		}
	}
	return nil
}

// parseStringField parses a string value into dst (reusing its capacity);
// null leaves dst untouched, like encoding/json decoding null into a string.
func (p *jparser) parseStringField(dst *[]byte) error {
	p.skipWS()
	if p.peek() == 'n' {
		return p.expectLiteral("null")
	}
	s, err := p.parseString()
	if err != nil {
		return err
	}
	*dst = append((*dst)[:0], s...)
	return nil
}

// parseBoolField parses true/false into dst and marks set; null is a no-op.
func (p *jparser) parseBoolField(dst, set *bool) error {
	p.skipWS()
	switch p.peek() {
	case 'n':
		return p.expectLiteral("null")
	case 't':
		if err := p.expectLiteral("true"); err != nil {
			return err
		}
		*dst, *set = true, true
		return nil
	case 'f':
		if err := p.expectLiteral("false"); err != nil {
			return err
		}
		*dst, *set = false, true
		return nil
	}
	return p.syntaxErr("expected boolean")
}

// parseIntField parses an integer value into dst; null is a no-op.
func (p *jparser) parseIntField(dst *int) error {
	p.skipWS()
	if p.peek() == 'n' {
		return p.expectLiteral("null")
	}
	v, err := p.parseIntValue()
	if err != nil {
		return err
	}
	*dst = int(v)
	return nil
}

// parseString parses a JSON string. The fast path covers ASCII without
// escapes and returns a slice into the body; escapes, control-character
// errors, and non-ASCII (which needs U+FFFD replacement of invalid UTF-8,
// as encoding/json does) take the slow path into the str scratch.
func (p *jparser) parseString() ([]byte, error) {
	if p.peek() != '"' {
		return nil, p.syntaxErr("expected string")
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		switch {
		case c == '"':
			s := p.buf[start:p.pos]
			p.pos++
			return s, nil
		case c == '\\' || c >= utf8.RuneSelf:
			return p.parseStringSlow(start)
		case c < 0x20:
			return nil, p.syntaxErr("control character in string")
		default:
			p.pos++
		}
	}
	return nil, p.syntaxErr("unterminated string")
}

func (p *jparser) parseStringSlow(start int) ([]byte, error) {
	out := append(p.str[:0], p.buf[start:p.pos]...)
	defer func() { p.str = out }()
	for p.pos < len(p.buf) {
		c := p.buf[p.pos]
		switch {
		case c == '"':
			p.pos++
			return out, nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.buf) {
				return nil, p.syntaxErr("unterminated escape")
			}
			e := p.buf[p.pos]
			p.pos++
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, err := p.hex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(rune(r)) {
					if p.pos+1 < len(p.buf) && p.buf[p.pos] == '\\' && p.buf[p.pos+1] == 'u' {
						save := p.pos
						p.pos += 2
						r2, err := p.hex4()
						if err != nil {
							return nil, err
						}
						if dec := utf16.DecodeRune(rune(r), rune(r2)); dec != utf8.RuneError {
							out = utf8.AppendRune(out, dec)
							continue
						}
						p.pos = save // lone surrogate; re-parse the next escape
					}
					out = utf8.AppendRune(out, utf8.RuneError)
				} else {
					out = utf8.AppendRune(out, rune(r))
				}
			default:
				return nil, p.syntaxErr("invalid escape")
			}
		case c < 0x20:
			return nil, p.syntaxErr("control character in string")
		case c < utf8.RuneSelf:
			out = append(out, c)
			p.pos++
		default:
			r, size := utf8.DecodeRune(p.buf[p.pos:])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, utf8.RuneError)
				p.pos++
			} else {
				out = append(out, p.buf[p.pos:p.pos+size]...)
				p.pos += size
			}
		}
	}
	return nil, p.syntaxErr("unterminated string")
}

func (p *jparser) hex4() (uint32, error) {
	if p.pos+4 > len(p.buf) {
		return 0, p.syntaxErr("invalid \\u escape")
	}
	var v uint32
	for i := 0; i < 4; i++ {
		c := p.buf[p.pos+i]
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint32(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		case 'A' <= c && c <= 'F':
			v = v<<4 | uint32(c-'A'+10)
		default:
			return 0, p.syntaxErr("invalid \\u escape")
		}
	}
	p.pos += 4
	return v, nil
}

// scanNumber validates a full JSON number literal and reports whether it is
// integral (no fraction or exponent).
func (p *jparser) scanNumber() (lit []byte, isInt bool, err error) {
	start := p.pos
	isInt = true
	if p.peek() == '-' {
		p.pos++
	}
	switch c := p.peek(); {
	case c == '0':
		p.pos++
	case '1' <= c && c <= '9':
		for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
			p.pos++
		}
	default:
		return nil, false, p.syntaxErr("expected number")
	}
	if p.peek() == '.' {
		isInt = false
		p.pos++
		if c := p.peek(); c < '0' || c > '9' {
			return nil, false, p.syntaxErr("malformed number")
		}
		for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
			p.pos++
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		isInt = false
		p.pos++
		if c := p.peek(); c == '+' || c == '-' {
			p.pos++
		}
		if c := p.peek(); c < '0' || c > '9' {
			return nil, false, p.syntaxErr("malformed number")
		}
		for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
			p.pos++
		}
	}
	if err := p.boundary(); err != nil {
		return nil, false, err
	}
	return p.buf[start:p.pos], isInt, nil
}

// parseIntValue parses a JSON number that must fit an int64, rejecting
// fractions and exponents the way encoding/json rejects them for int
// targets. Integers are validated and converted in one pass. A '.', 'e' or
// 'E' after the digits rescans the literal with scanNumber, which keeps the
// error precedence: a malformed literal reports its syntax error, a
// well-formed non-integer reports "not an integer", and only a well-formed
// integer can report an overflow.
func (p *jparser) parseIntValue() (int64, error) {
	start := p.pos
	neg := p.peek() == '-'
	if neg {
		p.pos++
	}
	var v int64
	overflow := false
	switch c := p.peek(); {
	case c == '0':
		p.pos++
	case '1' <= c && c <= '9':
		// v*10+d overflows exactly when v passes cutoff, or meets it
		// with d past MaxInt64's last digit.
		const cutoff = math.MaxInt64 / 10
		buf, i := p.buf, p.pos
		for ; i < len(buf) && '0' <= buf[i] && buf[i] <= '9'; i++ {
			d := int64(buf[i] - '0')
			if v > cutoff || v == cutoff && d > math.MaxInt64%10 {
				overflow = true
			}
			v = v*10 + d
		}
		p.pos = i
	default:
		return 0, p.syntaxErr("expected number")
	}
	if c := p.peek(); c == '.' || c == 'e' || c == 'E' {
		p.pos = start
		lit, _, err := p.scanNumber()
		if err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("invalid JSON body: number %s is not an integer", lit)
	}
	if err := p.boundary(); err != nil {
		return 0, err
	}
	if overflow {
		return 0, fmt.Errorf("invalid JSON body: number %s overflows", p.buf[start:p.pos])
	}
	if neg {
		v = -v
	}
	return v, nil
}

// skipValue validates and discards one JSON value of any shape (unknown
// request fields), bounding nesting at maxParseDepth.
func (p *jparser) skipValue(depth int) error {
	if depth > maxParseDepth {
		return errors.New("invalid JSON body: value nesting exceeds the limit")
	}
	p.skipWS()
	if p.pos >= len(p.buf) {
		return p.syntaxErr("unexpected end of value")
	}
	switch c := p.buf[p.pos]; c {
	case '"':
		_, err := p.parseString()
		return err
	case '{':
		p.pos++
		p.skipWS()
		if p.peek() == '}' {
			p.pos++
			return nil
		}
		for {
			p.skipWS()
			if _, err := p.parseString(); err != nil {
				return err
			}
			p.skipWS()
			if p.peek() != ':' {
				return p.syntaxErr("expected ':' after object key")
			}
			p.pos++
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			p.skipWS()
			switch p.peek() {
			case ',':
				p.pos++
			case '}':
				p.pos++
				return nil
			default:
				return p.syntaxErr("expected ',' or '}'")
			}
		}
	case '[':
		p.pos++
		p.skipWS()
		if p.peek() == ']' {
			p.pos++
			return nil
		}
		for {
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			p.skipWS()
			switch p.peek() {
			case ',':
				p.pos++
			case ']':
				p.pos++
				return nil
			default:
				return p.syntaxErr("expected ',' or ']'")
			}
		}
	case 't':
		return p.expectLiteral("true")
	case 'f':
		return p.expectLiteral("false")
	case 'n':
		return p.expectLiteral("null")
	default:
		_, _, err := p.scanNumber()
		return err
	}
}
