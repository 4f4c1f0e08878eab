package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"weakestfd/internal/net"
)

// The record line codec. A record line is one JSON object with the keys op,
// kind, at, seq, from, to, inst, type, tid, task, sent, proc and group, in
// that order: the Record fields (inst is Instance, sent is SentAt), each
// present only when the record's op and kind carry it and it is not zero.
// op and kind are text — "E", "G", "X"; "message", "timer", "crash" — and
// these are their only spellings in the package. An event always names its
// kind, even a message, whose kind byte is zero.
//
// The bytes are what encoding/json (with SetEscapeHTML(false)) prints for
// that object; codec_test.go keeps the reference struct and FuzzRecordCodec
// holds both functions to it. appendRecord prints a line without reflection
// and parseRecord reads back only lines in that form, so a loaded journal
// re-encodes to its input byte for byte, and a hand-edited line is refused,
// not normalised: one that merely means the same record (keys reordered,
// spaces, "at":0), an unknown op or kind, or a field its op and kind do not
// carry.

// opName is the text form of a record op; "" for an unknown one.
func opName(op byte) string {
	switch op {
	case net.TraceOpEvent:
		return "E"
	case net.TraceOpGrant:
		return "G"
	case net.TraceOpExit:
		return "X"
	}
	return ""
}

// kindName is the text form of an event kind; "" for an unknown one.
func kindName(kind byte) string {
	switch kind {
	case net.TraceKindMessage:
		return "message"
	case net.TraceKindTimer:
		return "timer"
	case net.TraceKindCrash:
		return "crash"
	}
	return ""
}

// String renders the record compactly for divergence reports: every field
// the replay checker compares, so two records that differ never print alike.
func (r Record) String() string {
	switch {
	case r.Op == net.TraceOpEvent && r.Kind == net.TraceKindMessage:
		return fmt.Sprintf("E message at=%d seq=%d %d->%d %s/%s sent=%d", r.At, r.Seq, r.From, r.To, r.Instance, r.Type, r.SentAt)
	case r.Op == net.TraceOpEvent && r.Kind == net.TraceKindTimer:
		return fmt.Sprintf("E timer at=%d seq=%d tid=%d", r.At, r.Seq, r.Tid)
	case r.Op == net.TraceOpEvent && r.Kind == net.TraceKindCrash:
		return fmt.Sprintf("E crash at=%d seq=%d p=%d", r.At, r.Seq, r.To)
	case r.Op == net.TraceOpGrant:
		return fmt.Sprintf("G task=%d proc=%d", r.Task, r.Proc)
	case r.Op == net.TraceOpExit:
		return fmt.Sprintf("X task=%d proc=%d group=%t", r.Task, r.Proc, r.Group)
	}
	return string(appendRecord(nil, &r))
}

// appendRecord appends r's canonical line, without the newline, to dst.
// A record built by hand with an unknown op or kind, or with a non-zero
// field its op and kind do not carry, encodes to a line Decode refuses.
func appendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, opName(r.Op))
	if r.Op == net.TraceOpEvent {
		dst = appendString(append(dst, `,"kind":`...), kindName(r.Kind))
	}
	dst = appendIntField(dst, `,"at":`, r.At)
	dst = appendUintField(dst, `,"seq":`, r.Seq)
	dst = appendUintField(dst, `,"from":`, r.From)
	dst = appendUintField(dst, `,"to":`, r.To)
	dst = appendStringField(dst, `,"inst":`, r.Instance)
	dst = appendStringField(dst, `,"type":`, r.Type)
	dst = appendUintField(dst, `,"tid":`, r.Tid)
	dst = appendUintField(dst, `,"task":`, r.Task)
	dst = appendIntField(dst, `,"sent":`, r.SentAt)
	dst = appendUintField(dst, `,"proc":`, r.Proc)
	if r.Group {
		dst = append(dst, `,"group":true`...)
	}
	return append(dst, '}')
}

func appendStringField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return appendString(append(dst, key...), v)
}

func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

func appendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

// plainByte reports whether encoding/json copies c into a string literal
// unescaped whatever surrounds it: printable ASCII other than '"' and '\'.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\'
}

// appendString appends s as a JSON string literal. Every name the protocols
// use is plain and copied as is; anything else goes through escapeString.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return escapeString(dst, s)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// escapeString appends s quoted exactly as encoding/json quotes it without
// HTML escaping: control bytes, '"', '\', U+2028/U+2029 escaped, invalid
// UTF-8 replaced by the U+FFFD escape.
func escapeString(dst []byte, s string) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(s) // a string always encodes; writes to a Buffer cannot fail
	return append(dst, bytes.TrimSuffix(b.Bytes(), []byte{'\n'})...)
}

// interner keeps one copy of each distinct record string of a decoded
// journal: a stream's inst and type values come from a small vocabulary,
// so decoding allocates per distinct name, not per record.
type interner map[string]string

func (in interner) get(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

// Record keys in canonical order; parseRecord demands strictly increasing
// indices, which refuses both reordered and duplicated keys.
const (
	keyOp = iota
	keyKind
	keyAt
	keySeq
	keyFrom
	keyTo
	keyInst
	keyType
	keyTid
	keyTask
	keySent
	keyProc
	keyGroup
)

// The keys each record shape carries, as bit sets over the key indices.
const (
	eventKeys   = 1<<keyKind | 1<<keyAt | 1<<keySeq
	messageKeys = eventKeys | 1<<keyFrom | 1<<keyTo | 1<<keyInst | 1<<keyType | 1<<keySent
	timerKeys   = eventKeys | 1<<keyTid
	crashKeys   = eventKeys | 1<<keyTo
	grantKeys   = 1<<keyTask | 1<<keyProc
	exitKeys    = grantKeys | 1<<keyGroup
)

func keyIndex(k []byte) int {
	switch string(k) {
	case "op":
		return keyOp
	case "kind":
		return keyKind
	case "at":
		return keyAt
	case "seq":
		return keySeq
	case "from":
		return keyFrom
	case "to":
		return keyTo
	case "inst":
		return keyInst
	case "type":
		return keyType
	case "tid":
		return keyTid
	case "task":
		return keyTask
	case "sent":
		return keySent
	case "proc":
		return keyProc
	case "group":
		return keyGroup
	}
	return -1
}

var errTruncated = errors.New("record line ends early")

// parseRecord decodes one record line into *r, accepting exactly the lines
// appendRecord writes for a record of a known op and kind: canonical key
// order, no duplicate or unknown keys, no key the op and kind do not carry,
// no whitespace, optional fields present only when non-zero, integers without
// sign or leading zeros beyond what strconv prints, strings escaped only where
// encoding/json escapes them, nothing after the closing brace. The U+FFFD
// escape the writer puts for invalid UTF-8 is refused too: it decodes to a
// string that re-encodes differently. Strings are interned through strs.
func parseRecord(line []byte, r *Record, strs interner) error {
	*r = Record{}
	p := recordParser{b: line, strs: strs}
	if !p.lit(`{"op":`) {
		return p.errorf(`want {"op":`)
	}
	var carried, last int
	switch {
	case p.lit(`"E","kind":`):
		r.Op, last = net.TraceOpEvent, keyKind
		switch {
		case p.lit(`"message"`):
			r.Kind, carried = net.TraceKindMessage, messageKeys
		case p.lit(`"timer"`):
			r.Kind, carried = net.TraceKindTimer, timerKeys
		case p.lit(`"crash"`):
			r.Kind, carried = net.TraceKindCrash, crashKeys
		default:
			return p.unknown("event kind")
		}
	case p.lit(`"E"`):
		return p.errorf(`want ,"kind": (an event names its kind)`)
	case p.lit(`"G"`):
		r.Op, carried = net.TraceOpGrant, grantKeys
	case p.lit(`"X"`):
		r.Op, carried = net.TraceOpExit, exitKeys
	default:
		return p.unknown("record op")
	}
	var err error
	for {
		if p.lit("}") {
			break
		}
		if !p.lit(`,"`) {
			return p.errorf("want , or }")
		}
		at := p.i
		for p.i < len(p.b) && p.b[p.i] != '"' {
			p.i++
		}
		if p.i == len(p.b) {
			return errTruncated
		}
		key := p.b[at:p.i]
		p.i++
		k := keyIndex(key)
		switch {
		case k < 0:
			return fmt.Errorf("byte %d: unknown key %q", at, key)
		case k <= last:
			return fmt.Errorf("byte %d: key %q out of canonical order (duplicate or reordered)", at, key)
		case carried&(1<<k) == 0:
			return fmt.Errorf("byte %d: key %q is not a field of this op and kind", at, key)
		}
		last = k
		if !p.lit(":") {
			return p.errorf("want : after key")
		}
		switch k {
		case keyAt:
			r.At, err = p.int()
		case keySeq:
			r.Seq, err = p.uint()
		case keyFrom:
			r.From, err = p.uint()
		case keyTo:
			r.To, err = p.uint()
		case keyInst:
			r.Instance, err = p.nonEmptyStr()
		case keyType:
			r.Type, err = p.nonEmptyStr()
		case keyTid:
			r.Tid, err = p.uint()
		case keyTask:
			r.Task, err = p.uint()
		case keySent:
			r.SentAt, err = p.int()
		case keyProc:
			r.Proc, err = p.uint()
		case keyGroup:
			if r.Group = p.lit("true"); !r.Group {
				err = p.errorf("want true (a false group is omitted)")
			}
		}
		if err != nil {
			return err
		}
	}
	if p.i != len(p.b) {
		return p.errorf("junk after the record")
	}
	return nil
}

// recordParser is parseRecord's cursor over one line.
type recordParser struct {
	b    []byte
	i    int
	strs interner
}

// errorf reports what the parser wanted at the cursor.
func (p *recordParser) errorf(want string) error {
	if p.i >= len(p.b) {
		return errTruncated
	}
	return fmt.Errorf("byte %d: %s", p.i, want)
}

// unknown reports the string at the cursor as an unknown value of what, or
// why it is no canonical string.
func (p *recordParser) unknown(what string) error {
	at := p.i
	s, err := p.str()
	if err != nil {
		return err
	}
	return fmt.Errorf("byte %d: unknown %s %q", at, what, s)
}

// lit consumes s if the line continues with it.
func (p *recordParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) {
		return false
	}
	// A byte loop: the literals are a few bytes, too short for memequal.
	for k := 0; k < len(s); k++ {
		if p.b[p.i+k] != s[k] {
			return false
		}
	}
	p.i += len(s)
	return true
}

// str consumes a string literal. The plain fast path is a slice of the line;
// a literal with escapes or non-ASCII bytes is decoded by encoding/json and
// accepted only if escapeString gives back the same bytes.
func (p *recordParser) str() (string, error) {
	if !p.lit(`"`) {
		return "", p.errorf("want a string")
	}
	start, plain := p.i, true
	for ; p.i < len(p.b); p.i++ {
		c := p.b[p.i]
		switch {
		case c == '"':
			p.i++
			if plain {
				return p.strs.get(p.b[start : p.i-1]), nil
			}
			return p.escaped(p.b[start-1 : p.i])
		case c == '\\':
			plain = false
			p.i++ // the escaped byte cannot close the literal
		case !plainByte(c):
			plain = false
		}
	}
	return "", errTruncated
}

// escaped is str's slow path for the whole literal lit, quotes included.
func (p *recordParser) escaped(lit []byte) (string, error) {
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return "", fmt.Errorf("byte %d: string %s: %v", p.i-len(lit), lit, err)
	}
	if !bytes.Equal(escapeString(nil, s), lit) {
		return "", fmt.Errorf("byte %d: string %s is not escaped canonically", p.i-len(lit), lit)
	}
	return s, nil
}

// nonEmptyStr is str for omitempty fields: an empty one is never written.
func (p *recordParser) nonEmptyStr() (string, error) {
	s, err := p.str()
	if err == nil && s == "" {
		err = p.errorf(`explicit "" (an empty field is omitted)`)
	}
	return s, err
}

// uint consumes a non-zero decimal with no sign and no leading zero: an
// omitempty integer is only ever written when non-zero.
func (p *recordParser) uint() (uint64, error) {
	if p.i >= len(p.b) {
		return 0, errTruncated
	}
	if c := p.b[p.i]; c < '1' || c > '9' {
		return 0, p.errorf("want a non-zero integer without sign or leading zero")
	}
	var v uint64
	for ; p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9'; p.i++ {
		d := uint64(p.b[p.i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, p.errorf("integer overflows 64 bits")
		}
		v = v*10 + d
	}
	return v, nil
}

// int is uint with an optional minus sign, range-checked to int64.
func (p *recordParser) int() (int64, error) {
	neg := p.lit("-")
	v, err := p.uint()
	switch {
	case err != nil:
		return 0, err
	case neg && v <= 1<<63:
		return -int64(v), nil // -(1<<63) wraps to MinInt64, as wanted
	case !neg && v <= math.MaxInt64:
		return int64(v), nil
	}
	return 0, p.errorf("integer overflows int64")
}
