package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/bits"
	"sync"
)

// An observation's record is its gob encoding by a fresh encoder: the
// type definitions, then one value message. It is the bench's checkpoint
// record and predictd's /v1/observe reply. ObservationReader reads the
// records this build's encoder writes by hand, in proportion to their
// bytes, and declines any other to encoding/gob, which reads it as before.

// EncodeObservation renders the observation's record. gob carries every
// float64 bit pattern, NaN and ±Inf included.
func EncodeObservation(ob *Observation) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(ob)
	return buf.Bytes(), err
}

// recordHead returns what every record of this build opens with — the
// type definitions a fresh encoder sends once, ahead of its first value,
// which its first message has over its second — and the type id the value
// message then carries. gob numbers types per process in the order it
// meets them, so this is computed on first use, not at init: a process
// that never reads a record (predictd) numbers its types as before.
var recordHead = sync.OnceValues(func() (defs []byte, id int64) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	enc.Encode(&Observation{})
	first := buf.Len()
	enc.Encode(&Observation{})
	defs = buf.Bytes()[:2*first-buf.Len()]
	d := gobReader(buf.Bytes()[first:])
	d.uint() // the value message's length
	id, _ = d.int()
	return defs, id
})

// obsFields is the number of Observation's fields, each read by a case of
// ObservationReader.read: TestObservationReaderCoversEveryField fails when
// a field is added that the reader does not know.
const obsFields = 11

// maxMessage is gob's bound on a message's length (its tooBig).
const maxMessage = (1 << 30) << (^uint(0) >> 62)

// ObservationReader decodes observation records. It interns the names a
// record holds (field, compressor, feature and metric names), so the
// records of one restore share their strings. The zero value is ready to
// use; it is not safe for concurrent use.
type ObservationReader struct {
	names map[string]string
}

// Read decodes the record raw into ob, which it overwrites. A record this
// build wrote is read by hand; any other — another build's definitions, a
// torn tail, trailing bytes — is decoded by a gob decoder of its own,
// whose error Read returns.
func (r *ObservationReader) Read(raw []byte, ob *Observation) error {
	*ob = Observation{}
	if r.read(raw, ob) {
		return nil
	}
	*ob = Observation{}
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(ob)
}

// read decodes raw into the zero ob by gob's rules when raw is this
// build's type definitions followed by one value message of Observation's
// type id that spans the rest of raw, and reports whether it did. It
// declines an unknown field number, a length or count past the bytes
// left, and an int that does not fit an int; ob is then partly written.
func (r *ObservationReader) read(raw []byte, ob *Observation) bool {
	defs, id := recordHead()
	if !bytes.HasPrefix(raw, defs) {
		return false
	}
	d := gobReader(raw[len(defs):])
	if n, ok := d.uint(); !ok || n != uint64(len(d)) || n >= uint64(maxMessage) {
		return false
	}
	if t, ok := d.int(); !ok || t != id {
		return false
	}
	// a struct is (field delta, value) pairs ended by a zero delta; a
	// field left at its zero value is not sent
	for field := -1; ; {
		delta, ok := d.uint()
		if !ok {
			return false
		}
		if delta == 0 {
			return len(d) == 0
		}
		if delta >= obsFields {
			return false
		}
		switch field += int(delta); field {
		case 0:
			ob.Field, ok = r.name(&d)
		case 1:
			ob.Step, ok = d.goInt()
		case 2:
			ob.Bound, ok = d.float()
		case 3:
			ob.Compressor, ok = r.name(&d)
		case 4:
			ob.Features, ok = r.floats(&d)
		case 5:
			ob.MetricMS, ok = r.floats(&d)
		case 6:
			ob.CR, ok = d.float()
		case 7:
			ob.CompressMS, ok = d.float()
		case 8:
			ob.DecompressMS, ok = d.float()
		case 9:
			ob.ByteSize, ok = d.goInt()
		case 10:
			ob.Replicates, ok = d.goInt()
		default:
			return false
		}
		if !ok {
			return false
		}
	}
}

// name reads a string and interns it.
func (r *ObservationReader) name(d *gobReader) (string, bool) {
	b, ok := d.bytes()
	if !ok {
		return "", false
	}
	if s, ok := r.names[string(b)]; ok {
		return s, true
	}
	if r.names == nil {
		r.names = map[string]string{}
	}
	s := string(b)
	r.names[s] = s
	return s, true
}

// floats reads a map[string]float64: a count, then that many key, value
// pairs. A sent map is never nil, however few entries it has.
func (r *ObservationReader) floats(d *gobReader) (map[string]float64, bool) {
	n, ok := d.uint()
	if !ok || n > uint64(len(*d)/2) { // an entry takes two bytes at least
		return nil, false
	}
	m := make(map[string]float64, n)
	for ; n > 0; n-- {
		k, ok := r.name(d)
		if !ok {
			return nil, false
		}
		if m[k], ok = d.float(); !ok {
			return nil, false
		}
	}
	return m, true
}

// gobReader is the unread rest of a gob message.
type gobReader []byte

// uint reads an unsigned integer: one byte below 0x80, else the negated
// count of the big-endian bytes that follow it, at most eight.
func (d *gobReader) uint() (uint64, bool) {
	b := *d
	if len(b) == 0 {
		return 0, false
	}
	if b[0] <= 0x7f {
		*d = b[1:]
		return uint64(b[0]), true
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) <= n {
		return 0, false
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	*d = b[1+n:]
	return x, true
}

// int reads a signed integer, sent as a uint whose low bit is the sign
// and whose other bits are the value, complemented when negative.
func (d *gobReader) int() (int64, bool) {
	x, ok := d.uint()
	if x&1 != 0 {
		return ^int64(x >> 1), ok
	}
	return int64(x >> 1), ok
}

// goInt reads an int field, declining a value an int cannot hold.
func (d *gobReader) goInt() (int, bool) {
	v, ok := d.int()
	return int(v), ok && int64(int(v)) == v
}

// float reads a float64, sent as a uint of its byte-reversed bits.
func (d *gobReader) float() (float64, bool) {
	x, ok := d.uint()
	return math.Float64frombits(bits.ReverseBytes64(x)), ok
}

// bytes reads a string's bytes: a length, then the bytes.
func (d *gobReader) bytes() ([]byte, bool) {
	n, ok := d.uint()
	if !ok || n > uint64(len(*d)) {
		return nil, false
	}
	b := (*d)[:n]
	*d = (*d)[n:]
	return b, true
}
