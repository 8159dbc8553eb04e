package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
)

// An endpoint request is read once, whole, into a pooled buffer, and its
// trace_b64 member is base64-decoded from those bytes into a second pooled
// buffer: an upload never becomes a Go string, and its trace is never
// copied again (the slab /v1/score scores adopts the decoded bytes). What
// the body says otherwise is still decoded by encoding/json, so every
// other field, the unknown-field refusal and the first-value-only rule
// stay the library's.

// maxPooled caps the buffers kept for reuse, so one large body does not
// stay resident after its request.
const maxPooled = 1 << 20

// reqBufs is one request's pair of buffers: the body as read and the
// trace decoded from it.
type reqBufs struct {
	body  bytes.Buffer
	trace []byte
}

var reqPool = sync.Pool{New: func() any { return new(reqBufs) }}

// readBody reads r's body whole into b, at most limit bytes of it, and
// returns the bytes with the error, if any, that ended the read before
// EOF: a *http.MaxBytesError when the body runs past limit.
func (b *reqBufs) readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	b.body.Reset()
	// Pre-size from Content-Length, up to maxPooled: past that the buffer
	// grows only as bytes arrive.
	b.body.Grow(int(min(r.ContentLength, maxPooled)) + bytes.MinRead)
	_, err := b.body.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return b.body.Bytes(), err
}

// release returns b to the pool once req's response is written: req's
// upload aliases b.trace, and the slab scored from it aliases the upload.
func (b *reqBufs) release(req *Request) {
	if req.upload != nil {
		b.trace = req.upload
	}
	if b.body.Cap() > maxPooled {
		b.body = bytes.Buffer{}
	}
	if cap(b.trace) > maxPooled {
		b.trace = nil
	}
	reqPool.Put(b)
}

// decodeRequest decodes req from body, the bytes read before readErr ended
// the read (nil: all of them), exactly as a json.Decoder with
// DisallowUnknownFields decodes the first JSON value of the stream of
// body then readErr, and returns the decoder's error. When the body is an
// object whose trace_b64 is a valid base64 string, that string is decoded
// straight from body into scratch's array, or a larger one, and set as
// req.upload with TraceB64 left empty. Any other trace_b64, and any body
// the decoder refuses, is decoded as a whole as the reference would, so
// /v1/score meets its base64 error, or the decoder's, as before.
func decodeRequest(req *Request, body []byte, readErr error, scratch []byte) error {
	if readErr == nil {
		if start, end, ok := traceMember(body); ok && decodeUpload(req, body, start, end, scratch) {
			return nil
		}
		*req = Request{}
	}
	var r io.Reader = bytes.NewReader(body)
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// errReader replays the error that ended a body read, after its bytes.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeUpload decodes body, whose trace_b64 string is body[start:end],
// into req, the string into req.upload. It reports false, leaving req to
// be reset, when the decoder refuses the rest of the body or the string
// is not valid base64.
func decodeUpload(req *Request, body []byte, start, end int, scratch []byte) bool {
	// The rest of the body goes to the decoder with the string replaced
	// by "", which keeps its structure: the string itself is checked here.
	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(body[:start]), strings.NewReader(`""`), bytes.NewReader(body[end:])))
	dec.DisallowUnknownFields()
	if dec.Decode(req) != nil {
		return false
	}
	src := body[start+1 : end-1]
	if len(src) == 0 {
		return true // an empty trace_b64 is no upload
	}
	// Bytes base64 accepts are their own JSON string, except CR and LF,
	// which base64 skips and JSON refuses unescaped. Anything else — an
	// escape, a control byte, non-ASCII — goes through encoding/json's
	// unquoting first.
	up, err := decodeB64(scratch, src)
	if err != nil || bytes.IndexByte(src, '\n') >= 0 || bytes.IndexByte(src, '\r') >= 0 {
		var s string
		if json.Unmarshal(body[start:end], &s) != nil {
			return false
		}
		if up, err = decodeB64(scratch, []byte(s)); err != nil {
			return false
		}
	}
	req.upload = up
	return true
}

// decodeB64 decodes src into dst's array, or a larger one when it is too
// small. The result is never nil.
func decodeB64(dst, src []byte) ([]byte, error) {
	n := base64.StdEncoding.DecodedLen(len(src))
	if dst == nil || cap(dst) < n {
		dst = make([]byte, n)
	}
	n, err := base64.StdEncoding.Decode(dst[:n], src)
	return dst[:n], err
}

// traceMember finds the trace_b64 member of the JSON object at the start
// of body and returns the span of its value. encoding/json matches a key
// to a field after unescaping it and up to case, and the last of several
// matches wins, so traceMember returns the last top-level key that
// matches; it reports ok only when that key's value is a string, in an
// object it could skim to its closing brace. The skim checks only the
// structure it needs — quotes, escapes, nesting and separators — and so
// finds the same members as the decoder in any body the decoder accepts.
// Earlier matches stay in the body the decoder reads, which overwrites
// them with the "" that replaces the last.
func traceMember(body []byte) (start, end int, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return 0, 0, false
	}
	var found bool
	for i = skipSpace(body, i+1); i < len(body) && body[i] != '}'; {
		k := i
		if i = skipValue(body, i); i < 0 || body[k] != '"' {
			return 0, 0, false
		}
		key := body[k:i]
		if i = skipSpace(body, i); i == len(body) || body[i] != ':' {
			return 0, 0, false
		}
		v := skipSpace(body, i+1)
		if i = skipValue(body, v); i < 0 {
			return 0, 0, false
		}
		if isTraceKey(key) {
			start, end, found = v, i, body[v] == '"'
		}
		if i = skipSpace(body, i); i < len(body) && body[i] == ',' {
			i = skipSpace(body, i+1)
		}
	}
	return start, end, found && i < len(body)
}

// isTraceKey reports whether the quoted key names the trace_b64 field as
// encoding/json matches names. Its case folding differs from
// strings.EqualFold only at runes that fold to I, K or S, none of which
// the name has.
func isTraceKey(quoted []byte) bool {
	const name = "trace_b64"
	raw := quoted[1 : len(quoted)-1]
	if bytes.IndexByte(raw, '\\') < 0 {
		return len(raw) == len(name) && strings.EqualFold(string(raw), name)
	}
	var key string
	return json.Unmarshal(quoted, &key) == nil && strings.EqualFold(key, name)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the offset just past the JSON value starting at
// b[i], or -1 when b ends first.
func skipValue(b []byte, i int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		for i++; ; {
			q := bytes.IndexByte(b[i:], '"')
			if q < 0 {
				return -1
			}
			// The quote ends the string unless an odd run of
			// backslashes escapes it.
			j := i + q
			bs := 0
			for j-bs > i && b[j-bs-1] == '\\' {
				bs++
			}
			if bs%2 == 0 {
				return j + 1
			}
			i = j + 1
		}
	case '{', '[':
		for depth := 0; i < len(b); i++ {
			switch b[i] {
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			case '"':
				j := skipValue(b, i)
				if j < 0 {
					return -1
				}
				i = j - 1
			}
		}
		return -1
	}
	// A number or a literal runs to the next delimiter.
	j := i
	for j < len(b) && !isDelim(b[j]) {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

func isDelim(c byte) bool {
	switch c {
	case ',', ':', '}', ']', '{', '[', '"', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}
