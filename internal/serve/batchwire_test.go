package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
)

// columnarBody is the body shape every client writes, with one hook for
// a variation: where is spliced in as the value of "steps".
func columnarBody(steps string) string {
	return `{"scheme":"khan2023","compressor":"sz3","options":{"pressio:abs":0.001},"dims":[8,8,8],"fields":["P","TC"],"steps":` + steps + `}`
}

// decodeCases are bodies on both sides of every line the scanner draws:
// what it accepts, what it must decline although encoding/json accepts
// it, and what both refuse. The fuzz target starts from the same list.
func decodeCases() []string {
	valid := columnarBody("[0,1]")
	cases := []string{
		valid,
		" \t\r\n" + strings.NewReplacer(",", " ,\n", ":", " :\t", "[", "[ ", "]", " ]", "{", "{ ", "}", " }").Replace(valid) + " \n",
		`{"steps":[0,1],"fields":["P","TC"],"dims":[8,8,8],"compressor":"sz3","scheme":"khan2023"}`, // key order
		`{"scheme":"khan2023","compressor":"sz3","features":[3.5,7.25,-0,1e3,1E-2,0.5e+1]}`,
		`{"scheme":"khan2023","compressor":"sz3","alpha":0.1,"features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","alpha":1e999,"features":[1]}`, // out of range
		`{"scheme":"khan2023","compressor":"sz3","features":[1,2]}{"scheme":"khan2023"}`,
		`{}`, `{ }`, ``, ` `, `[]`, `null`, `{"scheme":"khan2023"`, `{"scheme":"khan2023",}`, `{,}`,
		`{"scheme":"khan2023","compressor":"sz3","fields":[],"steps":[]}`, // empty arrays
		`{"scheme":"khan2023","compressor":"sz3","dims":[],"features":[]}`,
		`{"scheme":"khan2023","compressor":"sz3","options":{},"features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","options":{"a":{"b":[1,"}",{"c":"\"]"}]}},"features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","options":{"pressio:abs":01},"features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","options":{"pressio:abs":1e-3,"pressio:abs":1e-2},"features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","options":[1],"features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","options":` + strings.Repeat(`{"a":`, 40) + `1` + strings.Repeat(`}`, 40) + `,"features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","options":{"a":"éé\ud800"},"features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","features":[1],"scheme":"rahman2023"}`, // duplicate key
		`{"scheme":"khan2023","compressor":"sz3","features":[1],"features":[2]}`,
		`{"scheme":"khan2023","compressor":"sz3","features":[1],"Scheme":"rahman2023"}`, // folds onto scheme
		`{"scheme":"khan2023","compressor":"sz3","features":[1],"extra":{"x":[1,2]}}`,   // unknown key
		`{"scheme":"khan2023","compressor":"sz3","features":[1],"":0}`,
		`{"scheme":"khan2023","compressor":"sz3","fields":["\u0050","TC"],"steps":[0,1],"dims":[8,8,8]}`, // escaped
		`{"sch\u0065me":"khan2023","compressor":"sz3","features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","fields":["P\"","TC"],"steps":[0,1],"dims":[8,8,8]}`,
		`{"scheme":"khan2023","compressor":"sz3","fields":["P","TC"],"steps":[0,1],"dims":[8,8,8]}`,
		`{"scheme":"khan2023","compressor":"sz3","fields":["P","TÇ"],"steps":[0,1],"dims":[8,8,8]}`, // non-ASCII
		"{\"scheme\":\"khan2023\",\"compressor\":\"sz3\",\"fields\":[\"P\",\"T\xffC\"],\"steps\":[0,1],\"dims\":[8,8,8]}",
		"{\"scheme\":\"khan2023\",\"compressor\":\"sz3\",\"fields\":[\"P\",\"T\nC\"],\"steps\":[0,1],\"dims\":[8,8,8]}",
		"{\"scheme\":\"khan2023\",\"compressor\":\"sz3\",\"fields\":[\"P\",\"T\x7fC\"],\"steps\":[0,1],\"dims\":[8,8,8]}",
		`{"scheme":null,"compressor":"sz3","features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","features":null}`,
		`{"scheme":"khan2023","compressor":"sz3","options":null,"features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","alpha":null,"features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","features":[1,null]}`,
		`{"scheme":"khan2023","compressor":"sz3","fields":["P",null],"steps":[0,1]}`,
		`{"scheme":5,"compressor":"sz3","features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","features":["1"]}`,
		`{"scheme":"khan2023","compressor":"sz3","features":[true]}`,
		`{"scheme":"khan2023","compressor":"sz3","features":1}`,
		`{"scheme":"khan2023","compressor":"sz3","features":[1 2]}`,
		`{"scheme":"khan2023","compressor":"sz3","features":[1,]}`,
		`{"scheme":"khan2023","compressor":"sz3","features":[,1]}`,
		`{"scheme":"khan2023","compressor":"sz3","features":[1]]`,
		`{"scheme":"khan2023" "compressor":"sz3","features":[1]}`,
		`{"scheme":"khan2023","compressor":"sz3","features":[1]} x`,
		`{"scheme":"khan2023","compressor":"sz3","dims":[8,8,8.0],"fields":["P"],"steps":[0]}`,
		`{"scheme":"khan2023","compressor":"sz3","dims":[8,8],"fields":["P"],"steps":[0]}`,
		plainRepeats, escapedRepeats, pastTheInternCap(),
	}
	for _, steps := range []string{
		`[1e3,0]`, `[-0,1]`, `[1.0,0]`, `[0,1.5]`, `[01,0]`, `[-01,0]`, `[00,1]`, `[-,0]`, `[+1,0]`, `[.5,0]`, `[1.,0]`, `[1e,0]`, `[1e+,0]`, `[0x1,0]`,
		`[-1,0]`, `[999999999999999999,0]`, `[9223372036854775807,0]`, `[9223372036854775808,0]`, `[-9223372036854775808,0]`,
		`[123456789012345678901234567890,0]`, `[0,1`, `[0,1,2]`, `[0]`, `[]`, `["0","1"]`, `[[0],[1]]`, `{"0":1}`, `0`,
	} {
		cases = append(cases, columnarBody(steps))
	}
	for _, num := range []string{`-`, `-0`, `0.0`, `-0.0e-0`, `1E+2`, `00`, `1.e1`, `1e1.5`, `Infinity`, `NaN`, `1_000`, `0b1`, `1e`, `--1`} {
		cases = append(cases, `{"scheme":"khan2023","compressor":"sz3","alpha":`+num+`,"features":[`+num+`]}`)
	}
	for cut := 1; cut < len(valid); cut += 7 { // truncated bodies
		cases = append(cases, valid[:cut])
	}
	// the cap: the same body padded to one byte under, at, and over 1 MiB
	for _, size := range []int{maxBodyBytes - 1, maxBodyBytes, maxBodyBytes + 1} {
		cases = append(cases, valid+strings.Repeat(" ", size-len(valid)))
	}
	cases = append(cases, `{"scheme":"khan2023","pad":"`+strings.Repeat("x", maxBodyBytes)+`"}`)
	return cases
}

// batchReplies posts one body to the batch endpoint twice over: decoded
// by encoding/json alone, as the handler read every body before the
// scanner — and through the handler. The cells the body names are warm
// by the time either answers, so the two replies may differ in nothing.
func batchReplies(s *Server, body []byte) (ref, got *httptest.ResponseRecorder) {
	reference := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(body))
		sc := new(batchScratch)
		if status, err := decodeJSON(w, r, &sc.req); err != nil {
			writeError(w, status, "%v", err)
		} else {
			sc.internFields() // the ids the item loop finds rows by
			s.runBatch(w, r, sc)
		}
		return w
	}
	reference()
	got = httptest.NewRecorder()
	s.Handler().ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(body)))
	return reference(), got
}

// serveOn answers body as handlePredictBatch does, on the scratch sc
// rather than one from the pool.
func serveOn(s *Server, sc *batchScratch, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(body))
	if status, err := sc.decode(w, r); err != nil {
		writeError(w, status, "%v", err)
	} else {
		s.runBatch(w, r, sc)
	}
	return w
}

// checkDecode holds one body to the decoder's contract: the scanner
// declines it, or fills exactly the request encoding/json decodes from
// it; and either way the handler answers with the status and the body it
// would have answered with before there was a scanner — through a fresh
// scratch, and through long, the one scratch every body of the caller
// is decoded on, as the pool hands one request's scratch to the next.
func checkDecode(t *testing.T, s *Server, long *batchScratch, body []byte) (accepted bool) {
	t.Helper()
	label := string(body)
	if len(label) > 200 {
		label = fmt.Sprintf("%s… (%d bytes)", label[:200], len(body))
	}
	sc := new(batchScratch)
	sc.body.Write(body)
	accepted = sc.scan()
	var want BatchRequest
	_, err := decodeJSONFrom(bytes.NewReader(body), &want)
	if accepted && err != nil {
		t.Errorf("%s\nthe scanner accepted a body encoding/json refuses: %v", label, err)
	} else if accepted && !reflect.DeepEqual(sc.req, want) {
		t.Errorf("%s\nscanner     %+v\nencoding/json %+v", label, sc.req, want)
	}
	ref, got := batchReplies(s, body)
	if got.Code != ref.Code || !bytes.Equal(got.Body.Bytes(), ref.Body.Bytes()) {
		t.Errorf("%s\nhandler            %d %s\nencoding/json alone %d %s", label, got.Code, got.Body, ref.Code, ref.Body)
	}
	if got := serveOn(s, long, body); got.Code != ref.Code || !bytes.Equal(got.Body.Bytes(), ref.Body.Bytes()) {
		t.Errorf("%s\none long-lived scratch %d %s\nencoding/json alone    %d %s", label, got.Code, got.Body, ref.Code, ref.Body)
	}
	return accepted
}

// TestScanMatchesEncodingJSON is the differential test of the batch
// decoder over decodeCases, and pins which side of the line the bodies
// that matter fall on: a client's ordinary body must take the scanner
// (or serve_hot pays for encoding/json again), and a body only
// encoding/json reads correctly must not.
func TestScanMatchesEncodingJSON(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	scanned, long := map[string]bool{}, new(batchScratch)
	for _, body := range decodeCases() {
		scanned[body] = checkDecode(t, s, long, []byte(body))
	}
	for body, want := range map[string]bool{
		columnarBody("[0,1]"):  true,
		columnarBody("[-0,1]"): true,
		columnarBody("[]"):     true,
		`{}`:                   true,
		`{"scheme":"khan2023","compressor":"sz3","features":[3.5,7.25,-0,1e3,1E-2,0.5e+1]}`: true,
		columnarBody("[01,0]"):  false,
		columnarBody("[1e3,0]"): false, // encoding/json's error to give
		columnarBody("[1.0,0]"): false,
		`{"scheme":"khan2023","compressor":"sz3","features":[1],"Scheme":"rahman2023"}`:                  false,
		`{"scheme":"khan2023","compressor":"sz3","fields":["\u0050","TC"],"steps":[0,1],"dims":[8,8,8]}`: false,
		`{"scheme":"khan2023","compressor":"sz3","fields":["P","TÇ"],"steps":[0,1],"dims":[8,8,8]}`:      false,
	} {
		if got, ok := scanned[body]; !ok || got != want {
			t.Errorf("%s\nscanned = %v (in the table: %v), want %v", body, got, ok, want)
		}
	}
}

// FuzzDecodeBatch is the same differential check over whatever bodies the
// fuzzer finds. Its seed corpus is decodeCases, so plain `go test` runs
// every one of them through it.
func FuzzDecodeBatch(f *testing.F) {
	for _, body := range decodeCases() {
		if len(body) < 4096 { // the cap's cases stay in the table
			f.Add([]byte(body))
		}
	}
	s, _ := newTestServer(f, Config{Deadline: 5 * time.Second})
	long := new(batchScratch)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, s, long, body)
	})
}

// plainRepeats and escapedRepeats are one batch written two ways: TC at
// step 0 three times, written plainly, or twice with its T as a JSON
// escape (backslash, u0054) beside a plain "TC" — a body only
// encoding/json reads. (A one-byte name would not do: Go shares the
// storage of every one-byte string, interned or not.)
const (
	plainRepeats   = `{"scheme":"khan2023","compressor":"sz3","dims":[8,8,8],"fields":["TC","TC","P","TC"],"steps":[0,0,1,0]}`
	escapedTC      = `"\` + `u0054C"`
	escapedRepeats = `{"scheme":"khan2023","compressor":"sz3","dims":[8,8,8],"fields":[` + escapedTC + `,"TC","P",` + escapedTC + `],"steps":[0,0,1,0]}`
)

// TestEscapedRepeatsAreOneCell: a cell whose name a body writes both
// escaped and plainly is one cell — the reply's bytes and the /statz
// counts are those of the body that writes it plainly each time.
func TestEscapedRepeatsAreOneCell(t *testing.T) {
	type outcome struct {
		reply                     string
		hits, misses, predictions uint64
	}
	post := func(body string) outcome {
		_, ts := newTestServer(t, Config{})
		resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", json.RawMessage(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d %s", body, resp.StatusCode, raw)
		}
		st := statz(t, ts.URL)
		return outcome{string(raw), st.CacheHits, st.CacheMisses, st.BatchPreds}
	}
	plain, escaped := post(plainRepeats), post(escapedRepeats)
	if plain != escaped {
		t.Errorf("one batch, two spellings:\nplain   %+v\nescaped %+v", plain, escaped)
	}
	if plain.hits != 2 || plain.misses != 2 || plain.predictions != 4 {
		t.Errorf("want 2 hits + 2 misses over 4 items, got %+v", plain)
	}
	for body, want := range map[string]bool{plainRepeats: true, escapedRepeats: false} {
		sc := new(batchScratch)
		sc.body.WriteString(body)
		if sc.scan() != want {
			t.Errorf("%s: scanned = %v, want %v", body, !want, want)
		}
		// either decoder interns the names: the three TC items share one string
		sc = new(batchScratch)
		if _, err := sc.decode(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/predict/batch", strings.NewReader(body))); err != nil {
			t.Fatal(err)
		}
		if f := sc.req.Fields; unsafe.StringData(f[0]) != unsafe.StringData(f[1]) || unsafe.StringData(f[0]) != unsafe.StringData(f[3]) {
			t.Errorf("%s: decoded %q without interning its repeated name", body, f)
		}
	}
}

// pastTheInternCap is a batch naming more distinct unknown fields than
// the scratch interns, repeating the ones past the cap, and two names
// longer than an interned name may be that differ in their last byte —
// under 4 KiB, so the fuzz target seeds with it too.
func pastTheInternCap() string {
	var fields []string
	for i := 0; i < maxInterned+44; i++ {
		fields = append(fields, strconv.FormatInt(int64(i), 16))
	}
	long := strings.Repeat("N", maxInterned)
	fields = append(append(fields, fields[maxInterned:]...), long+"A", long+"B", long+"A")
	return `{"scheme":"khan2023","compressor":"sz3","dims":[8,8,8],"fields":["` + strings.Join(fields, `","`) +
		`"],"steps":[0` + strings.Repeat(",0", len(fields)-1) + `]}`
}

// TestBatchNamesPastTheInternCap: names the scratch cannot intern are
// still each their own cell — every item of pastTheInternCap fails with
// the error that names its own field.
func TestBatchNamesPastTheInternCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := pastTheInternCap()
	var req BatchRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", json.RawMessage(body))
		var out BatchResponse
		if err := json.Unmarshal(raw, &out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d body %.200q: %v", resp.StatusCode, raw, err)
		}
		if out.Errors != len(req.Fields) {
			t.Errorf("pass %d: %d errors over %d unknown fields", pass, out.Errors, len(req.Fields))
		}
		for i, r := range out.Results {
			if !strings.Contains(r.Error, strconv.Quote(req.Fields[i])) {
				t.Fatalf("pass %d item %d (%.12s…): error %.80q does not name its field", pass, i, req.Fields[i], r.Error)
			}
		}
	}
}

// TestBatchRowsDoNotOutliveTheirBatch: the distinct-cell table a batch
// filled is empty when the scratch's next batch starts, though the intern
// table restarted in between and handed the same names other ids. On one
// scratch, a batch resolves two cells, fails a third and fills the intern
// table; the next names those cells in another order, so its names get
// ids whose rows the first batch set. Its reply is the one the
// encoding/json-only handler gives.
func TestBatchRowsDoNotOutliveTheirBatch(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	fields, steps := []string{"P", "TC", "NOPE"}, []int{0, 1, 0}
	for i := 0; len(fields) < maxInterned+44; i++ {
		fields, steps = append(fields, fmt.Sprintf("X%03d", i)), append(steps, 0)
	}
	sc := new(batchScratch)
	if w := serveOn(s, sc, []byte(batchBody(fields, steps))); w.Code != http.StatusOK {
		t.Fatalf("first batch: %d %s", w.Code, w.Body)
	}
	if len(sc.table.names) != maxInterned {
		t.Fatalf("the first batch interned %d names, want a full table of %d", len(sc.table.names), maxInterned)
	}
	second := []byte(batchBody([]string{"NOPE", "TC", "P", "TC", "NOPE", "P"}, []int{0, 1, 0, 1, 0, 0}))
	got := serveOn(s, sc, second)
	if len(sc.table.names) >= maxInterned {
		t.Fatalf("the intern table did not start over: %d names", len(sc.table.names))
	}
	ref, _ := batchReplies(s, second)
	if got.Code != ref.Code || !bytes.Equal(got.Body.Bytes(), ref.Body.Bytes()) {
		t.Errorf("second batch on the scratch\n got %d %s\nwant %d %s", got.Code, got.Body, ref.Code, ref.Body)
	}
}

// TestScanReusesItsScratch: a pooled scratch decodes one body after
// another into the same storage — the second request must not see the
// first's items, options or names, and a warm decode allocates only what
// the options sub-value costs encoding/json.
func TestScanReusesItsScratch(t *testing.T) {
	sc := new(batchScratch)
	decode := func(body string) BatchRequest {
		t.Helper()
		sc.reset()
		sc.body.Reset()
		sc.body.WriteString(body)
		if !sc.scan() {
			t.Fatalf("declined %s", body)
		}
		return sc.req
	}
	decode(`{"scheme":"rahman2023","compressor":"zfp","options":{"a":1,"b":2},"alpha":0.5,"dims":[4,4,4],"fields":["U","V","W"],"steps":[7,8,9],"features":[1,2]}`)
	got := decode(columnarBody("[0,1]"))
	var want BatchRequest
	if err := json.Unmarshal([]byte(columnarBody("[0,1]")), &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Features) == 0 {
		got.Features = nil // reset keeps the capacity: empty where a fresh request has none
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("second decode into one scratch\n got %+v\nwant %+v", got, want)
	}
	fields := strings.Repeat(`"P","TC","QVAPOR",`, 1000) + `"P"`
	steps := strings.Repeat(`1,22,333,`, 1000) + `0`
	big := `{"scheme":"khan2023","compressor":"sz3","dims":[8,8,8],"fields":[` + fields + `],"steps":[` + steps + `]}`
	decode(big)
	if allocs := testing.AllocsPerRun(10, func() { sc.reset(); sc.scan() }); allocs != 0 {
		t.Errorf("warm decode of 3001 items: %v allocs, want 0", allocs)
	}
}

// TestFallbackForgetsThePreviousRequest: a body the scanner declines is
// decoded by encoding/json into the scratch's reused slices, and
// encoding/json leaves a null element as it finds it — so what it finds
// must be zero. Each column's null reads as encoding/json alone reads
// it, not as the value the scratch's previous request put there.
func TestFallbackForgetsThePreviousRequest(t *testing.T) {
	const (
		first  = `{"scheme":"khan2023","compressor":"sz3","dims":[4,5,6],"fields":["P","TC"],"steps":[3,7],"features":[1.5,2.5]}`
		second = `{"scheme":"khan2023","compressor":"sz3","dims":[8,null,8],"fields":["P",null],"steps":[0,null],"features":[1,null]}`
	)
	sc := new(batchScratch)
	for _, body := range []string{first, second} {
		if _, err := sc.decode(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/predict/batch", strings.NewReader(body))); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
	}
	var want BatchRequest
	if err := json.Unmarshal([]byte(second), &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.req, want) {
		t.Errorf("%s after %s\n got %+v\nwant %+v", second, first, sc.req, want)
	}
}

// TestAppendItemMatchesEncodingJSON: the item encoder writes what
// json.Marshal writes, for every float format encoding/json switches
// between and every string it escapes.
func TestAppendItemMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 100, 123456789.125, 1e20, 1e21, 1.5e21, 1e22, 1e-6, 9.99e-7, 1e-7, 1.5e-9,
		1e-10, -1e-10, 1e100, 1e-100, 5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3, 2.0 / 3, 1e6, 123456.7}
	rng := rand.New(rand.NewSource(21))
	for len(floats) < 4000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f, float64(float32(f)), math.Round(f))
		}
		floats = append(floats, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	var items []BatchItemResult
	for i, f := range floats {
		if math.IsInf(f, 0) {
			continue
		}
		items = append(items, BatchItemResult{Prediction: f, Cached: i%2 == 0})
		items = append(items, BatchItemResult{Prediction: f, Interval: []float64{f / 2, f}})
	}
	for _, e := range []string{"x", "core: no field \"NOPE\" (have [P TC])", `back\slash`, "<script>&amp;</script>", "tab\there", "nl\nthere", "\x00\x1f\x7f",
		"é", "  ", "bad utf8 \xff\xfe", strings.Repeat("long ", 100)} {
		items = append(items, BatchItemResult{Error: e}, BatchItemResult{Prediction: 2.5, Interval: []float64{}, Cached: true, Error: e})
	}
	for _, it := range items {
		want, err := json.Marshal(it)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendItem(nil, &it); !bytes.Equal(got, want) {
			t.Fatalf("%+v\nappendItem    %s\nencoding/json %s", it, got, want)
		}
	}
	// a whole response, envelope and newline included
	for _, resp := range []BatchResponse{
		{Scheme: "khan2023", Compressor: "sz3", Target: "size:compression_ratio", Count: len(items), Errors: 22, Results: items},
		{Scheme: "a<b", Compressor: "c\"d", Target: "é", Model: "model/0123abcd", Count: 1, Results: items[:1]},
		{Results: []BatchItemResult{}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendBatchResponse(nil, &resp); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("response %s/%s: appendBatchResponse differs from json.Encoder", resp.Scheme, resp.Compressor)
		}
	}
}

// brokenScheme is khan2023 with a predictor whose arithmetic fails the
// way a trained model's can: the feature row picks which number comes
// out not finite.
type brokenScheme struct{ core.Scheme }

func (brokenScheme) Name() string { return "broken-arithmetic" }
func (b brokenScheme) NewPredictor(compressor string) (core.Predictor, error) {
	p, err := b.Scheme.NewPredictor(compressor)
	return brokenPredictor{p}, err
}

type brokenPredictor struct{ core.Predictor }

func (brokenPredictor) Predict(features []float64) (float64, error) {
	switch f := features[0]; {
	case f < 0:
		return math.NaN(), nil
	case f == 0:
		return math.Inf(1), nil
	default:
		return f, nil
	}
}

func (p brokenPredictor) PredictInterval(features []float64, alpha float64) (pred, lo, hi float64, err error) {
	if features[0] > 100 {
		return features[0], features[0] - 1, math.Inf(1), nil
	}
	pred, err = p.Predict(features)
	return pred, pred - 1, pred + 1, err
}

func init() {
	core.RegisterScheme("broken-arithmetic", func() core.Scheme {
		khan, err := core.GetScheme("khan2023")
		if err != nil {
			panic(err)
		}
		return brokenScheme{khan}
	})
}

// TestNonFinitePredictionIsTheItemsError: a prediction or interval bound
// that JSON cannot carry fails its own item — counted in errors, never
// cached, the rest of the batch and the reply's JSON intact — where
// encoding/json, refusing it after the 200 was out, blanked the body.
func TestNonFinitePredictionIsTheItemsError(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// the row's outcome, and the encoder on it
	scheme, err := core.GetScheme("broken-arithmetic")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		alpha, feature float64
		fails          bool
	}{{0, 2, false}, {0, -1, true}, {0, 0, true}, {0.1, 2, false}, {0.1, -1, true}, {0.1, 0, true}, {0.1, 101, true}} {
		g := newBatchGroup("broken-arithmetic", "sz3", scheme, nil, nil, tc.alpha, []int{8, 8, 8})
		var out BatchItemResult
		s.predictFeatureRow(g, []float64{tc.feature}, &out)
		if failed := out.Error != ""; failed != tc.fails {
			t.Errorf("alpha %v feature %v: %+v, want failed=%v", tc.alpha, tc.feature, out, tc.fails)
		}
		if tc.fails && (out.Prediction != 0 || out.Interval != nil || !strings.Contains(out.Error, "not a finite number")) {
			t.Errorf("alpha %v feature %v: a failed item carries no number and says why, got %+v", tc.alpha, tc.feature, out)
		}
		want, err := json.Marshal(out)
		if got := appendItem(nil, &out); err != nil || !bytes.Equal(got, want) {
			t.Errorf("alpha %v feature %v: appendItem %s, encoding/json %s (%v)", tc.alpha, tc.feature, got, want, err)
		}
	}

	// through the handler, batch and single
	for pass := 0; pass < 2; pass++ {
		resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{
			Scheme: "broken-arithmetic", Compressor: "sz3", Features: []float64{2, -1, 0, 3},
		})
		var out BatchResponse
		if err := json.Unmarshal(raw, &out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("pass %d: status %d body %q: %v", pass, resp.StatusCode, raw, err)
		}
		if out.Count != 4 || out.Errors != 2 || len(out.Results) != 4 {
			t.Fatalf("pass %d: want 4 items, 2 failed: %s", pass, raw)
		}
		for i, r := range out.Results {
			if failed := i == 1 || i == 2; failed != (r.Error != "") || (!failed && r.Prediction != []float64{2, 0, 0, 3}[i]) {
				t.Errorf("pass %d item %d: %+v", pass, i, r)
			}
		}
	}
	for feature, want := range map[float64]int{2: http.StatusOK, -1: http.StatusBadRequest, 0: http.StatusBadRequest} {
		for pass := 0; pass < 2; pass++ {
			resp, raw := postJSON(t, ts.URL+"/v1/predict", PredictRequest{Scheme: "broken-arithmetic", Compressor: "sz3", Features: []float64{feature}})
			var body struct {
				Cached bool   `json:"cached"`
				Error  string `json:"error"`
			}
			if err := json.Unmarshal(raw, &body); err != nil || resp.StatusCode != want || (want == http.StatusOK) != (body.Error == "") {
				t.Errorf("single predict of feature %v, pass %d: %d %q (%v), want %d", feature, pass, resp.StatusCode, raw, err, want)
			}
			if body.Cached != (want == http.StatusOK && pass == 1) {
				t.Errorf("single predict of feature %v, pass %d: cached=%v", feature, pass, body.Cached)
			}
		}
	}
	if n := s.cache.len(); n != 1 {
		t.Errorf("%d cache entries, want the one finite single", n)
	}
}

// TestBatchReplyIsEncodingJSONsBytes: the reply the handler assembles
// from cached fragments and freshly encoded items is, byte for byte, the
// BatchResponse encoding/json writes — on a pass that mixes hits, first
// computations, a repeated cell, a failed item, intervals and a trained
// model's key, and on the all-hit pass after it.
func TestBatchReplyIsEncodingJSONsBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("fits a model over real compressor runs")
	}
	_, ts := newTestServer(t, Config{Deadline: time.Minute})
	resp, body := postJSON(t, ts.URL+"/v1/fit", FitRequest{
		Scheme: "ganguli2023", Compressor: "sz3",
		Training: TrainingSpec{Fields: []string{"P"}, Steps: 4, Dims: []int{8, 8, 8}, Bounds: []float64{1e-4, 1e-3, 1e-2}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit: %d %s", resp.StatusCode, body)
	}
	var fr FitResponse
	json.Unmarshal(body, &fr)
	if job := waitJob(t, ts.URL, fr.JobID); job.Status != "done" {
		t.Fatalf("fit failed: %s", job.Error)
	}
	post := func(fields []string, steps []int) ([]byte, BatchResponse) {
		t.Helper()
		resp, raw := postJSON(t, ts.URL+"/v1/predict/batch", BatchRequest{
			Scheme: "ganguli2023", Compressor: "sz3", Dims: []int{8, 8, 8}, Alpha: 0.1,
			Options: map[string]any{"pressio:abs": 1e-3}, Fields: fields, Steps: steps,
		})
		var out BatchResponse
		if err := json.Unmarshal(raw, &out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d body %q: %v", resp.StatusCode, raw, err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want.Bytes()) {
			t.Errorf("reply is not encoding/json's encoding of its own results\n got %s\nwant %s", raw, want.Bytes())
		}
		return raw, out
	}
	post([]string{"P", "P"}, []int{0, 1}) // two cells resident before the mixed batch

	fields, steps := []string{"P", "P", "P", "NOPE", "P", "TC"}, []int{0, 1, 2, 0, 2, 3}
	for pass, cached := range [][]bool{{true, true, false, false, true, false}, {true, true, true, false, true, true}} {
		raw, out := post(fields, steps)
		if out.Model == "" || out.Count != 6 || out.Errors != 1 || !bytes.HasSuffix(raw, []byte("]}\n")) {
			t.Fatalf("pass %d: %s", pass, raw)
		}
		for i, r := range out.Results {
			if failed := fields[i] == "NOPE"; failed != (r.Error != "") || r.Cached != cached[i] || (!failed && len(r.Interval) != 2) {
				t.Errorf("pass %d item %d (%s t%d): %+v, want cached=%v", pass, i, fields[i], steps[i], r, cached[i])
			}
		}
		if out.Results[2].Prediction != out.Results[4].Prediction {
			t.Errorf("pass %d: one cell, two answers: %+v / %+v", pass, out.Results[2], out.Results[4])
		}
	}
}
